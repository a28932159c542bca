#!/usr/bin/env python3
"""Seeded, self-checking benchmark of the ``tempokatz`` command line.

Run from the root of a source checkout:

    python3 perfbench/run.py                          # every workload, 60 s each
    python3 perfbench/run.py --workload long-horizon --seed 3 --seconds 60 --trace 0

For each workload it generates seeded edge-list files, then runs closed-loop
rounds of queries within ``--seconds``: one query at a time, each a fresh
``tempokatz`` process on the checkout's ``src`` with default settings.  Every
output is checked against the independent referee in ``referee.py``.  With
``--trace 0`` it reports the end-to-end metrics (median process wall time per
query, scaled to reference speed, and peak RSS); with ``--trace 1`` it instead times calls into each
module's public functions in-process (``layers.py``).  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Generated inputs and span files live in ``.perfbench/`` at the root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import scipy

import layers
import referee
from workloads import ALPHA_FRACTION, QUERIES, WORKLOADS, networks

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

# the same call the installed `tempokatz` console script makes
ENTRY = "import sys; from tempokatz.cli import main; sys.exit(main())"

# A reference process that runs no tempokatz code: importing the program's
# dependencies, which is most of what every query pays.  The speed of a
# 2-vCPU host shared with other machines shifts by 10-40% for tens of
# seconds at a time, moving every process alike, so each timing is reported
# at reference speed: the median over rounds of the query's wall time over
# the mean wall time of the reference processes of its round, times
# REFERENCE_S, the reference's median wall time in twenty runs on the
# machine of the README's figures, so that a metric reads as seconds at that
# speed.
REFERENCE = "import numpy, scipy.sparse.linalg"
REFERENCE_S = 0.435
REFERENCE_EVERY = 5  # queries; twice per round of nine


def child_env():
    """The program's default settings: TEMPO_KATZ_THREADS unset (one thread
    per CPU); only the checkout's ``src`` is put on the import path."""
    env = {k: v for k, v in os.environ.items() if k != "TEMPO_KATZ_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_process(argv, env, workdir):
    """Run one process to its end: (wall s, peak RSS MB, exit code, stdout, stderr)."""
    with tempfile.TemporaryFile(dir=workdir) as out, tempfile.TemporaryFile(dir=workdir) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return (
            wall, usage.ru_maxrss / 1024, proc.returncode,
            out.read().decode(), err.read().decode(),
        )


class Plan:
    """A workload's networks, files, alphas and the referee's expectations."""

    def __init__(self, workload, seed, workdir):
        self.workload = workload
        self.nets = networks(workload, seed)
        self.paths, self.bounds, self.alpha = {}, {}, {}
        for role, net in self.nets.items():
            path = workdir / f"{role}.txt"
            path.write_text(net.to_edgelist())
            self.paths[role] = str(path)
            self.bounds[role] = referee.alpha_bounds(net)
            # ell from our own eigenvalues, never from the program's check-alpha
            self.alpha[role] = ALPHA_FRACTION * self.bounds[role][1]
        self.queries = [(q, workload.role(q.metric)) for q in QUERIES]
        self._expected = {}

    def expected(self, query, role):
        """Centralities the rank query must print, from the walk rules."""
        key = (query, role)
        if key not in self._expected:
            net, alpha = self.nets[role], self.alpha[role]
            measure = (
                referee.total_communicability if query.measure == "tc"
                else referee.subgraph_centrality
            )
            wants = [measure(net, alpha, query.function, query.mode)]
            if query.function == "katz" and query.mode == "standard":
                tc, sc = referee.katz_product(net, alpha)
                wants.append(tc if query.measure == "tc" else sc)
            self._expected[key] = wants
        return self._expected[key]

    def check(self, query, role, text):
        net = self.nets[role]
        if query.command == "validate":
            referee.check_validate(text, net)
        elif query.command == "check-alpha":
            referee.check_alpha_output(text, self.bounds[role], query.mode)
        else:
            got = referee.parse_ranking(text, net.n)
            for want in self.expected(query, role):
                referee.check_values(got, want, f"{query.metric} on {role}")

    def describe(self):
        for role, net in self.nets.items():
            m_t = sorted({len(s) for s in net.snapshots})
            yield (
                f"network {role}: n={net.n} N={net.N} m={net.m} m_t={m_t} "
                f"alpha={self.alpha[role]:.6g} ({ALPHA_FRACTION} ell)"
            )


def rounds(seconds):
    """Schedule of whole rounds within ``seconds``: the first round always
    runs, and another starts only if one as long as the longest so far still
    ends in time."""
    start = time.perf_counter()
    longest = 0.0
    while True:
        round_start = time.perf_counter()
        yield
        now = time.perf_counter()
        longest = max(longest, now - round_start)
        if now + longest - start > seconds:
            return


def end_to_end(plan, seconds, workdir):
    """Closed-loop rounds of every query, one fresh process at a time."""
    env = child_env()
    walls = {q.metric: {"ok": [], "failed": []} for q, _ in plan.queries}
    peak_rss = 0.0
    attempted = failed = 0
    errors = []
    reference = []  # per round, the wall times of its reference processes
    for _ in rounds(seconds):
        reference.append([])
        for k, (query, role) in enumerate(plan.queries):
            if k % REFERENCE_EVERY == 0:
                reference[-1].append(run_process([sys.executable, "-c", REFERENCE], env, workdir)[0])
            argv = [sys.executable, "-c", ENTRY, *query.argv(plan.paths[role], plan.alpha[role])]
            wall, rss, code, out, err = run_process(argv, env, workdir)
            attempted += 1
            peak_rss = max(peak_rss, rss)
            if code != 0:
                failed += 1
                walls[query.metric]["failed"].append((wall, len(reference) - 1))
                note = err.strip().splitlines()[-1:] or ["(no message)"]
                print(f"failed: {query.metric} on {role}: exit {code}: {note[0]}", file=sys.stderr)
                continue
            walls[query.metric]["ok"].append((wall, len(reference) - 1))
            try:
                plan.check(query, role, out)
            except referee.RefereeError as exc:
                errors.append(str(exc))
    speed = [REFERENCE_S / statistics.mean(r) for r in reference]
    metrics = {}
    table = [f"reference process: median {statistics.median(sum(reference, [])):.4f} s"]
    for metric, w in walls.items():
        # a query that never succeeded reports its time to the failing exit
        samples = w["ok"] or w["failed"]
        wall = statistics.median(t for t, _ in samples)
        metrics[metric] = {
            "value": statistics.median(t * speed[r] for t, r in samples), "unit": "s"
        }
        table.append(
            f"{metric:28s} attempted {len(w['ok']) + len(w['failed']):3d} "
            f"failed {len(w['failed']):3d} median wall {wall:.4f} s"
        )
    metrics["peak_rss_mb"] = {"value": peak_rss, "unit": "MB"}
    return metrics, attempted, failed, errors, table


def run_workload(name, seed, seconds, trace):
    workload = WORKLOADS[name]
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=WORK))
    try:
        plan = Plan(workload, seed, workdir)
        print(
            f"workload {name} seed {seed} trace {trace} nproc {os.cpu_count()} "
            f"python {platform.python_version()} numpy {np.__version__} scipy {scipy.__version__}"
        )
        for line in plan.describe():
            print(line)
        if trace:
            metrics, attempted, failed, errors, table = layers.traced_run(
                plan, rounds(seconds), SRC, child_env(), WORK / f"trace-{name}-{seed}.json"
            )
        else:
            metrics, attempted, failed, errors, table = end_to_end(plan, seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for error in errors:
        print(f"incorrect output: {error}", file=sys.stderr)
    for line in table:
        print(line)
    for metric, v in metrics.items():
        print(f"{metric:34s} {v['value']:.6g} {v['unit']}")
    return {"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tempokatz" / "cli.py").is_file():
        print(f"error: no tempokatz sources under {SRC}", file=sys.stderr)
        return 2
    for name in [args.workload] if args.workload else list(WORKLOADS):
        result = run_workload(name, args.seed, args.seconds, args.trace)
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
