"""Traced run: times calls into each module's public functions in-process.

Spans are recorded here, around the calls, never inside the package: name,
start, end, parent and the error a call raised.  They are kept in memory
and written to one JSON file when the run ends.  Every timed call starts
with cold caches: the module-level ``lru_cache``s are keyed on value-equal
networks, so each is cleared before the call.  A public function that a
later version removes makes its metric absent; the other layers still run.
"""

from __future__ import annotations

import importlib
import json
import os
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import referee
from workloads import QUERIES

QUERY = {q.metric: q for q in QUERIES}
MODULES = ("temporal_graph", "spectral", "line_space", "matfun", "centrality")


class Tracer:
    """Spans kept in memory: dicts with id, name, parent, start, end, error;
    times are seconds since the tracer was made."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name):
        record = {"id": len(self.spans), "name": name, "error": None}
        record["parent"] = self._open[-1]["id"] if self._open else None
        self.spans.append(record)
        self._open.append(record)
        record["start"] = time.perf_counter() - self.origin
        try:
            yield record
        finally:
            record["end"] = time.perf_counter() - self.origin
            self._open.pop()


def span_cost(samples=5000):
    """Seconds that recording one empty span costs."""
    tracer = Tracer()
    start = time.perf_counter()
    for _ in range(samples):
        with tracer.span("empty"):
            pass
    return (time.perf_counter() - start) / samples


class Missing(LookupError):
    """A public function a layer metric times is not in the package."""


class Context:
    """The package loaded from the checkout, the parsed networks, and the
    tallies of calls, failures and referee disagreements."""

    def __init__(self, plan):
        self.plan = plan
        self.mods = {m: importlib.import_module(f"tempokatz.{m}") for m in MODULES}
        parse = self.f("temporal_graph", "parse_temporal_edgelist")
        self.nets = {}
        for role, path in plan.paths.items():
            with open(path, encoding="utf-8") as fh:
                self.nets[role] = parse(fh)
        self.numerical = tuple(
            getattr(self.mods[m], e)
            for m, e in (("matfun", "SolveError"), ("spectral", "NonConvergenceError"))
            if hasattr(self.mods[m], e)
        )
        self.counts = {}
        self.attempted = self.failed = 0
        self.errors = []

    def f(self, module, name):
        try:
            return getattr(self.mods[module], name)
        except AttributeError:
            raise Missing(f"{module}.{name}") from None

    def mode(self, name):
        return getattr(self.f("line_space", "Mode"), name)

    def role(self, query):
        return self.plan.workload.role(query)

    def cold(self):
        for mod in self.mods.values():
            for obj in vars(mod).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()

    def call(self, tracer, name, thunk):
        """One timed call; the program's numerical errors count as failed
        calls and give None."""
        self.attempted += 1
        with tracer.span(name) as record:
            try:
                return thunk()
            except self.numerical as exc:
                record["error"] = f"{type(exc).__name__}: {exc}"
                self.failed += 1
                return None

    def check(self, query, result):
        for want in self.plan.expected(QUERY[query], self.role(query)):
            try:
                referee.check_values(np.asarray(result.values), want, f"traced {query}")
            except referee.RefereeError as exc:
                self.errors.append(str(exc))


# --- the timed calls: metric -> prepare(ctx) giving a thunk, after(ctx, result)


def _parse(ctx):
    parse = ctx.f("temporal_graph", "parse_temporal_edgelist")
    path = ctx.plan.paths[ctx.role("setup_s")]

    def thunk():
        with open(path, encoding="utf-8") as fh:
            return parse(fh)

    return thunk


def _adjacency(ctx):
    adjacency = ctx.f("temporal_graph", "adjacency_matrix")
    net = ctx.nets[ctx.role("setup_s")]
    return lambda: [adjacency(net, t) for t in range(1, net.N + 1)]


def _alpha_bound(ctx):
    alpha_bound = ctx.f("spectral", "alpha_bound")
    net, mode = ctx.nets[ctx.role("check_alpha_s")], ctx.mode("NBT_BOTH")
    return lambda: alpha_bound(net, mode)


def _check_bound(ctx, bound):
    try:
        referee.check_alpha_output(
            f"ell = {bound.ell!r}\n" + "".join(
                f"snapshot {t}: rho = {r!r} lambda = {lam!r}\n"
                for t, (r, lam) in enumerate(bound.per_snapshot, start=1)
            ),
            ctx.plan.bounds[ctx.role("check_alpha_s")], "nbt-both",
        )
    except referee.RefereeError as exc:
        ctx.errors.append(f"traced alpha_bound: {exc}")


def _blocks(ctx):
    builders = [
        ctx.f("line_space", name)
        for name in ("source_target_matrices", "line_graph_matrix", "hashimoto_matrix")
    ]
    net = ctx.nets["edge"]
    return lambda: [b(s, net.n) for s in net.snapshots for b in builders]


def _assemble(mode):
    def prepare(ctx):
        assemble = ctx.f("line_space", "global_transition")
        net, m = ctx.nets["edge"], ctx.mode(mode)
        return lambda: assemble(net, m)

    return prepare


def _count_nnz(ctx, M):
    ctx.counts["line_space.nnz_M"] = int(M.nnz)


def _nbt_both_matrix(ctx):
    M = ctx.f("line_space", "global_transition")(ctx.nets["edge"], ctx.mode("NBT_BOTH"))
    return M, np.ones(M.shape[0])


def _matvec(ctx):
    M, x = _nbt_both_matrix(ctx)
    return lambda: M @ x


def _series(ctx):
    apply_series = ctx.f("matfun", "apply_series")
    g = ctx.f("matfun", "partial_op")(ctx.f("matfun", "exponential")())
    M, x = _nbt_both_matrix(ctx)
    alpha = ctx.plan.alpha["edge"]
    return lambda: apply_series(M, alpha, g, x)


def _count_terms(ctx, result):
    ctx.counts["matfun.series_terms"] = int(result.terms)


def _solve(ctx):
    solve = ctx.f("matfun", "resolvent_solve")
    role = ctx.role("rank_katz_tc_nbt_time_s")
    M = ctx.f("line_space", "global_transition")(ctx.nets[role], ctx.mode("NBT_TIME"))
    alpha = ctx.plan.alpha[role]
    return lambda: solve(M, alpha, np.ones(M.shape[0]))


def _centrality(query, name, weight=None, mode=None, per_node=False):
    """A centrality call matching end-to-end ``query``, on the same network
    and alpha, with the CLI's defaults (force, one thread per CPU)."""

    def prepare(ctx):
        function = ctx.f("centrality", name)
        role = ctx.role(query)
        args = [ctx.nets[role], ctx.plan.alpha[role]]
        if weight == "katz":
            args.append(ctx.f("matfun", "resolvent")(1.0, 1.0))
        elif weight == "exponential":
            args.append(ctx.f("matfun", "exponential")())
        if mode is not None:
            args.append(ctx.mode(mode))
        kwargs = {"force": True}
        if per_node:
            kwargs["threads"] = os.cpu_count() or 1
        return lambda: function(*args, **kwargs)

    def after(ctx, result):
        ctx.check(query, result)

    return prepare, after


LAYERS = (
    ("temporal_graph.parse_s", _parse, None),
    ("temporal_graph.adjacency_s", _adjacency, None),
    ("spectral.alpha_bound_s", _alpha_bound, _check_bound),
    ("line_space.blocks_s", _blocks, None),
    ("line_space.assemble_standard_s", _assemble("STANDARD"), _count_nnz),
    ("line_space.assemble_nbt_both_s", _assemble("NBT_BOTH"), None),
    ("line_space.matvec_s", _matvec, None),
    ("matfun.series_s", _series, _count_terms),
    ("matfun.solve_s", _solve, None),
    ("centrality.katz_node_standard_s",
     *_centrality("rank_katz_tc_standard_s", "dynamic_katz_node_level")),
    ("centrality.katz_node_nbt_space_s",
     *_centrality("rank_katz_tc_nbt_space_s", "nbt_space_katz_node_level")),
    ("centrality.tc_katz_nbt_time_s",
     *_centrality("rank_katz_tc_nbt_time_s", "temporal_f_total_communicability", "katz", "NBT_TIME")),
    ("centrality.tc_exp_nbt_both_s",
     *_centrality("rank_exp_tc_nbt_both_s", "temporal_f_total_communicability", "exponential", "NBT_BOTH")),
    ("centrality.sc_exp_nbt_space_s",
     *_centrality("rank_exp_sc_nbt_space_s", "temporal_f_subgraph_centrality", "exponential", "NBT_SPACE", True)),
    ("centrality.sc_katz_standard_s",
     *_centrality("rank_katz_sc_standard_s", "temporal_f_subgraph_centrality", "katz", "STANDARD", True)),
)


def _import_time(tracer, env):
    """``import tempokatz`` in a fresh process, timed inside the child."""
    code = "import time; t = time.perf_counter(); import tempokatz; print(time.perf_counter() - t)"
    with tracer.span("cli.import"):
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
    return float(out.stdout)


def _radius_iterations(ctx):
    """Sum of RadiusEstimate.iterations over rho(A_t) and rho(B_t)."""
    radius = ctx.f("spectral", "spectral_radius")
    adjacency = ctx.f("temporal_graph", "adjacency_matrix")
    hashimoto = ctx.f("line_space", "hashimoto_matrix")
    net = ctx.nets[ctx.role("check_alpha_s")]
    return sum(
        radius(adjacency(net, t)).iterations + radius(hashimoto(net.snapshot(t), net.n)).iterations
        for t in range(1, net.N + 1)
    )


def traced_run(plan, schedule, src, env, span_path):
    """Rounds of every layer call, one per step of ``schedule``."""
    sys.path.insert(0, str(src))
    import tempokatz

    if Path(tempokatz.__file__).resolve().parent != (Path(src) / "tempokatz").resolve():
        raise RuntimeError(f"tempokatz imported from {tempokatz.__file__}, not {src}")
    ctx = Context(plan)
    tracer = Tracer()
    times = {"cli.import_s": []}
    for _ in schedule:
        with tracer.span("round"):
            times["cli.import_s"].append(_import_time(tracer, env))
            for metric, prepare, after in LAYERS:
                ctx.cold()
                try:
                    thunk = prepare(ctx)
                except Missing:
                    continue
                result = ctx.call(tracer, metric[: -len("_s")], thunk)
                span = tracer.spans[-1]
                times.setdefault(metric, []).append(span["end"] - span["start"])
                if after is not None and result is not None:
                    after(ctx, result)
    try:
        ctx.counts["spectral.radius_iterations"] = _radius_iterations(ctx)
    except Missing:
        pass
    span_path.write_text(json.dumps(tracer.spans))
    cost = span_cost()
    rounds = [s for s in tracer.spans if s["name"] == "round"]
    per_round = len(tracer.spans) / len(rounds)
    round_s = statistics.median(s["end"] - s["start"] for s in rounds)
    metrics = {m: {"value": statistics.median(v), "unit": "s"} for m, v in times.items()}
    metrics.update({m: {"value": v, "unit": "count"} for m, v in ctx.counts.items()})
    table = [
        f"traced rounds {len(rounds)}, {per_round:.0f} spans per round, median round {round_s:.3f} s",
        f"tracing overhead {cost * 1e6:.2f} us per span, {per_round * cost * 1e6:.1f} us per round "
        f"({100 * per_round * cost / round_s:.4f}% of the round); spans in {span_path.name}",
    ]
    return metrics, ctx.attempted, ctx.failed, ctx.errors, table
