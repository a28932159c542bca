"""Command-line front end: rank nodes of a temporal edge list, inspect the
admissible parameter interval, validate inputs, and dump matrices for
debugging.

Subcommands: ``rank`` (default), ``check-alpha``, ``validate``,
``dump-matrix``.  Exit codes: 1 parse/validation failure or a bad option
value, 2 alpha negative or not finite (even with --force) or outside the
admissible interval without --force, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
import tempfile

from . import matfun
from .centrality import (
    ParameterError,
    check_alpha_value,
    dynamic_katz_node_level,
    nbt_space_katz_node_level,
    temporal_f_subgraph_centrality,
    temporal_f_total_communicability,
)
from .line_space import (
    Mode,
    dump_coordinate,
    global_source_target,
    global_transition,
    hashimoto_matrix,
    line_graph_matrix,
)
from .matfun import SolveError
from .spectral import alpha_bound, mode_bound
from .temporal_graph import (
    ParseError,
    ParseReport,
    ValidationError,
    adjacency_matrix,
    parse_temporal_edgelist,
)

EXIT_PARSE = 1
EXIT_ALPHA = 2
EXIT_NUMERIC = 3

_MODES = {
    "standard": Mode.STANDARD,
    "nbt-space": Mode.NBT_SPACE,
    "nbt-time": Mode.NBT_TIME,
    "nbt-both": Mode.NBT_BOTH,
}


def _fmt(x):
    """Shared numeric formatting: 17 significant digits for CSV and JSON."""
    return f"{x:.17g}"


def _load_function(spec):
    if spec == "katz":
        return matfun.resolvent(1.0, 1.0)
    if spec == "exponential":
        return matfun.exponential()
    if spec.startswith("coeffs:"):
        return matfun.from_coefficient_file(spec.split(":", 1)[1])
    raise ValueError(f"unknown function {spec!r} (katz | exponential | coeffs:<path>)")


def _parse_input(path):
    report = ParseReport()
    with open(path, encoding="utf-8") as fh:
        net = parse_temporal_edgelist(fh, report=report)
    return net, report


def _dense_ranks(values, node_order):
    """Dense ranking of descending values; ties share a rank."""
    distinct = sorted({v for v in values}, reverse=True)
    rank_of = {v: k + 1 for k, v in enumerate(distinct)}
    return [rank_of[values[i]] for i in node_order]


def _write_output(text, out_path):
    if out_path is None:
        sys.stdout.write(text)
        return
    # write to a temp file in the target directory, rename on success
    directory = os.path.dirname(os.path.abspath(out_path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tempokatz-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, out_path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _render_csv(meta, rows):
    buf = io.StringIO()
    for key, value in meta.items():
        buf.write(f"# {key}={value}\n")
    buf.write("node,value,rank\n")
    for node, value, rank in rows:
        buf.write(f"{node},{value},{rank}\n")
    return buf.getvalue()


def _render_json(meta, rows):
    # values are inserted as pre-formatted numeric literals so that JSON and
    # CSV agree to the last digit
    meta_json = json.dumps(meta, sort_keys=True)
    records = ",\n    ".join(
        f'{{"node": {node}, "value": {value}, "rank": {rank}}}'
        for node, value, rank in rows
    )
    return f'{{\n  "metadata": {meta_json},\n  "nodes": [\n    {records}\n  ]\n}}\n'


def cmd_rank(args):
    check_alpha_value(args.alpha)
    if not 0 < args.tol < math.inf:
        raise ValueError(f"--tol must be positive and finite, got {args.tol}")
    net, _ = _parse_input(args.input)
    mode = _MODES[args.mode]
    f = _load_function(args.function)
    ell, converged = mode_bound(net, mode)
    if not converged:
        print("error: spectral radius estimation did not converge", file=sys.stderr)
        return EXIT_NUMERIC
    sup = f.radius * ell
    if args.alpha >= sup and not args.force:
        print(
            f"error: alpha={args.alpha} is outside the admissible interval "
            f"(0, {_fmt(sup)}) for mode {mode.value}; pass --force to override",
            file=sys.stderr,
        )
        return EXIT_ALPHA

    fastpath = None
    if args.function == "katz" and not args.no_fastpath and args.measure == "tc":
        if mode is Mode.STANDARD:
            fastpath = dynamic_katz_node_level
        elif mode is Mode.NBT_SPACE and args.alpha < 1:
            # the cubic's spurious factor (1 - alpha^2) vanishes at alpha = 1
            # and costs accuracy beyond it; the edge solve is checked
            fastpath = nbt_space_katz_node_level
    try:
        if fastpath is not None:
            result = fastpath(net, args.alpha, force=True)
        elif args.measure == "tc":
            result = temporal_f_total_communicability(
                net, args.alpha, f, mode, tol=args.tol, force=True
            )
        else:
            result = temporal_f_subgraph_centrality(
                net, args.alpha, f, mode, tol=args.tol, force=True
            )
    except SolveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC

    values = [float(v) for v in result.values]
    order = sorted(range(net.n), key=lambda i: (-values[i], i))
    ranks = _dense_ranks(values, order)
    rows = [(i, _fmt(values[i]), r) for i, r in zip(order, ranks)]
    meta = {
        "alpha": _fmt(args.alpha),
        "ell": _fmt(ell),
        "mode": mode.value,
        "function": args.function,
        "measure": args.measure,
        "forced": bool(args.force),
        "truncated": bool(result.truncated),
        "fastpath": fastpath is not None,
    }
    render = _render_csv if args.format == "csv" else _render_json
    _write_output(render(meta, rows), args.output)
    return 0


def cmd_check_alpha(args):
    net, _ = _parse_input(args.input)
    mode = _MODES[args.mode]
    bound = alpha_bound(net, mode)
    if not bound.converged:
        print("error: spectral radius estimation did not converge", file=sys.stderr)
        return EXIT_NUMERIC
    print(f"ell = {_fmt(bound.ell)}")
    for tau, (rho, lam) in enumerate(bound.per_snapshot, start=1):
        print(f"snapshot {tau}: rho = {_fmt(rho)} lambda = {_fmt(lam)}")
    return 0


def cmd_validate(args):
    net, report = _parse_input(args.input)
    print(f"n = {net.n}")
    print(f"N = {net.N}")
    print(f"m = {net.m}")
    print(f"duplicates_collapsed = {report.duplicates_collapsed}")
    return 0


def cmd_dump_matrix(args):
    net, _ = _parse_input(args.input)
    which = args.which
    mode = _MODES[args.mode]
    if which == "M":
        matrix = global_transition(net, mode)
    elif which == "L":
        matrix = global_source_target(net)[0]
    elif which == "R":
        matrix = global_source_target(net)[1]
    elif ":" in which:
        kind, _, tau_s = which.partition(":")
        try:
            tau = int(tau_s)
        except ValueError:
            raise ValueError(f"bad snapshot index in {which!r}") from None
        if kind == "A":
            matrix = adjacency_matrix(net, tau)
        elif kind == "W":
            matrix = line_graph_matrix(net.snapshot(tau), net.n)
        elif kind == "B":
            matrix = hashimoto_matrix(net.snapshot(tau), net.n)
        else:
            raise ValueError(f"unknown matrix kind {kind!r}")
    else:
        raise ValueError(
            f"unknown matrix {which!r} (M | L | R | A:<tau> | W:<tau> | B:<tau>)"
        )
    buf = io.StringIO()
    dump_coordinate(matrix, buf)
    _write_output(buf.getvalue(), args.output)
    return 0


def _add_common(p):
    p.add_argument("input", help="temporal edge-list file (u v t per line)")
    p.add_argument(
        "--mode", choices=sorted(_MODES), default="standard",
        help="which backtracking steps to forbid",
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tempokatz",
        description="Walk-based centrality measures on temporal networks.",
    )
    sub = parser.add_subparsers(dest="command")

    p_rank = sub.add_parser("rank", help="rank nodes by centrality (default)")
    _add_common(p_rank)
    p_rank.add_argument(
        "--function", default="katz",
        help="weight function: katz | exponential | coeffs:<path>",
    )
    p_rank.add_argument("--alpha", type=float, required=True)
    p_rank.add_argument(
        "--measure", choices=["tc", "sc"], default="tc",
        help="tc = total communicability (row sums), sc = subgraph (diagonal)",
    )
    p_rank.add_argument("--format", choices=["csv", "json"], default="csv")
    p_rank.add_argument(
        "--tol", type=float, default=matfun.DEFAULT_TOL,
        help="bound on each edge-space solve's normwise backward error, and the "
        "relative size of the last series term summed",
    )
    p_rank.add_argument(
        "--force", action="store_true",
        help="allow alpha outside the proven interval",
    )
    p_rank.add_argument(
        "--no-fastpath", action="store_true",
        help="disable node-level Katz shortcuts (for cross-validation)",
    )
    p_rank.add_argument("-o", "--output", default=None)
    p_rank.set_defaults(func=cmd_rank)

    p_check = sub.add_parser("check-alpha", help="print the admissible interval")
    _add_common(p_check)
    p_check.set_defaults(func=cmd_check_alpha)

    p_val = sub.add_parser("validate", help="parse and summarize the input")
    p_val.add_argument("input")
    p_val.set_defaults(func=cmd_validate)

    p_dump = sub.add_parser("dump-matrix", help="dump a matrix in coordinate text")
    _add_common(p_dump)
    p_dump.add_argument(
        "which", help="M | L | R | A:<tau> | W:<tau> | B:<tau>",
    )
    p_dump.add_argument("-o", "--output", default=None)
    p_dump.set_defaults(func=cmd_dump_matrix)

    return parser


_SUBCOMMANDS = {"rank", "check-alpha", "validate", "dump-matrix"}


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] not in _SUBCOMMANDS and argv[0] not in ("-h", "--help"):
        argv.insert(0, "rank")  # rank is the default subcommand
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_help()
        return 0
    try:
        return args.func(args)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ALPHA
    except (ParseError, ValidationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
