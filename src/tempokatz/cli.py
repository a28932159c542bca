"""Command-line front end: rank nodes of a temporal edge list, inspect the
admissible parameter interval, validate inputs, and dump matrices for
debugging.

Subcommands: ``rank`` (default), ``check-alpha``, ``validate``,
``dump-matrix``.  Exit codes: 1 parse/validation failure, a bad option
value, or an input too large for memory, 2 alpha negative or not finite
(even with --force) or outside the admissible interval without --force,
3 numerical failure.  ``rank`` parses, makes one call of a centrality
measure, which checks alpha and the bound itself, and formats its result.

Each command imports the modules it runs, when it runs: ``validate`` and
``dump-matrix`` only ``temporal_graph`` and ``line_space`` (``Mode``, and
dump-matrix's coordinates), ``check-alpha`` adds ``spectral``, and
``rank`` adds ``centrality`` and ``matfun``; ``json`` loads only for
``--format json``.
"""

from __future__ import annotations

import argparse
import io
import os
import stat
import sys
import tempfile

import numpy as np

from .line_space import Mode, _non_backtracking, _successors, _transition
from .temporal_graph import ParseError, ParseReport, ValidationError, parse_temporal_edgelist

EXIT_PARSE = 1
EXIT_ALPHA = 2
EXIT_NUMERIC = 3


def _fmt(x):
    """Shared numeric formatting: 17 significant digits for CSV and JSON."""
    return f"{x:.17g}"


def _load_function(spec):
    from . import matfun
    if spec == "katz":
        return matfun.resolvent(1.0, 1.0)
    if spec == "exponential":
        return matfun.exponential()
    if spec.startswith("coeffs:"):
        return matfun.from_coefficient_file(spec.split(":", 1)[1])
    raise ValueError(f"unknown function {spec!r} (katz | exponential | coeffs:<path>)")


def _parse_input(path):
    report = ParseReport()
    with open(path, encoding="utf-8-sig") as fh:
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
    # write to a temp file in the target directory, rename on success, with
    # the mode open(out_path, "w") leaves: the file's own, else 0o666 & ~umask;
    # a symlink is resolved first, so that its target is written, as open does
    out_path = os.path.realpath(out_path)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(out_path), prefix=".tempokatz-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        try:
            mode = stat.S_IMODE(os.stat(out_path).st_mode)
        except FileNotFoundError:
            os.umask(umask := os.umask(0))  # reads the umask
            mode = 0o666 & ~umask
        os.chmod(tmp, mode)
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
    import json
    # values are inserted as pre-formatted numeric literals so that JSON and
    # CSV agree to the last digit
    meta_json = json.dumps(meta, sort_keys=True)
    records = ",\n    ".join(
        f'{{"node": {node}, "value": {value}, "rank": {rank}}}'
        for node, value, rank in rows
    )
    return f'{{\n  "metadata": {meta_json},\n  "nodes": [\n    {records}\n  ]\n}}\n'


def cmd_rank(args):
    from . import centrality
    from .matfun import SolveError
    net, _ = _parse_input(args.input)
    mode = Mode(args.mode)
    f = _load_function(args.function)
    measure = (
        centrality.temporal_f_total_communicability if args.measure == "tc"
        else centrality.temporal_f_subgraph_centrality
    )
    try:
        result = measure(net, args.alpha, f, mode, force=args.force)
    except centrality.ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ALPHA
    except SolveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC

    values = [float(v) for v in result.values]
    order = sorted(range(net.n), key=lambda i: (-values[i], i))
    ranks = _dense_ranks(values, order)
    rows = [(i, _fmt(values[i]), r) for i, r in zip(order, ranks)]
    meta = {
        "alpha": _fmt(result.alpha),
        "ell": _fmt(result.ell),
        "mode": mode.value,
        "function": args.function,
        "measure": args.measure,
        "forced": bool(args.force),
        "truncated": bool(result.truncated),
        "fastpath": result.node_space,
    }
    render = _render_csv if args.format == "csv" else _render_json
    _write_output(render(meta, rows), args.output)
    return 0


def cmd_check_alpha(args):
    from .spectral import alpha_bound
    net, _ = _parse_input(args.input)
    mode = Mode(args.mode)
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


#: dump-matrix's coordinates (net, mode, e) -> ((rows, cols), shape), sorted
#: by (row, column): the global matrices by name, and as <kind>:<tau> the
#: per-snapshot ones, of the edge arrays e of snapshot tau
_MATRICES = {
    "M": lambda net, mode, e: (_transition(net, mode), (net.m, net.m)),
    "L": lambda net, mode, e: ((np.arange(net.m), net.arrays.src), (net.m, net.n)),
    "R": lambda net, mode, e: ((np.arange(net.m), net.arrays.tgt), (net.m, net.n)),
    "A:": lambda net, mode, e: (e[:2], (net.n, net.n)),
    "W:": lambda net, mode, e: (_successors(e), (len(e.src),) * 2),
    "B:": lambda net, mode, e: (_non_backtracking(e), (len(e.src),) * 2),
}


def cmd_dump_matrix(args):
    net, _ = _parse_input(args.input)
    kind, colon, index = args.which.partition(":")
    e = None
    if colon:
        try:
            e = net.snapshot(int(index)).arrays
        except ValueError:
            raise ValueError(f"bad snapshot index in {args.which!r}") from None
        except IndexError as exc:
            raise ValueError(exc) from None
    build = _MATRICES.get(kind + colon)
    if build is None:
        raise ValueError(
            f"unknown matrix kind {kind!r}" if colon else
            f"unknown matrix {args.which!r} (M | L | R | A:<tau> | W:<tau> | B:<tau>)"
        )
    (rows, cols), shape = build(net, Mode(args.mode), e)
    # coordinate text: `nrows ncols nnz`, then `row col 1` for each entry
    lines = [f"{shape[0]} {shape[1]} {len(rows)}"]
    lines += map("{} {} 1".format, rows.tolist(), cols.tolist())
    _write_output("\n".join(lines) + "\n", args.output)
    return 0


def _add_common(p):
    p.add_argument("input", help="temporal edge-list file (u v t per line)")
    p.add_argument(
        "--mode", choices=sorted(m.value for m in Mode), default="standard",
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
        "--force", action="store_true",
        help="allow alpha outside the proven interval",
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
    except (ParseError, ValidationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
