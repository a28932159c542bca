import io
import json
import math
import warnings

import numpy as np
import pytest

import tempokatz as tk
from tempokatz import Mode, centrality, cli, line_space, oracle, spectral
from tempokatz.cli import main

from conftest import FIG_NETWORK, TRIANGLE, WORKED_EXAMPLE, katz_referee


@pytest.fixture
def ex5_file(tmp_path):
    path = tmp_path / "ex5.txt"
    path.write_text(WORKED_EXAMPLE)
    return str(path)


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "triangle.txt"
    path.write_text(TRIANGLE)
    return str(path)


@pytest.fixture
def fig_file(tmp_path):
    path = tmp_path / "fig.txt"
    path.write_text(FIG_NETWORK)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(out):
    meta = {}
    rows = []
    for line in out.splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            meta[key] = value
        elif line and not line.startswith("node,"):
            node, value, rank = line.split(",")
            rows.append((int(node), float(value), int(rank)))
    return meta, rows


def test_rank_exponential_worked_example(capsys, ex5_file):
    code, out, _ = run(
        capsys, "rank", ex5_file, "--function", "exponential", "--alpha", "0.5"
    )
    assert code == 0
    meta, rows = parse_csv(out)
    assert [r[0] for r in rows] == [0, 1, 2, 3]
    assert [r[2] for r in rows] == [1, 2, 3, 4]
    beta = 0.5
    expected = [
        1 + beta + beta**2 / 2 + beta**3 / 6,
        1 + beta + beta**2 / 2,
        1 + beta,
        1.0,
    ]
    for (node, value, _), want in zip(rows, expected):
        assert value == pytest.approx(want, abs=1e-12)
    assert meta["mode"] == "standard"
    assert meta["measure"] == "tc"


def test_rank_default_subcommand(capsys, ex5_file):
    code, out, _ = run(capsys, ex5_file, "--alpha", "0.2")
    assert code == 0
    _, rows = parse_csv(out)
    assert [r[0] for r in rows] == [0, 1, 2, 3]


def test_rank_json_matches_csv_digits(capsys, fig_file):
    argv = ["rank", fig_file, "--alpha", "0.3", "--mode", "nbt-both"]
    code, csv_out, _ = run(capsys, *argv, "--format", "csv")
    assert code == 0
    code, json_out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    _, csv_rows = parse_csv(csv_out)
    doc = json.loads(json_out)
    json_rows = [(r["node"], r["value"], r["rank"]) for r in doc["nodes"]]
    assert json_rows == csv_rows
    # digit-for-digit: the formatted literals appear verbatim in both outputs
    for line in csv_out.splitlines():
        if line and not line.startswith(("#", "node,")):
            value = line.split(",")[1]
            assert f'"value": {value},' in json_out


def test_rank_fastpath_consistent(capsys, fig_file, fig1):
    # standard Katz runs in node space and matches the whole-matrix solve
    code, out, _ = run(capsys, "rank", fig_file, "--alpha", "0.3")
    assert code == 0
    meta, rows = parse_csv(out)
    assert meta["fastpath"] == "True"
    want = katz_referee(fig1, Mode.STANDARD, 0.3, np.ones(fig1.n))
    assert [node for node, _, _ in rows] == sorted(range(fig1.n), key=lambda i: -want[i])
    for node, value, _ in rows:
        assert value == pytest.approx(want[node], abs=1e-10)


@pytest.mark.parametrize(
    "argv, node_space",
    [
        (("--measure", "sc"), True),
        (("--measure", "sc", "--mode", "nbt-space"), True),
        (("--mode", "nbt-space", "--alpha", "1.5", "--force"), False),
        (("--mode", "nbt-time"), True),
        (("--mode", "nbt-both", "--measure", "sc"), False),
        (("--function", "exponential"), False),
        (("--mode", "nbt-space", "--alpha", "0.7"), False),
    ],
)
def test_rank_fastpath_reports_node_space(capsys, fig_file, argv, node_space):
    code, out, err = run(capsys, "rank", fig_file, "--alpha", "0.3", *argv)
    assert code == 0, err
    meta, _ = parse_csv(out)
    assert meta["fastpath"] == str(node_space)


def test_rank_subgraph_measure(capsys, triangle_file):
    code, out, _ = run(
        capsys, "rank", triangle_file, "--alpha", "0.3", "--measure", "sc"
    )
    assert code == 0
    _, rows = parse_csv(out)
    # the triangle is vertex-transitive: all nodes tie at rank 1
    assert [r[2] for r in rows] == [1, 1, 1]


def test_rank_alpha_out_of_interval(capsys, triangle_file):
    code, _, err = run(capsys, "rank", triangle_file, "--alpha", "0.6")
    assert code == 2
    assert "admissible interval" in err and "--force" in err


def test_rank_unconverged_bound_exits_3_unless_forced(capsys, fig_file, monkeypatch):
    # rank makes the library's check, the only one
    monkeypatch.setattr(centrality, "mode_bound", lambda net, mode: (1.0, False))
    code, out, err = run(capsys, "rank", fig_file, "--alpha", "0.1")
    assert code == 3
    assert out == ""
    assert "did not converge" in err
    code, out, err = run(capsys, "rank", fig_file, "--alpha", "0.1", "--force")
    assert code == 0, err
    meta, _ = parse_csv(out)
    assert meta["ell"] == "1"


def test_rank_force_overrides_interval(capsys, triangle_file):
    code, out, _ = run(
        capsys, "rank", triangle_file, "--alpha", "0.6",
        "--function", "exponential", "--force",
    )
    assert code == 0
    meta, _ = parse_csv(out)
    assert meta["forced"] == "True"


def test_rank_singular_system_exit_code(capsys, triangle_file):
    code, _, err = run(capsys, "rank", triangle_file, "--alpha", "0.5", "--force")
    assert code == 3
    assert "error" in err


def test_rank_negative_alpha(capsys, triangle_file):
    code, _, err = run(capsys, "rank", triangle_file, "--alpha", "-0.1", "--force")
    assert code == 2


def test_rank_coefficient_file(capsys, ex5_file, tmp_path):
    coeffs = tmp_path / "c.txt"
    coeffs.write_text("1\n1\n")  # weight walks of length <= 1 only
    code, out, _ = run(
        capsys, "rank", ex5_file, "--function", f"coeffs:{coeffs}", "--alpha", "1.0"
    )
    assert code == 0
    _, rows = parse_csv(out)
    values = {node: value for node, value, _ in rows}
    assert values == {0: 2.0, 1: 2.0, 2: 2.0, 3: 1.0}


def test_rank_output_file_atomic(capsys, ex5_file, tmp_path):
    out_path = tmp_path / "out.csv"
    code, _, _ = run(
        capsys, "rank", ex5_file, "--alpha", "0.2", "-o", str(out_path)
    )
    assert code == 0
    assert out_path.exists()
    _, rows = parse_csv(out_path.read_text())
    assert len(rows) == 4
    # no stray temp files left next to the output
    assert [p.name for p in tmp_path.iterdir() if p.name.startswith(".tempokatz-")] == []


def test_rank_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "rank", str(tmp_path / "nope.txt"), "--alpha", "0.1")
    assert code == 1


def test_rank_parse_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("0 1\n")
    code, _, err = run(capsys, "rank", str(bad), "--alpha", "0.1")
    assert code == 1
    assert "error" in err


def test_check_alpha_triangle(capsys, triangle_file):
    code, out, _ = run(capsys, "check-alpha", triangle_file)
    assert code == 0
    lines = out.splitlines()
    assert float(lines[0].split("=")[1]) == pytest.approx(0.5, abs=1e-10)
    assert lines[1].startswith("snapshot 1: rho = ")
    rho = float(lines[1].split("rho =")[1].split("lambda")[0])
    assert rho == pytest.approx(2.0, abs=1e-10)


def test_check_alpha_nbt_mode(capsys, triangle_file):
    code, out, _ = run(capsys, "check-alpha", triangle_file, "--mode", "nbt-both")
    assert code == 0
    assert out.splitlines()[0].startswith("ell = ")
    assert float(out.splitlines()[0].split("=")[1]) == pytest.approx(1.0, abs=1e-8)


def test_check_alpha_nilpotent(capsys, ex5_file):
    code, out, _ = run(capsys, "check-alpha", ex5_file)
    assert code == 0
    assert out.splitlines()[0] == "ell = inf"


def test_validate(capsys, tmp_path):
    path = tmp_path / "dups.txt"
    path.write_text("0 1 1\n0 1 1\n1 2 2\n")
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 0
    assert out.splitlines() == [
        "n = 3",
        "N = 2",
        "m = 2",
        "duplicates_collapsed = 1",
    ]


def test_input_may_start_with_a_byte_order_mark(capsys, tmp_path):
    path = tmp_path / "bom.txt"
    path.write_bytes(b"\xef\xbb\xbf0 1 1\n0 1 1\n1 2 2\n")
    code, out, _ = run(capsys, "validate", str(path))
    assert (code, out.splitlines()[:3]) == (0, ["n = 3", "N = 2", "m = 2"])
    # anywhere else it is a field character, as before
    path.write_bytes(b"0 1 1\n\xef\xbb\xbf1 2 2\n")
    code, _, err = run(capsys, "validate", str(path))
    assert (code, err) == (1, "error: line 2: non-integer field in '\\ufeff1 2 2'\n")


def test_field_beyond_int64_exits_1(capsys, tmp_path):
    path = tmp_path / "wide.txt"
    path.write_text("0 1 1\n1 2 99999999999999999999\n")
    code, _, err = run(capsys, "validate", str(path))
    assert (code, err) == (1, "error: line 2: field outside int64 in '1 2 99999999999999999999'\n")


def test_node_count_beyond_int64_exits_1(capsys, tmp_path):
    path = tmp_path / "wide.txt"
    path.write_text("%n 99999999999999999999\n0 1 1\n1 0 1\n")
    for command in (("validate",), ("rank", "--alpha", "0.1"), ("check-alpha",)):
        code, out, err = run(capsys, command[0], str(path), *command[1:])
        assert (code, out) == (1, "")
        assert err == "error: line 1: %n outside int64 in '%n 99999999999999999999'\n"


@pytest.mark.parametrize("command", ["rank", "check-alpha"])
def test_out_of_memory_exits_1(capsys, monkeypatch, ex5_file, command):
    # %n 100000000000 asks for a 745 GiB array; raised here without allocating
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 745. GiB")

    monkeypatch.setattr(cli, "temporal_f_total_communicability", exhausted)
    monkeypatch.setattr(cli, "alpha_bound", exhausted)
    code, out, err = run(capsys, command, ex5_file, *(["--alpha", "0.1"] if command == "rank" else []))
    assert (code, out, err) == (1, "", "error: out of memory: Unable to allocate 745. GiB\n")


def test_dump_matrix_global(capsys, ex5_file):
    code, out, _ = run(capsys, "dump-matrix", ex5_file, "M")
    assert code == 0
    assert out == "3 3 2\n0 1 1\n1 2 1\n"


def test_dump_matrix_adjacency(capsys, ex5_file):
    code, out, _ = run(capsys, "dump-matrix", ex5_file, "A:1")
    assert code == 0
    assert out == "4 4 1\n0 1 1\n"


def test_dump_matrix_stacks(capsys, ex5_file):
    code, out, _ = run(capsys, "dump-matrix", ex5_file, "L")
    assert code == 0
    assert out.splitlines()[0] == "3 4 3"


@pytest.mark.parametrize("which", ["R", "W:1", "B:1"])
def test_dump_matrix_prints_the_referee(capsys, tmp_path, which):
    # a reciprocated pair in snapshot 1, so that B_1 is W_1 less two entries
    text = "0 1 1\n1 0 1\n1 2 1\n2 0 1\n2 1 2\n0 2 2\n"
    path = tmp_path / "pairs.txt"
    path.write_text(text)
    net = tk.parse_temporal_edgelist(text)
    want = {
        "R": oracle.reference_source_target(net)[1],
        "W:1": oracle.reference_line_graph(net.snapshot(1), net.n),
        "B:1": oracle.reference_hashimoto(net.snapshot(1), net.n),
    }[which]
    buf = io.StringIO()
    line_space.dump_coordinate(want, buf)
    code, out, err = run(capsys, "dump-matrix", str(path), which)
    assert (code, out, err) == (0, buf.getvalue(), "")


def test_dump_matrix_unknown(capsys, ex5_file):
    code, _, err = run(capsys, "dump-matrix", ex5_file, "Q")
    assert code == 1
    assert "unknown matrix" in err
    # the worked example has 3 snapshots
    for which, tau in (("A:0", 0), ("W:4", 4), ("B:-1", -1)):
        code, out, err = run(capsys, "dump-matrix", ex5_file, which)
        assert code == 1
        assert out == ""
        assert err == f"error: tau={tau} out of range [1, 3]\n"


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def test_rank_star_above_old_cutoff_needs_force(capsys, tmp_path):
    # K_{1,600}: ell = 1 / sqrt(600) = 0.0408, so alpha = 0.3 is divergent
    path = tmp_path / "star.txt"
    path.write_text("%n 601\n" + "".join(f"0 {k} 1\n{k} 0 1\n" for k in range(1, 601)))
    code, _, err = run(capsys, "rank", str(path), "--alpha", "0.3")
    assert code == 2
    assert "admissible interval" in err
    code, out, _ = run(capsys, "check-alpha", str(path))
    assert code == 0
    ell = float(out.splitlines()[0].split("=")[1])
    assert ell <= 1 / math.sqrt(600)
    assert ell == pytest.approx(1 / math.sqrt(600), rel=1e-9)


def _count_calls(monkeypatch, module, name, counts, key):
    real = getattr(module, name)

    def counted(*args, **kwargs):
        counts[key] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


@pytest.mark.parametrize(
    "mode, hashimoto",
    [("standard", False), ("nbt-time", False), ("nbt-space", True), ("nbt-both", True)],
)
def test_rank_computes_only_the_radii_of_its_mode(
    capsys, fig_file, monkeypatch, mode, hashimoto
):
    counts = {"rho_A": 0, "B": 0}
    # spectral builds A^[tau] only to take its radius
    _count_calls(monkeypatch, spectral, "adjacency_matrix", counts, "rho_A")
    _count_calls(monkeypatch, spectral, "hashimoto_matrix", counts, "B")
    _count_calls(monkeypatch, line_space, "hashimoto_matrix", counts, "B")
    # the stacked bound of mode_bound builds one family from the edge arrays
    stack = spectral._stack

    def counted_stack(net, taus, hashimoto):
        counts["B" if hashimoto else "rho_A"] += 1
        return stack(net, taus, hashimoto)

    monkeypatch.setattr(spectral, "_stack", counted_stack)
    code, _, _ = run(capsys, "rank", fig_file, "--alpha", "0.2", "--mode", mode)
    assert code == 0
    if hashimoto:
        assert counts["rho_A"] == 0 and counts["B"] > 0
    else:
        assert counts["B"] == 0 and counts["rho_A"] > 0


def test_check_alpha_prints_both_radii_in_every_mode(capsys, fig_file):
    with open(fig_file, encoding="utf-8") as fh:
        bound = tk.alpha_bound(tk.parse_temporal_edgelist(fh), Mode.STANDARD)
    expected = [
        f"snapshot {tau}: rho = {rho:.17g} lambda = {lam:.17g}"
        for tau, (rho, lam) in enumerate(bound.per_snapshot, start=1)
    ]
    for mode in ("standard", "nbt-space", "nbt-time", "nbt-both"):
        code, out, _ = run(capsys, "check-alpha", fig_file, "--mode", mode)
        assert code == 0
        assert out.splitlines()[1:] == expected


@pytest.mark.parametrize("mode", ["standard", "nbt-space"])
def test_rank_node_level_singular_exits_3(capsys, tmp_path, mode):
    # I - A is singular on the directed 3-cycle at alpha = 1
    path = tmp_path / "cycle.txt"
    path.write_text("0 1 1\n1 2 1\n2 0 1\n")
    code, out, err = run(
        capsys, "rank", str(path), "--alpha", "1.0", "--force", "--mode", mode
    )
    assert code == 3
    assert out == ""
    assert "error" in err


def test_rank_polynomial_sums_every_term(capsys, tmp_path):
    # a tiny coefficient must not end the sum before the polynomial's degree
    text = "0 1 1\n1 2 1\n2 3 2\n3 0 2\n0 2 3\n"
    path = tmp_path / "net.txt"
    path.write_text(text)
    coeffs = [1, 1, 1e-16, 1, 1, 1]
    cpath = tmp_path / "c.txt"
    cpath.write_text("".join(f"{c}\n" for c in coeffs))
    code, out, _ = run(
        capsys, "rank", str(path), "--function", f"coeffs:{cpath}", "--alpha", "0.5"
    )
    assert code == 0
    _, rows = parse_csv(out)
    values = [value for _, value, _ in sorted(rows)]
    net = tk.parse_temporal_edgelist(text)
    counts = tk.enumerate_temporal_walks(net, len(coeffs), Mode.STANDARD)
    oracle = tk.weighted_walk_sum(counts, tk.polynomial(coeffs), 0.5).sum(axis=1)
    np.testing.assert_allclose(values, oracle, rtol=1e-14)
    np.testing.assert_allclose(values, [2.21875, 1.6875, 1.625, 1.5], rtol=1e-14)


@pytest.fixture
def complete_k6_file(tmp_path):
    # the complete digraph K_6 repeated over 16 snapshots: 480 edges,
    # rho(A_t) = 5, so ell = 0.2 and (I - 0.1 A_t) 1 = 0.5 * 1
    path = tmp_path / "k6.txt"
    path.write_text("".join(
        f"{u} {v} {t}\n" for t in range(1, 17) for u in range(6) for v in range(6) if u != v
    ))
    return str(path)


def test_rank_edge_solve_accepts_large_well_conditioned_solution(capsys, complete_k6_file):
    # ||x|| grows to 2^16 here; a residual test scaled by ||v|| alone rejects
    # it.  Both modes factor n x n systems (standard without and nbt-time
    # with the pair sums), against the whole-matrix solve
    with open(complete_k6_file, encoding="utf-8") as fh:
        net = tk.parse_temporal_edgelist(fh)
    values = {}
    for mode in ("standard", "nbt-time"):
        code, out, err = run(capsys, "rank", complete_k6_file, "--alpha", "0.1", "--mode", mode)
        assert code == 0, err
        meta, rows = parse_csv(out)
        assert float(meta["ell"]) == pytest.approx(0.2, rel=1e-12)
        assert meta["fastpath"] == "True"
        values[mode] = [value for _, value, _ in sorted(rows)]
        want = katz_referee(net, Mode(mode), 0.1, np.ones(net.n))
        np.testing.assert_allclose(values[mode], want, rtol=1e-10)
    np.testing.assert_allclose(values["standard"], 65536.0, rtol=1e-10)


@pytest.mark.parametrize("mode", ["nbt-time", "nbt-both"])
def test_rank_edge_solve_nbt_modes_on_complete_graph(capsys, complete_k6_file, mode):
    code, out, err = run(capsys, "rank", complete_k6_file, "--alpha", "0.1", "--mode", mode)
    assert code == 0, err
    _, rows = parse_csv(out)
    assert len(rows) == 6


def test_rank_subgraph_singular_exits_3(capsys, tmp_path):
    # I - M is exactly singular on the directed 3-cycle at alpha = 1
    path = tmp_path / "cycle.txt"
    path.write_text("0 1 1\n1 2 1\n2 0 1\n")
    code, out, err = run(
        capsys, "rank", str(path), "--measure", "sc", "--alpha", "1.0", "--force"
    )
    assert code == 3
    assert out == ""
    assert "error" in err and "Traceback" not in err


def test_rank_singular_later_block_exits_3(capsys, tmp_path):
    # snapshot 2 is the triangle, whose diagonal block I - M/2 is singular
    path = tmp_path / "later.txt"
    path.write_text("0 1 1\n" + TRIANGLE.replace(" 1\n", " 2\n"))
    code, out, err = run(capsys, "rank", str(path), "--alpha", "0.5", "--force")
    assert code == 3
    assert out == ""
    assert "error" in err and "Traceback" not in err


def test_rank_edge_solve_matches_node_level_on_long_network(capsys, tmp_path):
    # n = 60, N = 40, m = 3495: the node-space engine against the whole-matrix
    # edge solve, and in standard mode against the dense product of resolvents
    rng = np.random.default_rng(2021)
    n, N = 60, 40
    lines, adjacency = [f"%n {n}"], []
    for t in range(1, N + 1):
        A = np.zeros((n, n))
        for u, v in rng.choice(n, size=(30, 2)):
            if u != v:
                A[u, v] = A[v, u] = 1.0  # reciprocated pairs, for nbt-space
        for u, v in rng.choice(n, size=(30, 2)):
            if u != v:
                A[u, v] = 1.0
        lines += [f"{u} {v} {t}" for u, v in zip(*np.nonzero(A))]
        adjacency.append(A)
    path = tmp_path / "long.txt"
    path.write_text("\n".join(lines) + "\n")
    net = tk.parse_temporal_edgelist("\n".join(lines))
    rho = max(np.max(np.abs(np.linalg.eigvals(A))) for A in adjacency)
    alpha = repr(float(0.5 / rho))
    values = {}
    for mode in ("standard", "nbt-space"):
        code, out, err = run(capsys, "rank", str(path), "--alpha", alpha, "--mode", mode)
        assert code == 0, err
        meta, rows = parse_csv(out)
        assert meta["fastpath"] == "True"
        values[mode] = np.array([v for _, v, _ in sorted(rows)])
        want = katz_referee(net, Mode(mode), float(alpha), np.ones(n))
        np.testing.assert_allclose(values[mode], want, rtol=1e-10)
    y = np.ones(n)
    for A in reversed(adjacency):
        y = np.linalg.solve(np.eye(n) - float(alpha) * A, y)
    np.testing.assert_allclose(values["standard"], y, rtol=1e-10)


def nbt_time_complete_digraph_katz(k, N, alpha):
    """Katz TC of the complete digraph K_k repeated over N snapshots in
    nbt-time.  By symmetry every edge of snapshot t has the same value x_t,
    and x_t = 1 + alpha (k - 1) x_t + alpha (k - 2) (x_{t+1} + ... + x_N):
    the edges leaving its target in its own snapshot, then in later ones
    less its reversal."""
    later, total = 0.0, 0.0
    for _ in range(N):
        x = (1 + alpha * (k - 2) * later) / (1 - alpha * (k - 1))
        later += x
        total += x
    return 1 + alpha * (k - 1) * total


def test_rank_complete_digraph_closed_form(capsys, tmp_path):
    # K_40 in each of 4 snapshots, m_t = 1560 >> n: every row sum of A_t is
    # 39, so standard Katz TC is (1 - 39 alpha)^-4 at every node.  nbt-time
    # factors the same 40 x 40 systems and couples the 1560-edge blocks
    # through the pair sums
    path = tmp_path / "k40.txt"
    path.write_text("".join(
        f"{u} {v} {t}\n" for t in range(1, 5) for u in range(40) for v in range(40) if u != v
    ))
    alpha = 0.02
    expected = {
        "standard": (1 - 39 * alpha) ** -4,
        "nbt-time": nbt_time_complete_digraph_katz(40, 4, alpha),
    }
    for mode, want in expected.items():
        code, out, err = run(capsys, "rank", str(path), "--alpha", str(alpha), "--mode", mode)
        assert code == 0, err
        meta, rows = parse_csv(out)
        assert meta["fastpath"] == "True"
        np.testing.assert_allclose([v for _, v, _ in rows], want, rtol=1e-10)


@pytest.mark.parametrize("alpha", ["1.0", "1.00000001"])
def test_rank_nbt_space_at_and_above_one_uses_the_edge_solve(capsys, tmp_path, alpha):
    # ell = inf in nbt-space; the node-level cubic carries a factor
    # (1 - alpha^2), singular at alpha = 1 and inaccurate beyond it.  Walks:
    # 0->1->2 from node 0, 1->0 and 1->2 from node 1, 2->1 from node 2
    text = "0 1 1\n1 0 1\n1 2 2\n2 1 2\n"
    path = tmp_path / "pairs.txt"
    path.write_text(text)
    code, out, err = run(capsys, "rank", str(path), "--mode", "nbt-space", "--alpha", alpha)
    assert code == 0, err
    meta, rows = parse_csv(out)
    assert meta["ell"] == "inf" and meta["fastpath"] == "False"
    values = np.array([v for _, v, _ in sorted(rows)])
    a = float(alpha)
    want = katz_referee(tk.parse_temporal_edgelist(text), Mode.NBT_SPACE, a, np.ones(3))
    np.testing.assert_allclose(values, want, rtol=1e-12)
    np.testing.assert_allclose(values, [1 + a + a * a, 1 + 2 * a, 1 + a], rtol=1e-12)


def test_rank_nbt_space_near_one_keeps_its_digits(capsys, tmp_path):
    # a 3-cycle and a reciprocated pair, ell = 1.  The cycle's nodes start
    # one walk of every length, 1 / (1 - alpha) in all; nodes 3 and 4 start
    # one walk, since its reversal is forbidden.  The node-level cubic's
    # factor (1 - alpha^2) cost 3.4e-5 relative here; the Hashimoto step
    # is as close as the standard mode
    path = tmp_path / "cycle_and_pair.txt"
    path.write_text("0 1 1\n1 2 1\n2 0 1\n3 4 1\n4 3 1\n")
    alpha = 0.999999
    code, out, err = run(capsys, "rank", str(path), "--mode", "nbt-space", "--alpha", str(alpha))
    assert code == 0, err
    meta, rows = parse_csv(out)
    assert meta["fastpath"] == "False"
    values = np.array([v for _, v, _ in sorted(rows)])
    np.testing.assert_allclose(values[:3], 1 / (1 - alpha), rtol=1e-10)
    np.testing.assert_allclose(values[3:], 1 + alpha, rtol=1e-15)


# reciprocated 0 <-> 2 at t = 2; sum of every walk weight is finite
THREE_NODES = "0 1 1\n1 2 1\n2 0 2\n0 2 2\n"


@pytest.fixture
def three_file(tmp_path):
    path = tmp_path / "three.txt"
    path.write_text(THREE_NODES)
    return str(path)


@pytest.mark.parametrize("alpha", ["nan", "inf", "-inf", "-0.5"])
@pytest.mark.parametrize("force", [(), ("--force",)])
def test_rank_rejects_alpha_that_is_not_finite_and_nonnegative(
    capsys, three_file, alpha, force
):
    code, out, err = run(
        capsys, "rank", three_file, f"--alpha={alpha}", "--function", "exponential", *force
    )
    assert code == 2
    assert out == ""
    assert "alpha must be finite and nonnegative" in err


def test_library_rejects_nan_alpha_even_with_force(fig1):
    with pytest.raises(tk.ParameterError):
        tk.temporal_f_total_communicability(
            fig1, math.nan, tk.exponential(), Mode.STANDARD, force=True
        )
    with pytest.raises(tk.ParameterError):
        tk.dynamic_katz_node_level(fig1, math.nan, force=True)


@pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
def test_rank_rejects_bad_tol(capsys, three_file, tol):
    code, out, err = run(capsys, "rank", three_file, "--alpha", "0.1", "--tol", tol)
    assert code == 1
    assert out == ""
    assert "--tol must be positive and finite" in err and "Traceback" not in err


@pytest.mark.parametrize("measure", ["tc", "sc"])
def test_rank_series_overflow_exits_3_without_warning(capsys, three_file, measure):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(
            capsys, "rank", three_file, "--function", "exponential",
            "--alpha", "1e3", "--measure", measure,
        )
    assert code == 3
    assert out == ""
    assert "not finite" in err
    assert caught == []
