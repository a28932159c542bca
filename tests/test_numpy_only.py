"""SciPy loads only in the functions that call it: importing the package,
``tempokatz validate``, ``check-alpha`` and ``dump-matrix`` run on numpy
alone whatever the size of the blocks, and so does ``rank`` with a series
weight (the exponential or a polynomial) in every mode, and Katz ``rank``
while the systems it factors above DENSE_DIRECT_MAX rows fit the
DENSE_WORK_MAX budget of dense work.  SciPy loads for the sparse LU of
those systems when they do not (``matfun._csc`` and ``matfun._factor``),
and in ``oracle``, whose referees (``adjacency_matrix``,
``global_transition``, ``spectral_radius`` and the like) the tests call.
Each check of the modules loaded runs in a fresh interpreter, since this
test process has SciPy loaded already."""

import json

import pytest
import scipy.sparse.linalg

import tempokatz as tk
from tempokatz.cli import main

from conftest import python, reciprocated_tree

# a finder ahead of every other that refuses scipy and each of its submodules
BLOCK_SCIPY = """
import sys

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None

sys.meta_path.insert(0, BlockScipy())
"""

# the console script's call, its output moved to stderr; then stdout lists
# the scipy modules left loaded
MAIN = """
import contextlib
import sys

import tempokatz
from tempokatz.cli import main

with contextlib.redirect_stdout(sys.stderr):
    code = main(sys.argv[1:])
print(" ".join(sorted(k for k in sys.modules if k.split(".")[0] == "scipy")))
sys.exit(code)
"""

# the same for each argument list of a JSON list, run in turn
MAIN_EACH = """
import contextlib
import json
import sys

import tempokatz
from tempokatz.cli import main

with contextlib.redirect_stdout(sys.stderr):
    code = max(main(argv) for argv in json.loads(sys.argv[1]))
print(" ".join(sorted(k for k in sys.modules if k.split(".")[0] == "scipy")))
sys.exit(code)
"""


@pytest.fixture
def edges(tmp_path):
    path = tmp_path / "edges.txt"
    path.write_text("0 1 1\n1 0 1\n0 1 1\n1 2 2\n")
    return str(path)


def test_import_and_validate_without_scipy(edges):
    result = python(BLOCK_SCIPY + MAIN, "validate", edges)
    assert result.returncode == 0, result.stderr
    assert result.stderr.splitlines() == ["n = 3", "N = 2", "m = 3", "duplicates_collapsed = 1"]


def test_validate_leaves_no_scipy_module_loaded(edges):
    result = python(MAIN, "validate", edges)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == ""


@pytest.mark.parametrize("which", ["M", "B:1"])
def test_dump_matrix_loads_sparse_arrays_only(edges, which):
    # the matrix is written from the edge arrays: of SciPy, not even
    # scipy.sparse loads, on a network with a collapsed duplicate
    result = python(MAIN, "dump-matrix", edges, which)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == []
    rows, cols, nnz = map(int, result.stderr.splitlines()[0].split())
    assert len(result.stderr.splitlines()) == 1 + nnz


# snapshot 1: a lone reciprocated pair, cyclic in A, acyclic in B; 2: a
# triangle; 3: a DAG; and node 6 has no edge in any snapshot
MIXED = "%n 7\n0 1 1\n1 0 1\n0 1 2\n1 2 2\n2 0 2\n0 1 3\n1 2 3\n0 2 3\n3 4 3\n5 3 3\n"


def test_dump_matrix_without_scipy(tmp_path, capsys):
    # every kind, M in each mode: the same bytes under BLOCK_SCIPY as in a
    # free run, which loads no SciPy module, and as in process
    path = tmp_path / "mixed.txt"
    path.write_text(MIXED)
    modes = ["standard", "nbt-space", "nbt-time", "nbt-both"]
    runs = [["dump-matrix", str(path), "M", "--mode", mode] for mode in modes]
    runs += [["dump-matrix", str(path), which] for which in ("L", "R", "A:3", "W:1", "B:1", "B:2")]
    blocked = python(BLOCK_SCIPY + MAIN_EACH, json.dumps(runs))
    assert blocked.returncode == 0, blocked.stderr
    free = python(MAIN_EACH, json.dumps(runs))
    assert free.returncode == 0, free.stderr
    assert free.stdout.strip() == ""  # no scipy module loaded
    assert blocked.stderr == free.stderr  # main's stdout, byte for byte
    assert all(main(argv) == 0 for argv in runs)
    assert capsys.readouterr().out == free.stderr
    assert "2 2 2\n0 1 1\n1 0 1\n2 2 0\n" in free.stderr  # W_1, then B_1 of the pair


@pytest.mark.parametrize("mode", ["standard", "nbt-both"])
def test_check_alpha_without_scipy(tmp_path, mode):
    path = tmp_path / "mixed.txt"
    path.write_text(MIXED)
    blocked = python(BLOCK_SCIPY + MAIN, "check-alpha", str(path), "--mode", mode)
    assert blocked.returncode == 0, blocked.stderr
    free = python(MAIN, "check-alpha", str(path), "--mode", mode)
    assert free.returncode == 0, free.stderr
    assert free.stdout.strip() == ""  # no scipy module loaded
    assert blocked.stderr == free.stderr  # main's stdout, byte for byte
    lines = blocked.stderr.splitlines()
    assert lines[1] == "snapshot 1: rho = 1 lambda = inf"
    assert lines[2].startswith("snapshot 2: rho = 1")  # dense eigenvalues, to rounding
    assert lines[3:] == ["snapshot 3: rho = 0 lambda = inf"]


# both radii of every snapshot of a network with an empty snapshot, which no
# edge-list file can hold
RADII = """
import sys

import tempokatz as tk

snapshots = [[(0, 1), (1, 0)], [(0, 1), (1, 2), (2, 0)], [], [(0, 1), (1, 2), (0, 2)]]
snaps = tuple(tk.Snapshot(tau, tuple(e)) for tau, e in enumerate(snapshots, 1))
net = tk.TemporalNetwork(4, snaps, tuple(range(len(snaps))))
bound = tk.alpha_bound(net, tk.Mode.NBT_BOTH)
print(repr(bound))
print([(round(rho, 9), round(lam, 9)) for rho, lam in bound.per_snapshot])
print(sorted(k for k in sys.modules if k.split(".")[0] == "scipy"))
"""


def test_alpha_bound_with_an_empty_snapshot_without_scipy():
    blocked, free = python(BLOCK_SCIPY + RADII), python(RADII)
    assert blocked.returncode == 0, blocked.stderr
    assert free.returncode == 0, free.stderr
    assert blocked.stdout == free.stdout
    radii = "[(1.0, inf), (1.0, 1.0), (0.0, inf), (0.0, inf)]"
    assert free.stdout.splitlines()[1:] == [radii, "[]"]


def test_check_alpha_above_the_direct_cutoff_without_scipy(tmp_path):
    # A has 250 rows, above DENSE_DIRECT_MAX: its radius takes the route
    # through strongly connected components, found on numpy as well
    path = tmp_path / "wide.txt"
    path.write_text("%n 250\n0 1 1\n1 2 1\n2 0 1\n")
    blocked = python(BLOCK_SCIPY + MAIN, "check-alpha", str(path))
    assert blocked.returncode == 0, blocked.stderr
    free = python(MAIN, "check-alpha", str(path))
    assert free.returncode == 0, free.stderr
    assert free.stdout.strip() == ""  # no scipy module loaded
    assert blocked.stderr == free.stderr  # main's stdout, byte for byte
    assert free.stderr.splitlines() == [
        "ell = 1",
        "snapshot 1: rho = 1 lambda = 0.99999999999999978",
    ]


def path_and_triangle(length):
    """A ``length``-edge path in snapshot 1 and an undirected triangle in
    snapshot 2, on 1000 nodes.  The path's A and B have 1000 and ``length``
    rows and no cycle; above DENSE_DIRECT_MAX edges the peel, which stops
    after as many rounds, leaves rows of both to the components.  A of the
    triangle has 1000 rows."""
    return "%n 1000\n" + "".join(f"{i} {i + 1} 1\n" for i in range(length)) + (
        "0 1 2\n1 0 2\n1 2 2\n2 1 2\n2 0 2\n0 2 2\n"
    )


# rank's bound of the network in a file, for a mode
BOUND = """
import sys

import tempokatz as tk

net = tk.parse_temporal_edgelist(open(sys.argv[1]).read())
print(tk.spectral.mode_bound(net, tk.Mode(sys.argv[2])))
"""


@pytest.mark.parametrize("mode", ["nbt-space", "nbt-both"])
def test_deep_path_beside_a_triangle(tmp_path, mode):
    for length in (300, 999):
        path = tmp_path / f"path{length}.txt"
        path.write_text(path_and_triangle(length))
        blocked = python(BLOCK_SCIPY + MAIN, "check-alpha", str(path), "--mode", mode)
        assert blocked.returncode == 0, blocked.stderr
        free = python(MAIN, "check-alpha", str(path), "--mode", mode)
        assert free.returncode == 0, free.stderr
        assert free.stdout.strip() == ""  # no scipy module loaded
        assert blocked.stderr == free.stderr  # main's stdout, byte for byte
        assert free.stderr.splitlines() == [
            "ell = 0.99999999999999978",
            "snapshot 1: rho = 0 lambda = inf",
            "snapshot 2: rho = 2 lambda = 0.99999999999999978",
        ]
        # rank's bound needs no SciPy either, and at alpha = 1/2 the path's
        # node step has `length` rows, its distinct sources: at most
        # 1000**2 * 1002 of dense work for its inversion and one column,
        # within DENSE_WORK_MAX, so rank inverts it on numpy as well
        bound = python(BLOCK_SCIPY + BOUND, str(path), mode)
        assert bound.returncode == 0, bound.stderr
        assert bound.stdout == "(0.9999999999999998, True)\n"
        rank = ["rank", str(path), "--alpha", "0.5", "--mode", mode]
        blocked = python(BLOCK_SCIPY + MAIN, *rank)
        assert blocked.returncode == 0, blocked.stderr
        free = python(MAIN, *rank)
        assert free.returncode == 0, free.stderr
        assert free.stdout.strip() == ""  # no scipy module loaded
        assert blocked.stderr == free.stderr  # main's stdout, byte for byte
        lines = free.stderr.splitlines()
        assert "# ell=0.99999999999999978" in lines
        top = {"nbt-space": ["0,5.5000000000000009,1", "1,5.0000000000000009,2"],
               "nbt-both": ["0,4.75,1", "1,4.5,2"]}[mode]
        assert lines[lines.index("node,value,rank") + 1 :][:3] == top + ["2,4,3"]


def test_katz_rank_without_scipy(tmp_path):
    # both measures in every mode, on node steps; and nbt-space and nbt-both
    # above alpha = 1/2, where they factor Hashimoto blocks; ell = 1 in
    # every mode
    path = tmp_path / "mixed.txt"
    path.write_text(MIXED)
    modes = ["standard", "nbt-space", "nbt-time", "nbt-both"]
    runs = [
        ["rank", str(path), "--alpha", "0.3", "--mode", mode, "--measure", measure]
        for mode in modes
        for measure in ("tc", "sc")
    ]
    runs += [
        ["rank", str(path), "--alpha", "0.75", "--mode", mode] for mode in ("nbt-space", "nbt-both")
    ]
    blocked = python(BLOCK_SCIPY + MAIN_EACH, json.dumps(runs))
    assert blocked.returncode == 0, blocked.stderr
    free = python(MAIN_EACH, json.dumps(runs))
    assert free.returncode == 0, free.stderr
    assert free.stdout.strip() == ""  # no scipy module loaded
    assert blocked.stderr == free.stderr  # main's stdout, byte for byte
    fastpath = [line for line in free.stderr.splitlines() if line.startswith("# fastpath=")]
    assert fastpath == ["# fastpath=True"] * 8 + ["# fastpath=False"] * 2


def test_acyclic_blocks_above_the_direct_cutoff_without_scipy(tmp_path):
    # A has 300 rows and no cycle: the peel shows it, so no radius is taken
    path = tmp_path / "dag.txt"
    path.write_text("%n 300\n0 1 1\n0 2 1\n1 2 2\n2 3 3\n1 3 3\n")
    runs = [
        ["check-alpha", str(path)],
        ["rank", str(path), "--alpha", "0.5"],
        ["rank", str(path), "--alpha", "0.5", "--mode", "nbt-time", "--measure", "sc"],
    ]
    blocked = python(BLOCK_SCIPY + MAIN_EACH, json.dumps(runs))
    assert blocked.returncode == 0, blocked.stderr
    free = python(MAIN_EACH, json.dumps(runs))
    assert free.returncode == 0, free.stderr
    assert free.stdout.strip() == ""  # no scipy module loaded
    assert blocked.stderr == free.stderr  # main's stdout, byte for byte
    lines = free.stderr.splitlines()
    assert lines[:2] == ["ell = inf", "snapshot 1: rho = 0 lambda = inf"]
    assert "0,2.875,1" in lines


@pytest.mark.parametrize(
    "n, sources, measure, sparse_factors",
    [
        (250, 3, "tc", []),  # |S_t| = 3, at most DENSE_DIRECT_MAX
        (250, 250, "tc", []),  # 256**2 * 258 of dense work, within DENSE_WORK_MAX
        (1100, 1100, "tc", [(1100, 1100)]),  # 1104**2 * 1106, above it
        (800, 800, "tc", []),  # 800**2 * 802, 48% of it
        (800, 800, "sc", [(800, 800)]),  # 800**2 * (800 + 2 * 800 columns): 143%
    ],
    ids=["3-sources", "250-sources", "1100-sources", "800-sources", "800-sources-sc"],
)
def test_katz_rank_factors_each_step_on_its_sources(
    tmp_path, monkeypatch, capsys, n, sources, measure, sparse_factors
):
    # A, with n rows above DENSE_DIRECT_MAX, holds a cycle through its first
    # `sources` nodes, and its radius takes the strongly connected
    # components, found on numpy.  The step's system has only the |S_t|
    # rows of the snapshot's distinct sources, and splu factors it only
    # above the cutoff when its inversion and the solves of its columns,
    # one in TC and one per target in SC, are more dense work than
    # DENSE_WORK_MAX: SciPy loads for splu and nothing else
    path = tmp_path / "wide.txt"
    path.write_text(f"%n {n}\n" + "".join(f"{i} {(i + 1) % sources} 1\n" for i in range(sources)))
    rank = ["rank", str(path), "--alpha", "0.5", "--measure", measure]
    result = python(MAIN, *rank)
    assert result.returncode == 0, result.stderr
    loaded = set(result.stdout.split())
    assert "scipy.sparse.csgraph" not in loaded
    assert ("scipy.sparse.linalg" in loaded) == bool(sparse_factors)
    assert bool(loaded) == bool(sparse_factors)
    factored, splu = [], scipy.sparse.linalg.splu

    def counted(P, **options):
        factored.append(P.shape)
        return splu(P, **options)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", counted)
    assert main(rank) == 0
    assert factored == sparse_factors
    assert capsys.readouterr().out == result.stderr  # the same output in process


def test_nbt_both_rank_on_the_dense_snapshots_network_without_scipy(
    tmp_path, dense_snapshots_edge
):
    # perfbench's claimed query: nbt-both at half the standard ell, far
    # below 1/2, takes node steps on the NBT cubic of at most 40 rows in
    # place of the 300- and 700-row Hashimoto blocks
    path = tmp_path / "dense.txt"
    path.write_text(dense_snapshots_edge)
    net = tk.parse_temporal_edgelist(dense_snapshots_edge)
    alpha = repr(0.5 * tk.alpha_bound(net, tk.Mode.STANDARD).ell)
    rank = ["rank", str(path), "--alpha", alpha, "--mode", "nbt-both"]
    blocked = python(BLOCK_SCIPY + MAIN, *rank)
    assert blocked.returncode == 0, blocked.stderr
    free = python(MAIN, *rank)
    assert free.returncode == 0, free.stderr
    assert free.stdout.strip() == ""  # no scipy module loaded
    assert blocked.stderr == free.stderr  # main's stdout, byte for byte
    lines = free.stderr.splitlines()
    rows = lines[lines.index("node,value,rank") + 1 :]
    assert len(rows) == net.n
    assert rows[0].startswith("16,8.34520621223") and rows[0].endswith(",1")
    assert "# fastpath=True" in lines


def test_nbt_both_rank_on_hashimoto_blocks_above_the_cutoff_without_scipy(tmp_path):
    # a reciprocated tree of 300 edges, whose Hashimoto block is nilpotent:
    # ell = inf, so alpha = 0.75 > 1/2 needs no force, and nbt-both factors
    # the 300-row block, within DENSE_WORK_MAX, on numpy
    path = tmp_path / "tree.txt"
    path.write_text(reciprocated_tree(151))
    rank = ["rank", str(path), "--alpha", "0.75", "--mode", "nbt-both"]
    blocked = python(BLOCK_SCIPY + MAIN, *rank)
    assert blocked.returncode == 0, blocked.stderr
    free = python(MAIN, *rank)
    assert free.returncode == 0, free.stderr
    assert free.stdout.strip() == ""  # no scipy module loaded
    assert blocked.stderr == free.stderr  # main's stdout, byte for byte
    lines = free.stderr.splitlines()
    assert "# fastpath=False" in lines
    assert lines[lines.index("node,value,rank") + 1] == "1,37.4921875,1"


def test_series_rank_without_scipy(tmp_path):
    # a series weight sums on line_space.TransitionOperator, on numpy alone:
    # the exponential and a polynomial, both measures, every mode
    path = tmp_path / "mixed.txt"
    path.write_text(MIXED)
    coeffs = tmp_path / "coeffs.txt"
    coeffs.write_text("1\n1\n0.5\n0.25\n")
    runs = [
        ["rank", str(path), "--alpha", "0.3", "--function", function, "--mode", mode,
         "--measure", measure]
        for function in ("exponential", f"coeffs:{coeffs}")
        for mode in ("standard", "nbt-space", "nbt-time", "nbt-both")
        for measure in ("tc", "sc")
    ]
    blocked = python(BLOCK_SCIPY + MAIN_EACH, json.dumps(runs))
    assert blocked.returncode == 0, blocked.stderr
    free = python(MAIN_EACH, json.dumps(runs))
    assert free.returncode == 0, free.stderr
    assert free.stdout.strip() == ""  # no scipy module loaded
    assert blocked.stderr == free.stderr  # main's stdout, byte for byte
    lines = free.stderr.splitlines()
    assert lines.count("node,value,rank") == len(runs)
    # exponential TC in the standard mode, as the assembled M gave it
    assert "0,2.5013079897443857,1" in lines
