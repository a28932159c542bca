import importlib
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tempokatz as tk
from tempokatz import Mode
from tempokatz.oracle import (
    EnumerationGuardError,
    functional_equation_residual,
    homogeneous_symmetric,
)

from conftest import FIG_NETWORK, TRIANGLE


LOADED = """
import contextlib
import io
import sys

import tempokatz.cli

path = sys.argv[1]
runs = [["validate", path], ["check-alpha", path, "--mode", "nbt-both"]]
runs += [["rank", path, "--alpha", "0.1", "--function", f] for f in ("katz", "exponential")]
modes = ("standard", "nbt-space", "nbt-time", "nbt-both")
runs += [["dump-matrix", path, "M", "--mode", mode] for mode in modes]
runs += [["dump-matrix", path, which] for which in ("L", "R", "A:1", "W:1", "B:1")]
with contextlib.redirect_stdout(io.StringIO()):
    assert all(tempokatz.cli.main(argv) == 0 for argv in runs)
print("tempokatz.oracle" in sys.modules)
import tempokatz as tk

tk.enumerate_temporal_walks
print("tempokatz.oracle" in sys.modules)
"""

# the module itself, as an attribute of the package
MODULE = """
import tempokatz as tk

print(tk.oracle.__name__)
"""

#: the names each module forwards to the oracle function of that name: the
#: SciPy builders that the tests and the benchmark call, and on the package
#: the walk oracle's names too
FORWARDED = {
    "tempokatz": (
        "WalkCountTensor", "deg_matrices", "enumerate_temporal_walks",
        "functional_equation_residual", "homogeneous_symmetric", "weighted_walk_sum",
        "adjacency_matrix", "source_target_matrices", "line_graph_matrix", "hashimoto_matrix",
        "global_source_target", "global_transition", "spectral_radius", "resolvent_solve",
    ),
    "tempokatz.temporal_graph": ("adjacency_matrix",),
    "tempokatz.line_space": (
        "source_target_matrices", "line_graph_matrix", "hashimoto_matrix",
        "global_source_target", "global_transition",
    ),
    "tempokatz.spectral": ("spectral_radius",),
    "tempokatz.matfun": ("resolvent_solve",),
}


def test_oracle_loads_on_first_use(tmp_path):
    # no command uses the oracle: the CLI's import and every command, each
    # dump-matrix kind among them, leave it out; the package still exposes
    # its names, and loads it on first access
    path = tmp_path / "fig.txt"
    path.write_text(FIG_NETWORK)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    for argv, want in (([LOADED, str(path)], ["False", "True"]), ([MODULE], ["tempokatz.oracle"])):
        result = subprocess.run(
            [sys.executable, "-c", *argv], env=env, capture_output=True, text=True, timeout=60
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == want
    assert tk.weighted_walk_sum is tk.oracle.weighted_walk_sum
    with pytest.raises(AttributeError, match="no attribute 'walk_oracle'"):
        tk.walk_oracle


@pytest.mark.parametrize("module", FORWARDED)
def test_forwarded_names_are_the_oracle_functions(module):
    mod = importlib.import_module(module)
    for name in FORWARDED[module]:
        assert getattr(mod, name) is getattr(tk.oracle, name)
    # perfbench's Context reads hasattr(spectral, "NonConvergenceError")
    assert not hasattr(mod, "NonConvergenceError")
    with pytest.raises(AttributeError, match=f"^module '{module}' has no attribute 'sorted_csr'$"):
        mod.sorted_csr


def dense(m):
    return np.asarray(m.todense())


def test_length_zero_walks_identity(fig1):
    counts = tk.enumerate_temporal_walks(fig1, 2, Mode.STANDARD)
    np.testing.assert_array_equal(counts.matrix(0).astype(int), np.eye(4, dtype=int))


def test_fig_network_length_two_counts(fig1):
    # row sums of length-2 counts, per mode, for start nodes 0, 1, 3
    expected = {
        Mode.STANDARD: {0: 2, 1: 2, 3: 3},
        Mode.NBT_SPACE: {0: 1, 1: 2, 3: 2},
        Mode.NBT_TIME: {0: 2, 1: 1, 3: 2},
        Mode.NBT_BOTH: {0: 1, 1: 1, 3: 1},
    }
    for mode, rows in expected.items():
        counts = tk.enumerate_temporal_walks(fig1, 2, mode)
        mat = counts.matrix(2)
        for start, total in rows.items():
            assert int(mat[start, :].sum()) == total, (mode, start)


def test_single_snapshot_standard_counts_are_adjacency_powers():
    net = tk.parse_temporal_edgelist(TRIANGLE)
    A = dense(tk.adjacency_matrix(net, 1)).astype(int)
    counts = tk.enumerate_temporal_walks(net, 4, Mode.STANDARD)
    power = np.eye(3, dtype=int)
    for r in range(1, 5):
        power = power @ A
        np.testing.assert_array_equal(counts.matrix(r).astype(int), power)


def test_single_snapshot_nbt_counts_match_hashimoto():
    net = tk.parse_temporal_edgelist(TRIANGLE)
    snap = net.snapshot(1)
    L, R = tk.source_target_matrices(snap, 3)
    B = dense(tk.hashimoto_matrix(snap, 3))
    counts = tk.enumerate_temporal_walks(net, 4, Mode.NBT_SPACE)
    power = np.eye(snap.m)
    for r in range(1, 5):
        expect = dense(L).T @ power @ dense(R)
        np.testing.assert_array_equal(counts.matrix(r).astype(float), expect)
        power = power @ B


def test_counts_match_global_transition_powers(fig1):
    Lg, Rg = tk.global_source_target(fig1)
    for mode in Mode:
        M = dense(tk.global_transition(fig1, mode))
        counts = tk.enumerate_temporal_walks(fig1, 5, mode)
        power = np.eye(fig1.m)
        for r in range(1, 6):
            expect = dense(Lg).T @ power @ dense(Rg)
            np.testing.assert_array_equal(
                counts.matrix(r).astype(float), expect, err_msg=f"{mode} r={r}"
            )
            power = power @ M


def test_weighted_walk_sum_worked_example(ex5):
    counts = tk.enumerate_temporal_walks(ex5, 3, Mode.STANDARD)
    beta = 0.5
    out = tk.weighted_walk_sum(counts, tk.exponential(), beta)
    expect = np.array(
        [
            [1, beta, beta**2 / 2, beta**3 / 6],
            [0, 1, beta, beta**2 / 2],
            [0, 0, 1, beta],
            [0, 0, 0, 1],
        ]
    )
    np.testing.assert_allclose(out, expect, atol=1e-15)


def test_weighted_walk_sum_alpha_zero(fig1):
    counts = tk.enumerate_temporal_walks(fig1, 3, Mode.STANDARD)
    np.testing.assert_array_equal(
        tk.weighted_walk_sum(counts, tk.exponential(), 0.0), np.eye(4)
    )


def test_weighted_walk_sum_single_edge():
    net = tk.parse_temporal_edgelist("0 1 1")
    counts = tk.enumerate_temporal_walks(net, 5, Mode.STANDARD)
    out = tk.weighted_walk_sum(counts, tk.resolvent(1, 1), 0.3)
    np.testing.assert_allclose(out, [[1.0, 0.3], [0.0, 1.0]], atol=1e-15)


def test_enumeration_guard():
    net = tk.parse_temporal_edgelist(TRIANGLE)
    with pytest.raises(EnumerationGuardError):
        tk.enumerate_temporal_walks(net, 40, Mode.STANDARD, guard=1000)


def test_homogeneous_symmetric_basics():
    assert homogeneous_symmetric(0, [2.0, 3.0]) == 1.0
    assert homogeneous_symmetric(5, [1.0, 0.0, 0.0]) == 1.0
    # h_2(x, y) = x^2 + xy + y^2
    assert homogeneous_symmetric(2, [1.0, 1.0]) == 3.0
    with pytest.raises(ValueError):
        homogeneous_symmetric(-1, [1.0])
    with pytest.raises(ValueError):
        homogeneous_symmetric(2, [])


def test_homogeneous_symmetric_matches_multiset_sum():
    rng = np.random.default_rng(50)
    xs = rng.random(4).tolist()
    for r in range(6):
        brute = sum(
            math.prod(xs[i] for i in combo)
            for combo in itertools.combinations_with_replacement(range(4), r)
        )
        assert homogeneous_symmetric(r, xs) == pytest.approx(brute, rel=1e-12)


def test_functional_equation_resolvent_family_closes():
    # resolvent weights are exactly reproducible by a per-snapshot product
    f = tk.resolvent(1.0, 1.0)
    for N, alpha, xs in [(2, 0.3, (1.0, 2.0)), (3, 0.2, (1.0, 1.5, 0.5)), (4, 0.1, (2.0,))]:
        assert functional_equation_residual(f, f, N, alpha, xs) <= 1e-10


def test_functional_equation_scaled_resolvent():
    f = tk.resolvent(2.0, 0.5)
    # gamma^N scaling: use g with gamma adjusted is not available, so check
    # the plain Katz member against itself at another delta
    g = tk.resolvent(1.0, 0.5)
    assert functional_equation_residual(g, g, 3, 0.4, (1.0, 2.0, 1.0)) <= 1e-10
    assert functional_equation_residual(f, f, 2, 0.4, (1.0, 1.0)) > 1e-3


def test_functional_equation_exponential_gap():
    f = tk.exponential()
    residual = functional_equation_residual(f, f, 2, 0.5, (1.0, 1.0))
    # exact gap is |e - 1.5 e^{1/2}| ~ 0.2452
    assert residual == pytest.approx(abs(math.e - 1.5 * math.exp(0.5)), abs=1e-10)
    assert residual > 0.2


def test_functional_equation_single_variable_reduces():
    # with xs = (x, 0, ..., 0) both sides collapse to f(alpha x) = g(alpha x)
    f = tk.exponential()
    assert functional_equation_residual(f, f, 3, 0.7, (1.3,)) <= 1e-12


def test_functional_equation_requires_two_snapshots():
    with pytest.raises(ValueError):
        functional_equation_residual(tk.exponential(), tk.exponential(), 1, 0.5, (1.0,))
