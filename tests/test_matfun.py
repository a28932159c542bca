import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import tempokatz as tk
from tempokatz import Mode, Snapshot, TemporalNetwork
from tempokatz.matfun import SolveError, evaluate, resolvent_solver

from conftest import TRIANGLE, dense_radius, networks, random_network


def test_partial_exponential_is_psi1():
    psi1 = tk.partial_op(tk.exponential())
    for r in range(8):
        assert psi1(r) == pytest.approx(1.0 / math.factorial(r + 1), rel=1e-15)
    assert psi1(0) == 1.0


def test_partial_resolvent_fixed_point():
    katz = tk.resolvent(1.0, 1.0)
    shifted = tk.partial_op(katz)
    for r in range(10):
        assert shifted(r) == katz(r) == 1.0


def test_partial_constant_is_zero():
    const = tk.polynomial([5.0])
    shifted = tk.partial_op(const)
    assert all(shifted(r) == 0.0 for r in range(5))


def test_partial_resolvent_stays_geometric():
    f = tk.resolvent(2.0, 0.5)
    g = tk.partial_op(f)
    for r in range(8):
        assert g(r) == pytest.approx(2.0 * 0.5 ** (r + 1), rel=1e-15)
    assert g.geometric == (1.0, 0.5)


def test_partial_scalar_identity():
    # shifted f agrees with (f(z) - f(0)) / z inside the disk
    for f in [tk.exponential(), tk.resolvent(1.0, 1.0), tk.polynomial([1, 2, 3, 4])]:
        g = tk.partial_op(f)
        for z in np.linspace(-0.9, 0.9, 13):
            if z == 0.0:
                continue
            lhs = evaluate(g, z)
            rhs = (evaluate(f, z) - f(0)) / z
            assert lhs == pytest.approx(rhs, abs=1e-9)


def test_partial_value_at_zero_is_derivative():
    assert tk.partial_op(tk.exponential())(0) == 1.0  # exp'(0)
    assert tk.partial_op(tk.polynomial([3.0, 7.0]))(0) == 7.0


def test_negative_coefficients_rejected():
    with pytest.raises(ValueError):
        tk.polynomial([1.0, -2.0])
    with pytest.raises(ValueError):
        tk.resolvent(-1.0, 1.0)


def test_apply_series_worked_example_psi1(ex5):
    # the nilpotent edge-space matrix gives an exact 3-term evaluation
    M = tk.global_transition(ex5, Mode.STANDARD)
    psi1 = tk.partial_op(tk.exponential())
    for beta in (0.5, 1.0, 2.0):
        result = tk.apply_series(M, beta, psi1, np.array([0.0, 0.0, 1.0]))
        np.testing.assert_allclose(
            result.value, [beta**2 / 6, beta / 2, 1.0], rtol=1e-15
        )
        assert not result.truncated
        assert result.terms <= 4  # powers 0..2 plus the vanishing third power


def test_apply_series_alpha_zero(ex5):
    M = tk.global_transition(ex5, Mode.STANDARD)
    g = tk.partial_op(tk.exponential())
    v = np.array([2.0, 3.0, 4.0])
    result = tk.apply_series(M, 0.0, g, v)
    np.testing.assert_array_equal(result.value, g(0) * v)


def test_apply_series_matches_resolvent_solve():
    rng = np.random.default_rng(30)
    for _ in range(5):
        net = random_network(rng, n=5, N=1, density=0.4)
        M = tk.global_transition(net, Mode.STANDARD)
        rho = tk.spectral_radius(M).value
        if rho == 0.0:
            continue
        alpha = 0.9 / rho
        v = rng.random(net.m)
        series = tk.apply_series(M, alpha, tk.resolvent(1, 1), v, tol=1e-14)
        solved = tk.resolvent_solve(M, alpha, v)
        np.testing.assert_allclose(series.value, solved, atol=1e-8)


def test_apply_series_nonnegative_preserved(fig1):
    M = tk.global_transition(fig1, Mode.STANDARD)
    g = tk.partial_op(tk.exponential())
    result = tk.apply_series(M, 0.4, g, np.ones(fig1.m))
    assert (result.value >= 0).all()


def test_apply_series_nilpotent_exact_termination(ex5):
    M = tk.global_transition(ex5, Mode.STANDARD)
    result = tk.apply_series(M, 1.0, tk.resolvent(1, 1), np.ones(3), tol=1e-300)
    assert not result.truncated
    assert result.terms == 4  # nilpotency index 3: powers 0..3, last one zero


def test_apply_series_dimension_mismatch(ex5):
    M = tk.global_transition(ex5, Mode.STANDARD)
    with pytest.raises(ValueError):
        tk.apply_series(M, 0.1, tk.exponential(), np.ones(5))


def test_apply_series_truncation_flag(triangle):
    M = tk.global_transition(triangle, Mode.STANDARD)
    result = tk.apply_series(M, 0.45, tk.resolvent(1, 1), np.ones(6), rmax=3)
    assert result.truncated


def test_apply_series_block_matches_columns(fig1):
    # each column stops on its own term size, so a block gives the same
    # numbers as one vector at a time
    rng = np.random.default_rng(31)
    V = rng.random((fig1.m, 4))
    V[:, 2] = 0.0
    for mode in Mode:
        M = tk.global_transition(fig1, mode)
        g = tk.partial_op(tk.exponential())
        block = tk.apply_series(M, 0.7, g, V)
        for k in range(V.shape[1]):
            column = tk.apply_series(M, 0.7, g, V[:, k])
            np.testing.assert_array_equal(block.value[:, k], column.value)
            assert column.terms <= block.terms
        assert not block.truncated


def test_resolvent_solve_block_matches_columns(fig1):
    rng = np.random.default_rng(32)
    V = rng.random((fig1.m, 3))
    M = tk.global_transition(fig1, Mode.STANDARD)
    X = tk.resolvent_solve(M, 0.4, V)
    assert X.shape == V.shape
    for k in range(V.shape[1]):
        np.testing.assert_allclose(X[:, k], tk.resolvent_solve(M, 0.4, V[:, k]), rtol=1e-14)


def test_resolvent_solve_alpha_zero(ex5):
    M = tk.global_transition(ex5, Mode.STANDARD)
    v = np.array([1.0, 2.0, 3.0])
    np.testing.assert_array_equal(tk.resolvent_solve(M, 0.0, v), v)


def test_resolvent_solve_worked_example(ex5):
    M = tk.global_transition(ex5, Mode.STANDARD)
    for beta in (0.5, 1.3):
        x = tk.resolvent_solve(M, beta, np.ones(3))
        np.testing.assert_allclose(
            x, [1 + beta + beta**2, 1 + beta, 1.0], rtol=1e-14
        )


def test_resolvent_solve_near_singular(triangle):
    M = tk.global_transition(triangle, Mode.STANDARD)
    # rho(M) = 2 exactly, so alpha = 1/2 makes I - alpha M singular
    with pytest.raises(SolveError):
        tk.resolvent_solve(M, 0.5, np.ones(6))


def test_resolvent_solve_dimension_mismatch(ex5):
    M = tk.global_transition(ex5, Mode.STANDARD)
    with pytest.raises(ValueError):
        tk.resolvent_solve(M, 0.1, np.ones(7))


def snapshot_sizes(net):
    return [snap.m for snap in net.snapshots]


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_block_solver_matches_one_block(N):
    rng = np.random.default_rng(33 + N)
    for _ in range(4):
        net = random_network(rng, N=N, density=0.5)
        V = rng.random((net.m, 3))
        for mode in Mode:
            M = tk.global_transition(net, mode)
            alpha = 0.5 / max(dense_radius(M), 1.0)
            block = resolvent_solver(net, mode, alpha)
            for v in (V[:, 0], V):
                np.testing.assert_allclose(
                    block(v), tk.resolvent_solve(M, alpha, v), rtol=1e-12, atol=0
                )


@given(networks(), st.sampled_from(list(Mode)), st.floats(0.0, 0.9), st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_block_solver_matches_whole_matrix_property(net, mode, fraction, seed):
    # empty snapshots, isolated nodes and reciprocated pairs; alpha up to 0.9
    # of the admissible bound 1 / rho(M), or up to 2 when M is nilpotent
    assume(net.m > 0)
    M = tk.global_transition(net, mode)
    rho = dense_radius(M)
    alpha = fraction / rho if rho > 1e-8 else 2 * fraction
    V = np.random.default_rng(seed).random((net.m, 3))
    solve = resolvent_solver(net, mode, alpha)
    for v in (V[:, 0], V):
        np.testing.assert_allclose(solve(v), tk.resolvent_solve(M, alpha, v), rtol=1e-12, atol=0)


def test_block_solver_skips_empty_snapshot():
    # 0->1 at t1, nothing at t2, 1->2 and 2->0 at t3: a zero-size middle block
    net = TemporalNetwork(
        n=3,
        snapshots=(Snapshot(1, ((0, 1),)), Snapshot(2, ()), Snapshot(3, ((1, 2), (2, 0)))),
        timestamps=(1, 2, 3),
    )
    assert snapshot_sizes(net) == [1, 0, 2]
    M = tk.global_transition(net, Mode.STANDARD)
    for mode in Mode:
        solve = resolvent_solver(net, mode, 0.5)
        # edges in order 0->1, 1->2, 2->0; walks 0->1->2->0, 1->2->0
        np.testing.assert_allclose(solve(np.ones(3)), [1.75, 1.5, 1.0], rtol=1e-15)
        np.testing.assert_allclose(solve(np.eye(3)), tk.resolvent_solve(M, 0.5, np.eye(3)), rtol=1e-15)


def test_block_solver_rejects_vector_of_wrong_length(fig1):
    solve = resolvent_solver(fig1, Mode.STANDARD, 0.2)
    for v in (np.ones(fig1.m - 1), np.ones((fig1.m + 1, 2)), np.ones((fig1.m, 2, 2))):
        with pytest.raises(ValueError):
            solve(v)


def test_block_solver_singular_later_block():
    # the triangle's line graph has rho = 2, so I - M/2 is singular on block 2
    # in the line-graph modes, where the node system I - A/2 meets an exactly
    # zero pivot; its Hashimoto matrix has rho = 1
    text = "0 1 1\n" + TRIANGLE.replace(" 1\n", " 2\n")
    net = tk.parse_temporal_edgelist(text)
    assert snapshot_sizes(net) == [1, 6]
    katz = tk.resolvent(1, 1)
    for mode in (Mode.STANDARD, Mode.NBT_TIME):
        with pytest.raises(SolveError, match="singular"):
            resolvent_solver(net, mode, 0.5)
        # a vector (TC) and a block of columns (SC)
        with pytest.raises(SolveError, match="singular"):
            tk.temporal_f_total_communicability(net, 0.5, katz, mode, force=True)
        with pytest.raises(SolveError, match="singular"):
            tk.temporal_f_subgraph_centrality(net, 0.5, katz, mode, force=True)
    for mode in (Mode.NBT_SPACE, Mode.NBT_BOTH):
        M = tk.global_transition(net, mode)
        for v in (np.ones(net.m), np.eye(net.m)[:, :3]):
            np.testing.assert_allclose(
                resolvent_solver(net, mode, 0.5)(v), tk.resolvent_solve(M, 0.5, v), rtol=1e-12
            )


def test_monomial_and_polynomial():
    mono = tk.monomial(3)
    assert [mono(r) for r in range(5)] == [0, 0, 0, 1, 0]
    poly = tk.polynomial([1.0, 0.0, 2.0])
    assert poly.degree == 2
    assert poly(2) == 2.0
    assert poly(3) == 0.0


def test_coefficient_file(tmp_path):
    path = tmp_path / "coeffs.txt"
    path.write_text("1.0\n0.5  # halved\n\n0.25\n")
    f = tk.from_coefficient_file(path)
    assert [f(r) for r in range(4)] == [1.0, 0.5, 0.25, 0.0]
    bad = tmp_path / "bad.txt"
    bad.write_text("1.0\nnope\n")
    with pytest.raises(ValueError):
        tk.from_coefficient_file(bad)


def test_polynomial_summed_to_its_degree():
    # the r = 2 term is below tol, yet the terms after it are not
    poly = tk.polynomial([1.0, 1.0, 1e-16, 1.0])
    assert evaluate(poly, 0.5) == pytest.approx(1.625 + 0.25e-16, rel=1e-15)
    M = tk.adjacency_matrix(tk.parse_temporal_edgelist("0 1 1\n1 0 1"), 1)
    result = tk.apply_series(M, 0.5, poly, np.ones(2))
    assert result.terms == 4 and not result.truncated
    np.testing.assert_allclose(result.value, 1.625 + 0.25e-16, rtol=1e-15)


def test_apply_series_overflow_raises_solve_error(triangle):
    M = tk.global_transition(triangle, Mode.STANDARD)
    g = tk.partial_op(tk.exponential())
    with pytest.raises(SolveError, match="not finite"):
        tk.apply_series(M, 1e3, g, np.ones(M.shape[0]))
