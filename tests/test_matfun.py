import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import tempokatz as tk
from tempokatz import Mode, Snapshot, TemporalNetwork, line_space, matfun, spectral
from tempokatz.matfun import SolveError, resolvent_solver
from tempokatz.oracle import evaluate

from conftest import (
    TRIANGLE, dense_radius, katz_referee, networks, random_network, reciprocated_tree,
)


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


def test_apply_series_matches_resolvent_solve(monkeypatch):
    monkeypatch.setattr(matfun, "DEFAULT_TOL", 1e-14)
    rng = np.random.default_rng(30)
    for _ in range(5):
        net = random_network(rng, n=5, N=1, density=0.4)
        M = tk.global_transition(net, Mode.STANDARD)
        rho = tk.spectral_radius(M).value
        if rho == 0.0:
            continue
        alpha = 0.9 / rho
        v = rng.random(net.m)
        series = tk.apply_series(M, alpha, tk.resolvent(1, 1), v)
        solved = tk.resolvent_solve(M, alpha, v)
        np.testing.assert_allclose(series.value, solved, atol=1e-8)


def test_apply_series_nonnegative_preserved(fig1):
    M = tk.global_transition(fig1, Mode.STANDARD)
    g = tk.partial_op(tk.exponential())
    result = tk.apply_series(M, 0.4, g, np.ones(fig1.m))
    assert (result.value >= 0).all()


def test_apply_series_nilpotent_exact_termination(ex5, monkeypatch):
    monkeypatch.setattr(matfun, "DEFAULT_TOL", 1e-300)
    M = tk.global_transition(ex5, Mode.STANDARD)
    result = tk.apply_series(M, 1.0, tk.resolvent(1, 1), np.ones(3))
    assert not result.truncated
    assert result.terms == 4  # nilpotency index 3: powers 0..3, last one zero


def test_apply_series_dimension_mismatch(ex5):
    M = tk.global_transition(ex5, Mode.STANDARD)
    with pytest.raises(ValueError):
        tk.apply_series(M, 0.1, tk.exponential(), np.ones(5))


def test_apply_series_truncation_flag(triangle, monkeypatch):
    monkeypatch.setattr(matfun, "DEFAULT_RMAX", 3)
    M = tk.global_transition(triangle, Mode.STANDARD)
    result = tk.apply_series(M, 0.45, tk.resolvent(1, 1), np.ones(6))
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


class CountedProducts:
    """M, counting the columns it multiplies."""

    def __init__(self, M):
        self.M, self.shape, self.columns = M, M.shape, 0

    def __matmul__(self, X):
        self.columns += X.shape[1]
        return self.M @ X


@pytest.mark.parametrize("f", [tk.exponential(), tk.polynomial([1.0, 0.5, 0.25, 0.125, 1.0])],
                         ids=["exponential", "polynomial"])
def test_apply_series_multiplies_only_the_columns_still_summing(fig1, f):
    # a zero column, units on edges with few or no successors, and dense
    # columns stop after different numbers of products; the block makes
    # exactly the products of its columns run one at a time, with
    # bit-identical values, and fewer than k per term
    rng = np.random.default_rng(7)
    V = np.zeros((fig1.m, 6))
    V[:, :2] = rng.random((fig1.m, 2))
    V[np.arange(2, 6) % fig1.m, np.arange(2, 6)] = 1.0
    V[:, 5] = 0.0
    g = tk.partial_op(f)
    for mode in Mode:
        M = tk.global_transition(fig1, mode)
        counted = CountedProducts(M)
        block = tk.apply_series(counted, 0.7, g, V)
        columns = []
        for k in range(V.shape[1]):
            one = CountedProducts(M)
            column = tk.apply_series(one, 0.7, g, V[:, k])
            np.testing.assert_array_equal(block.value[:, k], column.value)
            columns.append(one.columns)
        assert counted.columns == sum(columns)
        assert counted.columns < V.shape[1] * (block.terms - 1)
        assert columns[5] == 1  # the zero column stops after one product


def series_by_exact_norms(M, alpha, g, v):
    """:func:`matfun.apply_series` as it was before the running bound on each
    column's max-norm: every term of an infinite series takes the exact one."""
    power = matfun._block(v, M.shape)
    result = acc = g(0) * power
    work = np.empty_like(acc)
    active = np.arange(power.shape[1])
    rstop = matfun.DEFAULT_RMAX if g.degree is None else min(matfun.DEFAULT_RMAX, g.degree)
    terms = 1
    truncated = g.degree is None or rstop < g.degree
    with np.errstate(over="ignore", invalid="ignore"):
        for r in range(1, rstop + 1):
            power = M @ power
            power *= alpha
            terms += 1
            c = g(r)
            if c != 0.0:
                term = np.multiply(power, c, out=work)
                acc += term
            if c != 0.0 and g.degree is None:
                term_norm = np.max(np.abs(term, out=work), axis=0, initial=0.0)
                acc_norm = np.max(np.abs(acc, out=work), axis=0, initial=0.0)
                summing = ~(term_norm <= matfun.DEFAULT_TOL * np.maximum(acc_norm, 1e-300))
            else:
                summing = power.any(axis=0)
            if not summing.all():
                if acc is not result:
                    result[:, active] = acc
                active, power, acc = active[summing], power[:, summing], acc[:, summing]
                work = np.empty_like(acc)
            if not len(active):
                truncated = False
                break
    if acc is not result:
        result[:, active] = acc
    if not np.isfinite(result).all():
        raise SolveError(f"series sum is not finite after {terms} terms (alpha too large?)")
    return matfun.SeriesResult(result.reshape(np.shape(v)), truncated, terms)


def series_outcome(apply, M, alpha, g, V):
    """(value bytes, truncated, terms) of the series, or its SolveError's text."""
    try:
        result = apply(M, alpha, g, V)
    except SolveError as exc:
        return str(exc)
    return result.value.tobytes(), result.truncated, result.terms


SERIES = {
    "exponential": tk.exponential(),
    "psi1": tk.partial_op(tk.exponential()),
    "katz": tk.resolvent(),
    "polynomial": tk.polynomial([1.0, 0.5, 1e-16, 0.25]),
}


@given(networks(), st.sampled_from(list(Mode)), st.sampled_from(sorted(SERIES)),
       st.sampled_from([0.1, 0.5, 0.9, 3.0, 1e3]), st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_apply_series_stops_where_the_exact_norms_stop_property(net, mode, name, alpha, seed):
    # random, unit, zero and scaled columns stop after different numbers of
    # terms, or overflow; the running bound changes no stop, term or bit
    assume(net.m > 0)
    g = SERIES[name]
    if name == "katz":
        alpha *= min(spectral.mode_bound(net, mode)[0], 1.0) / 4  # admissible
    op = line_space.TransitionOperator(net, mode)
    rng = np.random.default_rng(seed)
    V = np.zeros((net.m, 6))
    V[:, 0] = rng.random(net.m)
    V[:, 1] = rng.random(net.m) * 1e-200
    V[:, 2] = rng.random(net.m) * 1e200
    V[rng.integers(0, net.m, 2), [3, 4]] = 1.0
    want = series_outcome(series_by_exact_norms, op, alpha, g, V)
    assert series_outcome(tk.apply_series, op, alpha, g, V) == want
    assert series_outcome(tk.apply_series, op, alpha, g, V[:, 0]) == series_outcome(
        series_by_exact_norms, op, alpha, g, V[:, 0])


def test_apply_series_overflow_raises_as_the_exact_norms_do(triangle):
    M = tk.global_transition(triangle, Mode.STANDARD)
    g = tk.partial_op(tk.exponential())
    want = series_outcome(series_by_exact_norms, M, 1e3, g, np.ones(M.shape[0]))
    assert want.startswith("series sum is not finite after")
    assert series_outcome(tk.apply_series, M, 1e3, g, np.ones(M.shape[0])) == want


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
        W = rng.random((net.n, 3))
        for mode in Mode:
            M = tk.global_transition(net, mode)
            alpha = 0.5 / max(dense_radius(M), 1.0)
            block = resolvent_solver(net, mode, alpha)
            for w in (W[:, 0], W):
                np.testing.assert_allclose(
                    block(w), katz_referee(net, mode, alpha, w), rtol=1e-12, atol=0
                )


@given(networks(), st.sampled_from(list(Mode)), st.floats(0.0, 0.9), st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_block_solver_matches_whole_matrix_property(net, mode, fraction, seed):
    # empty snapshots, isolated nodes and reciprocated pairs; alpha up to 0.9
    # of the admissible bound ell = 1 / rho(M), or up to 2 when M is
    # nilpotent, so nbt-space runs on both sides of alpha = 1.  alpha is
    # taken from ell itself, as katz_referee checks it: 0.9 / rho(M) from
    # dense eigenvalues of the whole M can exceed 0.9 ell in the last bit
    assume(net.m > 0)
    ell = tk.alpha_bound(net, mode).ell
    alpha = fraction * ell if math.isfinite(ell) else 2 * fraction
    W = np.random.default_rng(seed).random((net.n, 3))
    solve = resolvent_solver(net, mode, alpha)
    for w in (W[:, 0], W):
        np.testing.assert_allclose(solve(w), katz_referee(net, mode, alpha, w), rtol=1e-12, atol=0)


def test_block_solver_skips_empty_snapshot():
    # 0->1 at t1, nothing at t2, 1->2 and 2->0 at t3: a zero-size middle block
    net = TemporalNetwork(
        n=3,
        snapshots=(Snapshot(1, ((0, 1),)), Snapshot(2, ()), Snapshot(3, ((1, 2), (2, 0)))),
        timestamps=(1, 2, 3),
    )
    assert snapshot_sizes(net) == [1, 0, 2]
    for mode in Mode:
        solve = resolvent_solver(net, mode, 0.5)
        # walks 0->1->2->0 from node 0, 1->2->0 from node 1, 2->0 from node 2
        np.testing.assert_allclose(solve(np.ones(3)), [1.875, 1.75, 1.5], rtol=1e-15)
        np.testing.assert_allclose(
            solve(np.eye(3)), katz_referee(net, mode, 0.5, np.eye(3)), rtol=1e-15
        )


def test_block_solver_rejects_vector_of_wrong_length(fig1):
    # node steps (standard) and Hashimoto steps (nbt-both above alpha = 1/2);
    # an edge vector is wrong too
    for mode, alpha in ((Mode.STANDARD, 0.2), (Mode.NBT_BOTH, 0.75)):
        solve = resolvent_solver(fig1, mode, alpha)
        assert solve.node_space == (mode is Mode.STANDARD)
        for w in (
            np.ones(fig1.n - 1), np.ones((fig1.n + 1, 2)), np.ones((fig1.n, 2, 2)), np.ones(fig1.m)
        ):
            with pytest.raises(ValueError):
                solve(w)


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
        for w in (np.ones(net.n), np.eye(net.n)[:, :2]):
            np.testing.assert_allclose(
                resolvent_solver(net, mode, 0.5)(w), katz_referee(net, mode, 0.5, w), rtol=1e-12
            )


class Perturbed:
    """A factor whose solve is off by a relative 1e-8."""

    def __init__(self, lu):
        self.lu = lu

    def solve(self, b):
        return self.lu.solve(b) * (1 + 1e-8)


def perturb_factor(monkeypatch, step):
    """Perturb the factor of the ``step``-th system that each resolvent_solver
    factors, counted from the last non-empty snapshot; return the factors so
    replaced, one per solver."""
    real, replaced = matfun._factor_steps, []

    def factor_steps(systems, columns):
        factors = real(systems, columns)
        replaced.append(factors[step])
        factors[step] = Perturbed(factors[step])
        return factors

    monkeypatch.setattr(matfun, "_factor_steps", factor_steps)
    return replaced


@pytest.mark.parametrize("step", range(3))
def test_block_solver_rejects_an_inaccurate_solve(fig1, monkeypatch, step):
    # one snapshot's dense factor, counted from the last of fig1's three,
    # solves off by a relative 1e-8; that step misses the default
    # backward-error bound on its own, in every mode: node systems at
    # alpha = 0.2, and Hashimoto blocks in nbt-space and nbt-both at 0.75
    replaced = perturb_factor(monkeypatch, step)
    runs = [(mode, 0.2) for mode in Mode] + [(Mode.NBT_SPACE, 0.75), (Mode.NBT_BOTH, 0.75)]
    for mode, alpha in runs:
        solve = resolvent_solver(fig1, mode, alpha)
        assert solve.node_space == (alpha < 0.5)
        with pytest.raises(SolveError, match="backward error"):
            solve(np.ones(fig1.n))
    assert len(replaced) == len(runs)
    assert all(isinstance(lu, matfun._Inverse) for lu in replaced)


def both_sides_of_the_cutoff():
    """Three snapshots whose middle one, an undirected cycle on 1100 nodes,
    has 1100 distinct sources and 2200 edges, above DENSE_DIRECT_MAX, and a
    system of more dense work than DENSE_WORK_MAX on its own; the others are
    small, and cyclic in A (and in B for the first)."""
    first = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 2)]
    ring = [e for i in range(1100) for e in ((i, (i + 1) % 1100), ((i + 1) % 1100, i))]
    last = [(5, 6), (5, 7), (7, 5)]
    snaps = tuple(Snapshot(tau, tuple(edges)) for tau, edges in enumerate((first, ring, last), 1))
    net = TemporalNetwork(n=1110, snapshots=snaps, timestamps=(1, 2, 3))
    middle = net.snapshots[1]
    rows = min(len(np.unique(middle.arrays.src)), middle.m)
    assert rows > spectral.DENSE_DIRECT_MAX and rows**3 > matfun.DENSE_WORK_MAX
    return net


def test_block_solver_rejects_an_inaccurate_sparse_solve(monkeypatch):
    # the middle snapshot's factor, on the splu path in every mode
    net = both_sides_of_the_cutoff()
    replaced = perturb_factor(monkeypatch, 1)
    for mode in Mode:
        solve = resolvent_solver(net, mode, 0.1)
        with pytest.raises(SolveError, match="backward error"):
            solve(np.ones(net.n))
    assert len(replaced) == len(Mode)
    assert not any(isinstance(lu, matfun._Inverse) for lu in replaced)


def path_system(dim):
    """Entries of I - S / 2, with S the shift of the dim-node path."""
    nodes = np.arange(dim - 1)
    entries = line_space._with_diagonal(nodes, nodes + 1, np.full(dim - 1, -0.5), np.ones(dim))
    return line_space._Entries(*entries, dim)


@pytest.mark.parametrize(
    "dims, columns, dense",
    [
        ((10, 1016, 10), 1, [True] * 3),  # 1016**2 * 1018, 98% of the budget
        ((808, 10, 808), 1, [True] * 3),  # 2 * 808**2 * 810, 98.5%
        ((10, 1017, 10), 1, [True, False, True]),  # padded to 1024 rows: 100.2%
        ((809, 10, 809), 1, [False, True, False]),  # padded to 816: 101.5%
        ((808, 10, 808), 20, [False, True, False]),  # 2 * 808**2 * 848: 103%
    ],
    ids=["1016", "2x808", "1017", "2x809", "2x808-20-columns"],
)
def test_factor_steps_on_both_sides_of_the_dense_budget(dims, columns, dense):
    # the steps above DENSE_DIRECT_MAX rows go dense while their padded
    # sizes s, solved on k columns, sum s**2 (s + 2 k) to at most
    # DENSE_WORK_MAX, the inversion of one 1024-row system
    assert matfun.DENSE_WORK_MAX == 1 << 30 == 1024**3
    systems = [path_system(dim) for dim in dims]
    factors = matfun._factor_steps(systems, columns)
    assert [isinstance(lu, matfun._Inverse) for lu in factors] == dense
    for lu, P in zip(factors, systems):
        x = matfun._solve(lu, P, np.ones((P.dim, 1)), matfun._inf_norm(P))
        # x_i = sum_{k < dim - i} 2^-k, exact in binary to the last bit
        np.testing.assert_array_equal(x[:, 0], 2.0 - 0.5 ** np.arange(P.dim - 1, -1, -1))


def star_beside_a_path(length):
    """One snapshot: the reciprocated star 0 <-> 1, 0 <-> 2 and the path
    3 -> 4 -> ... -> length + 3, whose node system I - A over its
    length + 3 sources is nonsingular (determinant -1) but meets an exactly
    zero second pivot, 1 - 1 * 1, without row interchanges."""
    edges = [(0, 1), (1, 0), (0, 2), (2, 0)] + [(i, i + 1) for i in range(3, length + 3)]
    return TemporalNetwork(n=length + 4, snapshots=(Snapshot(1, tuple(edges)),), timestamps=(1,))


def test_zero_pivot_above_the_cutoff_goes_to_splu(monkeypatch):
    # at a forced alpha = 1 > 1 / sqrt(2) = ell; above DENSE_DIRECT_MAX rows
    # the dense step gives way to splu, which pivots off the diagonal, as
    # every step of that size did before it could go dense
    net = star_beside_a_path(210)
    assert len(np.unique(net.snapshots[0].arrays.src)) == 213 > spectral.DENSE_DIRECT_MAX
    real, dense = matfun._factor_steps, []

    def recorded(systems, columns):
        factors = real(systems, columns)
        dense.append([isinstance(lu, matfun._Inverse) for lu in factors])
        return factors

    monkeypatch.setattr(matfun, "_factor_steps", recorded)
    L, R = tk.global_source_target(net)
    M = tk.global_transition(net, Mode.STANDARD)
    W = np.random.default_rng(42).random((net.n, 2))
    np.testing.assert_allclose(
        resolvent_solver(net, Mode.STANDARD, 1.0)(W),
        W + L.T @ tk.resolvent_solve(M, 1.0, R @ W),
        rtol=1e-12,
    )
    assert dense == [[False]]
    # at most DENSE_DIRECT_MAX rows the dense step raises, as it always did
    with pytest.raises(SolveError, match="zero pivot"):
        resolvent_solver(star_beside_a_path(100), Mode.STANDARD, 1.0)


@given(st.integers(201, 600), st.floats(0.0, 0.9), st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_dense_and_sparse_factors_agree_property(dim, fraction, seed):
    # P = I - alpha A for a random nonnegative A of one to four entries per
    # row off the diagonal, at alpha <= 0.9 / rho(A): a nonsingular
    # M-matrix, so P^-1 >= 0.  With b >= 0 (some entries zero) the dense
    # inverse and splu without row interchanges agree componentwise
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 5)) * dim
    at = np.unique(rng.integers(0, dim, k) * dim + rng.integers(0, dim, k))
    rows, cols = np.divmod(at[at // dim != at % dim], dim)
    A = np.zeros((dim, dim))
    A[rows, cols] = 1.0
    rho = np.max(np.abs(np.linalg.eigvals(A)))
    alpha = fraction / rho if rho > 0 else 2 * fraction
    entries = line_space._with_diagonal(rows, cols, np.full(len(rows), -alpha), np.ones(dim))
    P = line_space._Entries(*entries, dim)
    b = rng.random((dim, 2)) * (rng.random((dim, 2)) < 0.7)
    size = -(-dim // matfun._PAD) * matfun._PAD
    dense = matfun._inverses([P], size)[0]
    sparse = matfun._factor(matfun._csc(*P), **matfun._NODE_LU)
    norm = matfun._inf_norm(P)
    x, y = (matfun._solve(lu, P, b, norm) for lu in (dense, sparse))
    assert (x >= 0).all()
    # below the smallest normal float the two agree only to a subnormal's
    # last bits: those entries are compared absolutely, the others relatively
    normal = np.abs(y) >= np.finfo(float).tiny
    np.testing.assert_allclose(x[normal], y[normal], rtol=1e-12, atol=0)
    np.testing.assert_allclose(x[~normal], y[~normal], rtol=0, atol=np.finfo(float).tiny)


def test_block_solver_on_the_dense_snapshots_network(dense_snapshots_edge):
    # nbt-both at perfbench's alpha, far below 1/2, takes node steps on the
    # NBT cubic, of at most 40 rows, in place of the 300- and 700-row
    # Hashimoto blocks; their edge values come from the per-pair formula
    net = tk.parse_temporal_edgelist(dense_snapshots_edge)
    alpha = 0.5 * tk.alpha_bound(net, Mode.STANDARD).ell
    W = np.random.default_rng(41).random((net.n, 3))
    solve = resolvent_solver(net, Mode.NBT_BOTH, alpha)
    assert solve.node_space
    for w in (np.ones(net.n), W):
        np.testing.assert_allclose(
            solve(w), katz_referee(net, Mode.NBT_BOTH, alpha, w), rtol=1e-12, atol=0
        )


def test_block_solver_on_hashimoto_blocks_above_the_direct_cutoff(monkeypatch):
    # two reciprocated trees of 300 and 238 edges: above alpha = 1/2,
    # nbt-both factors their Hashimoto blocks, above DENSE_DIRECT_MAX rows
    # and within DENSE_WORK_MAX, so they are inverted on numpy
    net = tk.parse_temporal_edgelist(reciprocated_tree(151, 1) + reciprocated_tree(120, 2))
    assert tk.alpha_bound(net, Mode.NBT_BOTH).ell == math.inf
    real, factored = matfun._factor_steps, []

    def recorded(systems, columns):
        factors = real(systems, columns)
        factored.append([(P.dim, isinstance(lu, matfun._Inverse)) for P, lu in zip(systems, factors)])
        return factors

    monkeypatch.setattr(matfun, "_factor_steps", recorded)
    W = np.random.default_rng(43).random((net.n, 3))
    for alpha in (0.75, 3.0):
        solve = resolvent_solver(net, Mode.NBT_BOTH, alpha)
        assert not solve.node_space
        assert factored[-1] == [(238, True), (300, True)]  # from the last snapshot
        for w in (np.ones(net.n), W):
            np.testing.assert_allclose(
                solve(w), katz_referee(net, Mode.NBT_BOTH, alpha, w), rtol=1e-12, atol=0
            )


@pytest.mark.parametrize("mode", list(Mode))
def test_block_solver_on_both_sides_of_the_cutoff(monkeypatch, mode):
    # dense and splu steps in one back-substitution; nbt-space at 0.9 ell,
    # above 1/2, factors Hashimoto blocks
    net = both_sides_of_the_cutoff()
    ell = tk.alpha_bound(net, mode).ell
    W = np.random.default_rng(40).random((net.n, 3))
    real, dense = matfun._factor_steps, []

    def recorded(systems, columns):
        factors = real(systems, columns)
        dense.append([isinstance(lu, matfun._Inverse) for lu in factors])
        return factors

    monkeypatch.setattr(matfun, "_factor_steps", recorded)
    for alpha in (0.45 * ell, 0.9 * ell):
        solve = resolvent_solver(net, mode, alpha)
        assert dense[-1] == [True, False, True]  # from the last snapshot
        for w in (W[:, 0], W):
            np.testing.assert_allclose(
                solve(w), katz_referee(net, mode, alpha, w), rtol=1e-12, atol=0
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


@pytest.mark.parametrize("value", ["nan", "inf", "1e400", "-0.5"])
def test_coefficient_file_rejects_non_finite_or_negative_lines(tmp_path, value):
    path = tmp_path / "coeffs.txt"
    path.write_text(f"1.0\n\n{value}  # too big\n")
    with pytest.raises(ValueError) as excinfo:
        tk.from_coefficient_file(path)
    assert str(excinfo.value) == f"{path}:3: not finite and nonnegative: '{value}'"


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_weight_functions_reject_non_finite_parameters(value):
    with pytest.raises(ValueError, match="finite"):
        tk.polynomial([1.0, value])
    for gamma, delta in ((value, 1.0), (1.0, value)):
        with pytest.raises(ValueError, match="finite"):
            tk.resolvent(gamma, delta)


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
