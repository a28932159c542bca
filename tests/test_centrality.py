import math

import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import tempokatz as tk
from tempokatz import Mode, ParameterError, Snapshot, TemporalNetwork, centrality
from tempokatz.matfun import SolveError
from tempokatz.oracle import naive_exponential_product

from conftest import (
    finite_ell,
    has_reciprocated_edge,
    katz_referee,
    networks,
    random_network,
    random_network_with,
)


def expected_worked_example_matrix(beta):
    return np.array(
        [
            [1, beta, beta**2 / 2, beta**3 / 6],
            [0, 1, beta, beta**2 / 2],
            [0, 0, 1, beta],
            [0, 0, 0, 1],
        ]
    )


def test_dynamic_katz_empty_graph():
    net = TemporalNetwork(n=4, snapshots=(Snapshot(1, ()),), timestamps=(0,))
    np.testing.assert_array_equal(
        tk.dynamic_katz_node_level(net, 0.3).values, np.ones(4)
    )


def test_dynamic_katz_worked_example(ex5):
    for beta in (0.2, 0.5, 1.5):
        y = tk.dynamic_katz_node_level(ex5, beta).values
        np.testing.assert_allclose(
            y,
            [1 + beta + beta**2 + beta**3, 1 + beta + beta**2, 1 + beta, 1.0],
            rtol=1e-14,
        )


def test_dynamic_katz_alpha_validation(triangle):
    with pytest.raises(ParameterError):
        tk.dynamic_katz_node_level(triangle, 0.6)
    with pytest.raises(ParameterError):
        tk.dynamic_katz_node_level(triangle, -0.1, force=True)
    # force bypasses the interval check (still solvable here)
    tk.dynamic_katz_node_level(triangle, 0.6, force=True)


def test_dynamic_katz_matches_edge_level():
    rng = np.random.default_rng(40)
    for _ in range(6):
        net = random_network_with(rng, lambda s: finite_ell(s, Mode.STANDARD))
        alpha = 0.9 * tk.alpha_bound(net, Mode.STANDARD).ell
        y_node = tk.dynamic_katz_node_level(net, alpha).values
        y_edge = katz_referee(net, Mode.STANDARD, alpha, np.ones(net.n))
        np.testing.assert_allclose(y_node, y_edge, rtol=1e-10)


def test_nbt_space_katz_alpha_zero(fig1):
    np.testing.assert_array_equal(
        tk.nbt_space_katz_node_level(fig1, 0.0).values, np.ones(4)
    )


def test_nbt_space_katz_without_reciprocals_equals_standard():
    # with no reciprocated edges the cubic factorizes as (1-a^2)(I - aA)
    net = tk.parse_temporal_edgelist("0 1 1\n1 2 1\n2 0 1\n0 2 2\n2 1 2")
    alpha = 0.9 * tk.alpha_bound(net, Mode.STANDARD).ell
    y_nbt = tk.nbt_space_katz_node_level(net, alpha, force=True).values
    y_std = tk.dynamic_katz_node_level(net, alpha).values
    np.testing.assert_allclose(y_nbt, y_std, rtol=1e-12)


def test_nbt_space_katz_matches_edge_level():
    rng = np.random.default_rng(41)
    for _ in range(6):
        net = random_network_with(
            rng,
            lambda s: has_reciprocated_edge(s) and finite_ell(s, Mode.NBT_SPACE),
            density=0.45,
        )
        alpha = 0.9 * tk.alpha_bound(net, Mode.NBT_SPACE).ell
        y_node = tk.nbt_space_katz_node_level(net, alpha).values
        y_edge = katz_referee(net, Mode.NBT_SPACE, alpha, np.ones(net.n))
        np.testing.assert_allclose(y_node, y_edge, rtol=1e-10)


def test_total_communicability_worked_example(ex5):
    for beta in (0.5, 1.0):
        y = tk.temporal_f_total_communicability(
            ex5, beta, tk.exponential(), Mode.STANDARD
        ).values
        np.testing.assert_allclose(
            y, expected_worked_example_matrix(beta).sum(axis=1), atol=1e-12
        )


def test_total_communicability_empty_network():
    net = TemporalNetwork(n=3, snapshots=(Snapshot(1, ()),), timestamps=(0,))
    y = tk.temporal_f_total_communicability(net, 0.7, tk.exponential(), Mode.STANDARD)
    np.testing.assert_array_equal(y.values, np.ones(3))


def test_total_communicability_alpha_bound_enforced(triangle):
    with pytest.raises(ParameterError, match=r"admissible interval .*--force"):
        tk.temporal_f_total_communicability(
            triangle, 0.7, tk.resolvent(1, 1), Mode.STANDARD
        )
    y = tk.temporal_f_total_communicability(
        triangle, 0.4, tk.resolvent(1, 1), Mode.STANDARD
    )
    assert y.ell == pytest.approx(0.5, abs=1e-12) and y.node_space


def test_subgraph_centrality_acyclic_is_constant(ex5):
    for f in [tk.exponential(), tk.resolvent(1, 1)]:
        x = tk.temporal_f_subgraph_centrality(ex5, 0.5, f, Mode.STANDARD).values
        np.testing.assert_allclose(x, f(0) * np.ones(4), atol=1e-14)


def test_subgraph_centrality_triangle_resolvent(triangle):
    alpha = 0.3
    x = tk.temporal_f_subgraph_centrality(
        triangle, alpha, tk.resolvent(1, 1), Mode.STANDARD
    ).values
    A = np.asarray(tk.adjacency_matrix(triangle, 1).todense())
    expect = np.diag(np.linalg.inv(np.eye(3) - alpha * A))
    np.testing.assert_allclose(x, expect, atol=1e-10)
    assert x[0] == pytest.approx(x[1]) == pytest.approx(x[2])


def test_subgraph_centrality_fig_network_vs_oracle(fig1):
    alpha = 0.2
    x = tk.temporal_f_subgraph_centrality(
        fig1, alpha, tk.resolvent(1, 1), Mode.NBT_BOTH
    ).values
    counts = tk.enumerate_temporal_walks(fig1, 12, Mode.NBT_BOTH)
    oracle = tk.weighted_walk_sum(counts, tk.resolvent(1, 1), alpha)
    np.testing.assert_allclose(x, np.diag(oracle), atol=1e-10)


def test_katz_subgraph_centrality_factors_each_snapshot_once(fig1, monkeypatch):
    # one factorization per non-empty snapshot: of the n x n node system
    # I - alpha A_t or, in nbt-space at alpha <= 1/2, the NBT cubic; of the
    # m_t x m_t I - alpha B_t for an nbt-both Hashimoto block; and never of
    # the whole m x m system
    dims = []
    real = scipy.sparse.linalg.splu

    def counted(A, *args, **kwargs):
        dims.append(A.shape[0])
        return real(A, *args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", counted)
    assert fig1.N > 1 and fig1.n not in [snap.m for snap in fig1.snapshots]
    for mode in Mode:
        node_systems = mode is not Mode.NBT_BOTH
        dims.clear()
        tk.temporal_f_subgraph_centrality(fig1, 0.2, tk.resolvent(1, 1), mode)
        expected = [fig1.n if node_systems else snap.m for snap in fig1.snapshots if snap.m]
        assert dims == expected[::-1]
        assert fig1.m not in dims


def test_katz_never_forms_the_global_transition_matrix(fig1, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("global_transition called")

    monkeypatch.setattr(centrality, "global_transition", forbidden)
    monkeypatch.setattr(tk.line_space, "global_transition", forbidden)
    katz = tk.resolvent(1, 1)
    for mode in Mode:
        tk.temporal_f_total_communicability(fig1, 0.2, katz, mode)
        tk.temporal_f_subgraph_centrality(fig1, 0.2, katz, mode)
        tk.communicability_matrix(fig1, 0.2, katz, mode)
    with pytest.raises(AssertionError, match="global_transition"):
        tk.temporal_f_total_communicability(fig1, 0.2, tk.exponential(), Mode.STANDARD)


@st.composite
def acyclic_networks(draw):
    """n <= 5 nodes and N <= 3 snapshots, each snapshot acyclic: its edges
    run forward along its own random order of the nodes, so M is nilpotent
    and every walk has at most m edges, while walks still turn back across
    snapshots."""
    n = draw(st.integers(1, 5))
    snapshots = []
    for tau in range(1, draw(st.integers(1, 3)) + 1):
        order = draw(st.permutations(range(n)))
        edges = [
            (order[i], order[j]) for i in range(n) for j in range(i + 1, n) if draw(st.booleans())
        ]
        snapshots.append(Snapshot(tau, tuple(edges)))
    return TemporalNetwork(n=n, snapshots=tuple(snapshots), timestamps=tuple(range(len(snapshots))))


#: a random polynomial of degree at most 5, whose coefficients are zero or
#: far enough from it that no product underflows
polynomials = st.lists(st.just(0.0) | st.floats(1e-3, 2), min_size=1, max_size=6).map(
    tk.polynomial
)

#: Katz, the exponential or a polynomial on acyclic snapshots, where M is
#: nilpotent; a polynomial on any network, cyclic snapshots included
cases = st.one_of(
    st.tuples(acyclic_networks(), st.just(tk.resolvent(1, 1)) | st.just(tk.exponential())),
    st.tuples(acyclic_networks() | networks(), polynomials),
)


@given(cases, st.sampled_from([0.5, 1.0, 2.0, 1e3, 1e5]))
@settings(max_examples=150, deadline=None)
def test_katz_matches_walk_oracle_property(case, alpha):
    # Katz runs the resolvent engine, alpha on both sides of 1 so that
    # nbt-space factors both n x n and Hashimoto systems; the other weights
    # sum their series on M.  Both sides are exact up to rounding: on acyclic
    # snapshots M is nilpotent, so walks have at most m edges (and ell = inf,
    # so no force is needed), and a polynomial counts walks up to its degree
    net, f = case
    max_len = net.m if f.degree is None else f.degree
    for mode in Mode:
        counts = tk.enumerate_temporal_walks(net, max_len, mode, guard=math.inf)
        Q = tk.weighted_walk_sum(counts, f, alpha)
        tc = tk.temporal_f_total_communicability(net, alpha, f, mode).values
        sc = tk.temporal_f_subgraph_centrality(net, alpha, f, mode).values
        np.testing.assert_allclose(tc, Q.sum(axis=1), rtol=1e-10, atol=0)
        np.testing.assert_allclose(sc, np.diag(Q), rtol=1e-10, atol=0)


def test_katz_without_cancellation_when_walks_turn_back_across_snapshots():
    # ell = inf.  Almost every later walk from node 2 starts back along the
    # reversal of its first edge, so Y[2] - alpha later[(2, 1)] lost half
    # the value: nbt-time printed 10000198305 and nbt-both 10000200001 for
    # node 2, and 1000010000100001 for node 1
    net = tk.parse_temporal_edgelist("1 0 1\n2 1 1\n0 1 2\n1 2 2\n0 1 3\n2 0 3\n")
    for mode in (Mode.NBT_TIME, Mode.NBT_BOTH):
        tc = tk.temporal_f_total_communicability(net, 1e5, tk.resolvent(1, 1), mode).values
        assert tc[1] == 1000010000200001 and tc[2] == 20000200001, mode
        # node 0 is above 2^53
        counts = tk.enumerate_temporal_walks(net, net.m, mode, guard=math.inf)
        Q = tk.weighted_walk_sum(counts, tk.resolvent(1, 1), 1e5)
        np.testing.assert_allclose(tc, Q.sum(axis=1), rtol=1e-15, atol=0)


def test_katz_exact_on_acyclic_snapshot_at_large_alpha():
    # ell = inf, so alpha = 1000 needs no force; every walk count is an
    # integer and each value below 2^53, so pivoting on the diagonal of the
    # M-matrix I - alpha A gives them exactly in every mode
    net = tk.parse_temporal_edgelist(
        "0 2 1\n1 0 1\n1 2 1\n2 5 1\n3 0 1\n3 1 1\n3 2 1\n3 4 1\n5 4 1\n"
    )
    katz = tk.resolvent(1, 1)
    for mode in Mode:
        tc = tk.temporal_f_total_communicability(net, 1000.0, katz, mode).values
        sc = tk.temporal_f_subgraph_centrality(net, 1000.0, katz, mode).values
        assert tc.tolist() == [1001001001, 1002002002001, 1001001, 1003004004004001, 1, 1001]
        assert sc.tolist() == [1.0] * 6


def test_katz_random_acyclic_snapshots_at_alpha_1e5():
    # 300 seeded acyclic snapshots on 22 nodes with 50 edges: I - alpha A is
    # far from singular (its determinant is 1), and the oracle is exact
    # because A is nilpotent
    rng = np.random.default_rng(2)
    katz = tk.resolvent(1, 1)
    for _ in range(300):
        order = rng.permutation(22)
        pairs = [(order[i], order[j]) for i in range(22) for j in range(i + 1, 22)]
        edges = [pairs[k] for k in rng.choice(len(pairs), size=50, replace=False)]
        net = TemporalNetwork(n=22, snapshots=(Snapshot(1, tuple(edges)),), timestamps=(0,))
        counts = tk.enumerate_temporal_walks(net, net.m, Mode.STANDARD, guard=math.inf)
        want = tk.weighted_walk_sum(counts, katz, 1e5).sum(axis=1)
        got = tk.temporal_f_total_communicability(net, 1e5, katz, Mode.STANDARD).values
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=0)


def test_unconverged_bound_raises_without_force(fig1, monkeypatch):
    # an unconverged bound raises SolveError (rank exits 3) unless forced
    monkeypatch.setattr(centrality, "mode_bound", lambda net, mode: (1.0, False))
    katz = tk.resolvent(1, 1)
    for measure in (
        tk.temporal_f_total_communicability,
        tk.temporal_f_subgraph_centrality,
        tk.communicability_matrix,
    ):
        with pytest.raises(SolveError, match="did not converge"):
            measure(fig1, 0.1, katz, Mode.STANDARD)
        measure(fig1, 0.1, katz, Mode.STANDARD, force=True)
    with pytest.raises(SolveError, match="did not converge"):
        tk.dynamic_katz_node_level(fig1, 0.1)


def test_katz_subgraph_centrality_across_column_blocks():
    # more than two blocks of R_g's columns; standard Katz SC is the diagonal
    # of the product of the snapshots' resolvents
    n = 2 * centrality.COLUMN_BLOCK + 6
    rng = np.random.default_rng(41)
    net = random_network_with(
        rng, lambda net: finite_ell(net, Mode.STANDARD), n=n, N=3, density=0.05
    )
    alpha = 0.5 * tk.alpha_bound(net, Mode.STANDARD).ell
    x = tk.temporal_f_subgraph_centrality(net, alpha, tk.resolvent(1, 1), Mode.STANDARD)
    Q = np.eye(n)
    for tau in range(1, net.N + 1):
        A = np.asarray(tk.adjacency_matrix(net, tau).todense())
        Q = Q @ np.linalg.inv(np.eye(n) - alpha * A)
    np.testing.assert_allclose(x.values, np.diag(Q), rtol=1e-10)
    C = tk.communicability_matrix(net, alpha, tk.resolvent(1, 1), Mode.STANDARD)
    np.testing.assert_allclose(C, Q, rtol=1e-10, atol=1e-12)


def test_communicability_matrix_worked_example(ex5):
    for beta in (0.5, 1.0, 2.0):
        Q = tk.communicability_matrix(ex5, beta, tk.exponential(), Mode.STANDARD)
        np.testing.assert_allclose(Q, expected_worked_example_matrix(beta), atol=1e-12)


def test_naive_product_misweights_walks(ex5):
    beta = 0.7
    naive = naive_exponential_product(ex5, beta)
    assert naive[0, 2] == pytest.approx(beta**2, rel=1e-12)
    assert naive[0, 3] == pytest.approx(beta**3, rel=1e-12)
    Q = tk.communicability_matrix(ex5, beta, tk.exponential(), Mode.STANDARD)
    assert Q[0, 2] == pytest.approx(beta**2 / 2, rel=1e-12)
    assert Q[0, 3] == pytest.approx(beta**3 / 6, rel=1e-12)


def test_naive_product_inconsistent_length_five_weights():
    # two 6-node temporal paths carrying a single walk of length five, split
    # (2,1,2) and (1,1,3) across three snapshots
    beta = 1.0
    split_212 = tk.parse_temporal_edgelist(
        "0 1 1\n1 2 1\n2 3 2\n3 4 3\n4 5 3"
    )
    split_113 = tk.parse_temporal_edgelist(
        "0 1 1\n1 2 2\n2 3 3\n3 4 3\n4 5 3"
    )
    naive_212 = naive_exponential_product(split_212, beta)[0, 5]
    naive_113 = naive_exponential_product(split_113, beta)[0, 5]
    assert naive_212 == pytest.approx(beta**5 / 4, rel=1e-12)
    assert naive_113 == pytest.approx(beta**5 / 6, rel=1e-12)
    for net in (split_212, split_113):
        counts = tk.enumerate_temporal_walks(net, 5, Mode.STANDARD)
        correct = tk.weighted_walk_sum(counts, tk.exponential(), beta)[0, 5]
        assert correct == pytest.approx(beta**5 / 120, rel=1e-12)
        Q = tk.communicability_matrix(net, beta, tk.exponential(), Mode.STANDARD)
        assert Q[0, 5] == pytest.approx(beta**5 / 120, rel=1e-10)


def test_length_two_walk_coefficients_fig_network(fig1):
    # single-monomial weights extract integer counts of length-2 walks
    expected_from_node3 = {
        Mode.STANDARD: 3,
        Mode.NBT_SPACE: 2,
        Mode.NBT_TIME: 2,
        Mode.NBT_BOTH: 1,
    }
    for mode, count in expected_from_node3.items():
        Q = tk.communicability_matrix(fig1, 1.0, tk.monomial(2), mode, force=True)
        assert Q[3, :].sum() == pytest.approx(count, abs=1e-12)


def test_mode_dominance():
    rng = np.random.default_rng(42)
    for _ in range(4):
        net = random_network(rng, density=0.45)
        mats = {
            mode: sum(
                tk.communicability_matrix(net, 1.0, tk.monomial(r), mode, force=True)
                for r in range(5)
            )
            for mode in Mode
        }
        assert (mats[Mode.NBT_BOTH] <= mats[Mode.NBT_SPACE] + 1e-12).all()
        assert (mats[Mode.NBT_SPACE] <= mats[Mode.STANDARD] + 1e-12).all()
        assert (mats[Mode.NBT_BOTH] <= mats[Mode.NBT_TIME] + 1e-12).all()
        assert (mats[Mode.NBT_TIME] <= mats[Mode.STANDARD] + 1e-12).all()


def test_total_communicability_monotone_in_alpha():
    rng = np.random.default_rng(43)
    net = random_network_with(rng, lambda s: finite_ell(s, Mode.STANDARD))
    ell = tk.alpha_bound(net, Mode.STANDARD).ell
    previous = None
    for frac in (0.1, 0.3, 0.5, 0.7, 0.9):
        y = tk.temporal_f_total_communicability(
            net, frac * ell, tk.resolvent(1, 1), Mode.STANDARD
        ).values
        if previous is not None:
            assert (y >= previous - 1e-12).all()
        previous = y


def test_truncation_flag_propagates(triangle):
    y = tk.temporal_f_total_communicability(
        triangle, 0.4, tk.exponential(), Mode.STANDARD, rmax=2
    )
    assert y.truncated


def test_values_at_least_c0():
    rng = np.random.default_rng(44)
    for _ in range(3):
        net = random_network(rng)
        for mode in Mode:
            y = tk.temporal_f_total_communicability(
                net, 0.1, tk.exponential(), mode, force=True
            )
            assert (y.values >= 1.0 - 1e-12).all()
            x = tk.temporal_f_subgraph_centrality(
                net, 0.1, tk.exponential(), mode, force=True
            )
            assert (x.values >= 1.0 - 1e-12).all()
