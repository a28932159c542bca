import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tempokatz as tk
from tempokatz import Mode, Snapshot, TemporalNetwork
from tempokatz.cli import main

from conftest import DUMP_KINDS, FIG_NETWORK, TRIANGLE, networks, random_network, referee_text


def dense(m):
    return np.asarray(m.todense())


def count_walks_brute(edges, n, start, end, length):
    """Walk counting by explicit enumeration of node sequences."""
    if length == 0:
        return 1 if start == end else 0
    total = 0
    for u, v in edges:
        if u == start:
            total += count_walks_brute(edges, n, v, end, length - 1)
    return total


def snapshot_offsets(net):
    """Start of each snapshot's edges in the global edge order, then m."""
    return np.cumsum([0] + [snap.m for snap in net.snapshots])


def block(net, M, tau1, tau2):
    """Block (tau1, tau2) of a dense m x m edge-space matrix."""
    offsets = snapshot_offsets(net)
    return M[offsets[tau1 - 1] : offsets[tau1], offsets[tau2 - 1] : offsets[tau2]]


def test_edge_space_index_ordering():
    rng = np.random.default_rng(10)
    net = random_network(rng, n=5, N=3)
    Lg, Rg = tk.global_source_target(net)
    assert Lg.shape == Rg.shape == (net.m, net.n)
    assert tk.global_transition(net, Mode.STANDARD).shape == (net.m, net.m)
    offsets = snapshot_offsets(net)
    src, tgt = dense(Lg).argmax(axis=1), dense(Rg).argmax(axis=1)
    for tau in range(1, net.N + 1):
        rows = slice(offsets[tau - 1], offsets[tau])
        pairs = list(zip(src[rows].tolist(), tgt[rows].tolist()))
        assert pairs == sorted(pairs) == list(net.snapshot(tau).edges)


def test_source_target_single_edge():
    net = tk.parse_temporal_edgelist("%n 4\n1 2 1")
    L, R = tk.source_target_matrices(net.snapshot(1), 4)
    assert dense(L).tolist() == [[0, 1, 0, 0]]
    assert dense(R).tolist() == [[0, 0, 1, 0]]


def test_source_target_empty_snapshot():
    snap = Snapshot(1, ())
    L, R = tk.source_target_matrices(snap, 5)
    assert L.shape == (0, 5)
    assert R.shape == (0, 5)


def test_source_target_row_sums_one():
    rng = np.random.default_rng(11)
    for _ in range(5):
        net = random_network(rng)
        for snap in net.snapshots:
            L, R = tk.source_target_matrices(snap, net.n)
            if snap.m:
                np.testing.assert_array_equal(dense(L).sum(axis=1), 1.0)
                np.testing.assert_array_equal(dense(R).sum(axis=1), 1.0)


def test_lt_r_reproduces_adjacency():
    rng = np.random.default_rng(12)
    for _ in range(8):
        net = random_network(rng)
        for tau in range(1, net.N + 1):
            L, R = tk.source_target_matrices(net.snapshot(tau), net.n)
            np.testing.assert_array_equal(
                dense(L.T @ R), dense(tk.adjacency_matrix(net, tau))
            )


def test_line_graph_single_pair():
    net = tk.parse_temporal_edgelist("%n 4\n1 2 1\n2 3 1")
    W = dense(tk.line_graph_matrix(net.snapshot(1), 4))
    expect = np.zeros((2, 2))
    expect[0, 1] = 1.0  # 1->2 concatenates with 2->3 only
    np.testing.assert_array_equal(W, expect)


def test_line_graph_no_concatenable_pairs():
    net = tk.parse_temporal_edgelist("%n 4\n0 1 1\n2 3 1")
    assert tk.line_graph_matrix(net.snapshot(1), 4).nnz == 0


def test_line_graph_path_counting():
    # (L^T W^{r-1} R)_{ij} counts length-r walks, against brute enumeration
    rng = np.random.default_rng(13)
    net = random_network(rng, n=5, N=1, density=0.4)
    snap = net.snapshot(1)
    L, R = tk.source_target_matrices(snap, 5)
    W = tk.line_graph_matrix(snap, 5)
    power = np.eye(snap.m)
    for r in range(1, 5):
        counted = dense(L).T @ power @ dense(R)
        for i in range(5):
            for j in range(5):
                assert counted[i, j] == count_walks_brute(snap.edges, 5, i, j, r)
        power = power @ dense(W)


def test_hashimoto_reciprocated_pair_vanishes():
    net = tk.parse_temporal_edgelist("%n 3\n1 2 1\n2 1 1")
    assert tk.line_graph_matrix(net.snapshot(1), 3).nnz == 2
    assert tk.hashimoto_matrix(net.snapshot(1), 3).nnz == 0


def test_hashimoto_triangle():
    net = tk.parse_temporal_edgelist(TRIANGLE)
    B = tk.hashimoto_matrix(net.snapshot(1), net.n)
    assert B.nnz == 6
    assert tk.spectral_radius(B).value == pytest.approx(1.0, abs=1e-8)


def test_hashimoto_equals_line_graph_without_reciprocals():
    net = tk.parse_temporal_edgelist("0 1 1\n1 2 1\n2 0 1\n0 2 2")
    for snap in net.snapshots:
        W = dense(tk.line_graph_matrix(snap, net.n))
        B = dense(tk.hashimoto_matrix(snap, net.n))
        np.testing.assert_array_equal(B, W)


def test_hashimoto_dominated_by_line_graph():
    rng = np.random.default_rng(14)
    for _ in range(8):
        net = random_network(rng)
        for snap in net.snapshots:
            W = dense(tk.line_graph_matrix(snap, net.n))
            B = dense(tk.hashimoto_matrix(snap, net.n))
            assert (B <= W).all()
            reciprocated = any((v, u) in set(snap.edges) for u, v in snap.edges)
            assert (B == W).all() == (not reciprocated)


def test_cross_transition_worked_example(ex5):
    M = dense(tk.global_transition(ex5, Mode.STANDARD))
    np.testing.assert_array_equal(block(ex5, M, 1, 2), [[1.0]])
    np.testing.assert_array_equal(block(ex5, M, 1, 3), [[0.0]])


def test_cross_transition_disjoint_snapshots():
    net = tk.parse_temporal_edgelist("0 1 1\n2 3 2")
    for mode in Mode:
        assert not block(net, dense(tk.global_transition(net, mode)), 1, 2).any()


def test_cross_transition_fig_t1_t3(fig1):
    W13 = block(fig1, dense(tk.global_transition(fig1, Mode.STANDARD)), 1, 3)
    assert W13.sum() == 1
    # the single continuation is 3->0 (t1) into 0->3 (t3)
    assert W13[2, 0] == 1  # edge order t1: (0,1),(1,2),(3,0); t3: (0,3),(3,0)


def test_cross_transition_bad_tau(fig1):
    # only blocks with tau1 < tau2 are cross-time: (2, 2) is snapshot 2's own
    # line graph, and blocks below the diagonal are empty
    for mode in (Mode.STANDARD, Mode.NBT_TIME):
        M = dense(tk.global_transition(fig1, mode))
        np.testing.assert_array_equal(
            block(fig1, M, 2, 2), dense(tk.line_graph_matrix(fig1.snapshot(2), fig1.n))
        )
        assert not block(fig1, M, 3, 1).any()


def test_cross_hashimoto_fig_cases(fig1):
    for mode in (Mode.NBT_TIME, Mode.NBT_BOTH):
        M = dense(tk.global_transition(fig1, mode))
        # the lone t1->t3 continuation is a reversal, so it is knocked out
        assert not block(fig1, M, 1, 3).any()
        B12 = block(fig1, M, 1, 2)
        assert B12.sum() == 1
        assert B12[1, 1] == 1  # (1,2)@t1 into (2,3)@t2 survives; (2,1)@t2 does not


def test_cross_hashimoto_disjoint():
    net = tk.parse_temporal_edgelist("0 1 1\n2 3 2")
    for mode in (Mode.NBT_TIME, Mode.NBT_BOTH):
        assert not block(net, dense(tk.global_transition(net, mode)), 1, 2).any()


def test_global_transition_blocks_match_per_pair_definition():
    # block (t1, t2) is W12 = R_t1 L_t2^T, less W12 o W21^T where the mode
    # forbids reversals; diagonal blocks are W_t or the Hashimoto B_t
    rng = np.random.default_rng(19)
    for _ in range(6):
        net = random_network(rng, N=3)
        LR = [tk.source_target_matrices(snap, net.n) for snap in net.snapshots]
        for mode in Mode:
            M = dense(tk.global_transition(net, mode))
            nbt_space = mode in (Mode.NBT_SPACE, Mode.NBT_BOTH)
            diag = tk.hashimoto_matrix if nbt_space else tk.line_graph_matrix
            for t1 in range(1, net.N + 1):
                np.testing.assert_array_equal(
                    block(net, M, t1, t1), dense(diag(net.snapshot(t1), net.n))
                )
                for t2 in range(t1 + 1, net.N + 1):
                    (L1, R1), (L2, R2) = LR[t1 - 1], LR[t2 - 1]
                    W12, W21 = dense(R1 @ L2.T), dense(R2 @ L1.T)
                    if mode in (Mode.NBT_TIME, Mode.NBT_BOTH):
                        W12 = W12 - W12 * W21.T
                    np.testing.assert_array_equal(block(net, M, t1, t2), W12)


def test_global_source_target_worked_example(ex5):
    Lg, Rg = tk.global_source_target(ex5)
    np.testing.assert_array_equal(
        dense(Lg), [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]
    )
    np.testing.assert_array_equal(
        dense(Rg), [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    )


def test_global_source_target_single_snapshot():
    net = tk.parse_temporal_edgelist(TRIANGLE)
    Lg, Rg = tk.global_source_target(net)
    L, R = tk.source_target_matrices(net.snapshot(1), net.n)
    np.testing.assert_array_equal(dense(Lg), dense(L))
    np.testing.assert_array_equal(dense(Rg), dense(R))


def test_global_target_rows_sum_to_one():
    rng = np.random.default_rng(15)
    for _ in range(5):
        net = random_network(rng)
        Lg, Rg = tk.global_source_target(net)
        np.testing.assert_array_equal(dense(Lg).sum(axis=1), 1.0)
        np.testing.assert_array_equal(dense(Rg).sum(axis=1), 1.0)


def test_global_transition_worked_example(ex5):
    M = dense(tk.global_transition(ex5, Mode.STANDARD))
    np.testing.assert_array_equal(M, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])


def test_global_transition_two_snapshot_blocks():
    rng = np.random.default_rng(16)
    net = random_network(rng, n=5, N=2)
    M = dense(tk.global_transition(net, Mode.STANDARD))
    m1 = net.snapshot(1).m
    np.testing.assert_array_equal(
        M[:m1, :m1], dense(tk.line_graph_matrix(net.snapshot(1), net.n))
    )
    L2, _ = tk.source_target_matrices(net.snapshot(2), net.n)
    _, R1 = tk.source_target_matrices(net.snapshot(1), net.n)
    np.testing.assert_array_equal(M[:m1, m1:], dense(R1 @ L2.T))
    np.testing.assert_array_equal(
        M[m1:, m1:], dense(tk.line_graph_matrix(net.snapshot(2), net.n))
    )
    assert not M[m1:, :m1].any()


def test_global_transition_single_snapshot_modes():
    net = tk.parse_temporal_edgelist(TRIANGLE)
    snap = net.snapshot(1)
    for mode, expect in [
        (Mode.STANDARD, tk.line_graph_matrix(snap, net.n)),
        (Mode.NBT_TIME, tk.line_graph_matrix(snap, net.n)),
        (Mode.NBT_SPACE, tk.hashimoto_matrix(snap, net.n)),
        (Mode.NBT_BOTH, tk.hashimoto_matrix(snap, net.n)),
    ]:
        np.testing.assert_array_equal(
            dense(tk.global_transition(net, mode)), dense(expect)
        )


def test_global_transition_nbt_both_from_global_stacks(fig1):
    # the fully non-backtracking matrix is the block-upper part (diagonal
    # included) of R L^T - (R L^T) o (L R^T) built from the global stacks
    Lg, Rg = tk.global_source_target(fig1)
    big = dense((Rg @ Lg.T) - (Rg @ Lg.T).multiply(Lg @ Rg.T))
    mask = np.zeros_like(big, dtype=bool)
    for t1 in range(1, fig1.N + 1):
        for t2 in range(t1, fig1.N + 1):
            block(fig1, mask, t1, t2)[...] = True
    big[~mask] = 0.0
    np.testing.assert_array_equal(big, dense(tk.global_transition(fig1, Mode.NBT_BOTH)))


def test_global_transition_strictly_block_upper():
    rng = np.random.default_rng(17)
    for _ in range(4):
        net = random_network(rng, N=3)
        for mode in Mode:
            M = dense(tk.global_transition(net, mode))
            for t1 in range(1, net.N + 1):
                for t2 in range(1, t1):
                    assert not block(net, M, t1, t2).any()


@pytest.mark.parametrize("which, mode", DUMP_KINDS)
def test_dump_coordinate_format(capsys, tmp_path, fig1, which, mode):
    # dump-matrix writes the engine's coordinates as the referee's entries,
    # for a per-snapshot kind on every snapshot
    path = tmp_path / "fig.txt"
    path.write_text(FIG_NETWORK)
    kind, colon, _ = which.partition(":")
    for which in [f"{kind}:{tau}" for tau in range(1, fig1.N + 1)] if colon else [which]:
        assert main(["dump-matrix", str(path), which, "--mode", mode]) == 0
        assert capsys.readouterr() == (referee_text(fig1, which, mode), "")


def reversal_weighted(net, rng, k, scale):
    """A nonnegative m x k block in the global edge order: 1 on every edge
    whose reversed pair appears in some snapshot, ``scale`` times uniform
    on the others, so that the reversals a mode forbids are most of each
    sum and taking them away cancels."""
    src, tgt, _ = net.arrays
    pairs = set(zip(src.tolist(), tgt.tolist()))
    turned = np.array([(v, u) in pairs for u, v in zip(src.tolist(), tgt.tolist())], dtype=bool)
    return np.where(turned[:, None], 1.0, scale * rng.random((net.m, k)))


def assert_transition_operator(net, X):
    """op @ X, op.targets and op.sources against the assembled M, L_g and
    R_g, componentwise to 1e-13 relative, in every mode."""
    L, R = tk.global_source_target(net)
    W = np.arange(1.0, net.n * X.shape[1] + 1).reshape(net.n, -1)
    for mode in Mode:
        op = tk.line_space.TransitionOperator(net, mode)
        assert op.shape == (net.m, net.m)
        assert sorted(op.edges.tolist()) == list(range(net.m))
        want = tk.global_transition(net, mode) @ X
        for got, expected in ((op @ X[op.edges], want), (op @ X[op.edges, 0], want[:, 0])):
            np.testing.assert_allclose(got, expected[op.edges], rtol=1e-13, atol=0)
        np.testing.assert_array_equal(op.targets(W), (R @ W)[op.edges])
        np.testing.assert_allclose(op.sources(X[op.edges]), L.T @ X, rtol=1e-13, atol=0)


@given(networks(), st.integers(0, 2**32 - 1), st.sampled_from([1, 3]),
       st.sampled_from([1.0, 1e-8, 1e-15]))
@settings(max_examples=150, deadline=None)
def test_transition_operator_matches_global_transition_property(net, seed, k, scale):
    # empty snapshots, sinks and pairs repeated across snapshots, on a block
    # weighted on the reversals, so that leaving them out cancels
    rng = np.random.default_rng(seed)
    assert_transition_operator(net, reversal_weighted(net, rng, k, scale))
    assert_transition_operator(net, rng.random((net.m, k)))


def test_transition_operator_on_long_and_many_runs():
    # 60 sources and a hub with an edge to every other node in each of 6
    # snapshots: the first positions are added slice by slice, and the
    # hub's run of 354 edges is summed padded.  The hub's pairs repeat in
    # every snapshot, some reciprocated
    rng = np.random.default_rng(5)
    lines = ["%n 60"]
    for t in range(1, 7):
        lines += [f"0 {v} {t}" for v in range(1, 60)]
        lines += [f"{v} 0 {t}" for v in range(1, 60, 7)]
        lines += [f"{u} {v} {t}" for u, v in rng.integers(1, 60, size=(150, 2)) if u != v]
    net = tk.parse_temporal_edgelist("\n".join(lines))
    for k in (1, 32):
        assert_transition_operator(net, reversal_weighted(net, rng, k, 1e-9))
        assert_transition_operator(net, rng.random((net.m, k)))
