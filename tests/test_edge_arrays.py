"""The compiled edge arrays each snapshot owns, and the matrices built from
them, against the sparse-algebra referees of ``tempokatz.oracle``."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import tempokatz as tk
from tempokatz import Mode, Snapshot, TemporalNetwork, ValidationError, oracle, temporal_graph
from tempokatz.line_space import hashimoto_system, katz_system
from tempokatz.cli import main
from tempokatz.spectral import mode_bound

from conftest import FIG_NETWORK, katz_referee, networks


def assert_same(built, reference):
    """``built`` has sorted indices and equals ``reference`` entry for entry,
    bit for bit, in the same compressed format."""
    ref = reference.asformat(built.format, copy=True)
    ref.sum_duplicates()
    assert built.has_sorted_indices
    assert built.shape == ref.shape
    np.testing.assert_array_equal(built.indptr, ref.indptr)
    np.testing.assert_array_equal(built.indices, ref.indices)
    np.testing.assert_array_equal(built.data.view(np.int64), ref.data.view(np.int64))


@given(networks(), st.floats(0.0, 2.0))
@settings(max_examples=150, deadline=None)
def test_builders_match_referees(net, alpha):
    for snap in net.snapshots:
        e = snap.arrays
        edges = list(zip(e.src.tolist(), e.tgt.tolist()))
        assert edges == list(snap.edges)
        assert e.rev.tolist() == [edges.index((v, u)) if (v, u) in edges else -1 for u, v in edges]
        A = oracle.reference_adjacency(net, snap.tau)
        assert_same(tk.adjacency_matrix(net, snap.tau), A)
        assert_same(tk.line_graph_matrix(snap, net.n), oracle.reference_line_graph(snap, net.n))
        assert_same(tk.hashimoto_matrix(snap, net.n), oracle.reference_hashimoto(snap, net.n))
        for nbt in (False, True):
            assert_same(
                katz_system(snap, net.n, alpha, nbt), oracle.reference_katz_system(A, alpha, nbt)
            )
        shifted = sp.csc_array(sp.eye_array(snap.m) - alpha * oracle.reference_hashimoto(snap, net.n))
        shifted.eliminate_zeros()
        assert_same(hashimoto_system(snap, alpha), shifted)
    for mode in Mode:
        assert_same(tk.global_transition(net, mode), oracle.reference_transition(net, mode))


@given(networks())
@settings(max_examples=60, deadline=None)
def test_node_level_katz_matches_edge_solve(net):
    # the node-space engine (standard; nbt-space at alpha <= 1/2) against one
    # LU of the whole edge-space I - alpha M
    katz = tk.resolvent(1.0, 1.0)
    for mode in (Mode.STANDARD, Mode.NBT_SPACE):
        alpha = 0.5 * min(mode_bound(net, mode)[0], 1.0)
        y = tk.temporal_f_total_communicability(net, alpha, katz, mode).values
        if net.m == 0:
            np.testing.assert_array_equal(y, np.ones(net.n))
            continue
        edge = katz_referee(net, mode, alpha, np.ones(net.n))
        np.testing.assert_allclose(y, edge, rtol=1e-12, atol=0)
        Q = tk.communicability_matrix(net, alpha, katz, mode)
        np.testing.assert_allclose(Q, katz_referee(net, mode, alpha, np.eye(net.n)), rtol=1e-10, atol=1e-12)
        sc = tk.temporal_f_subgraph_centrality(net, alpha, katz, mode).values
        np.testing.assert_array_equal(sc, np.diag(Q))


def test_reversal_index_of_fig_network(fig1):
    # t1: 0->1, 1->2, 3->0;  t2: 2->1, 2->3;  t3: 0->3, 3->0
    assert [s.arrays.rev.tolist() for s in fig1.snapshots] == [[-1, -1, -1], [-1, -1], [1, 0]]


def test_arrays_are_built_once_and_ignored_by_equality():
    snap = Snapshot(1, ((1, 0), (0, 1)))
    fresh = Snapshot(1, ((0, 1), (1, 0)))
    assert snap.arrays is snap.arrays
    assert snap == fresh and hash(snap) == hash(fresh)
    assert repr(snap) == repr(fresh)
    assert "arrays" not in repr(snap)


def test_empty_snapshot_arrays():
    e = Snapshot(1, ()).arrays
    assert e.src.shape == e.tgt.shape == e.rev.shape == (0,)
    net = TemporalNetwork(n=3, snapshots=(Snapshot(1, ()),), timestamps=(0,))
    assert tk.adjacency_matrix(net, 1).shape == (3, 3)
    assert tk.hashimoto_matrix(net.snapshot(1), 3).shape == (0, 0)


@pytest.mark.parametrize(
    "edges, message",
    [(((1, 1),), "self-loop"), (((0, -1),), "negative"), (((0, 1), (0, 1)), "duplicate")],
)
def test_snapshot_rejects_bad_edges(edges, message):
    with pytest.raises(ValidationError, match=message):
        Snapshot(1, edges)


def test_parsed_snapshots_slice_one_set_of_arrays(capsys, tmp_path, monkeypatch):
    net = tk.parse_temporal_edgelist(FIG_NETWORK)
    for snap, a, b in zip(net.snapshots, net.offsets[:-1], net.offsets[1:]):
        for part, whole in zip(snap.arrays[:2], net.arrays[:2]):
            assert np.shares_memory(part, whole)
            np.testing.assert_array_equal(part, whole[a:b])
    np.testing.assert_array_equal(net.arrays.rev, [-1, -1, -1, -1, -1, 1, 0])
    # each query sorts the edges once, in the parser
    path = tmp_path / "fig.txt"
    path.write_text(FIG_NETWORK)
    calls = []
    real = temporal_graph._index_edges
    monkeypatch.setattr(temporal_graph, "_index_edges", lambda *a: calls.append(1) or real(*a))
    assert main(["validate", str(path)]) == 0
    assert main(["rank", str(path), "--alpha", "0.1"]) == 0
    assert main(["check-alpha", str(path), "--mode", "nbt-both"]) == 0
    assert len(calls) == 3
    capsys.readouterr()
