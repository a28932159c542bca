"""Edge-space matrices: source/target incidences, line-graph and Hashimoto
matrices of a snapshot, and the global transition matrix.

Edges are ordered globally by snapshot, then lexicographically by
(source, target) within a snapshot.  The global transition matrix M is m x m
and block upper triangular: block (tau1, tau2) is R_tau1 L_tau2^T for
tau1 <= tau2, so entry (i, j) is 1 when edge j starts where edge i ends, no
earlier in time.  All of M is therefore one product R_g L_g^T of the stacked
incidences, masked by snapshot order.  The four modes select which blocks
also drop the immediately-reversed pairs (edge j leading back to edge i's
source).  Nothing is cached: each call builds its matrices afresh.
"""

from __future__ import annotations

import enum

import numpy as np
import scipy.sparse as sp


class Mode(enum.Enum):
    """Which immediately-reversed edge pairs are forbidden.

    STANDARD allows all length-2 transitions.  NBT_SPACE forbids reversals
    within a snapshot, NBT_TIME forbids reversals across snapshots, NBT_BOTH
    forbids both.
    """

    STANDARD = "standard"
    NBT_SPACE = "nbt-space"
    NBT_TIME = "nbt-time"
    NBT_BOTH = "nbt-both"


#: modes whose diagonal blocks forbid within-snapshot reversals
_NBT_DIAGONAL = (Mode.NBT_SPACE, Mode.NBT_BOTH)
#: modes whose off-diagonal blocks forbid across-snapshot reversals
_NBT_OFFDIAG = (Mode.NBT_TIME, Mode.NBT_BOTH)


def _incidences(edges, n):
    """Source and target incidence matrices L, R (len(edges) x n, one 1 per
    row) of a sequence of (source, target) pairs."""
    pairs = np.array(edges, dtype=np.int64).reshape(-1, 2)
    m = len(pairs)
    rows = np.arange(m)
    ones = np.ones(m)
    L = sp.csr_array((ones, (rows, pairs[:, 0])), shape=(m, n))
    R = sp.csr_array((ones, (rows, pairs[:, 1])), shape=(m, n))
    return L, R


def source_target_matrices(snapshot, n):
    """Source and target incidence matrices L, R (m_tau x n, one 1 per row)."""
    return _incidences(snapshot.edges, n)


def line_graph_matrix(snapshot, n):
    """Adjacency matrix W = R L^T of the snapshot's line graph."""
    L, R = source_target_matrices(snapshot, n)
    W = sp.csr_array(R @ L.T)
    W.eliminate_zeros()
    return W


def hashimoto_matrix(snapshot, n):
    """Hashimoto matrix B = W - W o W^T (reversed pairs knocked out)."""
    W = line_graph_matrix(snapshot, n)
    B = sp.csr_array(W - W.multiply(W.T))
    B.eliminate_zeros()
    return B


def _global_edges(net):
    """All m edges in global order, as an m x 2 array of (source, target)."""
    edges = [e for snap in net.snapshots for e in snap.edges]
    return np.array(edges, dtype=np.int64).reshape(-1, 2)


def global_source_target(net):
    """Vertical stacks L_g, R_g of the per-snapshot L and R matrices (m x n)."""
    return _incidences(_global_edges(net), net.n)


def global_transition(net, mode):
    """The m x m block upper-triangular global transition matrix of ``mode``:
    R_g L_g^T restricted to snapshot(i) <= snapshot(j), less the reversals
    the mode forbids."""
    edges = _global_edges(net)
    snapshot = np.repeat(np.arange(net.N), [snap.m for snap in net.snapshots])
    L, R = _incidences(edges, net.n)
    W = sp.coo_array(R @ L.T)
    i, j = W.row, W.col
    keep = snapshot[i] <= snapshot[j]
    reversal = edges[j, 1] == edges[i, 0]
    within = snapshot[i] == snapshot[j]
    if mode in _NBT_DIAGONAL:
        keep &= ~(reversal & within)
    if mode in _NBT_OFFDIAG:
        keep &= ~(reversal & ~within)
    return sp.csr_array((W.data[keep], (i[keep], j[keep])), shape=W.shape)


def dump_coordinate(matrix, stream):
    """Write a sparse matrix in text coordinate format:
    `nrows ncols nnz` header, then one `row col value` line per nonzero."""
    coo = sp.coo_array(matrix)
    stream.write(f"{coo.shape[0]} {coo.shape[1]} {coo.nnz}\n")
    order = np.lexsort((coo.col, coo.row))
    for r, c, v in zip(coo.row[order], coo.col[order], coo.data[order]):
        stream.write(f"{r} {c} {v:.17g}\n")
