"""Edge-space matrices: source/target incidences, line-graph and Hashimoto
matrices of a snapshot, the node-level Katz systems, the global transition
matrix, and the directed-pair numbering that finds reversals across
snapshots.

Edges are ordered globally by snapshot, then lexicographically by
(source, target) within a snapshot.  The global transition matrix M is m x m
and block upper triangular: block (tau1, tau2) is R_tau1 L_tau2^T for
tau1 <= tau2, so entry (i, j) is 1 when edge j starts where edge i ends, no
earlier in time.  All of M is therefore R_g L_g^T of the stacked incidences,
masked by snapshot order.  The four modes select which blocks
also drop the immediately-reversed pairs (edge j leading back to edge i's
source).

Every matrix here is built directly in compressed form from the compiled edge
arrays each ``Snapshot`` owns (``Snapshot.arrays``: sorted sources and
targets, and each edge's reversal index).  The successors of an edge are a
contiguous range of sorted sources, so W_t, B_t and M are concatenations of
such ranges, less the reversals their mode forbids.  This module keeps no
cache of its own: each call builds its matrix afresh from the arrays.
"""

from __future__ import annotations

import enum

import numpy as np
import scipy.sparse as sp

from .temporal_graph import sorted_csr


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


def _ranges(starts, ends):
    """(rows, cols) of the entries whose columns in row i are starts[i]:ends[i],
    sorted by (row, column)."""
    counts = ends - starts
    rows = np.repeat(np.arange(len(counts)), counts)
    offsets = np.cumsum(counts) - counts
    return rows, np.arange(counts.sum()) + np.repeat(starts - offsets, counts)


def _successors(e):
    """(rows, cols) of W_t: edge f follows edge i when src[f] == tgt[i], and
    those f are one contiguous range of the sorted sources."""
    return _ranges(np.searchsorted(e.src, e.tgt, "left"), np.searchsorted(e.src, e.tgt, "right"))


def _ones(rows, cols, shape):
    """0/1 CSR array of sorted (rows, cols)."""
    return sorted_csr(rows, cols, np.ones(len(cols)), shape)


def _incidences(src, tgt, n):
    """Source and target incidence matrices L, R (len(src) x n, one 1 per row)."""
    rows = np.arange(len(src))
    return _ones(rows, src, (len(src), n)), _ones(rows, tgt, (len(src), n))


def source_target_matrices(snapshot, n):
    """Source and target incidence matrices L, R (m_tau x n, one 1 per row)."""
    e = snapshot.arrays
    return _incidences(e.src, e.tgt, n)


def line_graph_matrix(snapshot, n):
    """Adjacency matrix W = R L^T of the snapshot's line graph."""
    rows, cols = _successors(snapshot.arrays)
    return _ones(rows, cols, (snapshot.m, snapshot.m))


def _non_backtracking(e):
    """(rows, cols) of B_t: the successors of each edge less its reversal."""
    rows, cols = _successors(e)
    keep = cols != e.rev[rows]
    return rows[keep], cols[keep]


def hashimoto_matrix(snapshot, n):
    """Hashimoto matrix B: W less each edge's reversal (B = W - W o W^T)."""
    return _ones(*_non_backtracking(snapshot.arrays), (snapshot.m, snapshot.m))


def _csc_with_diagonal(rows, cols, off, diag, dim):
    """dim x dim CSC array of the entries ``off`` at (rows, cols), none on the
    diagonal, plus the diagonal ``diag``; zero entries are dropped."""
    nodes = np.arange(dim)
    rows, cols = np.concatenate((rows, nodes)), np.concatenate((cols, nodes))
    values = np.concatenate((off, diag))
    order = np.lexsort((rows, cols))
    order = order[values[order] != 0]
    # the CSR form of the transpose, read column by column, is CSC
    return sorted_csr(cols[order], rows[order], values[order], (dim, dim)).T


def hashimoto_system(snapshot, alpha):
    """I - alpha B_t as m_t x m_t CSC."""
    rows, cols = _non_backtracking(snapshot.arrays)
    off = np.full(len(rows), 0.0 - alpha)
    return _csc_with_diagonal(rows, cols, off, np.ones(snapshot.m), snapshot.m)


def katz_system(snapshot, n, alpha, nbt):
    """I - alpha A_t as n x n CSC or, with ``nbt``, the NBT-in-space cubic
    I - alpha A_t + alpha^2 (D - I) + alpha^3 (A_t - S), where S holds the
    snapshot's reciprocated edges and D counts them per source node.  Each
    entry is evaluated in the order of the sparse sums of
    ``oracle.reference_katz_system``, zeros dropped, so the two are equal
    bit for bit."""
    e = snapshot.arrays
    off = np.full(len(e.src), 0.0 - alpha)
    diag = np.ones(n)
    if nbt:
        paired = e.rev >= 0
        diag = 1.0 + alpha**2 * (np.bincount(e.src[paired], minlength=n) - 1.0)
        off[~paired] += alpha**3
    return _csc_with_diagonal(e.src, e.tgt, off, diag, n)


def _global_arrays(net):
    """Global source, target and 0-based snapshot index of all m edges."""
    src = np.concatenate([snap.arrays.src for snap in net.snapshots])
    tgt = np.concatenate([snap.arrays.tgt for snap in net.snapshots])
    snapshot = np.repeat(np.arange(net.N), [snap.m for snap in net.snapshots])
    return src, tgt, snapshot


def global_source_target(net):
    """Vertical stacks L_g, R_g of the per-snapshot L and R matrices (m x n)."""
    src, tgt, _ = _global_arrays(net)
    return _incidences(src, tgt, net.n)


def global_transition(net, mode):
    """The m x m block upper-triangular global transition matrix of ``mode``:
    R_g L_g^T restricted to snapshot(i) <= snapshot(j), less the reversals
    the mode forbids."""
    src, tgt, snapshot = _global_arrays(net)
    # by source, then snapshot, then target: the successors of edge i are the
    # edges leaving tgt(i) in snapshot(i) or later, one contiguous range here,
    # in increasing global order
    by_source = np.argsort(src, kind="stable")
    key = src[by_source] * net.N + snapshot[by_source]
    starts = np.searchsorted(key, tgt * net.N + snapshot)
    rows, pos = _ranges(starts, np.searchsorted(key, (tgt + 1) * net.N))
    cols = by_source[pos]
    keep = np.ones(len(cols), dtype=bool)
    reversal = tgt[cols] == src[rows]
    within = snapshot[rows] == snapshot[cols]
    if mode in _NBT_DIAGONAL:
        keep &= ~(reversal & within)
    if mode in _NBT_OFFDIAG:
        keep &= ~(reversal & ~within)
    return _ones(rows[keep], cols[keep], (len(src), len(src)))


def pair_index(net):
    """(pair, reverse, count) over all m edges: ``pair[i]`` numbers the
    directed pair (src, tgt) of edge i among the network's ``count``
    distinct pairs, and ``reverse[i]`` is the number of (tgt, src), or
    ``count`` when no snapshot has that edge.  Edge j reverses edge i
    exactly when pair[j] == reverse[i]."""
    src, tgt, _ = _global_arrays(net)
    pairs, pair = np.unique(src * net.n + tgt, return_inverse=True)
    reversed_key = tgt * net.n + src
    pos = np.searchsorted(pairs, reversed_key)
    found = np.append(pairs, -1)[pos] == reversed_key
    return pair, np.where(found, pos, len(pairs)), len(pairs)


def dump_coordinate(matrix, stream):
    """Write a sparse matrix in text coordinate format:
    `nrows ncols nnz` header, then one `row col value` line per nonzero."""
    coo = sp.coo_array(matrix)
    stream.write(f"{coo.shape[0]} {coo.shape[1]} {coo.nnz}\n")
    order = np.lexsort((coo.col, coo.row))
    for r, c, v in zip(coo.row[order], coo.col[order], coo.data[order]):
        stream.write(f"{r} {c} {v:.17g}\n")
