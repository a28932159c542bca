"""Edge-space matrices as numpy coordinates: the line-graph and Hashimoto
matrices of a snapshot, the node-level Katz systems, the global transition
matrix and its product without it (``TransitionOperator``), and the
directed-pair numbering that finds reversals across snapshots.

Edges are ordered globally by snapshot, then lexicographically by
(source, target) within a snapshot.  The global transition matrix M is m x m
and block upper triangular: block (tau1, tau2) is R_tau1 L_tau2^T for
tau1 <= tau2, so entry (i, j) is 1 when edge j starts where edge i ends, no
earlier in time.  All of M is therefore R_g L_g^T of the stacked incidences,
masked by snapshot order.  The four modes select which blocks
also drop the immediately-reversed pairs (edge j leading back to edge i's
source).

Every matrix here is read from the edge arrays the parser makes: a
snapshot's slice (``Snapshot.arrays``: sorted sources and targets, and each
edge's reversal index) or all of them (``TemporalNetwork.arrays``), whose
sources and targets are the incidences L and R.  The successors of an edge
are a contiguous range of sorted sources, so W_t, B_t and M are
concatenations of such ranges, less the reversals their mode forbids, and
their coordinates come sorted by (row, column), as ``dump-matrix`` writes
them.  ``TransitionOperator`` sums those ranges without forming M, as
cumulative sums along each source's edges.  The SciPy matrices of the
tests and the benchmark (``global_transition`` and the like) forward to
``oracle``.  This module keeps no cache of its own, and an operator keeps
only work arrays for its next product.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

import numpy as np

from .temporal_graph import _referees, _starts


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

__getattr__ = _referees(__name__, {
    "source_target_matrices", "line_graph_matrix", "hashimoto_matrix",
    "global_source_target", "global_transition",
})


def _ranges(starts, ends):
    """(rows, cols) of the entries whose columns in row i are starts[i]:ends[i],
    sorted by (row, column)."""
    counts = ends - starts
    rows = np.repeat(np.arange(len(counts)), counts)
    offsets = np.cumsum(counts) - counts
    return rows, np.arange(counts.sum()) + np.repeat(starts - offsets, counts)


class _Entries(NamedTuple):
    """The dim x dim matrix with ``values`` at (``rows``, ``cols``), duplicates
    summed; ``P @ x`` for a dim-vector or dim x k block x sums each row's
    entries in their order.  The systems that ``matfun`` factors hold them
    in CSC order (by column, then row), which ``matfun._csc`` needs."""

    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    dim: int

    def __matmul__(self, x):
        if x.ndim == 1:
            return np.bincount(self.rows, self.values * x[self.cols], self.dim)
        k = x.shape[1]
        at = (self.rows[:, None] * k + np.arange(k)).ravel()
        sums = np.bincount(at, (self.values[:, None] * x[self.cols]).ravel(), self.dim * k)
        return sums.reshape(self.dim, k)

    def among(self, keep):
        """The entries among the sorted rows ``keep``, numbered by their place."""
        place = np.full(self.dim, -1)
        place[keep] = np.arange(len(keep))
        rows, cols = place[self.rows], place[self.cols]
        inside = (rows >= 0) & (cols >= 0)
        return _Entries(rows[inside], cols[inside], self.values[inside], len(keep))

    def dense(self):
        """The matrix as a dense array."""
        matrix = np.zeros((self.dim, self.dim))
        np.add.at(matrix, (self.rows, self.cols), self.values)
        return matrix


def _successors(e):
    """(rows, cols) of W_t: edge f follows edge i when src[f] == tgt[i], and
    those f are one contiguous range of the sorted sources, from first[v],
    the number of sources below v, to first[v + 1]."""
    first = _starts(e.src, max(e.src.max(initial=-1), e.tgt.max(initial=-1)) + 1)
    return _ranges(first[e.tgt], first[e.tgt + 1])


def _non_backtracking(e):
    """(rows, cols) of B_t: the successors of each edge less its reversal."""
    rows, cols = _successors(e)
    keep = cols != e.rev[rows]
    return rows[keep], cols[keep]


def _with_diagonal(rows, cols, off, diag):
    """(rows, cols, values) of the len(diag)-square matrix with the entries
    ``off`` at (rows, cols), none on the diagonal, plus the diagonal ``diag``,
    in CSC order (by column, then row), zero entries dropped."""
    dim = len(diag)
    nodes = np.arange(dim)
    rows, cols = np.concatenate((rows, nodes)), np.concatenate((cols, nodes))
    values = np.concatenate((off, diag))
    order = np.argsort(cols * dim + rows)  # no duplicates
    order = order[values[order] != 0]
    return rows[order], cols[order], values[order]


def _hashimoto_entries(e, alpha):
    """:func:`_with_diagonal` entries of I - alpha B_t, from edge arrays e."""
    rows, cols = _non_backtracking(e)
    return _with_diagonal(rows, cols, np.full(len(rows), 0.0 - alpha), np.ones(len(e.src)))


def _katz_entries(e, nodes, alpha, nbt):
    """:func:`_with_diagonal` entries of I - alpha A_t or, with ``nbt``, the
    NBT-in-space cubic I - alpha A_t + alpha^2 (D - I) + alpha^3 (A_t - S),
    where S holds the reciprocated edges of the edge arrays e and D counts
    them per source node.  Rows and columns are restricted to ``nodes``
    (sorted, every source among them) and numbered by their place there.
    Each entry is evaluated in the order of the sparse sums of
    ``oracle.reference_katz_system``, so the two are equal bit for bit."""
    rows, cols = np.searchsorted(nodes, e.src), np.searchsorted(nodes, e.tgt)
    off = np.full(len(rows), 0.0 - alpha)
    diag = np.ones(len(nodes))
    if nbt:
        paired = e.rev >= 0
        diag = 1.0 + alpha**2 * (np.bincount(rows[paired], minlength=len(nodes)) - 1.0)
        off[~paired] += alpha**3
    inside = nodes[np.minimum(cols, len(nodes) - 1)] == e.tgt
    return _with_diagonal(rows[inside], cols[inside], off[inside], diag)


def _transition(net, mode):
    """(rows, cols) of the m x m block upper-triangular global transition
    matrix of ``mode``, sorted by (row, column): R_g L_g^T restricted to
    snapshot(i) <= snapshot(j), less the reversals the mode forbids."""
    src, tgt, _ = net.arrays
    snapshot = np.repeat(np.arange(net.N), np.diff(net.offsets))
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
    return rows[keep], cols[keep]


#: a position of a :class:`_Runs` table with at least this many entries is
#: summed by one ``np.add`` of slices, since the call costs about as much as
#: adding this many entries (2-vCPU Xeon); narrower ones are summed padded,
#: by rows
_WIDE = 512


class _Runs:
    """A table of runs of the given sizes, one run to a row and the rows by
    decreasing size (a run of none has no items), kept by position without
    padding: position j (from 1) holds item j of each run of at least j
    items, from offsets[j - 1] on, so item j of run g lies at
    ``offsets[j - 1] + row[g]``.  ``sums`` adds along the rows."""

    def __init__(self, sizes):
        sizes = np.asarray(sizes, dtype=np.int64)
        order = np.argsort(-sizes, kind="stable")
        self.row = np.empty(len(sizes), dtype=np.int64)
        self.row[order] = np.arange(len(sizes))
        # the runs of at least j items, j = 1, 2, ..., w
        self.rows = np.cumsum(np.bincount(sizes, minlength=2)[::-1])[::-1][1:]
        self.offsets = np.concatenate(([0], np.cumsum(self.rows)))
        # _compact[p] is the first position from p on after which the
        # later positions fit padded in twice as many cells as they hold
        w = len(self.rows)
        fits = self.rows * np.arange(w, 0, -1) <= 2 * (self.offsets[-1] - self.offsets[:-1])
        at = np.where(np.append(fits, True), np.arange(w + 1), w)
        self._compact = np.minimum.accumulate(at[::-1])[::-1]
        self._padded = None

    def _tail(self, p):
        """(at, cells, pick) of the positions after p, padded: ``at`` is an
        R x (w - p + 1) array of the places of the items of the R runs
        longer than p at positions p to w (the zero row at position 0 and
        past the end of a run); ``cells`` are the items after p, and
        ``pick`` their flat indices in ``at``.  The last one is kept."""
        if self._padded is None or self._padded[0] != p:
            total, q = self.offsets[-1], np.arange(p + 1, len(self.rows) + 1)
            r = np.arange(self.rows[p] if p < len(self.rows) else 0)[:, None]
            at = np.full((len(r), len(q) + 1), total)
            at[:, 1:] = np.where(r < self.rows[q - 1], self.offsets[q - 1] + r, total)
            if p:
                at[:, 0] = self.offsets[p - 1] + r[:, 0]
            keep = np.zeros(at.shape, dtype=bool)
            keep[:, 1:] = at[:, 1:] < total
            pick = np.flatnonzero(keep)
            self._padded = p, at, at.ravel()[pick], pick
        return self._padded[1:]

    def sums(self, X, out):
        """Cumulative sums along each row of the table X (items x k) into
        ``out`` (items + 1 x k, its last row zero), which may be X with its
        zero row: item j of a run then holds the sum of its first j items.
        Position j adds position j - 1 to X up to position p, the first
        after those of _WIDE entries or more whose later positions fit
        padded in twice their size; those are summed padded, by rows."""
        k, offsets = X.shape[1], self.offsets
        p = self._compact[np.count_nonzero(self.rows * k >= _WIDE)]
        if out is not X:
            out[: offsets[1]] = X[: offsets[1]]
            out[offsets[p] : offsets[-1]] = X[offsets[p] : offsets[-1]]
        for j in range(1, p):
            start, stop, before = offsets[j], offsets[j + 1], offsets[j - 1]
            np.add(out[before : before + stop - start], X[start:stop], out=out[start:stop])
        at, cells, pick = self._tail(p)
        if len(cells):
            T = np.take(out, at, axis=0)
            np.cumsum(T, axis=1, out=T)
            out[cells] = np.take(T.reshape(at.size, k), pick, axis=0)
        return out


def _gathered(index, starts, sizes, backwards):
    """(runs, gather) of a :class:`_Runs` table of the runs ``index[starts[g]
    : starts[g] + sizes[g]]``, laid in order or ``backwards``, so that
    ``X[gather]`` fills it from the rows ``index`` of X and its item j of
    run g sums the first or the last j of them."""
    runs = _Runs(sizes)
    run = np.repeat(np.arange(len(sizes)), sizes)
    j = np.arange(len(run)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    item = sizes[run] - j if backwards else j + 1
    gather = np.empty(len(run), dtype=np.int64)
    gather[runs.offsets[item - 1] + runs.row[run]] = index[starts[run] + j]
    return runs, gather


class TransitionOperator:
    """The global transition matrix M of a mode as a numpy product that never
    forms M: ``op @ X`` for an X of m rows (a vector or a block of columns)
    in the operator's own order of the edges, row i for edge ``edges[i]``,
    with ``targets(W)`` and ``sources(Y)`` for R_g W and L_g^T Y in that
    order.  So L_g^T f(alpha M) R_g W is ``op.sources(apply_series(op,
    alpha, f, op.targets(W)).value)``.

    The edges are ordered by (source, snapshot, target), and each source's
    run lies backwards in one row of a table kept by position
    (:class:`_Runs`), which is the operator's order.  The successors of
    edge i are the last cnt_i edges of the run of tgt(i), those in
    snapshot(i) or later, so (M X)_i is the cumulative sum along that row
    read at item cnt_i, a sum of nonnegative terms when X >= 0.

    The NBT modes leave out the reversals they forbid.  Where edge i's
    same-snapshot reversal is among its successors (``nbt-space`` and
    ``nbt-both``), the row is read just after the reversal, and the edges of
    the run of tgt(i) in snapshot(i) before it are added from a table of
    those runs, each summed forward.  ``nbt-time`` and ``nbt-both`` subtract
    the edges of i's reversed directed pair in later snapshots, a suffix of
    that pair's run, read from a table of those runs.  Where the subtracted
    part is more than half the sum, the entry is summed again from its
    nonnegative terms, as ``matfun._paired_rhs`` does, so that it keeps its
    digits.  A product costs O(m k) for k columns, plus the terms of the
    entries summed again."""

    def __init__(self, net, mode):
        src, tgt, rev = net.arrays
        n, N, m = net.n, net.N, len(src)
        snapshot = np.repeat(np.arange(N), np.diff(net.offsets))
        by_source = np.argsort(src, kind="stable")  # by (source, snapshot, target)
        place = np.empty(m, dtype=np.int64)  # of each edge in that order
        place[by_source] = np.arange(m)
        first = _starts(src[by_source], n)
        self._runs = runs = _Runs(np.diff(first))
        # edge by_source[p], leaving v, is item first[v + 1] - p of v's run
        sources = src[by_source]
        slot = runs.offsets[first[sources + 1] - np.arange(m) - 1] + runs.row[sources]
        #: the edge (its index in ``net.arrays``) of each row of the operator
        self.edges = np.empty(m, dtype=np.int64)
        self.edges[slot] = by_source
        self.shape, self._n, self._tgt = (m, m), n, tgt[self.edges]
        self._work = [np.empty(0)] * 3
        # the last item of each node's run, which sums the run
        self._nodes = np.flatnonzero(np.diff(first))
        self._last = runs.offsets[np.diff(first)[self._nodes] - 1] + runs.row[self._nodes]
        key = sources * N + snapshot[by_source]
        # the successors of an edge are the count edges of its target from
        # its snapshot on, from place start
        start = np.searchsorted(key, tgt * N + snapshot)
        count = first[tgt + 1] - start
        after = count.copy()
        self._prefix = self._later = None
        if mode in _NBT_DIAGONAL:
            # an edge whose reversal lies k places into that run reads the
            # edges after the reversal in the row, and the k before it from a
            # table of those runs, each summed forward
            turn = np.flatnonzero(rev >= 0)
            k = place[net.offsets[snapshot[turn]] + rev[turn]] - start[turn]
            after[turn] -= k + 1
            turn, k = turn[k > 0], k[k > 0]
            starts, which = np.unique(start[turn], return_inverse=True)
            prefix, gather = _gathered(slot, starts, np.searchsorted(key, key[starts] + 1) - starts, False)
            self._prefix = slot[place[turn]], prefix, gather, prefix.offsets[k - 1] + prefix.row[which]
        # each edge reads the sum of the successors it does not skip, or the
        # zero row m when there are none
        read = np.full(m, m)
        some = after > 0
        read[some] = runs.offsets[after[some] - 1] + runs.row[tgt[some]]
        self._read = read[self.edges]
        if mode in _NBT_OFFDIAG:
            # the edges of an edge's reversed directed pair in later snapshots
            # are a suffix of that pair's run, subtracted
            pair, reverse, pair_first = pair_index(net)
            by_pair = np.argsort(pair, kind="stable")  # by (pair, snapshot)
            run = _starts(pair[by_pair], pair_first[-1])
            sub = np.flatnonzero(reverse < pair_first[-1])
            key = pair[by_pair] * N + snapshot[by_pair]
            span = run[reverse[sub] + 1] - np.searchsorted(key, reverse[sub] * N + snapshot[sub] + 1)
            sub, span = sub[span > 0], span[span > 0]
            table, which = np.unique(reverse[sub], return_inverse=True)
            later, gather = _gathered(slot[place[by_pair]], run[table], np.diff(run)[table], True)
            self._later = slot[place[sub]], later, gather, later.offsets[span - 1] + later.row[which]
            # what an entry summed from its terms leaves out: later edges
            # back to its source, in nbt-both from its own snapshot on
            self._skip = src[sub], snapshot[sub] + (mode is Mode.NBT_TIME)
            self._successors = start[sub], count[sub]
            self._by_place = slot, tgt[by_source], snapshot[by_source]

    def _scratch(self, which, rows, k):
        """A rows x k work array, kept for the next product: a fresh one
        of that size costs page faults of the order of its arithmetic."""
        size = rows * k
        if len(self._work[which]) < size:
            self._work[which] = np.empty(size)
        return self._work[which][:size].reshape(rows, k)

    def _table(self, X, which, runs, gather):
        """The sums along the rows of the table ``X[gather]`` of ``runs``."""
        P = self._scratch(which, len(gather) + 1, X.shape[1])
        np.take(X, gather, axis=0, out=P[:-1], mode="clip")
        P[-1] = 0.0
        return runs.sums(P, P)

    def __matmul__(self, X):
        shape = X.shape
        X = np.asarray(X, dtype=float)
        X = X if X.ndim == 2 else X[:, None]
        m = self.shape[1]
        C = self._scratch(0, m + 1, X.shape[1])
        C[m] = 0.0
        Y = np.take(self._runs.sums(X, C), self._read, axis=0)
        if self._prefix is not None:
            rows, runs, gather, read = self._prefix
            Y[rows] += np.take(self._table(X, 1, runs, gather), read, axis=0)
        if self._later is not None:
            rows, runs, gather, read = self._later
            c = np.take(self._table(X, 2, runs, gather), read, axis=0)
            b = np.take(Y, rows, axis=0) - c
            edges, cols = np.nonzero(c > b)
            if len(edges):
                b[edges, cols] = self._terms(X, edges, cols)
            Y[rows] = b
        return Y.reshape(shape)

    def _terms(self, X, edges, cols):
        """(M X) at the subtracting edges ``edges`` (numbered as in
        ``_later``), columns ``cols``, summed from the successors that the
        mode allows."""
        start, count = (a[edges] for a in self._successors)
        entry, places = _ranges(start, start + count)
        at, tgt, snapshot = (a[places] for a in self._by_place)
        src, first = (a[edges][entry] for a in self._skip)
        allowed = (tgt != src) | (snapshot < first)
        terms = np.where(allowed, X[at, cols[entry]], 0.0)
        return np.bincount(entry, terms, minlength=len(edges))

    def targets(self, W):
        """R_g W for an n-vector or n x k block W, in the operator's order."""
        return np.asarray(W, dtype=float)[self._tgt]

    def sources(self, Y):
        """L_g^T Y for Y in the operator's order, m or m x k."""
        X = Y if Y.ndim == 2 else Y[:, None]
        sums = self._runs.sums(X, np.zeros((len(X) + 1, X.shape[1])))
        out = np.zeros((self._n, X.shape[1]))
        out[self._nodes] = sums[self._last]
        return out.reshape((self._n,) + Y.shape[1:])


def pair_index(net):
    """(pair, reverse, first) over all m edges: ``pair[i]`` numbers the
    directed pair (src, tgt) of edge i among the network's distinct pairs in
    (source, target) order, so the pairs leaving node v are numbered
    first[v] to first[v + 1] - 1, and ``reverse[i]`` is the number of
    (tgt, src), or first[n], the count of pairs, when no snapshot has that
    edge.  Edge j reverses edge i exactly when pair[j] == reverse[i]."""
    src, tgt, _ = net.arrays
    pairs, pair = np.unique(src * net.n + tgt, return_inverse=True)
    reversed_key = tgt * net.n + src
    pos = np.searchsorted(pairs, reversed_key)
    found = np.append(pairs, -1)[pos] == reversed_key
    return pair, np.where(found, pos, len(pairs)), _starts(pairs // net.n, net.n)
