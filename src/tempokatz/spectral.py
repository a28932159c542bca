"""Spectral radii and the admissible parameter interval (0, ell) per mode.

For the standard and NBT-in-time modes, the centrality series converge for
alpha below 1 / max_tau rho(A^[tau]).  For the modes that forbid
within-snapshot backtracking they converge for alpha below
min_tau 1 / rho(B^[tau]), which equals the smallest-modulus eigenvalue of a
cubic matrix polynomial in the adjacency matrix (checked in the test suite).
Every radius is ``_radius`` of a block's edge arrays, or of a sparse
matrix's entries (``oracle.spectral_radius``): dense eigenvalues up to
DENSE_DIRECT_MAX rows, above it a certified upper bound on the strongly
connected components (a block that is one is bracketed whole, with no
labelling), so ell never exceeds the true supremum.  Both bounds
stack the blocks, whatever their size, as edge arrays (forming no entry of
B) and peel the stacks for at most DENSE_DIRECT_MAX rounds.  ``alpha_bound``
takes every radius of both families: a block the peel empties has no cycle,
radius 0.0.  ``mode_bound`` needs only the largest of its mode's family: it
brackets every block at once on the rows that the same peel keeps, and takes
radii in descending order of upper bound.  All of it runs on numpy alone:
``spectral_radius``, which takes a SciPy matrix, forwards to ``oracle``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .line_space import _NBT_DIAGONAL, Mode, _Entries, _non_backtracking, _ranges
from .temporal_graph import _distinct, _referees, _starts

DEFAULT_TOL = 1e-10
DEFAULT_MAXIT = 10_000

__getattr__ = _referees(__name__, {"spectral_radius"})


class RadiusEstimate(NamedTuple):
    value: float
    converged: bool
    iterations: int


@dataclass(frozen=True)
class AlphaBound:
    """Supremum ``ell`` of admissible alpha, with per-snapshot radii.

    ``per_snapshot[tau-1] = (rho_tau, lambda_tau)`` where rho_tau is the
    adjacency spectral radius and lambda_tau = 1 / rho(B^[tau]).
    """

    ell: float
    per_snapshot: tuple[tuple[float, float], ...]
    mode: Mode
    converged: bool = True


#: up to this dimension the radius comes from dense eigenvalues outright; they
#: take ~27 ms at 200 rows of one strongly connected block (2-vCPU Xeon).
#: The peel stops after as many rounds
DENSE_DIRECT_MAX = 200

#: strongly connected components above this dimension get no dense fallback
DENSE_FALLBACK_MAX = 4096

#: the colouring of _components, and _strongly_connected, stop after this
#: many passes over the entries.  One colouring pass over the 12,011 entries
#: of a 700-row Hashimoto block takes about 25 us and the depth-first search
#: 2.9 ms (2-vCPU Xeon), so the colouring passes given up on cost at most
#: about half the search that follows
COLOUR_PASSES = 64

#: mode_bound stacks the blocks about STACK_ROWS rows at a time, for
#: STACK_STEPS power steps, to bound memory: one stack of all 4M adjacency rows
#: of a 1000-node, 4000-snapshot network raised peak RSS by 270 MB, where these
#: groups added nothing to the 60 MB of parsing it.  The peel keeps the rows
#: downstream of a cycle too, and at ten steps their brackets left 174 radii to
#: take on the long-horizon Hashimoto blocks of perfbench seeds 1-8, against 49
#: at fifteen; twenty steps cost more than the radii they save.  MARGIN is well
#: above the dense eigensolver's error on a defective radius (1.7e-6 seen, 5.8e-5 contrived)
STACK_ROWS, STACK_STEPS, MARGIN = 1 << 14, 15, 1e-4


def _radius(row, col, dim, data=None):
    """RadiusEstimate of the dim x dim matrix with entries ``data`` (default
    1) at (``row``, ``col``), given in row order; duplicates are summed.

    Up to DENSE_DIRECT_MAX it is computed by dense eigenvalues.  Above it the
    result is a certified upper bound.  The radius is the largest over the
    strongly connected components, so C keeps only the entries inside them.
    Power iteration on I + C, primitive on every component even where C is
    periodic, gives positive x; on each component the Collatz-Wielandt ratios
    (C x)_i / x_i bracket its radius.  Their maxima give lo <= rho <= hi, and
    once hi - lo <= DEFAULT_TOL * hi the value returned is hi, so 1 / value
    never exceeds 1 / rho.  If the bracket stays open for DEFAULT_MAXIT
    iterations, the components that may hold the radius get dense eigenvalues
    (their Perron roots are simple); one above DENSE_FALLBACK_MAX gives a
    non-converged hi.  The module constants are read at call time.
    """
    if dim == 0 or len(row) == 0:
        return RadiusEstimate(0.0, True, 0)
    P = _Entries(row, col, np.ones(len(row)) if data is None else data, dim)
    if dim <= DENSE_DIRECT_MAX:
        return RadiusEstimate(_dense_radius(P.dense()), True, 0)
    C, labels = _inside_components(P)
    if C.dim == 0:
        return RadiusEstimate(0.0, True, 0)  # acyclic, so nilpotent
    lo_k, hi_k, it = _bracket(C, labels, DEFAULT_MAXIT)
    lo, hi = float(lo_k.max()), float(hi_k.max())
    if hi - lo <= DEFAULT_TOL * hi:
        return RadiusEstimate(hi, True, it)
    blocks = [np.flatnonzero(labels == k) for k in np.flatnonzero(hi_k >= lo)]
    if max(map(len, blocks)) > DENSE_FALLBACK_MAX:
        return RadiusEstimate(hi, False, it)
    value = max(_dense_radius(C.among(idx).dense()) for idx in blocks)
    return RadiusEstimate(value, True, it)


def _dense_radius(dense):
    """Largest modulus among the eigenvalues of the whole ``dense`` matrix."""
    value = float(np.max(np.abs(np.linalg.eigvals(dense))))
    # tiny moduli on a nilpotent matrix are eigensolver noise
    return 0.0 if value <= 1e-12 * max(1.0, float(np.abs(dense).sum())) else value


def _inside_components(P):
    """(C, labels): the :class:`_Entries` of P inside its strongly connected
    components, on the rows they lie in (no other row is on a cycle), and the
    component of each such row, numbered from 0.  A P that is one component
    of all its rows is returned as it is, with no labelling."""
    if _strongly_connected(P.rows, P.cols, P.dim):
        return P, np.zeros(P.dim, dtype=np.intp)
    labels = _components(P.rows, P.cols, P.dim)
    inside = labels[P.rows] == labels[P.cols]
    C = _Entries(P.rows[inside], P.cols[inside], P.values[inside], P.dim)
    rows = _distinct(C.rows)
    return C.among(rows), np.unique(labels[rows], return_inverse=True)[1]


def _strongly_connected(rows, cols, dim):
    """Whether the dim x dim graph (``rows`` sorted, ``cols``) is one strongly
    connected component of all its rows, each with an entry: the rows that
    row 0 reaches and those reaching it grow a step a pass, with no sort,
    until both are every row, one stops short of it, or COLOUR_PASSES end."""
    heads = np.flatnonzero(np.diff(rows, prepend=-1))  # heads[i] starts row i
    if len(heads) < dim:  # a row without entries, as where there are fewer entries than rows
        return False
    fwd = np.arange(dim) == 0
    bwd, counts = fwd.copy(), (1, 1)
    for _ in range(COLOUR_PASSES):
        fwd[cols[fwd[rows]]] = True
        bwd |= np.logical_or.reduceat(bwd[cols], heads)
        grown = np.count_nonzero(fwd), np.count_nonzero(bwd)
        if grown == (dim, dim) or any(g == c < dim for g, c in zip(grown, counts)):
            return grown == (dim, dim)
        counts = grown
    return False


def _components(rows, cols, dim):
    """The strongly connected component of each row of the dim x dim graph
    (``rows`` sorted, ``cols``), as the label of one of its rows.

    Forward colouring, then backward growth from each colour's root, repeated
    on the rows left (Orzan 2004; Fleischer, Hendrickson & Pinar 2000): each
    row takes as its colour the largest row that reaches it, and the rows of
    a colour that reach its root within that colour are the root's
    component.  Each pass over the entries is one numpy sweep, but a round
    finds one component per colour in as many passes as the colours run
    deep, so a chain of components whose rows fall downstream takes passes
    quadratic in its length.  The colouring therefore stops after
    COLOUR_PASSES passes in all, and Tarjan's depth-first search labels the
    rows it left in one pass over their entries: at most COLOUR_PASSES + 1
    passes, time linear in the entries."""
    ids = np.arange(dim)
    labels = np.full(dim, -1)
    left = COLOUR_PASSES
    while len(rows):
        colour = np.where(labels < 0, ids, -1)
        left = _spread(colour, rows, cols, left)
        reach = colour == ids  # each colour's root
        same = colour[rows] == colour[cols]
        left = _spread(reach, cols[same], rows[same], left)
        if left < 0:
            break
        labels[reach] = colour[reach]
        keep = ~(reach[rows] | reach[cols])
        rows, cols = rows[keep], cols[keep]
    if len(rows):
        _depth_first(rows, cols, labels)
    return np.where(labels < 0, ids, labels)


def _spread(values, src, tgt, passes):
    """Raise each values[v] to the largest values[u] over the entries (u, v)
    of (``src``, ``tgt``), pass after pass until none changes; return how
    many of ``passes`` are left, or a negative count if values still
    changed after the last of them (at once if ``passes`` < 1)."""
    if not len(tgt):
        return passes - 1
    order = np.argsort(tgt, kind="stable")
    src, tgt = src[order], tgt[order]
    heads = np.flatnonzero(np.concatenate(([True], tgt[1:] != tgt[:-1])))
    into = tgt[heads]
    for left in range(passes - 1, -1, -1):
        new = np.maximum(values[into], np.maximum.reduceat(values[src], heads))
        if (new == values[into]).all():
            return left
        values[into] = new
    return -1


def _depth_first(rows, cols, labels):
    """Label the rows of the graph (``rows`` sorted, ``cols``), none labelled
    yet, by their strongly connected components: Tarjan's algorithm without
    recursion, each component labelled by the first of its rows reached."""
    dim = len(labels)
    first, succ = _starts(rows, dim).tolist(), cols.tolist()
    index, low, stack, work, order = [-1] * dim, [0] * dim, [], [], itertools.count()

    def enter(v):
        index[v] = low[v] = next(order)
        stack.append(v)
        work.append((v, iter(succ[first[v] : first[v + 1]])))

    for root in _distinct(rows).tolist():
        if index[root] < 0:
            enter(root)
        while work:
            v, edges = work[-1]
            for w in edges:
                if index[w] < 0:
                    enter(w)
                    break
                low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    w = -1
                    while w != v:
                        w = stack.pop()
                        index[w], labels[w] = dim, v  # above every index: lowers none


def _peel(stack):
    """Mask of the rows of the :class:`_Stack` that a cycle reaches: Kahn's
    algorithm removes every row no row leads to, takes its successors off the
    in-degrees and repeats, for at most DENSE_DIRECT_MAX rounds, one per
    level: a block of at most that many rows is peeled to the end, and a
    deeper graph returns a superset.  Both bounds look only at what it keeps."""
    indegree = np.bincount(stack.tgt, minlength=stack.nodes)
    if stack.hashimoto:  # the edges into its source, less its reversal's
        indegree = indegree[stack.src] - (stack.rev >= 0)
    free = np.flatnonzero(indegree == 0)
    for _ in range(DENSE_DIRECT_MAX):
        if not free.size:
            break
        hit, count = np.unique(stack.successors(free)[1], return_counts=True)
        indegree[hit] -= count
        free = hit[indegree[hit] == 0]
    return indegree > 0  # the rows never removed


def _bracket(C, labels, maxit):
    """(lo_k, hi_k, iterations): Collatz-Wielandt bounds lo_k <= rho_k <= hi_k
    of the nonnegative C (:class:`_Entries` or :class:`_Stack`) on each set k
    of rows closed under C (``labels``, all zero for one set, which takes no
    sort and no gather), after at most ``maxit`` power steps on I + C that
    stop once the largest bracket closes to DEFAULT_TOL.  The bounds hold
    whether or not a set is strongly connected.  A row without entries
    shrinks by at most the factor 1 + (largest row sum of C) a step: over a
    few steps x stays clear of underflow on any rows, and over many where
    every row has an entry."""
    one = not labels.any()
    order = None if one else np.argsort(labels, kind="stable")
    starts = None if one else np.searchsorted(labels[order], np.arange(labels.max() + 1))

    def per_set(ufunc, v):
        return ufunc.reduce(v, keepdims=True) if one else ufunc.reduceat(v[order], starts)

    x = np.ones(len(labels))
    for it in range(1, maxit + 1):
        y = C @ x
        ratio = y / x
        lo_k, hi_k = per_set(np.minimum, ratio), per_set(np.maximum, ratio)
        hi = hi_k.max()
        if hi - lo_k.max() <= DEFAULT_TOL * hi:
            break
        x += y
        top = per_set(np.maximum, x)
        x /= top if one else top[labels]  # per set, no underflow
    return lo_k, hi_k, it


def _stacks(net, hashimoto):
    """(owner, stack): the :func:`_stack` of each run of snapshots whose blocks
    B^[tau] (``hashimoto``) or A^[tau] have about STACK_ROWS rows in all, and
    the 0-based snapshot of each of its rows."""
    dims = np.diff(net.offsets) if hashimoto else np.full(net.N, net.n)
    group = np.cumsum(dims) // STACK_ROWS
    for members in (np.flatnonzero(group == g) for g in _distinct(group)):
        yield np.repeat(members, dims[members]), _stack(net, members, hashimoto)


def snapshot_radii(net, hashimoto):
    """Radius estimates of B^[tau] (``hashimoto``) or A^[tau] for every snapshot,
    each ``oracle.spectral_radius`` of the block, bit for bit: 0.0 for a block
    the peel of its stack empties (nilpotent), else its :func:`_block_radius`."""
    cyclic = {t for owner, stack in _stacks(net, hashimoto) for t in owner[_peel(stack)]}
    zero = RadiusEstimate(0.0, True, 0)
    return [_block_radius(net, t, hashimoto) if t in cyclic else zero for t in range(net.N)]


def _block_radius(net, t, hashimoto):
    """:func:`_radius` of B^[t] (``hashimoto``) or A^[t], 0-based ``t``,
    straight from the snapshot's edge arrays."""
    e = net.snapshots[t].arrays
    rows, cols = _non_backtracking(e) if hashimoto else e[:2]
    return _radius(rows, cols, len(e.src) if hashimoto else net.n)


def _reciprocal(rho):
    return math.inf if rho == 0.0 else 1.0 / rho


class _Stack:
    """A block-diagonal stack of A^[tau] or, with ``hashimoto``, B^[tau], as
    the edge arrays (sources sorted; for B, ``rev`` the reversal or -1) of its
    snapshots' disjoint union on ``nodes`` nodes.  A row is a node (A), whose
    successors are its out-edges' targets, or an edge f (B), whose successors
    are the edges leaving tgt_f less rev_f: B x = S[tgt] - x[rev], S by source."""

    def __init__(self, src, tgt, rev, nodes, hashimoto, first=None):
        self.src, self.tgt, self.rev, self.nodes, self.hashimoto = src, tgt, rev, nodes, hashimoto
        self.first = _starts(src, nodes) if first is None else first

    def successors(self, rows):
        """(entry, succ): the successors of ``rows``, by place in ``rows``."""
        head = self.tgt[rows] if self.hashimoto else rows
        entry, edge = _ranges(self.first[head], self.first[head + 1])
        if not self.hashimoto:
            return entry, self.tgt[edge]
        keep = edge != self.rev[rows][entry]
        return entry[keep], edge[keep]

    def __matmul__(self, x):
        # an entry whose x[rev_f] is over half S[tgt_f] is re-summed from its terms
        c = np.where(self.rev >= 0, x[self.rev], 0.0)
        y = np.bincount(self.src, x, self.nodes)[self.tgt] - c
        redo = np.flatnonzero(c > y)
        entry, succ = self.successors(redo)
        y[redo] = np.bincount(entry, x[succ], len(redo))
        return y

    def among(self, keep):
        """The matrix on the rows of the mask ``keep``: B's stack, A's entries."""
        if not self.hashimoto:
            A = _Entries(self.src, self.tgt, np.ones(len(self.src)), self.nodes)
            return A.among(np.flatnonzero(keep))
        place = np.cumsum(keep) - 1
        rev = np.where((self.rev >= 0) & keep[self.rev], place[self.rev], -1)[keep]
        return _Stack(self.src[keep], self.tgt[keep], rev, self.nodes, True)


def _stack(net, taus, hashimoto):
    """The :class:`_Stack` of B^[tau] (``hashimoto``) or A^[tau] over the
    0-based ``taus``, from the global edge arrays: the k-th snapshot's nodes
    shifted by k n.  B's moves each reversal with its edge and numbers only
    its sources, then one node for every other target: O(edges) nodes."""
    block, edge = _ranges(net.offsets[taus], net.offsets[taus + 1])
    src, tgt = (a[edge] + block * net.n for a in net.arrays[:2])
    if not hashimoto:
        return _Stack(src, tgt, None, len(taus) * net.n, False)
    start = np.arange(len(edge)) - edge + net.offsets[taus][block]  # its block's first row
    rev = np.where(net.arrays.rev[edge] < 0, -1, net.arrays.rev[edge] + start)
    change = np.diff(src, prepend=-1) != 0  # the sources are sorted
    heads = np.append(src[change], len(taus) * net.n)  # above every node
    at = np.searchsorted(heads, tgt)
    at[heads[at] != tgt] = len(heads) - 1
    first = np.append(np.flatnonzero(change), [len(src)] * 2)
    return _Stack(np.cumsum(change) - 1, at, rev, len(heads), True, first)


def mode_bound(net, mode):
    """(ell, converged) for ``mode`` from the one family of radii it uses:
    1 / max_tau rho(B^[tau]) for NBT-in-space / NBT-both, else of A^[tau].

    The maximum is that of :func:`snapshot_radii`, bit for bit, from the radii
    of only the blocks that may hold it.  STACK_STEPS stacked power steps
    bracket each block by Collatz-Wielandt bounds on the rows that
    :func:`_peel` keeps of its stack, a superset of those on a cycle, where
    the upper bound holds for any positive x.  The blocks then get their
    :func:`_block_radius` in descending order of upper bound, up to the first
    bound of zero (acyclic) or below (1 - MARGIN) times the largest radius so
    far; that block and the rest are proven smaller."""
    hashimoto = mode in _NBT_DIAGONAL
    upper = np.zeros(net.N)
    for owner, stack in _stacks(net, hashimoto):
        kept = _peel(stack)
        if kept.any():
            blocks, labels = np.unique(owner[kept], return_inverse=True)
            upper[blocks] = _bracket(stack.among(kept), labels, STACK_STEPS)[1]
    rho, converged = 0.0, True
    for t in np.argsort(-upper, kind="stable").tolist():
        if upper[t] == 0.0 or upper[t] < (1 - MARGIN) * rho:
            break
        e = _block_radius(net, t, hashimoto)
        rho, converged = max(rho, e.value), converged and e.converged
    return _reciprocal(rho), converged


def alpha_bound(net, mode):
    """Supremum ell for ``mode`` (see :func:`mode_bound`) with both radii of
    every snapshot.  An all-empty network gives ell = +inf."""
    rho_a, rho_b = (snapshot_radii(net, h) for h in (False, True))
    own = rho_b if mode in _NBT_DIAGONAL else rho_a
    return AlphaBound(
        ell=_reciprocal(max(e.value for e in own)),
        per_snapshot=tuple((a.value, _reciprocal(b.value)) for a, b in zip(rho_a, rho_b)),
        mode=mode,
        converged=all(e.converged for e in rho_a + rho_b),
    )
