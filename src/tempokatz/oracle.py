"""Ground-truth brute-force enumeration of temporal walks, the weighted walk
sum, the scalar functional-equation checker for product-form centralities
with the scalar series sum it uses, and sparse-algebra referees for the
matrices the package reads from its edge arrays.

Everything here is for tests and validation: exact integer walk counts by
depth-first enumeration, weights applied afterwards, and the scalar identity
that characterizes when a product of per-snapshot matrix functions can
reproduce length-consistent walk weights (only the resolvent family can).
The referees form A_t, W_t = R L^T, B_t = W - W o W^T, M and the node-level
Katz systems by sparse products and sums of incidence matrices read from
``Snapshot.edges``, independently of the compiled edge arrays.  The
package and its modules forward to them, by the names the tests and the
benchmark call (``adjacency_matrix``, ``global_transition`` and the like),
and to ``spectral_radius`` and ``resolvent_solve`` of a SciPy matrix here.
``reference_parse`` reads an edge list line by line into Python sets, the
referee of the vectorized parser.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .line_space import _NBT_DIAGONAL, _NBT_OFFDIAG, Mode, _Entries
from .matfun import DEFAULT_RMAX, DEFAULT_TOL, _block, _factor, _inf_norm, _solve
from .spectral import _radius
from .temporal_graph import ParseError, Snapshot, TemporalNetwork, ValidationError

GUARD_DEFAULT = 10**8


class EnumerationGuardError(RuntimeError):
    """Estimated walk count too large for exhaustive enumeration."""


@dataclass
class WalkCountTensor:
    """Exact walk counts per (start, end, length), in integer arithmetic."""

    n: int
    max_len: int
    mode: Mode
    counts: dict[tuple[int, int, int], int] = field(default_factory=dict)

    def count(self, i, j, r):
        if r == 0:
            return 1 if i == j else 0
        return self.counts.get((i, j, r), 0)

    def matrix(self, r):
        """Dense n x n matrix of length-r walk counts (Python-int objects)."""
        out = np.zeros((self.n, self.n), dtype=object)
        for i in range(self.n):
            out[i, i] = 0
        if r == 0:
            for i in range(self.n):
                out[i, i] = 1
            return out
        for (i, j, rr), c in self.counts.items():
            if rr == r:
                out[i, j] += c
        return out


def _edges_by_source(net):
    """All time-stamped edges grouped by source node: node -> [(tau, u, v)]."""
    table = {i: [] for i in range(net.n)}
    for snap in net.snapshots:
        for u, v in snap.edges:
            table[u].append((snap.tau, u, v))
    return table


def _admissible(last, nxt, mode):
    """May edge ``nxt`` follow edge ``last`` in a temporal walk of this mode?"""
    t1, u1, v1 = last
    t2, u2, v2 = nxt
    if t2 < t1 or u2 != v1:
        return False
    if v2 == u1:  # immediately reversed pair
        if t2 == t1 and mode in (Mode.NBT_SPACE, Mode.NBT_BOTH):
            return False
        if t2 > t1 and mode in (Mode.NBT_TIME, Mode.NBT_BOTH):
            return False
    return True


def enumerate_temporal_walks(net, max_len, mode, guard=GUARD_DEFAULT):
    """Exhaustively count temporal walks of length 1..max_len for every
    (start, end) pair.

    Depth-first recursion memoized on (last edge, remaining length): the last
    traversed edge is exactly the state that decides which continuations
    backtrack.  Raises :class:`EnumerationGuardError` when the crude estimate
    n * max_outdegree**max_len exceeds ``guard``.
    """
    by_source = _edges_by_source(net)
    max_deg = max((len(v) for v in by_source.values()), default=0)
    estimate = net.n * max(max_deg, 1) ** max_len
    if estimate > guard:
        raise EnumerationGuardError(
            f"estimated walk count {estimate:.3g} exceeds guard {guard:.3g}"
        )
    tensor = WalkCountTensor(n=net.n, max_len=max_len, mode=mode)

    @lru_cache(maxsize=None)
    def extensions(last, remaining):
        """end node -> number of admissible continuations of exactly
        ``remaining`` further edges after traversing ``last``."""
        if remaining == 0:
            return ((last[2], 1),)
        totals: dict[int, int] = {}
        for nxt in by_source[last[2]]:
            if not _admissible(last, nxt, mode):
                continue
            for end, c in extensions(nxt, remaining - 1):
                totals[end] = totals.get(end, 0) + c
        return tuple(sorted(totals.items()))

    for start in range(net.n):
        for first in by_source[start]:
            for r in range(1, max_len + 1):
                for end, c in extensions(first, r - 1):
                    key = (start, end, r)
                    tensor.counts[key] = tensor.counts.get(key, 0) + c
    return tensor


def weighted_walk_sum(counts, f, alpha):
    """Dense n x n matrix with entry (i, j) = sum_r c_r alpha^r counts(i,j,r),
    truncated at the tensor's max_len.  Oracle for the communicability matrix."""
    n = counts.n
    out = f(0) * np.eye(n)
    for r in range(1, counts.max_len + 1):
        c = f(r)
        if c == 0.0:
            continue
        out += c * alpha**r * counts.matrix(r).astype(float)
    return out


def naive_exponential_product(net, beta):
    """prod_tau expm(beta A^[tau]), the length-inconsistent construction kept
    only to demonstrate how it misweights multi-snapshot walks."""
    import scipy.linalg
    out = np.eye(net.n)
    for tau in range(1, net.N + 1):
        out = out @ scipy.linalg.expm(beta * reference_adjacency(net, tau).todense())
    return np.asarray(out)


def homogeneous_symmetric(r, xs):
    """Complete homogeneous symmetric polynomial h_r(x_1, ..., x_N) by dynamic
    programming over one variable at a time."""
    if r < 0:
        raise ValueError("r must be nonnegative")
    if not xs:
        raise ValueError("xs must be non-empty")
    h = [1.0] + [0.0] * r
    for x in xs:
        for j in range(1, r + 1):
            h[j] += x * h[j - 1]
    return h[r]


def evaluate(f, z, rmax=DEFAULT_RMAX):
    """Scalar truncated-series evaluation of f at z; a polynomial is summed
    to its degree, an infinite series until a term drops below DEFAULT_TOL."""
    acc = 0.0
    power = 1.0
    rstop = rmax if f.degree is None else min(rmax, f.degree)
    for r in range(rstop + 1):
        c = f(r)
        term = c * power
        acc += term
        small = c > 0 and abs(term) <= DEFAULT_TOL * max(abs(acc), 1e-300)
        if f.degree is None and small and r > 0:
            break
        power *= z
    return acc


def functional_equation_residual(f, g, N, alpha, xs, rmax=200):
    """Residual of sum_r c_r alpha^r h_r(xs) = prod_i g(alpha x_i).

    Zero (to truncation error) exactly when the weight function admits a
    combinatorially correct product form over N >= 2 snapshots; positive
    otherwise.  xs is padded with zeros (or truncated) to length N.
    """
    if N < 2:
        raise ValueError("N must be at least 2")
    xs = list(xs)[:N] + [0.0] * max(0, N - len(xs))
    lhs = sum(f(r) * alpha**r * homogeneous_symmetric(r, xs) for r in range(rmax + 1))
    rhs = 1.0
    for x in xs:
        rhs *= evaluate(g, alpha * x, rmax=rmax)
    return abs(lhs - rhs)


def _incidences(edges, n):
    """Source and target incidences L, R (len(edges) x n) of (source, target) pairs."""
    import scipy.sparse as sp
    pairs = np.array(edges, dtype=np.int64).reshape(-1, 2)
    rows, ones = np.arange(len(pairs)), np.ones(len(pairs))
    L = sp.csr_array((ones, (rows, pairs[:, 0])), shape=(len(pairs), n))
    R = sp.csr_array((ones, (rows, pairs[:, 1])), shape=(len(pairs), n))
    return L, R


def reference_source_target(net):
    """L_g, R_g: the incidences of every snapshot's edges, in snapshot order."""
    return _incidences([e for snap in net.snapshots for e in snap.edges], net.n)


def reference_adjacency(net, tau):
    """A_t of snapshot ``tau``, from coordinates."""
    import scipy.sparse as sp
    edges = np.array(net.snapshot(tau).edges, dtype=np.int64).reshape(-1, 2)
    ones = np.ones(len(edges))
    return sp.csr_array((ones, (edges[:, 0], edges[:, 1])), shape=(net.n, net.n))


def reference_line_graph(snapshot, n):
    """W = R L^T."""
    import scipy.sparse as sp
    L, R = _incidences(snapshot.edges, n)
    W = sp.csr_array(R @ L.T)
    W.eliminate_zeros()
    return W


def reference_hashimoto(snapshot, n):
    """B = W - W o W^T."""
    import scipy.sparse as sp
    W = reference_line_graph(snapshot, n)
    B = sp.csr_array(W - W.multiply(W.T))
    B.eliminate_zeros()
    return B


def reference_transition(net, mode):
    """M = R_g L_g^T masked to snapshot(i) <= snapshot(j), less the reversals
    ``mode`` forbids."""
    import scipy.sparse as sp
    edges = np.array([e for snap in net.snapshots for e in snap.edges], dtype=np.int64)
    edges = edges.reshape(-1, 2)
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


def source_target_matrices(snapshot, n):
    """L, R of one snapshot (m_tau x n, one 1 per row)."""
    return _incidences(snapshot.edges, n)


# the SciPy builders of the package and its modules, by their own names
adjacency_matrix, global_source_target = reference_adjacency, reference_source_target
line_graph_matrix, hashimoto_matrix = reference_line_graph, reference_hashimoto
global_transition = reference_transition


def spectral_radius(m):
    """Dominant eigenvalue modulus of a nonnegative sparse matrix: the
    ``spectral._radius`` of its entries, sorted by (row, column) as the
    engine's coordinates are."""
    import scipy.sparse as sp
    if m.shape[0] != m.shape[1]:
        raise ValueError("spectral_radius needs a square matrix")
    coo = sp.csr_array(m).sorted_indices().tocoo()
    return _radius(coo.row, coo.col, m.shape[0], coo.data)


def resolvent_solve(M, alpha, v):
    """Solve (I - alpha M) x = v for a vector or m x k block v with one
    sparse LU of the whole matrix, accepted by ``matfun._solve``; the
    reference for ``matfun.resolvent_solver``."""
    import scipy.sparse as sp
    b = _block(v, M.shape)
    A = sp.csc_array(sp.eye_array(M.shape[0]) - alpha * M)
    coo = A.tocoo()
    P = _Entries(coo.row, coo.col, coo.data, M.shape[0])
    return _solve(_factor(A), P, b, _inf_norm(P)).reshape(np.shape(v))


def deg_matrices(a):
    """Reciprocity matrices of an adjacency matrix.

    D is diagonal with D_ii = (A^2)_ii, the number of reciprocated partners
    of node i; S = A o A^T marks mutually connected pairs.
    """
    import scipy.sparse as sp
    a = sp.csr_array(a)
    d = np.asarray((a @ a).diagonal()).ravel()
    D = sp.csr_array(sp.diags_array(d, shape=a.shape))
    S = sp.csr_array(a.multiply(a.T))
    S.eliminate_zeros()
    return D, S


def reference_katz_system(A, alpha, nbt):
    """I - alpha A, or with ``nbt`` the cubic I - a A + a^2 (D - I) + a^3 (A - S)
    of the NBT-in-space product form, as CSC."""
    import scipy.sparse as sp
    if not nbt:
        return sp.csc_array(sp.eye_array(A.shape[0]) - alpha * A)
    eye = sp.eye_array(A.shape[0], format="csc")
    D, S = deg_matrices(A)
    return sp.csc_array(eye - alpha * A + alpha**2 * (D - eye) + alpha**3 * (A - S))


def reference_parse(text, report=None):
    """``parse_temporal_edgelist`` one line at a time: the same network,
    :class:`ParseReport` and errors, from per-timestamp sets of tuples."""
    if isinstance(text, str):
        text = io.StringIO(text)
    n_override = None
    by_time: dict[int, set[tuple[int, int]]] = {}
    duplicates = 0
    lineno = 0
    for raw in text:
        lineno += 1
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("%n"):
            try:
                n_override = int(line[2:].strip())
            except ValueError:
                raise ParseError(f"bad %n header {line!r}", lineno) from None
            if n_override <= 0:
                raise ParseError("%n must be positive", lineno)
            if n_override >= 2**63:
                raise ParseError(f"%n outside int64 in {line!r}", lineno)
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(f"expected 'u v t', got {line!r}", lineno)
        try:
            u, v, t = (int(p) for p in parts)
        except ValueError:
            raise ParseError(f"non-integer field in {line!r}", lineno) from None
        if not all(-(2**63) <= x < 2**63 for x in (u, v, t)):
            raise ParseError(f"field outside int64 in {line!r}", lineno)
        if u < 0 or v < 0:
            raise ValidationError(f"line {lineno}: negative node id in {line!r}")
        if u == v:
            raise ValidationError(f"line {lineno}: self-loop {u}->{v}")
        edges = by_time.setdefault(t, set())
        if (u, v) in edges:
            duplicates += 1
        edges.add((u, v))
    if not by_time:
        raise ParseError("no edges in input")
    if report is not None:
        report.duplicates_collapsed = duplicates
    timestamps = tuple(sorted(by_time))
    max_id = max(max(max(u, v) for u, v in by_time[t]) for t in timestamps)
    n = n_override if n_override is not None else max_id + 1
    snapshots = tuple(
        Snapshot(tau=k + 1, edges=tuple(sorted(by_time[t])))
        for k, t in enumerate(timestamps)
    )
    return TemporalNetwork(n=n, snapshots=snapshots, timestamps=timestamps)
