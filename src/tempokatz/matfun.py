"""Analytic weight functions given by Maclaurin coefficients, the shift
operator on them, and their application to vectors through a matrix argument.

A weight function f(z) = sum_r c_r z^r with c_r >= 0 turns walk counts into
centrality scores.  The shift operator maps f to sum_r c_{r+1} z^r, which
compensates for edge-space walks being one step shorter than the node-space
walks they represent.

A series is summed by products with M (``apply_series``): an assembled
matrix, or ``line_space.TransitionOperator``, which never forms it.  The Katz
engine ``resolvent_solver`` applies W -> W + alpha L_g^T (I - alpha M)^-1 R_g W
to blocks of node values without M, in one back-substitution from the last
snapshot to the first.  Each step factors one system, pivoting on the
diagonal with no row interchanges.  Every system is inverted on numpy
alone, in stacks of equal padded size, while the steps above
DENSE_DIRECT_MAX rows fit the DENSE_WORK_MAX budget of dense work, which
counts their inversion and the solves of every column to follow;
otherwise those larger steps are factored by SuperLU.  A step is accepted
if that system's backward error is at most DEFAULT_TOL.  A node step
solves P_t D = alpha L_t^T c on the rows of the snapshot's distinct
sources, with a per-edge right side c of its mode.  Every mode takes it
for alpha <= 1/2; above, the modes that forbid reversals within a snapshot
solve an m_t x m_t Hashimoto block.
SciPy loads only for SuperLU (``_csc`` and ``_factor``).  The tests'
reference ``resolvent_solve``, one LU of an assembled I - alpha M, forwards
to ``oracle``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .line_space import (
    _NBT_DIAGONAL, _NBT_OFFDIAG, _Entries, _hashimoto_entries, _katz_entries, _ranges, pair_index,
)
from .spectral import DENSE_DIRECT_MAX
from .temporal_graph import _distinct, _referees, _starts

DEFAULT_TOL = 1e-12
DEFAULT_RMAX = 10_000

__getattr__ = _referees(__name__, {"resolvent_solve"})


@dataclass(frozen=True)
class CoefficientFunction:
    """Analytic function with nonnegative Maclaurin coefficients.

    ``coeff(r)`` returns c_r; ``radius`` is the radius of convergence.
    ``degree`` is set for polynomials (c_r = 0 beyond it).  ``geometric``
    holds (gamma, delta) when c_r = gamma * delta**r, which unlocks the
    linear-solve fast path.
    """

    coeff: Callable[[int], float]
    radius: float
    name: str
    degree: Optional[int] = None
    geometric: Optional[tuple[float, float]] = None

    def __call__(self, r):
        if self.degree is not None and r > self.degree:
            return 0.0
        c = self.coeff(r)
        if c < 0:
            raise ValueError(f"negative coefficient c_{r} = {c} in {self.name}")
        return c


def resolvent(gamma=1.0, delta=1.0):
    """f(z) = gamma / (1 - delta z); c_r = gamma * delta**r."""
    if not (0 <= gamma < math.inf and 0 <= delta < math.inf):
        raise ValueError("gamma and delta must be finite and nonnegative")
    radius = math.inf if delta == 0.0 else 1.0 / delta
    return CoefficientFunction(
        coeff=lambda r: gamma * delta**r,
        radius=radius,
        name=f"resolvent(gamma={gamma}, delta={delta})",
        geometric=(gamma, delta),
    )


def exponential():
    """f(z) = e^z; c_r = 1/r!."""
    # 1/r! underflows below the double range for r > 170
    return CoefficientFunction(
        coeff=lambda r: 1.0 / math.factorial(r) if r <= 170 else 0.0,
        radius=math.inf,
        name="exponential",
    )


def polynomial(coeffs, name=None):
    """Finite coefficient list, c_r = coeffs[r] (zero beyond the list)."""
    coeffs = tuple(float(c) for c in coeffs)
    if not all(0 <= c < math.inf for c in coeffs):
        raise ValueError("coefficients must be finite and nonnegative")
    return CoefficientFunction(
        coeff=lambda r: coeffs[r] if r < len(coeffs) else 0.0,
        radius=math.inf,
        name=name or f"polynomial(degree={len(coeffs) - 1})",
        degree=max(len(coeffs) - 1, 0),
    )


def monomial(r):
    """z^r, which weights only the walks of length r."""
    return polynomial([0.0] * r + [1.0], name=f"monomial(r={r})")


def from_coefficient_file(path):
    """Read one finite nonnegative coefficient per line (line r holds c_r)."""
    values = []
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                value = float(line)
            except ValueError:
                raise ValueError(
                    f"{path}:{lineno + 1}: not a number: {line!r}"
                ) from None
            if not 0 <= value < math.inf:
                raise ValueError(f"{path}:{lineno + 1}: not finite and nonnegative: {line!r}")
            values.append(value)
    if not values:
        raise ValueError(f"{path}: no coefficients")
    return polynomial(values, name=f"coeffs:{path}")


def partial_op(f):
    """Shift the coefficient sequence: returns r -> c_{r+1}, same radius."""
    geometric = None
    if f.geometric is not None:
        gamma, delta = f.geometric
        geometric = (gamma * delta, delta)
    degree = None
    if f.degree is not None:
        degree = max(f.degree - 1, 0)
    return CoefficientFunction(
        coeff=lambda r: f(r + 1),
        radius=f.radius,
        name=f"shift({f.name})",
        degree=degree,
        geometric=geometric,
    )


class SolveError(RuntimeError):
    """A resolvent solve missed its backward-error tolerance, or a series
    sum is not finite."""


class SeriesResult(NamedTuple):
    value: np.ndarray
    truncated: bool
    terms: int


def _block(v, shape):
    """``v`` as an m x k float array (k = 1 for a vector), checked against a
    square matrix of the given shape."""
    v = np.asarray(v, dtype=float)
    if shape[0] != shape[1] or v.ndim not in (1, 2) or shape[0] != v.shape[0]:
        raise ValueError(f"dimension mismatch: the matrix is {shape}, v is {v.shape}")
    return v if v.ndim == 2 else v[:, None]


def apply_series(M, alpha, g, v):
    """Evaluate sum_r g_r alpha^r M^r v by accumulating products with M, for
    a vector v or each column of an m x k block v.  M is any square matrix
    or operator with ``shape`` and ``@``, such as
    ``line_space.TransitionOperator``.

    A polynomial is summed to its degree.  An infinite series stops adding
    to a column once its new term's max-norm drops below DEFAULT_TOL times
    that column's accumulated max-norm.  A column stops exactly when M
    annihilates its power (nilpotent case).  Only the columns still summing
    are multiplied, so a column costs no product after it stops.  The sum
    ends when all columns have stopped, or after DEFAULT_RMAX terms (flagged
    as truncated).  A column whose sum overflows raises SolveError.  The
    caller is responsible for alpha being inside radius(g) / rho(M).
    """
    power = _block(v, M.shape)
    result = acc = g(0) * power
    # in place where it can: a fresh m x k temporary costs page faults of
    # the order of its arithmetic
    work = np.empty_like(acc)
    active = np.arange(power.shape[1])
    rstop = DEFAULT_RMAX if g.degree is None else min(DEFAULT_RMAX, g.degree)
    terms = 1
    truncated = g.degree is None or rstop < g.degree
    # an overflow surfaces as a non-finite sum, checked below
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
                # a column of zero powers stops here too
                term_norm = np.max(np.abs(term, out=work), axis=0, initial=0.0)
                acc_norm = np.max(np.abs(acc, out=work), axis=0, initial=0.0)
                summing = ~(term_norm <= DEFAULT_TOL * np.maximum(acc_norm, 1e-300))
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
    return SeriesResult(result.reshape(np.shape(v)), truncated, terms)


def _csc(rows, cols, values, dim):
    """dim x dim CSC array of entries in CSC order."""
    import scipy.sparse as sp
    return sp.csc_array((values, rows, _starts(cols, dim)), shape=(dim, dim))


def _factor(P, **options):
    """``splu`` of the square CSC matrix P with ``options``; an exactly
    singular P raises SolveError."""
    import scipy.sparse.linalg as spla
    try:
        return spla.splu(P, **options)
    except RuntimeError as exc:
        raise SolveError(f"I - alpha M is singular ({exc})") from None


def _inf_norm(P):
    """||P||_inf of :class:`_Entries` P."""
    return np.bincount(P.rows, np.abs(P.values), minlength=P.dim).max(initial=0.0)


def _solve(lu, P, b, norm):
    """x = lu.solve(b) for an m x k block b, with lu the factor of P and
    norm = ||P||_inf.  Raise SolveError unless every column has a normwise
    backward error ||P x - b||_inf / (||P||_inf ||x||_inf + ||b||_inf) of at
    most DEFAULT_TOL."""
    x = lu.solve(b)
    resid, x_norm, b_norm = np.max(np.abs((P @ x - b, x, b)), axis=-2, initial=0.0)
    scale = norm * x_norm + b_norm
    bad = ~(resid <= DEFAULT_TOL * scale)  # NaN fails too
    if bad.any():
        k = int(np.argmax(bad))
        raise SolveError(
            f"backward error {resid[k] / scale[k]:.3e} exceeds {DEFAULT_TOL:.1e} "
            "(system near singular?)"
        )
    return x


#: splu options for the systems above DENSE_DIRECT_MAX rows that
#: :func:`resolvent_solver` factors, when their dense work exceeds
#: DENSE_WORK_MAX.  With diag_pivot_thresh = 0 SuperLU pivots on the
#: diagonal wherever it is nonzero, as the dense path does.
#: I - alpha A_t and I - alpha B_t are nonsingular M-matrices for alpha
#: below 1 / rho of the block, which is every alpha on an acyclic one; their
#: LU without pivoting exists and is stable, while partial pivoting lost
#: digits, or called them exactly singular, on acyclic blocks at large
#: alpha.  Supernodes cost more than they save on these sparse systems
_NODE_LU = {"relax": 1, "panel_size": 1, "diag_pivot_thresh": 0.0}

#: dense steps are padded with the identity to a multiple of _PAD rows, so
#: that one stack covers many of them: the 160 steps of 82 to 105 rows of
#: perfbench's long-horizon node network fall in 4 stacks, not 20, and are
#: inverted in 62 ms in place of 110 ms (2-vCPU Xeon host).  A stack holds
#: at most STACK_ENTRIES entries, which bounds the temporaries of _invert
#: to about half of that
_PAD, STACK_ENTRIES = 8, 1 << 20

#: the steps above DENSE_DIRECT_MAX rows go dense too while their dense
#: work is at most this, the inversion of one 1024-row system.  A step of
#: padded size s solved on k columns in all costs s^2 (s + 2 k): the
#: inversion, and two products with the inverse per column, where splu's
#: triangular solves on these sparse systems cost little.  Loading SuperLU
#: costs about 0.22 s of wall time (a process importing numpy takes 0.107 s,
#: one that also imports scipy.sparse.linalg 0.327 s), and inverting at the
#: budget took 68 to 154 ms in process, for 1 x 1024, 8 x 512, 64 x 256 and
#: 116 x 208 rows at 2 and at 17 entries per row.  The inverses are kept
#: while the solver lives: at most 41 MB, for 118 steps of 208 rows.  Katz
#: ``rank`` (TC) on 116 node steps of 204 rows peaked at 82 MB of RSS, 71 MB
#: with splu; on 8 Hashimoto steps of 500 rows at 55 MB, 63 MB with splu
#: and its import (2-vCPU Xeon host)
DENSE_WORK_MAX = 1 << 30


class _Inverse(NamedTuple):
    """A dense step's factor: the inverse X of its system P, applied with one
    step of iterative refinement in working precision, x = X b + X (b - P X
    b).  The product with a rounded inverse is not backward stable on its
    own; the refinement step makes it componentwise backward stable unless P
    is ill conditioned (Skeel 1980; Higham, Accuracy and Stability of
    Numerical Algorithms, sec. 12.2), and :func:`_solve` checks the result."""

    matrix: np.ndarray
    system: _Entries

    def solve(self, b):
        x = self.matrix @ b
        return x + self.matrix @ (b - self.system @ x)


def _invert(A, zero):
    """Overwrite each matrix of the stack A (g x s x s) with its inverse, by
    Gauss-Jordan elimination in 2 x 2 blocks with no row interchanges.
    With A = [[A11, A12], [A21, A22]] it inverts A11, then the Schur
    complement S = A22 - A21 X, X = A11^-1 A12, and forms A^-1 =
    [[A11^-1 + X S^-1 Y, -X S^-1], [-S^-1 Y, S^-1]], Y = A21 A11^-1.  The
    1 x 1 blocks it reaches are the pivots of LU without pivoting, in order;
    ``zero`` marks each matrix in which one is exactly 0."""
    s = A.shape[-1]
    if s == 1:
        zero |= A[:, 0, 0] == 0
        np.divide(1.0, A, out=A)
        return
    h = s // 2
    A11, A12, A21, A22 = A[:, :h, :h], A[:, :h, h:], A[:, h:, :h], A[:, h:, h:]
    _invert(A11, zero)
    X = A11 @ A12
    A22 -= A21 @ X
    _invert(A22, zero)
    Y = A21 @ A11
    np.matmul(X, A22, out=A12)
    np.matmul(A22, Y, out=A21)
    A11 += A12 @ Y
    A12 *= -1.0
    A21 *= -1.0


def _inverses(systems, size):
    """The :class:`_Inverse` of each :class:`_Entries` system, from
    :func:`_invert` of their stack, each padded with the identity to
    size x size; an exactly zero pivot raises SolveError."""
    diagonal = np.arange(size)
    stack = np.zeros((len(systems), size, size))
    stack[:, diagonal, diagonal] = diagonal >= np.array([P.dim for P in systems])[:, None]
    which = np.repeat(np.arange(len(systems)), [len(P.values) for P in systems])
    rows, cols, values = (np.concatenate(a) for a in zip(*(P[:3] for P in systems)))
    stack[which, rows, cols] = values
    zero = np.zeros(len(systems), dtype=bool)
    with np.errstate(all="ignore"):  # a zero pivot spreads inf and NaN
        _invert(stack, zero)
    if zero.any():
        raise SolveError("I - alpha M is singular (zero pivot)")
    return [_Inverse(stack[j, : P.dim, : P.dim], P) for j, P in enumerate(systems)]


def _factor_steps(systems, columns=1):
    """The factor of each :class:`_Entries` system, with ``solve(b)``, for
    ``columns`` right-hand-side columns in all.  Systems get their
    :func:`_inverses` on numpy alone, in stacks of one padded size and at
    most STACK_ENTRIES entries: all of them while the dense work of those
    above DENSE_DIRECT_MAX rows, padded size squared times (padded size + 2
    columns), sums to at most DENSE_WORK_MAX, and otherwise those of at
    most DENSE_DIRECT_MAX rows, the larger ones getting ``splu`` with the
    options ``_NODE_LU``.  Both pivot on the diagonal, but splu takes an
    off-diagonal pivot in place of an exactly zero one, so a stack above
    DENSE_DIRECT_MAX rows that meets one goes to splu too.  An exactly zero
    pivot at most DENSE_DIRECT_MAX rows, or an exactly singular sparse
    factor, raises SolveError."""
    dims = np.array([P.dim for P in systems], dtype=np.int64)
    dense, padded = dims <= DENSE_DIRECT_MAX, -(-dims // _PAD) * _PAD
    if sum(s * s * (s + 2 * columns) for s in padded[~dense].tolist()) <= DENSE_WORK_MAX:
        dense[:] = True
    factors = [None] * len(systems)
    for size in _distinct(padded[dense]).tolist():
        same = np.flatnonzero(dense & (padded == size))
        for group in np.array_split(same, -(-len(same) * size**2 // STACK_ENTRIES)):
            group = group.tolist()
            try:
                inverses = _inverses([systems[i] for i in group], size)
            except SolveError:
                if size <= DENSE_DIRECT_MAX:
                    raise
                dense[group] = False
                continue
            for i, factor in zip(group, inverses):
                factors[i] = factor
    for i in np.flatnonzero(~dense).tolist():
        factors[i] = _factor(_csc(*systems[i]), **_NODE_LU)
    return factors


def resolvent_solver(net, mode, alpha, columns=1):
    """Factor I - alpha M, with M the global transition matrix of ``net`` in
    ``mode``, snapshot by snapshot without forming M; return apply(W) =
    W + alpha L_g^T (I - alpha M)^-1 R_g W for an n-vector or n x k block W
    of node values (W = 1 gives Katz total communicability).  ``columns``,
    the number of columns of W over all calls of apply, weighs the solves
    in :func:`_factor_steps`' choice of factor.
    ``apply.node_space`` tells whether every system factored is a node system.

    apply back-substitutes from the last non-empty snapshot to the first.
    It carries Y = W + alpha acc, with acc the running n x k sum of L_s^T x_s
    over the later snapshots s.  Snapshot t solves (I - alpha M_tt) x_t = b
    and adds alpha L_t^T x_t to Y.  In the standard and NBT-in-space modes
    b = Y[tgt_t].  In NBT-in-time and NBT-both, b_e sums the later walks
    from the target v of e = (u, v) that do not start back along (v, u):
    W[v] plus alpha times the running sums ``later`` of x over v's directed
    pairs (v, w), w != u (``line_space.pair_index``).  :func:`_paired_rhs`
    forms it from these nonnegative terms wherever Y[v] - alpha later[(v, u)]
    would cancel.

    The step is a node system in the standard and NBT-in-time modes, and in
    the modes that forbid reversals within a snapshot (NBT-in-space and
    NBT-both) for alpha <= 1/2.  With P_t = I - alpha A_t or, in the latter,
    the NBT cubic of Arrigo, Grindrod, Higham & Noferini (2018), it solves
    P_t D = alpha L_t^T c and adds the walk increment D = alpha L_t^T x_t to
    Y, so that rounding scales with D and not with Y.  With c = b this is
    the line-graph step, by (I - alpha W_t)^-1 = I + alpha R_t (I - alpha
    A_t)^-1 L_t^T, and x_t = p = b + D[tgt_t].  In the cubic's modes B_t =
    R_t L_t^T - J, with J the involution that swaps each edge with its
    reversal in the snapshot, and (1 - alpha^2) (I - alpha L_t^T (I +
    alpha J)^-1 R_t) = P_t.  So c = (1 - alpha^2) (I + alpha J)^-1 b: c_e =
    b_e - alpha b_r on a pair (e, r) and (1 - alpha^2) b_e on the other
    edges; and x_t = (I + alpha J)^-1 p, which NBT-both needs for its pair
    sums: x_e = (p_e - alpha p_r) / (1 - alpha^2) on a pair and p_e
    elsewhere.  (In NBT-in-space b_r = Y[src_e].)  That difference cancels
    where r carries most of the walks; its error, a rounding of alpha x_r,
    reaches only values that count walks of that weight too.  The right
    side is zero off the snapshot's distinct sources S_t, and every
    off-diagonal entry of P_t lies in a row of S_t, so D vanishes there
    too: the step factors only P_t[S_t, S_t] (``line_space._katz_entries``),
    of |S_t| <= min(n, m_t) rows.  The cubic's spurious factor (1 - alpha^2)
    costs digits as alpha nears 1, so above 1/2 both of its modes factor
    the m_t x m_t Hashimoto block I - alpha B_t and solve for x_t.

    :func:`_factor_steps` factors every step, and :func:`_solve` accepts it
    on the normwise backward error of the system it factored, at most
    DEFAULT_TOL in every column; a failed column, or an exactly zero pivot
    of a dense step of at most DENSE_DIRECT_MAX rows, raises SolveError.
    A block row of I - alpha M splits into its diagonal block and its
    coupling, each of norm at most ||I - alpha M||_inf, so Hashimoto steps
    that pass bound the whole backward error by about 2 DEFAULT_TOL.
    Requires alpha * rho(M) < 1 for the result to mean a walk series.
    """
    nbt = mode in _NBT_DIAGONAL
    node_space = not nbt or alpha <= 0.5
    paired = mode in _NBT_OFFDIAG
    if paired:
        pair, reverse, first = pair_index(net)
    steps = []
    for t in reversed(range(net.N)):
        snap = net.snapshots[t]
        if snap.m == 0:
            continue
        e = snap.arrays
        firsts = np.flatnonzero(np.diff(e.src, prepend=-1))
        nodes = e.src[firsts]
        if node_space:
            P = _Entries(*_katz_entries(e, nodes, alpha, nbt), len(nodes))
        else:
            P = _Entries(*_hashimoto_entries(e, alpha), snap.m)
        # the row of D at each edge's target: its place among the sources,
        # or len(nodes), a zero row, for a target that is no source
        at = np.searchsorted(nodes, e.tgt)
        at[nodes[np.minimum(at, len(nodes) - 1)] != e.tgt] = len(nodes)
        rows = slice(net.offsets[t], net.offsets[t + 1])
        steps.append((rows, e, nodes, firsts, at, P, _inf_norm(P)))
    factors = _factor_steps([step[-2] for step in steps], columns)

    def apply(W):
        shape, W = np.shape(W), _block(W, (net.n, net.n))
        Y = W.copy()
        if paired:
            later = np.zeros((first[-1] + 1, Y.shape[1]))
        for (rows, e, nodes, firsts, at, P, norm), lu in zip(steps, factors):
            if paired:
                b = _paired_rhs(W, Y, later, alpha, e.tgt, reverse[rows], first)
            else:
                b = Y[e.tgt]
            if node_space:
                c = b
                if nbt:
                    pairs = e.rev[:, None] >= 0
                    c = np.where(pairs, b - alpha * b[e.rev], (1 - alpha**2) * b)
                D = _solve(lu, P, alpha * np.add.reduceat(c, firsts), norm)
                Y[nodes] += D
                if paired:
                    x = b + np.pad(D, ((0, 1), (0, 0)))[at]
                    if nbt:
                        x = np.where(pairs, (x - alpha * x[e.rev]) / (1 - alpha**2), x)
            else:
                x = _solve(lu, P, b, norm)
                Y[nodes] += alpha * np.add.reduceat(x, firsts)
            if paired:
                later[pair[rows]] += x
        return Y.reshape(shape)

    apply.node_space = node_space
    return apply


def _paired_rhs(W, Y, later, alpha, tgt, skip, first):
    """b_e = W[v] + alpha sum_{w != u} later[(v, w)] for each edge e = (u, v)
    of a snapshot, with ``skip`` the number of (v, u).  It is taken as
    b = Y[v] - c, c = alpha later[(v, u)], where c <= b: the difference then
    keeps its digits.  Elsewhere c is most of Y[v], and b is summed from its
    nonnegative terms over v's run of pairs."""
    c = alpha * later[skip]
    b = Y[tgt] - c
    edges, cols = np.nonzero(c > b)
    if len(edges):
        nodes = tgt[edges]
        entry, pairs = _ranges(first[nodes], first[nodes + 1])
        terms = np.where(pairs == skip[edges][entry], 0.0, later[pairs, cols[entry]])
        b[edges, cols] = W[nodes, cols] + alpha * np.bincount(entry, terms, minlength=len(edges))
    return b
