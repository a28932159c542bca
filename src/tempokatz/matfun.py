"""Analytic weight functions given by Maclaurin coefficients, the shift
operator on them, and their application to vectors through a matrix argument.

A weight function f(z) = sum_r c_r z^r with c_r >= 0 turns walk counts into
centrality scores.  The shift operator maps f to sum_r c_{r+1} z^r, which
compensates for edge-space walks being one step shorter than the node-space
walks they represent.

A series is summed on an assembled matrix (``apply_series``).  The Katz
engine ``resolvent_solver`` applies W -> W + alpha L_g^T (I - alpha M)^-1 R_g W
to blocks of node values without M, in one back-substitution from the last
snapshot to the first.  Each step factors one system with one set of LU
options that pivots on the diagonal, and is accepted on that system's
backward error.  Where the step is n x n, every mode solves the same
P_t D = alpha L_t^T c, with its own per-edge right side c; otherwise it
solves an m_t x m_t Hashimoto block.
``resolvent_solve`` factors an assembled I - alpha M whole with SuperLU's
partial pivoting, and is the tests' reference for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .line_space import Mode, _ranges, hashimoto_system, katz_system, pair_index

DEFAULT_TOL = 1e-12
DEFAULT_RMAX = 10_000


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
    if gamma < 0 or delta < 0:
        raise ValueError("gamma and delta must be nonnegative")
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
    if any(c < 0 for c in coeffs):
        raise ValueError("coefficients must be nonnegative")
    return CoefficientFunction(
        coeff=lambda r: coeffs[r] if r < len(coeffs) else 0.0,
        radius=math.inf,
        name=name or f"polynomial(degree={len(coeffs) - 1})",
        degree=max(len(coeffs) - 1, 0),
    )


def monomial(r, c=1.0):
    """c * z^r, used to extract single walk-length contributions."""
    return polynomial([0.0] * r + [c], name=f"monomial(r={r})")


def from_coefficient_file(path):
    """Read one nonnegative coefficient per line (line r holds c_r)."""
    values = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                values.append(float(line))
            except ValueError:
                raise ValueError(
                    f"{path}:{lineno + 1}: not a number: {line!r}"
                ) from None
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


def evaluate(f, z, tol=DEFAULT_TOL, rmax=DEFAULT_RMAX):
    """Scalar truncated-series evaluation of f at z; a polynomial is summed
    to its degree, an infinite series until a term drops below tol."""
    acc = 0.0
    power = 1.0
    rstop = rmax if f.degree is None else min(rmax, f.degree)
    for r in range(rstop + 1):
        c = f(r)
        term = c * power
        acc += term
        small = c > 0 and abs(term) <= tol * max(abs(acc), 1e-300)
        if f.degree is None and small and r > 0:
            break
        power *= z
    return acc


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


def apply_series(M, alpha, g, v, tol=DEFAULT_TOL, rmax=DEFAULT_RMAX):
    """Evaluate sum_r g_r alpha^r M^r v by accumulating sparse products, for
    a vector v or each column of an m x k block v.

    A polynomial is summed to its degree.  An infinite series stops adding
    to a column once its new term's max-norm drops below tol times that
    column's accumulated max-norm.  Every column stops exactly when M
    annihilates its power (nilpotent case); the sum ends when all columns
    have stopped, or after rmax terms (flagged as truncated).  A column whose
    sum overflows raises SolveError.  The caller is responsible for alpha
    being inside radius(g) / rho(M).
    """
    power = _block(v, M.shape)
    acc = g(0) * power
    rstop = rmax if g.degree is None else min(rmax, g.degree)
    terms = 1
    truncated = g.degree is None or rstop < g.degree
    # an overflow surfaces as a non-finite sum, checked below
    with np.errstate(over="ignore", invalid="ignore"):
        for r in range(1, rstop + 1):
            power = alpha * (M @ power)
            terms += 1
            c = g(r)
            if c != 0.0:
                term = c * power
                acc = acc + term
                if g.degree is None:
                    term_norm = np.max(np.abs(term), axis=0, initial=0.0)
                    acc_norm = np.max(np.abs(acc), axis=0, initial=0.0)
                    power[:, term_norm <= tol * np.maximum(acc_norm, 1e-300)] = 0.0
            if not power.any():
                truncated = False
                break
    if not np.isfinite(acc).all():
        raise SolveError(f"series sum is not finite after {terms} terms (alpha too large?)")
    return SeriesResult(acc.reshape(np.shape(v)), truncated, terms)


def _factor(P, **options):
    """``splu`` of the square CSC matrix P with ``options``; an exactly
    singular P raises SolveError."""
    try:
        return spla.splu(P, **options)
    except RuntimeError as exc:
        raise SolveError(f"I - alpha M is singular ({exc})") from None


def _colmax(X):
    """The max-norm of each column of X, or of each block X[i] stacked in X."""
    return np.max(np.abs(X), axis=-2, initial=0.0)


def _accept(norms, a_norm, tol):
    """Raise SolveError unless every column x of a solution of A x = v has a
    normwise backward error resid / (||A||_inf ||x||_inf + ||v||_inf) of at
    most tol, where ``norms`` stacks each column's resid = ||A x - v||_inf,
    ||x||_inf and ||v||_inf (3 x k), and a_norm = ||A||_inf."""
    resid, x_norm, v_norm = norms
    scale = a_norm * x_norm + v_norm
    bad = ~(resid <= tol * scale)  # NaN fails too
    if bad.any():
        k = int(np.argmax(bad))
        raise SolveError(
            f"backward error {resid[k] / scale[k]:.3e} exceeds {tol:.1e} "
            "(system near singular?)"
        )


#: splu options for every system :func:`resolvent_solver` factors.  With
#: diag_pivot_thresh = 0 SuperLU pivots on the diagonal wherever it is
#: nonzero.  I - alpha A_t and I - alpha B_t are nonsingular M-matrices for
#: alpha below 1 / rho of the block, which is every alpha on an acyclic one;
#: their LU without pivoting exists and is stable, while partial pivoting
#: lost digits, or called them exactly singular, on acyclic blocks at large
#: alpha.  Supernodes cost more than they save on these sparse systems: 23
#: in place of 30 ms for the 160 n x n systems of perfbench's long-horizon
#: node network.  The diagonal pivot costs about the same as partial
#: pivoting: 19.2 against 18.8 ms for those 160, and 242 against 256 ms for
#: the Hashimoto blocks of the dense-snapshots node network with SciPy's
#: default options (2-vCPU Xeon host, medians of 15 interleaved runs)
_NODE_LU = {"relax": 1, "panel_size": 1, "diag_pivot_thresh": 0.0}


def resolvent_solver(net, mode, alpha, tol=DEFAULT_TOL):
    """Factor I - alpha M, with M the global transition matrix of ``net`` in
    ``mode``, snapshot by snapshot without forming M; return apply(W) =
    W + alpha L_g^T (I - alpha M)^-1 R_g W for an n-vector or n x k block W
    of node values (W = 1 gives Katz total communicability).
    ``apply.node_space`` tells whether every system factored is n x n.

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

    The step is n x n in the standard and NBT-in-time modes, and in
    NBT-in-space for alpha <= 1/2.  It factors P_t = ``katz_system(snap, n,
    alpha, nbt)``, I - alpha A_t or the NBT-in-space cubic of Arrigo,
    Grindrod, Higham & Noferini (2018), solves P_t D = alpha L_t^T c and
    adds the walk increment D to Y, so that rounding scales with D and not
    with Y.  With c = b this is the line-graph step, by (I - alpha W_t)^-1 =
    I + alpha R_t (I - alpha A_t)^-1 L_t^T, and x_t = b + D[tgt_t].  The
    cubic's step is Y -> (1 - alpha^2) P_t^-1 Y, whose increment solves
    P_t D = ((1 - alpha^2) I - P_t) Y, that is c_e = b_e - alpha Y[src_e]
    on reciprocated edges and (1 - alpha^2) b_e on the others.  Its
    spurious factor (1 - alpha^2) costs digits as alpha nears 1, so above
    1/2 NBT-in-space, like NBT-both, factors the m_t x m_t Hashimoto block
    I - alpha B_t and solves for x_t.

    Every step factors its P with the options ``_NODE_LU``, which pivot on
    the diagonal, and is accepted on the normwise backward error of that
    system, ||P x - b||_inf <= tol (||P||_inf ||x||_inf + ||b||_inf) for
    every column; a failed column, or an exactly singular factor, raises
    SolveError.  A block row of I - alpha M splits into its diagonal block
    and its coupling, each of norm at most ||I - alpha M||_inf, so Hashimoto
    steps that pass at tol bound the whole backward error by about 2 tol.
    Requires alpha * rho(M) < 1 for the result to mean a walk series.
    """
    nbt = mode is Mode.NBT_SPACE
    node_space = mode in (Mode.STANDARD, Mode.NBT_TIME) or (nbt and alpha <= 0.5)
    paired = mode in (Mode.NBT_TIME, Mode.NBT_BOTH)
    if paired:
        pair, reverse, first = pair_index(net)
    steps = []
    for t in reversed(range(net.N)):
        snap = net.snapshots[t]
        if snap.m == 0:
            continue
        e = snap.arrays
        P = katz_system(snap, net.n, alpha, nbt) if node_space else hashimoto_system(snap, alpha)
        # P is CSC, so its indices are row numbers
        norm = np.bincount(P.indices, np.abs(P.data), minlength=P.shape[0]).max()
        firsts = np.flatnonzero(np.diff(e.src, prepend=-1))
        heads = (e.src[firsts], firsts)
        rows = slice(net.offsets[t], net.offsets[t + 1])
        steps.append((rows, e, heads, P, _factor(P, **_NODE_LU), norm))

    def apply(W):
        shape, W = np.shape(W), _block(W, (net.n, net.n))
        Y = W.copy()
        if paired:
            later = np.zeros((first[-1] + 1, Y.shape[1]))
        for rows, e, heads, P, lu, norm in steps:
            if paired:
                b = _paired_rhs(W, Y, later, alpha, e.tgt, reverse[rows], first)
            else:
                b = Y[e.tgt]
            if node_space:
                c = b
                if nbt:
                    c = np.where(e.rev[:, None] >= 0, b - alpha * Y[e.src], (1 - alpha**2) * b)
                D = _solve(lu, P, alpha * _sources(heads, c, net.n), norm, tol)
                Y += D
                x = b + D[e.tgt] if paired else None
            else:
                x = _solve(lu, P, b, norm, tol)
                Y += alpha * _sources(heads, x, net.n)
            if paired:
                later[pair[rows]] += x
        return Y.reshape(shape)

    apply.node_space = node_space
    return apply


def _solve(lu, P, b, norm, tol):
    """lu.solve(b), with lu the factor of P and norm = ||P||_inf, accepted
    by :func:`_accept`."""
    x = lu.solve(b)
    _accept(_colmax(np.array((P @ x - b, x, b))), norm, tol)
    return x


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


def _sources(heads, values, n):
    """L_t^T values (n x k), with ``heads`` the distinct sources of the
    snapshot's edges and the first edge of each: each edge's row is added to
    its source node; the sources are sorted, so each node's edges are one run."""
    nodes, firsts = heads
    out = np.zeros((n, values.shape[1]))
    out[nodes] = np.add.reduceat(values, firsts, axis=0)
    return out


def resolvent_solve(M, alpha, v, tol=DEFAULT_TOL):
    """Solve (I - alpha M) x = v for a vector or m x k block v with one
    sparse LU of the whole matrix; the reference for :func:`resolvent_solver`,
    with the same acceptance test."""
    b = _block(v, M.shape)
    A = sp.csc_array(sp.eye_array(M.shape[0]) - alpha * M)
    x = _factor(A).solve(b)
    a_norm = np.max(abs(A).sum(axis=1), initial=0.0)
    _accept(_colmax(np.array((A @ x - b, x, b))), a_norm, tol)
    return x.reshape(np.shape(v))
