"""Analytic weight functions given by Maclaurin coefficients, the shift
operator on them, and their application to vectors through a matrix argument.

A weight function f(z) = sum_r c_r z^r with c_r >= 0 turns walk counts into
centrality scores.  The shift operator maps f to sum_r c_{r+1} z^r, which
compensates for edge-space walks being one step shorter than the node-space
walks they represent.

A series is summed on an assembled matrix (``apply_series``).  The Katz
engine ``resolvent_solver`` applies W -> W + alpha L_g^T (I - alpha M)^-1 R_g W
to blocks of node values snapshot by snapshot, without M: as a product of
n x n node systems in the standard mode and, for alpha < 1, in NBT-in-space;
by back-substitution over the edges otherwise.  ``resolvent_solve`` factors
an assembled I - alpha M whole, and is the tests' reference for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .line_space import Mode, hashimoto_system, katz_system, pair_index

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


#: splu options for the sparse n x n node systems, where supernodes cost more
#: than they save: 23 ms in place of 30 ms for the 160 of perfbench's
#: long-horizon node network on a 2-vCPU x86 host
_NODE_LU = {"relax": 1, "panel_size": 1}


def in_node_space(mode, alpha):
    """Whether :func:`resolvent_solver` runs ``mode`` at ``alpha`` in node
    space: always in the standard mode, and in NBT-in-space for alpha < 1,
    where the NBT cubic's spurious factor (1 - alpha^2) is nonzero."""
    return mode is Mode.STANDARD or (mode is Mode.NBT_SPACE and alpha < 1)


def resolvent_solver(net, mode, alpha, tol=DEFAULT_TOL):
    """Factor I - alpha M, with M the global transition matrix of ``net`` in
    ``mode``, snapshot by snapshot without forming M; return apply(W) =
    W + alpha L_g^T (I - alpha M)^-1 R_g W for an n-vector or n x k block W
    of node values (W = 1 gives Katz total communicability).

    Where :func:`in_node_space` holds, every reversal across snapshots is
    allowed, and apply(W) is the node-level product s_1 P_1^-1 ... s_N P_N^-1 W
    with P_t = ``katz_system(snap, n, alpha, nbt)``: I - alpha A_t with
    s_t = 1, or the NBT cubic of Arrigo, Grindrod, Higham & Noferini (2018)
    with s_t = 1 - alpha^2.  Each solve is accepted on its normwise backward
    error, ||P_t x - b||_inf <= tol (||P_t||_inf ||x||_inf + ||b||_inf).
    Otherwise the back-substitution runs in edge space (:func:`_edge_solver`).
    A column that fails its acceptance test, or an exactly singular factor,
    raises SolveError.  Requires alpha * rho(M) < 1 for the result to mean a
    walk series.
    """
    if in_node_space(mode, alpha):
        return _node_solver(net, mode is Mode.NBT_SPACE, alpha, tol)
    return _edge_solver(net, mode, alpha, tol)


def _node_solver(net, nbt, alpha, tol):
    """apply(W) = s_1 P_1^-1 ... s_N P_N^-1 W over the non-empty snapshots (an
    empty one's s_t P_t^-1 is I).  Each step adds the walk increment
    P_t^-1 (s_t I - P_t) Y to Y, so its rounding error scales with the
    increment, not with Y."""
    scale = 1.0 - alpha**2 if nbt else 1.0
    steps = []
    for snap in reversed(net.snapshots):
        if snap.m:
            P = katz_system(snap, net.n, alpha, nbt)
            lu = _factor(P, **_NODE_LU)
            # P is CSC, so its indices are row numbers
            norm = np.bincount(P.indices, np.abs(P.data), minlength=net.n).max()
            # reuse P's pattern for Q = s I - P; the factor holds P.  P is a
            # Z-matrix whose diagonal entries, 1 or 1 + alpha^2 (D - 1) with
            # alpha < 1, are all stored and are its only positive entries
            Q = P
            Q.data = np.where(P.data > 0, scale - P.data, -P.data)
            steps.append((Q, lu, norm))

    def apply(W):
        Y = _block(W, (net.n, net.n))
        for Q, lu, norm in steps:
            B = Q @ Y
            D = lu.solve(B)
            # the residual P D - B, with P = s I - Q
            _accept(_colmax(np.array((scale * D - Q @ D - B, D, B))), norm, tol)
            Y = Y + D
        return Y.reshape(np.shape(W))

    return apply


class _Block(NamedTuple):
    """One non-empty snapshot's rows of I - alpha M."""

    rows: slice
    tgt: np.ndarray
    #: the distinct sources of the snapshot's edges, and the first edge of each
    nodes: np.ndarray
    firsts: np.ndarray
    #: splu of I - alpha A_t (n x n) or, for a Hashimoto block, of I - alpha B_t
    lu: object
    #: I - alpha B_t, or None for a line-graph block W_t = R_t L_t^T
    system: Optional[sp.csc_array]


def _sources(blk, values, n):
    """L_t^T values (n x k): each edge's row added to its source node; the
    sources are sorted, so each node's edges are one run."""
    out = np.zeros((n, values.shape[1]))
    out[blk.nodes] = np.add.reduceat(values, blk.firsts, axis=0)
    return out


def _edge_solver(net, mode, alpha, tol):
    """apply(W) by back-substitution over the edges, from the last snapshot
    to the first.  M is block upper triangular; block row t off the diagonal
    is R_t acc, with acc = sum over later snapshots s of L_s^T x_s a running
    n x k sum, less the later reversals in NBT-in-time and NBT-both (a
    running sum of x keyed on the directed pair, ``line_space.pair_index``).
    Block t reads the rows (W + alpha acc)[tgt_t], and the result is
    W + alpha acc after the first snapshot.

    A line-graph diagonal block (NBT-in-time) W_t = R_t L_t^T is solved
    through one n x n factor, (I - alpha W_t)^-1 b = b + alpha R_t
    (I - alpha A_t)^-1 L_t^T b; by Sylvester's identity I - alpha A_t is
    singular exactly when I - alpha W_t is.  A Hashimoto block B_t is
    factored m_t x m_t.  Each column x is accepted on its normwise backward
    error over the whole system, ||(I - alpha M) x - R_g W||_inf <= tol
    (||I - alpha M||_inf ||x||_inf + ||R_g W||_inf), with the residual formed
    from the same running sums.
    """
    line_graph = mode is Mode.NBT_TIME
    reverse = None
    if mode in (Mode.NBT_TIME, Mode.NBT_BOTH):
        pair, reverse, pairs = pair_index(net)
        later_pairs = np.zeros(pairs + 1, dtype=np.int64)
    blocks = []
    # out-degrees and directed-pair counts over the snapshots after t, for
    # the row counts of M: ||I - alpha M||_inf = 1 + alpha * (largest count)
    later = np.zeros(net.n, dtype=np.int64)
    width = 0
    start = net.m
    for snap in reversed(net.snapshots):
        start, stop = start - snap.m, start
        if snap.m == 0:
            continue
        e = snap.arrays
        out = np.bincount(e.src, minlength=net.n)
        count = out[e.tgt] + later[e.tgt]
        if line_graph:
            system = None
            lu = _factor(katz_system(snap, net.n, alpha, nbt=False), **_NODE_LU)
        else:
            system = hashimoto_system(snap, alpha)
            lu = _factor(system)
            count -= e.rev >= 0
        if reverse is not None:
            count -= later_pairs[reverse[start:stop]]
            later_pairs[pair[start:stop]] += 1
        width = max(width, int(count.max()))
        later += out
        firsts = np.flatnonzero(np.diff(e.src, prepend=-1))
        blocks.append(_Block(slice(start, stop), e.tgt, e.src[firsts], firsts, lu, system))
    a_norm = 1.0 + alpha * width

    def apply(W):
        V = _block(W, (net.n, net.n))
        Y = V.copy()  # W + alpha acc
        later_x = None if reverse is None else np.zeros((pairs + 1, V.shape[1]))
        norms = np.zeros((3, V.shape[1]))  # resid, x and v, as in _accept
        for blk in blocks:
            b = Y[blk.tgt]
            if later_x is not None:
                b -= alpha * later_x[reverse[blk.rows]]
            if blk.system is None:
                xt = b + alpha * blk.lu.solve(_sources(blk, b, net.n))[blk.tgt]
                sums = _sources(blk, xt, net.n)
                # (I - alpha W_t) x_t with W_t x_t = R_t L_t^T x_t
                r = xt - alpha * sums[blk.tgt] - b
            else:
                xt = blk.lu.solve(b)
                sums = _sources(blk, xt, net.n)
                r = blk.system @ xt - b
            norms = np.maximum(norms, _colmax(np.array((r, xt, V[blk.tgt]))))
            Y += alpha * sums
            if later_x is not None:
                later_x[pair[blk.rows]] += xt
        _accept(norms, a_norm, tol)
        return Y.reshape(np.shape(W))

    return apply


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
