"""Analytic weight functions given by Maclaurin coefficients, the shift
operator on them, and their application to vectors through a matrix argument.

A weight function f(z) = sum_r c_r z^r with c_r >= 0 turns walk counts into
centrality scores.  The shift operator maps f to sum_r c_{r+1} z^r, which
compensates for edge-space walks being one step shorter than the node-space
walks they represent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

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


class SeriesResult(NamedTuple):
    value: np.ndarray
    truncated: bool
    terms: int


def _block(M, v):
    """``v`` as an m x k float array (k = 1 for a vector), checked against M."""
    v = np.asarray(v, dtype=float)
    if M.shape[0] != M.shape[1] or v.ndim not in (1, 2) or M.shape[0] != v.shape[0]:
        raise ValueError(f"dimension mismatch: M is {M.shape}, v is {v.shape}")
    return v if v.ndim == 2 else v[:, None]


def apply_series(M, alpha, g, v, tol=DEFAULT_TOL, rmax=DEFAULT_RMAX):
    """Evaluate sum_r g_r alpha^r M^r v by accumulating sparse products, for
    a vector v or each column of an m x k block v.

    A polynomial is summed to its degree.  An infinite series stops adding
    to a column once its new term's max-norm drops below tol times that
    column's accumulated max-norm.  Every column stops exactly when M
    annihilates its power (nilpotent case); the sum ends when all columns
    have stopped, or after rmax terms (flagged as truncated).  The caller is
    responsible for alpha being inside radius(g) / rho(M).
    """
    power = _block(M, v)
    acc = g(0) * power
    rstop = rmax if g.degree is None else min(rmax, g.degree)
    terms = 1
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
            return SeriesResult(acc.reshape(np.shape(v)), False, terms)
    truncated = g.degree is None or rstop < g.degree
    return SeriesResult(acc.reshape(np.shape(v)), truncated, terms)


class SolveError(RuntimeError):
    """Linear system could not be solved to the backward-error tolerance."""


def resolvent_solver(M, alpha, tol=DEFAULT_TOL, sizes=None):
    """Factor I - alpha M by its diagonal blocks; return solve(v) for a vector
    or m x k block v.

    ``sizes`` gives the dimensions of M's diagonal blocks (default: one block
    of size m), and I - alpha M must have no entry below them; a temporal
    walk never steps back in time, so the global transition matrix is block
    upper triangular with one block per snapshot.  Each non-empty diagonal
    block is factored once with ``splu``, and a solve back-substitutes from
    the last block to the first, x_k = A_kk^-1 (v_k - sum_{j>k} A_kj x_j).

    Each column x of the solution is accepted on its normwise backward error
    over the whole system, ||(I - alpha M) x - v||_inf <= tol (||I - alpha
    M||_inf ||x||_inf + ||v||_inf); a column that fails it, or an exactly
    singular diagonal block, raises SolveError.  Requires alpha * rho(M) < 1
    for the result to mean a walk series.
    """
    m = M.shape[0]
    A = sp.csr_array(sp.eye_array(m, format="csr") - alpha * M)
    sizes = np.asarray([m] if sizes is None else sizes, dtype=np.int64)
    if sizes.sum() != m or (sizes < 0).any():
        raise ValueError(f"block sizes {sizes.tolist()} do not partition m = {m}")
    block = np.repeat(np.arange(len(sizes)), sizes)
    rows, cols = A.nonzero()
    if (block[rows] > block[cols]).any():
        raise ValueError("I - alpha M has an entry below its diagonal blocks")
    bounds = np.concatenate(([0], np.cumsum(sizes)))
    factors = []
    for s, e in zip(bounds[:-1], bounds[1:]):
        if s == e:
            continue
        try:
            lu = spla.splu(sp.csc_array(A[s:e, s:e]))
        except RuntimeError as exc:
            raise SolveError(f"I - alpha M is singular ({exc})") from None
        factors.append((s, e, lu, A[s:e, e:]))
    a_norm = np.max(abs(A).sum(axis=1), initial=0.0)

    def solve(v):
        b = _block(M, v)
        x = np.empty_like(b)
        for s, e, lu, coupling in reversed(factors):
            x[s:e] = lu.solve(b[s:e] - coupling @ x[e:])
        resid = np.max(np.abs(A @ x - b), axis=0, initial=0.0)
        scale = a_norm * np.max(np.abs(x), axis=0, initial=0.0)
        scale += np.max(np.abs(b), axis=0, initial=0.0)
        bad = ~(resid <= tol * scale)  # NaN fails too
        if bad.any():
            k = int(np.argmax(bad))
            raise SolveError(
                f"backward error {resid[k] / scale[k]:.3e} exceeds {tol:.1e} "
                "(system near singular?)"
            )
        return x.reshape(np.shape(v))

    return solve


def resolvent_solve(M, alpha, v, tol=DEFAULT_TOL):
    """Solve (I - alpha M) x = v for a vector or m x k block v; see
    :func:`resolvent_solver` for the acceptance test."""
    return resolvent_solver(M, alpha, tol=tol)(v)
