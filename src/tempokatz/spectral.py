"""Spectral radii and the admissible parameter interval (0, ell) per mode.

For the standard and NBT-in-time modes, the centrality series converge for
alpha below 1 / max_tau rho(A^[tau]).  For the modes that forbid
within-snapshot backtracking they converge for alpha below
min_tau 1 / rho(B^[tau]), which equals the smallest-modulus eigenvalue of a
cubic matrix polynomial in the adjacency matrix (checked in the test suite).
A mode's ell uses one family only: ``mode_bound`` computes that one and
``alpha_bound`` both.  Radii above DENSE_DIRECT_MAX are certified upper
bounds (Collatz-Wielandt brackets), so ell never exceeds the true supremum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .line_space import _NBT_DIAGONAL, Mode, hashimoto_matrix
from .temporal_graph import adjacency_matrix

DEFAULT_TOL = 1e-10
DEFAULT_MAXIT = 10_000


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


#: up to this dimension the radius comes from dense eigenvalues outright;
#: their cost grows as the cube of the dimension, ~20 ms at 200
DENSE_DIRECT_MAX = 200

#: strongly connected components above this dimension get no dense fallback
DENSE_FALLBACK_MAX = 4096


def spectral_radius(m, tol=DEFAULT_TOL, maxit=DEFAULT_MAXIT):
    """Dominant eigenvalue modulus of a nonnegative sparse matrix.

    Up to DENSE_DIRECT_MAX it is computed by dense eigenvalues.  Above it the
    result is a certified upper bound.  The radius is the largest over the
    strongly connected components, so C keeps only the entries inside them.
    Power iteration on I + C, primitive on every component even where C is
    periodic, gives positive x; on each component the Collatz-Wielandt ratios
    (C x)_i / x_i bracket its radius.  Their maxima give lo <= rho <= hi, and
    once hi - lo <= tol * hi the value returned is hi, so 1 / value never
    exceeds 1 / rho.  If the bracket stays open for ``maxit`` iterations, the
    components that may hold the radius get dense eigenvalues (their Perron
    roots are simple); one above DENSE_FALLBACK_MAX gives a non-converged hi.
    """
    if m.shape[0] != m.shape[1]:
        raise ValueError("spectral_radius needs a square matrix")
    if tol <= 0:
        raise ValueError("tol must be positive")
    n = m.shape[0]
    coo = sp.coo_array(m)
    if n == 0 or coo.nnz == 0:
        return RadiusEstimate(0.0, True, 0)
    if n <= DENSE_DIRECT_MAX:
        dense = coo.toarray()
        value = float(np.max(np.abs(np.linalg.eigvals(dense))))
        # tiny moduli on a nilpotent matrix are eigensolver noise
        if value <= 1e-12 * max(1.0, float(np.abs(dense).sum())):
            value = 0.0
        return RadiusEstimate(value, True, 0)
    ncomp, labels = connected_components(coo, directed=True, connection="strong")
    inside = labels[coo.row] == labels[coo.col]
    if not inside.any():
        return RadiusEstimate(0.0, True, 0)  # acyclic, so nilpotent
    C = sp.csr_array((coo.data[inside], (coo.row[inside], coo.col[inside])), shape=m.shape)
    order = np.argsort(labels, kind="stable")
    starts = np.searchsorted(labels[order], np.arange(ncomp))
    x = np.ones(n)
    for it in range(1, maxit + 1):
        y = C @ x
        ratio = (y / x)[order]
        lo = float(np.minimum.reduceat(ratio, starts).max())
        hi_k = np.maximum.reduceat(ratio, starts)
        hi = float(hi_k.max())
        if hi - lo <= tol * hi:
            return RadiusEstimate(hi, True, it)
        x += y
        x /= np.maximum.reduceat(x[order], starts)[labels]  # per component, no underflow
    blocks = [np.flatnonzero(labels == k) for k in np.flatnonzero(hi_k >= lo)]
    if max(map(len, blocks)) > DENSE_FALLBACK_MAX:
        return RadiusEstimate(hi, False, maxit)
    eigs = [np.linalg.eigvals(C[idx][:, idx].toarray()) for idx in blocks]
    return RadiusEstimate(max(float(np.max(np.abs(e))) for e in eigs), True, maxit)


def nbt_radius(snapshot, n, tol=DEFAULT_TOL, maxit=DEFAULT_MAXIT):
    """lambda_tau = 1 / rho(B^[tau]); +inf when the Hashimoto matrix is nilpotent."""
    B = hashimoto_matrix(snapshot, n)
    est = spectral_radius(B, tol=tol, maxit=maxit)
    if not est.converged:
        raise NonConvergenceError(est)
    return _reciprocal(est.value)


class NonConvergenceError(RuntimeError):
    """The radius bracket stayed open; carries the last estimate."""

    def __init__(self, estimate):
        super().__init__(
            f"spectral radius did not converge in {estimate.iterations} iterations "
            f"(last value {estimate.value})"
        )
        self.estimate = estimate


def snapshot_radii(net, hashimoto, tol=DEFAULT_TOL, maxit=DEFAULT_MAXIT):
    """Radius estimates of B^[tau] (``hashimoto``) or of A^[tau], tau = 1..N."""
    def block(tau):
        if hashimoto:
            return hashimoto_matrix(net.snapshot(tau), net.n)
        return adjacency_matrix(net, tau)
    return [spectral_radius(block(tau), tol, maxit) for tau in range(1, net.N + 1)]


def _reciprocal(rho):
    return math.inf if rho == 0.0 else 1.0 / rho


def mode_bound(net, mode, tol=DEFAULT_TOL, maxit=DEFAULT_MAXIT):
    """(ell, converged) for ``mode`` from the one family of radii it uses:
    ell = 1 / max_tau rho(B^[tau]) for NBT-in-space / NBT-both and
    1 / max_tau rho(A^[tau]) for standard / NBT-in-time."""
    radii = snapshot_radii(net, mode in _NBT_DIAGONAL, tol, maxit)
    return _reciprocal(max(e.value for e in radii)), all(e.converged for e in radii)


def alpha_bound(net, mode, tol=DEFAULT_TOL, maxit=DEFAULT_MAXIT):
    """Supremum ell for ``mode`` (see :func:`mode_bound`) with both radii of
    every snapshot.  An all-empty network gives ell = +inf."""
    rho_a, rho_b = (snapshot_radii(net, h, tol, maxit) for h in (False, True))
    own = rho_b if mode in _NBT_DIAGONAL else rho_a
    return AlphaBound(
        ell=_reciprocal(max(e.value for e in own)),
        per_snapshot=tuple((a.value, _reciprocal(b.value)) for a, b in zip(rho_a, rho_b)),
        mode=mode,
        converged=all(e.converged for e in rho_a + rho_b),
    )
