"""Temporal f-total communicability and f-subgraph centrality in all four
modes, plus the node-level fast paths available in the resolvent case.

The edge-level route applies the shifted weight function to alpha*M, with
M the global transition matrix, and projects back to the node space with
the global source/target matrices.  Total communicability applies it to the
all-ones vector; subgraph centrality and the communicability matrix apply it
to blocks of at most COLUMN_BLOCK columns of R_g.  M is block upper
triangular with one diagonal block per snapshot.  A resolvent (Katz) weight
never forms M: ``matfun.resolvent_solver`` factors one system per snapshot
and back-substitutes every block of columns from the last snapshot to the
first, coupling the snapshots through running node sums.  In the standard
and NBT-in-time modes that system is the n x n I - alpha*delta*A_t; in the
NBT-in-space and NBT-both modes it is the Hashimoto block
I - alpha*delta*B_t in edge space.  Any other weight sums its series on the
assembled M with sparse x dense block products.

For resolvent weights the standard mode also collapses to a product of n x n
resolvents, and the NBT-in-space mode, for alpha < 1, to a product of n x n
cubic-polynomial inverses; both fast paths are cross checked against the
edge-level route in the test suite.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import matfun
from .line_space import Mode, global_source_target, global_transition, katz_system
from .matfun import DEFAULT_RMAX, DEFAULT_TOL, apply_series, partial_op, resolvent_solver
from .spectral import mode_bound


#: columns of R_g per block application; bounds the dense m x k work arrays
COLUMN_BLOCK = 32


class ParameterError(ValueError):
    """alpha outside the admissible interval (and --force not given)."""


@dataclass(frozen=True)
class CentralityVector:
    """Centrality values for all n nodes, with the run's metadata."""

    values: np.ndarray
    measure: str
    mode: Mode
    alpha: float
    function: str
    truncated: bool = False

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))


def check_alpha_value(alpha):
    """Raise ParameterError unless alpha is finite and nonnegative; --force
    does not lift this."""
    if not 0 <= alpha < math.inf:  # NaN fails too
        raise ParameterError(f"alpha must be finite and nonnegative, got {alpha}")


def _check_alpha(net, alpha, mode, radius, force):
    check_alpha_value(alpha)
    if force:
        return
    ell, _ = mode_bound(net, mode)
    sup = radius * ell
    if alpha >= sup:
        raise ParameterError(
            f"alpha={alpha} outside the admissible interval (0, {sup}) "
            f"for mode {mode.value}"
        )


def _node_solve(P, v):
    """Solve the n x n system P x = v; a non-finite solution raises SolveError."""
    with warnings.catch_warnings():
        # a singular system surfaces through the finiteness check below
        warnings.simplefilter("ignore", spla.MatrixRankWarning)
        x = np.asarray(spla.spsolve(P, v)).ravel()
    if not np.isfinite(x).all():
        raise matfun.SolveError("node-level solve is not finite (system singular?)")
    return x


def dynamic_katz_node_level(net, alpha, force=False):
    """Katz centrality y = prod_tau (I - alpha A^[tau])^-1 1, computed
    right-to-left as N sparse n x n solves; never forms the edge-space matrix."""
    _check_alpha(net, alpha, Mode.STANDARD, 1.0, force)
    y = np.ones(net.n)
    for snap in reversed(net.snapshots):
        y = _node_solve(katz_system(snap, net.n, alpha, nbt=False), y)
    return CentralityVector(
        values=y,
        measure="total-communicability",
        mode=Mode.STANDARD,
        alpha=alpha,
        function="katz",
    )


def nbt_space_katz_node_level(net, alpha, force=False):
    """NBT-in-space Katz centrality at node level:
    y = (1 - alpha^2)^N prod_tau [I - a A + a^2 (D - I) + a^3 (A - S)]^-1 1.
    The factor (1 - alpha^2) is spurious: the cubic is singular at alpha = 1
    and loses accuracy beyond it, so use the edge solve for alpha >= 1."""
    _check_alpha(net, alpha, Mode.NBT_SPACE, 1.0, force)
    y = np.ones(net.n)
    for snap in reversed(net.snapshots):
        y = _node_solve(katz_system(snap, net.n, alpha, nbt=True), y)
    y *= (1.0 - alpha**2) ** net.N
    return CentralityVector(
        values=y,
        measure="total-communicability",
        mode=Mode.NBT_SPACE,
        alpha=alpha,
        function="katz",
    )


def _shifted(net, alpha, f, mode, tol, rmax):
    """Return apply(v) -> (value, truncated) evaluating (shifted f)(alpha M) v,
    with M the mode's global transition matrix, for a vector or an m x k
    block v.  A resolvent factors each snapshot once, here, and never forms
    M (see :func:`matfun.resolvent_solver`); any other weight sums its series
    on the assembled M."""
    g = partial_op(f)
    if f.geometric is None:
        M = global_transition(net, mode)

        def series(v):
            result = apply_series(M, alpha, g, v, tol=tol, rmax=rmax)
            return result.value, result.truncated

        return series
    gamma, delta = f.geometric
    # the shifted resolvent is gamma*delta / (1 - delta z)
    solve = resolvent_solver(net, mode, alpha * delta, tol=tol)
    return lambda v: (gamma * delta * solve(v), False)


def _column_blocks(net, alpha, f, mode, tol, rmax):
    """Yield (nodes, P, truncated) with P = L_g^T (shifted f)(alpha M) R_g[:, nodes]
    (n x len(nodes)), over blocks of at most COLUMN_BLOCK nodes; nodes that
    are never a target have a zero column and are left out."""
    Lg, Rg = global_source_target(net)
    apply = _shifted(net, alpha, f, mode, tol, rmax)
    Rg = sp.csc_array(Rg)
    targets = np.flatnonzero(np.diff(Rg.indptr))
    for start in range(0, len(targets), COLUMN_BLOCK):
        nodes = targets[start : start + COLUMN_BLOCK]
        Z, truncated = apply(Rg[:, nodes].toarray())
        yield nodes, Lg.T @ Z, truncated


def temporal_f_total_communicability(
    net, alpha, f, mode, tol=DEFAULT_TOL, rmax=DEFAULT_RMAX, force=False
):
    """y = c_0 1 + alpha L_g^T [(shifted f)(alpha M) 1_m] with L_g the global
    source matrix and M the mode's global transition matrix."""
    _check_alpha(net, alpha, mode, f.radius, force)
    Lg, _ = global_source_target(net)
    z, truncated = _shifted(net, alpha, f, mode, tol, rmax)(np.ones(net.m))
    y = f(0) * np.ones(net.n) + alpha * (Lg.T @ z)
    return CentralityVector(
        values=y,
        measure="total-communicability",
        mode=mode,
        alpha=alpha,
        function=f.name,
        truncated=truncated,
    )


def temporal_f_subgraph_centrality(
    net, alpha, f, mode, tol=DEFAULT_TOL, rmax=DEFAULT_RMAX, force=False, threads=None
):
    """x_i = (c_0 I + alpha L_g^T (shifted f)(alpha M) R_g)_ii, applied to
    blocks of R_g's columns; nodes that are never a target stay at c_0.
    ``threads`` is accepted for compatibility and ignored."""
    _check_alpha(net, alpha, mode, f.radius, force)
    values = np.full(net.n, float(f(0)))
    truncated = False
    for nodes, P, trunc in _column_blocks(net, alpha, f, mode, tol, rmax):
        values[nodes] += alpha * P[nodes, np.arange(len(nodes))]
        truncated = truncated or trunc
    return CentralityVector(
        values=values,
        measure="subgraph",
        mode=mode,
        alpha=alpha,
        function=f.name,
        truncated=truncated,
    )


def communicability_matrix(
    net, alpha, f, mode, tol=DEFAULT_TOL, rmax=DEFAULT_RMAX, force=False
):
    """Full n x n weighted walk-count matrix c_0 I + alpha L_g^T (shifted
    f)(alpha M) R_g.  Dense output; intended for small n (tests, debugging)."""
    _check_alpha(net, alpha, mode, f.radius, force)
    Q = f(0) * np.eye(net.n)
    for nodes, P, _ in _column_blocks(net, alpha, f, mode, tol, rmax):
        Q[:, nodes] += alpha * P
    return Q
