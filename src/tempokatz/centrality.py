"""Temporal f-total communicability, f-subgraph centrality and the
communicability matrix in all four modes.

Each measure applies one node-block map, W -> c_0 W + alpha L_g^T (shifted
f)(alpha M) R_g W, with M the global transition matrix and L_g, R_g the
global source/target matrices: total communicability to the all-ones vector,
subgraph centrality and the communicability matrix to blocks of at most
COLUMN_BLOCK unit columns.  A resolvent (Katz) weight runs the engine
``matfun.resolvent_solver``, one back-substitution over the snapshots that
never forms M; any other weight sums its series on the assembled M with
sparse x dense block products.

Every measure checks alpha in one place, ``_check_alpha``, against the bound
ell of ``spectral.mode_bound``, which its result carries with whether the
Katz engine factored only n x n systems.
``dynamic_katz_node_level`` and ``nbt_space_katz_node_level`` are Katz total
communicability through the same engine, kept under their old names.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .line_space import Mode, global_source_target, global_transition
from .matfun import (
    DEFAULT_RMAX,
    DEFAULT_TOL,
    SolveError,
    apply_series,
    partial_op,
    resolvent,
    resolvent_solver,
)
from .spectral import mode_bound


#: columns per block application; bounds the dense n x k and m x k work arrays
COLUMN_BLOCK = 32


class ParameterError(ValueError):
    """alpha negative or not finite, or outside the admissible interval
    without force."""


@dataclass(frozen=True)
class CentralityVector:
    """Centrality values for all n nodes, with the run's metadata: ``ell``
    is the mode's bound (computed with force too), and ``node_space`` whether
    the Katz engine factored only n x n systems (False for a series)."""

    values: np.ndarray
    measure: str
    mode: Mode
    alpha: float
    function: str
    truncated: bool = False
    ell: float = math.inf
    node_space: bool = False

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))


def _check_alpha(net, alpha, mode, radius, force):
    """Return ell = ``mode_bound(net, mode)[0]``.  Raise ParameterError
    unless alpha is finite and nonnegative, even with force.  Without force,
    raise SolveError if the bound did not converge and ParameterError unless
    alpha < radius * ell; a non-converged ell, 1 / hi of an open bracket,
    still never exceeds the true supremum."""
    if not 0 <= alpha < math.inf:  # NaN fails too
        raise ParameterError(f"alpha must be finite and nonnegative, got {alpha}")
    ell, converged = mode_bound(net, mode)
    if force:
        return ell
    if not converged:
        raise SolveError("spectral radius estimation did not converge")
    sup = radius * ell
    if alpha >= sup:
        raise ParameterError(
            f"alpha={alpha} is outside the admissible interval (0, {sup:.17g}) "
            f"for mode {mode.value}; pass --force (force=True) to override"
        )
    return ell


def dynamic_katz_node_level(net, alpha, force=False):
    """Katz total communicability prod_t (I - alpha A_t)^-1 1."""
    return temporal_f_total_communicability(net, alpha, resolvent(), Mode.STANDARD, force=force)


def nbt_space_katz_node_level(net, alpha, force=False):
    """Katz total communicability in the NBT-in-space mode."""
    return temporal_f_total_communicability(net, alpha, resolvent(), Mode.NBT_SPACE, force=force)


def _node_block(net, alpha, f, mode, tol, rmax, force):
    """Check alpha (:func:`_check_alpha`) and return (apply, run):
    apply(W) -> (Y, truncated) with Y = c_0 W + alpha L_g^T (shifted f)(alpha
    M) R_g W for an n-vector or n x k block W, and ``run`` the run's
    CentralityVector fields.  A resolvent factors each snapshot once, here,
    and never forms M (node_space: whether every system is n x n); any other
    weight sums its series on the assembled M."""
    ell = _check_alpha(net, alpha, mode, f.radius, force)
    run = {"mode": mode, "alpha": alpha, "function": f.name, "ell": ell}
    if f.geometric is not None:
        gamma, delta = f.geometric
        # c_0 = gamma, and the shifted resolvent is gamma delta / (1 - delta z)
        solve = resolvent_solver(net, mode, alpha * delta, tol=tol)
        run["node_space"] = solve.node_space
        return (lambda W: (gamma * solve(W), False)), run
    g = partial_op(f)
    Lg, Rg = global_source_target(net)
    M = global_transition(net, mode)

    def series(W):
        result = apply_series(M, alpha, g, Rg @ W, tol=tol, rmax=rmax)
        return f(0) * W + alpha * (Lg.T @ result.value), result.truncated

    return series, run


def _column_blocks(apply, net):
    """Yield (nodes, Y, truncated) with Y = apply(units), the node-block map
    of the unit columns of ``nodes`` (n x len(nodes)), over blocks of at
    most COLUMN_BLOCK nodes; a node that is never a target maps its unit
    column to c_0 times itself and is left out."""
    targets = np.unique(net.arrays.tgt)
    for start in range(0, len(targets), COLUMN_BLOCK):
        nodes = targets[start : start + COLUMN_BLOCK]
        units = np.zeros((net.n, len(nodes)))
        units[nodes, np.arange(len(nodes))] = 1.0
        yield (nodes, *apply(units))


def temporal_f_total_communicability(
    net, alpha, f, mode, tol=DEFAULT_TOL, rmax=DEFAULT_RMAX, force=False
):
    """y = c_0 1 + alpha L_g^T [(shifted f)(alpha M) 1_m] with L_g the global
    source matrix and M the mode's global transition matrix."""
    apply, run = _node_block(net, alpha, f, mode, tol, rmax, force)
    y, truncated = apply(np.ones(net.n))
    return CentralityVector(y, "total-communicability", truncated=truncated, **run)


def temporal_f_subgraph_centrality(
    net, alpha, f, mode, tol=DEFAULT_TOL, rmax=DEFAULT_RMAX, force=False, threads=None
):
    """x_i = (c_0 I + alpha L_g^T (shifted f)(alpha M) R_g)_ii, applied to
    blocks of unit columns; nodes that are never a target stay at c_0.
    ``threads`` is accepted for compatibility and ignored."""
    apply, run = _node_block(net, alpha, f, mode, tol, rmax, force)
    values = np.full(net.n, float(f(0)))
    truncated = False
    for nodes, Y, trunc in _column_blocks(apply, net):
        values[nodes] = Y[nodes, np.arange(len(nodes))]
        truncated = truncated or trunc
    return CentralityVector(values, "subgraph", truncated=truncated, **run)


def communicability_matrix(
    net, alpha, f, mode, tol=DEFAULT_TOL, rmax=DEFAULT_RMAX, force=False
):
    """Full n x n weighted walk-count matrix c_0 I + alpha L_g^T (shifted
    f)(alpha M) R_g.  Dense output; intended for small n (tests, debugging)."""
    apply, _ = _node_block(net, alpha, f, mode, tol, rmax, force)
    Q = f(0) * np.eye(net.n)
    for nodes, Y, _ in _column_blocks(apply, net):
        Q[:, nodes] = Y
    return Q
