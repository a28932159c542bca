"""Temporal f-total communicability, f-subgraph centrality and the
communicability matrix in all four modes.

Each measure applies one node-block map, W -> c_0 W + alpha L_g^T (shifted
f)(alpha M) R_g W, with M the global transition matrix and L_g, R_g the
global source/target matrices: total communicability to the all-ones vector,
subgraph centrality and the communicability matrix to blocks of at most
COLUMN_BLOCK unit columns.  No weight forms M, L_g or R_g.  A resolvent
(Katz) weight runs the engine ``matfun.resolvent_solver``, one
back-substitution over the snapshots; any other weight sums its series by
products with ``line_space.TransitionOperator``, cumulative sums along the
edges of each source sorted by snapshot, on numpy alone.

Every measure checks alpha in one place, ``_check_alpha``, against the bound
ell of ``spectral.mode_bound``, which its result carries with whether the
Katz engine factored only node systems.
``dynamic_katz_node_level`` and ``nbt_space_katz_node_level`` are Katz total
communicability through the same engine, kept under their old names.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .line_space import Mode, TransitionOperator
from .matfun import SolveError, apply_series, partial_op, resolvent, resolvent_solver
from .spectral import mode_bound
from .temporal_graph import _distinct


#: columns per block application; bounds the dense n x k and m x k work arrays
COLUMN_BLOCK = 32


class ParameterError(ValueError):
    """alpha negative or not finite, or outside the admissible interval
    without force."""


@dataclass(frozen=True)
class CentralityVector:
    """Centrality values for all n nodes, with the run's metadata: ``ell``
    is the mode's bound (computed with force too), and ``node_space`` whether
    the Katz engine factored only node systems (False for a series)."""

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
    """Return (alpha, ell), ell = ``mode_bound(net, mode)[0]``, with an alpha
    of -0.0 read as 0.0.  Raise ParameterError unless alpha is finite and
    nonnegative, even with force.  Without force, raise SolveError if the
    bound did not converge and ParameterError unless alpha < radius * ell; a
    non-converged ell, 1 / hi of an open bracket, still never exceeds the
    true supremum."""
    if not 0 <= alpha < math.inf:  # NaN fails too
        raise ParameterError(f"alpha must be finite and nonnegative, got {alpha}")
    alpha = abs(alpha)
    ell, converged = mode_bound(net, mode)
    if force:
        return alpha, ell
    if not converged:
        raise SolveError("spectral radius estimation did not converge")
    sup = radius * ell
    if alpha >= sup:
        raise ParameterError(
            f"alpha={alpha} is outside the admissible interval (0, {sup:.17g}) "
            f"for mode {mode.value}; pass --force (force=True) to override"
        )
    return alpha, ell


def dynamic_katz_node_level(net, alpha, force=False):
    """Katz total communicability prod_t (I - alpha A_t)^-1 1."""
    return temporal_f_total_communicability(net, alpha, resolvent(), Mode.STANDARD, force=force)


def nbt_space_katz_node_level(net, alpha, force=False):
    """Katz total communicability in the NBT-in-space mode."""
    return temporal_f_total_communicability(net, alpha, resolvent(), Mode.NBT_SPACE, force=force)


def _node_block(net, alpha, f, mode, force, columns=1):
    """Check alpha (:func:`_check_alpha`) and return (apply, run):
    apply(W) -> (Y, truncated) with Y = c_0 W + alpha L_g^T (shifted f)(alpha
    M) R_g W for an n-vector or n x k block W, and ``run`` the run's
    CentralityVector fields.  A resolvent factors each snapshot once, here,
    for ``columns`` columns of W in all, and never forms M (node_space:
    whether every system is a node system);
    any other weight sums its series on the TransitionOperator of M, which
    never forms it either.  Both hold to the fixed
    ``matfun.DEFAULT_TOL``: each solve's backward error, the series' stop."""
    alpha, ell = _check_alpha(net, alpha, mode, f.radius, force)
    run = {"mode": mode, "alpha": alpha, "function": f.name, "ell": ell}
    if f.geometric is not None:
        gamma, delta = f.geometric
        # c_0 = gamma, and the shifted resolvent is gamma delta / (1 - delta z)
        solve = resolvent_solver(net, mode, alpha * delta, columns)
        run["node_space"] = solve.node_space
        return (lambda W: (gamma * solve(W), False)), run
    g = partial_op(f)
    op = TransitionOperator(net, mode)

    def series(W):
        result = apply_series(op, alpha, g, op.targets(W))
        return f(0) * W + alpha * op.sources(result.value), result.truncated

    return series, run


def _column_blocks(apply, net, targets):
    """Yield (nodes, Y, truncated) with Y = apply(units), the node-block map
    of the unit columns of ``nodes`` (n x len(nodes)), over blocks of at
    most COLUMN_BLOCK of the ``targets``; a node that is never a target
    maps its unit column to c_0 times itself and is left out."""
    for start in range(0, len(targets), COLUMN_BLOCK):
        nodes = targets[start : start + COLUMN_BLOCK]
        units = np.zeros((net.n, len(nodes)))
        units[nodes, np.arange(len(nodes))] = 1.0
        yield (nodes, *apply(units))


def temporal_f_total_communicability(net, alpha, f, mode, force=False):
    """y = c_0 1 + alpha L_g^T [(shifted f)(alpha M) 1_m] with L_g the global
    source matrix and M the mode's global transition matrix."""
    apply, run = _node_block(net, alpha, f, mode, force)
    y, truncated = apply(np.ones(net.n))
    return CentralityVector(y, "total-communicability", truncated=truncated, **run)


def temporal_f_subgraph_centrality(net, alpha, f, mode, force=False, threads=None):
    """x_i = (c_0 I + alpha L_g^T (shifted f)(alpha M) R_g)_ii, applied to
    blocks of unit columns; nodes that are never a target stay at c_0.
    ``threads`` is accepted for compatibility and ignored."""
    targets = _distinct(net.arrays.tgt)
    apply, run = _node_block(net, alpha, f, mode, force, len(targets))
    values = np.full(net.n, float(f(0)))
    truncated = False
    for nodes, Y, trunc in _column_blocks(apply, net, targets):
        values[nodes] = Y[nodes, np.arange(len(nodes))]
        truncated = truncated or trunc
    return CentralityVector(values, "subgraph", truncated=truncated, **run)


def communicability_matrix(net, alpha, f, mode, force=False):
    """Full n x n weighted walk-count matrix c_0 I + alpha L_g^T (shifted
    f)(alpha M) R_g.  Dense output; intended for small n (tests, debugging)."""
    targets = _distinct(net.arrays.tgt)
    apply, _ = _node_block(net, alpha, f, mode, force, len(targets))
    Q = f(0) * np.eye(net.n)
    for nodes, Y, _ in _column_blocks(apply, net, targets):
        Q[:, nodes] = Y
    return Q
