"""Temporal f-total communicability and f-subgraph centrality in all four
modes, plus the node-level fast paths available in the resolvent case.

The edge-level route forms the global transition matrix M, applies the
shifted weight function to alpha*M, and projects back to the node space with
the global source/target matrices.  For resolvent weights (Katz) the standard
mode collapses to a product of n x n resolvents, and the NBT-in-space mode to
a product of n x n cubic-polynomial inverses; both fast paths are cross
checked against the edge-level route in the test suite.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import matfun
from .line_space import Mode, global_source_target, global_transition
from .matfun import DEFAULT_RMAX, DEFAULT_TOL, apply_series, partial_op, resolvent_solve
from .spectral import deg_matrices, mode_bound
from .temporal_graph import adjacency_matrix


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


def _check_alpha(net, alpha, mode, radius, force):
    if alpha < 0:
        raise ParameterError(f"alpha must be nonnegative, got {alpha}")
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
        x = np.asarray(spla.spsolve(sp.csc_array(P), v)).ravel()
    if not np.isfinite(x).all():
        raise matfun.SolveError("node-level solve is not finite (system singular?)")
    return x


def dynamic_katz_node_level(net, alpha, force=False):
    """Katz centrality y = prod_tau (I - alpha A^[tau])^-1 1, computed
    right-to-left as N sparse n x n solves; never forms the edge-space matrix."""
    _check_alpha(net, alpha, Mode.STANDARD, 1.0, force)
    y = np.ones(net.n)
    for tau in range(net.N, 0, -1):
        y = _node_solve(sp.eye_array(net.n) - alpha * adjacency_matrix(net, tau), y)
    return CentralityVector(
        values=y,
        measure="total-communicability",
        mode=Mode.STANDARD,
        alpha=alpha,
        function="katz",
    )


def nbt_space_katz_node_level(net, alpha, force=False):
    """NBT-in-space Katz centrality at node level:
    y = (1 - alpha^2)^N prod_tau [I - a A + a^2 (D - I) + a^3 (A - S)]^-1 1."""
    _check_alpha(net, alpha, Mode.NBT_SPACE, 1.0, force)
    n = net.n
    eye = sp.eye_array(n, format="csc")
    y = np.ones(n)
    for tau in range(net.N, 0, -1):
        A = adjacency_matrix(net, tau)
        D, S = deg_matrices(A)
        y = _node_solve(eye - alpha * A + alpha**2 * (D - eye) + alpha**3 * (A - S), y)
    y *= (1.0 - alpha**2) ** net.N
    return CentralityVector(
        values=y,
        measure="total-communicability",
        mode=Mode.NBT_SPACE,
        alpha=alpha,
        function="katz",
    )


def _apply_shifted(M, alpha, f, v, tol, rmax):
    """Evaluate (shifted f)(alpha M) v; returns (vector, truncated)."""
    g = partial_op(f)
    if f.geometric is not None:
        gamma, delta = f.geometric
        if gamma * delta == 0.0:
            return np.zeros_like(np.asarray(v, dtype=float)), False
        # shifted resolvent is gamma*delta / (1 - delta z): one linear solve
        x = resolvent_solve(M, alpha * delta, v, tol=tol)
        return gamma * delta * x, False
    result = apply_series(M, alpha, g, v, tol=tol, rmax=rmax)
    return result.value, result.truncated


def temporal_f_total_communicability(
    net, alpha, f, mode, tol=DEFAULT_TOL, rmax=DEFAULT_RMAX, force=False
):
    """y = c_0 1 + alpha L_g^T [(shifted f)(alpha M) 1_m] with L_g the global
    source matrix and M the mode's global transition matrix."""
    _check_alpha(net, alpha, mode, f.radius, force)
    Lg, _ = global_source_target(net)
    M = global_transition(net, mode)
    z, truncated = _apply_shifted(M, alpha, f, np.ones(net.m), tol, rmax)
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
    net, alpha, f, mode, tol=DEFAULT_TOL, rmax=DEFAULT_RMAX, force=False, threads=1
):
    """x_i = (c_0 I + alpha L_g^T (shifted f)(alpha M) R_g)_ii, one edge-space
    application per node; nodes that are never a target short-circuit to c_0."""
    _check_alpha(net, alpha, mode, f.radius, force)
    Lg, Rg = global_source_target(net)
    M = global_transition(net, mode)
    LgT = sp.csr_array(Lg.T)
    c0 = float(f(0))
    values = np.full(net.n, c0)
    truncated = False

    def column(i):
        col = np.asarray(Rg[:, [i]].todense()).ravel()
        if not col.any():
            return None
        z, trunc = _apply_shifted(M, alpha, f, col, tol, rmax)
        return float((LgT[[i], :] @ z)[0]), trunc

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(column, range(net.n)))
    else:
        results = [column(i) for i in range(net.n)]
    for i, res in enumerate(results):
        if res is None:
            continue
        contrib, trunc = res
        values[i] = c0 + alpha * contrib
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
    n = net.n
    Lg, Rg = global_source_target(net)
    M = global_transition(net, mode)
    Q = f(0) * np.eye(n)
    for j in range(n):
        col = np.asarray(Rg[:, [j]].todense()).ravel()
        if not col.any():
            continue
        z, _ = _apply_shifted(M, alpha, f, col, tol, rmax)
        Q[:, j] += alpha * (Lg.T @ z)
    return Q
