"""Independent referee for every output the benchmark checks.

Nothing here imports the program.  Node-level outputs of ``tempokatz rank``
are recomputed from the walk rules by an edge-space mat-vec of our own; the
standard-mode Katz outputs also from the dense product form of Grindrod,
Higham, Parsons & Estrada (2011); and the radii of ``check-alpha`` from
eigenvalues of matrices built here, each accepted only after an
eigen-residual check.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components

MODES = ("standard", "nbt-space", "nbt-time", "nbt-both")

#: a term of a series below this share of the partial sum (max-norm), three
#: times in a row, ends the sum
SERIES_TOL = 1e-16
SERIES_MAXTERMS = 100_000

#: relative max-norm error accepted between the program's centralities and ours
VALUE_RTOL = 1e-9
#: relative error accepted for spectral radii, ell and 1/rho(B_t); defective
#: eigenvalues of small cycles carry errors of order sqrt(eps) = 1.5e-8
RADIUS_RTOL = 1e-6
#: eigen-residual accepted for our own dominant eigenpairs
EIG_RESIDUAL = 1e-9
#: above this dimension radii come from ARPACK instead of dense eigenvalues
DENSE_MAX = 512


class RefereeError(AssertionError):
    """The program's output disagrees with the referee."""


# --- walk rules in edge space -------------------------------------------------


class EdgeSpace:
    """Temporal walks seen as sequences of time-stamped edges.

    Edge f may follow edge e = (s, u -> v) when f leaves v in snapshot s or
    in any later snapshot.  The immediate reversal f = v -> u is forbidden
    within snapshot s in nbt-space and nbt-both, and in later snapshots in
    nbt-time and nbt-both.  ``apply`` computes (M X)[e] = sum of X[f] over
    admissible successors f, without forming M.
    """

    def __init__(self, net, mode):
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}")
        n, N = net.n, net.N
        t = np.concatenate([np.full(len(s), k) for k, s in enumerate(net.snapshots)])
        e = np.concatenate(net.snapshots)
        self.n, self.N, self.m = n, N, len(t)
        self.t, self.src, self.tgt = t, e[:, 0], e[:, 1]
        self.mode = mode
        # per-snapshot out-sums: row t*n + u collects the edges leaving u in t
        self.gather = sp.csr_array(
            (np.ones(self.m), (t * n + self.src, np.arange(self.m))), shape=(N * n, self.m)
        )
        # reversals: key (pair, snapshot) of every edge, sorted
        key = (self.src * n + self.tgt) * (N + 1) + t
        self.order = np.argsort(key, kind="stable")
        sorted_key = key[self.order]
        rev = (self.tgt * n + self.src) * (N + 1)
        pos = np.searchsorted(sorted_key, rev + t)
        hit = pos < self.m
        hit[hit] = sorted_key[pos[hit]] == (rev + t)[hit]
        self.same_from = np.flatnonzero(hit)
        self.same_to = self.order[pos[hit]]
        # reversed edges in strictly later snapshots occupy sorted[later_lo:later_hi]
        self.later_lo = np.searchsorted(sorted_key, rev + t, side="right")
        self.later_hi = np.searchsorted(sorted_key, rev + N, side="right")

    def apply(self, X):
        X = np.asarray(X, dtype=float)
        cols = X.reshape(self.m, -1)
        out_sums = (self.gather @ cols).reshape(self.N, self.n, -1)
        suffix = np.cumsum(out_sums[::-1], axis=0)[::-1]
        Y = suffix[self.t, self.tgt]
        if self.mode in ("nbt-space", "nbt-both"):
            Y[self.same_from] -= cols[self.same_to]
        if self.mode in ("nbt-time", "nbt-both"):
            tail = np.zeros((self.m + 1, cols.shape[1]))
            tail[:-1] = np.cumsum(cols[self.order][::-1], axis=0)[::-1]
            Y -= tail[self.later_lo] - tail[self.later_hi]
        return Y.reshape(X.shape)

    def sources(self):
        """Source incidence L (m x n): row e marks the node edge e leaves."""
        return sp.csr_array((np.ones(self.m), (np.arange(self.m), self.src)), shape=(self.m, self.n))

    def targets(self):
        """Target incidence R (m x n): row e marks the node edge e enters."""
        return sp.csr_array((np.ones(self.m), (np.arange(self.m), self.tgt)), shape=(self.m, self.n))


def coefficients(function):
    """c_1, c_2, ... of the weight function."""
    if function == "katz":  # f(z) = 1 / (1 - z)
        return itertools.repeat(1.0)
    if function == "exponential":  # f(z) = e^z
        return (1 / math.factorial(r) for r in itertools.count(1))
    raise ValueError(f"unknown function {function!r}")


def walk_series(space, alpha, function, V):
    """sum_{k>=0} c_{k+1} alpha^k M^k V: the Neumann sum for Katz (alpha is
    below ell, so it converges) and the Taylor terms for the exponential."""
    power = np.array(V, dtype=float)
    acc = np.zeros_like(power)
    small = 0
    for k, c in enumerate(coefficients(function)):
        if k >= SERIES_MAXTERMS:
            raise RuntimeError(f"series did not reach {SERIES_TOL} in {k} terms")
        term = c * power
        acc += term
        if np.max(np.abs(term)) <= SERIES_TOL * np.max(np.abs(acc)):
            small += 1
            if small == 3:
                return acc
        else:
            small = 0
        power = alpha * space.apply(power)
        if not power.any():
            return acc


def total_communicability(net, alpha, function, mode):
    """y_i = c_0 + sum over walks from i of c_r alpha^r (r = walk length)."""
    space = EdgeSpace(net, mode)
    z = walk_series(space, alpha, function, np.ones(space.m))
    return 1.0 + alpha * (space.sources().T @ z)


def subgraph_centrality(net, alpha, function, mode):
    """x_i = c_0 + sum over closed walks at i of c_r alpha^r."""
    space = EdgeSpace(net, mode)
    Z = walk_series(space, alpha, function, space.targets().toarray())
    return 1.0 + alpha * np.einsum("ei,ei->i", space.sources().toarray(), Z)


def katz_product(net, alpha):
    """Q = prod_t (I - alpha A_t)^-1 in dense arithmetic; standard-mode Katz
    TC is Q 1 and SC is diag(Q)."""
    eye = np.eye(net.n)
    Q = eye
    for edges in reversed(net.snapshots):
        Q = np.linalg.solve(eye - alpha * adjacency(net.n, edges).toarray(), Q)
    return Q.sum(axis=1), np.diag(Q).copy()


# --- spectral radii -------------------------------------------------------------


def adjacency(n, edges):
    return sp.csr_array((np.ones(len(edges)), (edges[:, 0], edges[:, 1])), shape=(n, n))


def hashimoto(n, edges):
    """B[e, f] = 1 when f leaves the node e enters and f is not e reversed."""
    m = len(edges)
    line = sp.csr_array(
        sp.csr_array((np.ones(m), (np.arange(m), edges[:, 1])), shape=(m, n))
        @ sp.csr_array((np.ones(m), (edges[:, 0], np.arange(m))), shape=(n, m))
    )
    index = {(u, v): k for k, (u, v) in enumerate(edges.tolist())}
    rev = [(k, index[(v, u)]) for k, (u, v) in enumerate(edges.tolist()) if (v, u) in index]
    if rev:
        r, c = np.array(rev).T
        line = line - sp.csr_array((np.ones(len(r)), (r, c)), shape=(m, m))
    line = sp.csr_array(line)
    line.eliminate_zeros()
    return line


def spectral_radius(a):
    """rho of a nonnegative 0/1 matrix: exactly 0 when its digraph is acyclic
    (no self-loops occur here), otherwise the modulus of a dominant eigenpair
    that passes an eigen-residual check."""
    dim = a.shape[0]
    if dim == 0 or a.nnz == 0:
        return 0.0
    components, _ = connected_components(a, directed=True, connection="strong")
    if components == dim and not a.diagonal().any():
        return 0.0
    if dim <= DENSE_MAX:
        dense = a.toarray()
        vals, vecs = np.linalg.eig(dense)
        k = int(np.argmax(np.abs(vals)))
        lam, x = vals[k], vecs[:, k]
        scale = np.abs(dense).sum(axis=0).max()
    else:
        vals, vecs = spla.eigs(sp.csr_array(a, dtype=float), k=1, which="LM", v0=np.ones(dim))
        lam, x = vals[0], vecs[:, 0]
        scale = abs(a).sum(axis=0).max()
    residual = np.linalg.norm(a @ x - lam * x) / (scale * np.linalg.norm(x))
    if not residual <= EIG_RESIDUAL:
        raise RuntimeError(f"eigenpair residual {residual:.2e} exceeds {EIG_RESIDUAL}")
    return float(abs(lam))


def alpha_bounds(net):
    """Per snapshot (rho(A_t), 1/rho(B_t)), and ell for standard and nbt modes."""
    per = []
    for edges in net.snapshots:
        rho_a = spectral_radius(adjacency(net.n, edges))
        rho_b = spectral_radius(hashimoto(net.n, edges))
        per.append((rho_a, math.inf if rho_b == 0.0 else 1.0 / rho_b))
    rho = max(r for r, _ in per)
    ell_standard = math.inf if rho == 0.0 else 1.0 / rho
    ell_nbt = min(lam for _, lam in per)
    return per, ell_standard, ell_nbt


# --- checks of the program's printed output -------------------------------------


def _close(got, want, rtol, what):
    if math.isinf(want) or math.isinf(got):
        if got != want:
            raise RefereeError(f"{what}: got {got}, want {want}")
        return
    if not abs(got - want) <= rtol * abs(want):
        raise RefereeError(f"{what}: got {got!r}, want {want!r} (rtol {rtol})")


def check_validate(text, net):
    fields = dict(line.split(" = ") for line in text.splitlines())
    want = {"n": net.n, "N": net.N, "m": net.m, "duplicates_collapsed": 0}
    got = {k: int(fields.get(k, -1)) for k in want}
    if got != want:
        raise RefereeError(f"validate: got {got}, want {want}")


def check_alpha_output(text, bounds, mode):
    per, ell_standard, ell_nbt = bounds
    lines = text.splitlines()
    if len(lines) != len(per) + 1 or not lines[0].startswith("ell = "):
        raise RefereeError(f"check-alpha: expected ell and {len(per)} snapshot lines")
    ell = ell_nbt if mode in ("nbt-space", "nbt-both") else ell_standard
    _close(float(lines[0][len("ell = "):]), ell, RADIUS_RTOL, "ell")
    for tau, (line, (rho, lam)) in enumerate(zip(lines[1:], per), start=1):
        head, _, rest = line.partition(": ")
        parts = rest.split()
        if head != f"snapshot {tau}" or parts[0::3] != ["rho", "lambda"]:
            raise RefereeError(f"check-alpha: bad line {line!r}")
        _close(float(parts[2]), rho, RADIUS_RTOL, f"rho of snapshot {tau}")
        _close(float(parts[5]), lam, RADIUS_RTOL, f"lambda of snapshot {tau}")


def parse_ranking(text, n):
    """Values by node from ``rank`` CSV output, after checking that the rows
    are the n nodes ordered by descending value with dense ranks."""
    rows = [line.split(",") for line in text.splitlines() if not line.startswith("#")]
    if not rows or rows[0] != ["node", "value", "rank"] or len(rows) != n + 1:
        raise RefereeError(f"rank: expected a header and {n} rows")
    nodes = [int(r[0]) for r in rows[1:]]
    values = [float(r[1]) for r in rows[1:]]
    ranks = [int(r[2]) for r in rows[1:]]
    if sorted(nodes) != list(range(n)):
        raise RefereeError("rank: rows are not the nodes 0..n-1")
    want_order = sorted(range(n), key=lambda k: (-values[k], nodes[k]))
    distinct = sorted(set(values), reverse=True)
    if want_order != list(range(n)) or ranks != [distinct.index(v) + 1 for v in values]:
        raise RefereeError("rank: rows are not ordered by value with dense ranks")
    out = np.empty(n)
    out[nodes] = values
    return out


def check_values(got, want, what):
    err = np.max(np.abs(got - want))
    if not err <= VALUE_RTOL * np.max(np.abs(want)):
        raise RefereeError(f"{what}: max error {err:.3e} against max value {np.max(np.abs(want)):.3e}")
