import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

import tempokatz as tk
from tempokatz import Mode, Snapshot, TemporalNetwork

# 3-snapshot directed path 0->1 (t1), 1->2 (t2), 2->3 (t3): every edge-space
# matrix for this network is known in closed form
WORKED_EXAMPLE = "0 1 1\n1 2 2\n2 3 3\n"

# 4-node, 3-snapshot network exercising every backtracking flavor:
# t1: 3->0, 0->1, 1->2;  t2: 2->1, 2->3;  t3: 3->0, 0->3
FIG_NETWORK = "3 0 1\n0 1 1\n1 2 1\n2 1 2\n2 3 2\n3 0 3\n0 3 3\n"

# one undirected triangle snapshot (6 directed edges)
TRIANGLE = "0 1 1\n1 0 1\n1 2 1\n2 1 1\n0 2 1\n2 0 1\n"


ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def python(code, *argv):
    """``python -c code *argv`` in a fresh interpreter, with the checkout's
    ``src`` first on the import path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True,
        timeout=120,
    )


@pytest.fixture
def dense_snapshots_edge(monkeypatch):
    """Edge-list text of the seed-1 `edge` network of perfbench's
    `dense-snapshots` workload: 40 nodes, 4 snapshots of 300 and 700 edges."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    shape = workloads.Shape(n=40, N=4, m_t=(300, 700), reciprocated=0.3)
    return workloads.generate(shape, 1, 0).to_edgelist()


@pytest.fixture
def ex5():
    return tk.parse_temporal_edgelist(WORKED_EXAMPLE)


@pytest.fixture
def fig1():
    return tk.parse_temporal_edgelist(FIG_NETWORK)


@pytest.fixture
def triangle():
    return tk.parse_temporal_edgelist(TRIANGLE)


def reciprocated_tree(n, tau=1):
    """Edge-list lines of the binary-heap tree on n nodes, node i joined to
    (i - 1) // 2 both ways, in snapshot tau: 2 (n - 1) edges, and a
    nilpotent Hashimoto block, so that ell = inf in nbt-space and nbt-both."""
    return "".join(f"{i} {(i - 1) // 2} {tau}\n{(i - 1) // 2} {i} {tau}\n" for i in range(1, n))


def random_network(rng, n=None, N=None, density=0.4):
    """One random temporal network; resamples until at least one edge exists."""
    n = n if n is not None else int(rng.integers(3, 7))
    N = N if N is not None else int(rng.integers(1, 4))
    while True:
        lines = [f"%n {n}"]
        for t in range(1, N + 1):
            for u in range(n):
                for v in range(n):
                    if u != v and rng.random() < density:
                        lines.append(f"{u} {v} {t}")
        if len(lines) == 1:
            continue
        return tk.parse_temporal_edgelist("\n".join(lines))


def random_network_with(rng, predicate, **kwargs):
    """Resample random networks until ``predicate(net)`` holds."""
    while True:
        net = random_network(rng, **kwargs)
        if predicate(net):
            return net


def finite_ell(net, mode):
    return math.isfinite(tk.alpha_bound(net, mode).ell)


def has_reciprocated_edge(net):
    return any(
        (v, u) in set(snap.edges) for snap in net.snapshots for u, v in snap.edges
    )


def dense_radius(matrix):
    """Independent spectral-radius oracle (dense eigenvalues)."""
    return float(np.max(np.abs(np.linalg.eigvals(np.asarray(matrix.todense())))))


def katz_referee(net, mode, alpha, W):
    """W + alpha L_g^T (I - alpha M)^-1 R_g W, by one LU of the whole
    I - alpha M (``resolvent_solve``).  Only for alpha <= 0.9 ell: nearer
    the singularity that LU loses every digit (0.99 relative error seen at
    alpha = 0.999999 / rho(M)), so it is no referee there."""
    assert alpha <= 0.9 * tk.alpha_bound(net, mode).ell, "katz_referee near the singularity"
    L, R = tk.global_source_target(net)
    M = tk.global_transition(net, mode)
    return W + alpha * (L.T @ tk.resolvent_solve(M, alpha, R @ W))


#: every dump-matrix kind: M in each mode, and L, R, and A, W and B of
#: snapshot 1, in the default mode
DUMP_KINDS = [pytest.param("M", mode.value, id=f"M-{mode.value}") for mode in Mode] + [
    pytest.param(which, "standard", id=which) for which in ("L", "R", "A:1", "W:1", "B:1")
]


def referee_text(net, which, mode):
    """The text dump-matrix writes for ``which`` in ``mode``, formatted from
    the oracle's SciPy referee: `nrows ncols nnz`, then `row col value` for
    each entry, sorted by (row, column)."""
    import scipy.sparse as sp

    kind, _, tau = which.partition(":")
    matrix = {
        "M": lambda: tk.oracle.reference_transition(net, Mode(mode)),
        "L": lambda: tk.oracle.reference_source_target(net)[0],
        "R": lambda: tk.oracle.reference_source_target(net)[1],
        "A": lambda: tk.oracle.reference_adjacency(net, int(tau)),
        "W": lambda: tk.oracle.reference_line_graph(net.snapshot(int(tau)), net.n),
        "B": lambda: tk.oracle.reference_hashimoto(net.snapshot(int(tau)), net.n),
    }[kind]()
    coo = sp.coo_array(matrix)
    order = np.lexsort((coo.col, coo.row))
    entries = zip(coo.row[order], coo.col[order], coo.data[order])
    lines = [f"{coo.shape[0]} {coo.shape[1]} {coo.nnz}"]
    lines += (f"{r} {c} {v:.17g}" for r, c, v in entries)
    return "\n".join(lines) + "\n"


@st.composite
def networks(draw):
    """n <= 6 nodes (some may be isolated), N <= 4 snapshots (some may be
    empty); each unordered pair appears forward, backward or reciprocated."""
    n = draw(st.integers(1, 6))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    snapshots = []
    for tau in range(1, draw(st.integers(1, 4)) + 1):
        edges = set()
        for u, v in pairs:
            kind = draw(st.sampled_from(("none", "none", "forward", "backward", "both")))
            if kind in ("forward", "both"):
                edges.add((u, v))
            if kind in ("backward", "both"):
                edges.add((v, u))
        snapshots.append(Snapshot(tau, tuple(edges)))
    return TemporalNetwork(n=n, snapshots=tuple(snapshots), timestamps=tuple(range(len(snapshots))))
