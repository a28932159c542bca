import math

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


@pytest.fixture
def ex5():
    return tk.parse_temporal_edgelist(WORKED_EXAMPLE)


@pytest.fixture
def fig1():
    return tk.parse_temporal_edgelist(FIG_NETWORK)


@pytest.fixture
def triangle():
    return tk.parse_temporal_edgelist(TRIANGLE)


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
