"""The referee against the package's brute-force walk enumerator, and the
referee rejecting perturbed outputs.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_referee.py
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import referee  # noqa: E402
import tempokatz as tk  # noqa: E402
from tempokatz.oracle import enumerate_temporal_walks, weighted_walk_sum  # noqa: E402
from workloads import NODE_SCAN, WORKLOADS, Shape, generate, networks  # noqa: E402

TINY = [Shape(n=n, N=N, m_t=(m,), reciprocated=r) for n, N, m, r in [
    (3, 2, 3, 0.7), (4, 3, 5, 0.4), (5, 2, 8, 0.5), (4, 1, 6, 1.0), (5, 3, 4, 0.0),
]]


def program_net(net):
    return tk.parse_temporal_edgelist(net.to_edgelist())


def walk_counts(net, mode, max_len):
    """(L^T M^(r-1) R)_ij from the referee's mat-vec, r = 1..max_len."""
    space = referee.EdgeSpace(net, mode)
    L, power = space.sources().toarray(), space.targets().toarray()
    counts = []
    for _ in range(max_len):
        counts.append(np.rint(L.T @ power).astype(np.int64))
        power = space.apply(power)
    return counts


@pytest.mark.parametrize("mode", referee.MODES)
@pytest.mark.parametrize("shape", TINY)
def test_walk_counts_match_enumeration(shape, mode):
    for seed in range(4):
        net = generate(shape, seed, 0)
        oracle = enumerate_temporal_walks(program_net(net), 6, tk.Mode(mode))
        for r, counts in enumerate(walk_counts(net, mode, 6), start=1):
            assert (counts == oracle.matrix(r).astype(np.int64)).all(), (seed, r)


@pytest.mark.parametrize("mode", referee.MODES)
def test_centralities_match_weighted_walk_sums(mode):
    net = generate(TINY[1], 7, 0)
    oracle = enumerate_temporal_walks(program_net(net), 14, tk.Mode(mode), guard=10**12)
    alpha = 0.02  # walks longer than 14 weigh below the checked tolerance
    for function, f in (("katz", tk.resolvent(1.0, 1.0)), ("exponential", tk.exponential())):
        Q = weighted_walk_sum(oracle, f, alpha)
        referee.check_values(referee.total_communicability(net, alpha, function, mode), Q.sum(axis=1), "tc")
        referee.check_values(referee.subgraph_centrality(net, alpha, function, mode), np.diag(Q), "sc")


def test_katz_product_matches_edge_space():
    net = generate(NODE_SCAN, 3, 0)
    alpha = 0.5 * referee.alpha_bounds(net)[1]
    tc, sc = referee.katz_product(net, alpha)
    referee.check_values(referee.total_communicability(net, alpha, "katz", "standard"), tc, "tc")
    referee.check_values(referee.subgraph_centrality(net, alpha, "katz", "standard"), sc, "sc")


def test_radii_of_closed_form_spectra():
    star = np.array([(0, k) for k in range(1, 601)] + [(k, 0) for k in range(1, 601)])
    assert referee.spectral_radius(referee.adjacency(601, star)) == pytest.approx(math.sqrt(600), rel=1e-12)
    # Hashimoto matrix of a star is nilpotent: every walk must turn back at a leaf
    assert referee.spectral_radius(referee.hashimoto(601, star)) == 0.0
    cycle = np.array([(k, (k + 1) % 700) for k in range(700)])
    assert referee.spectral_radius(referee.hashimoto(700, cycle)) == pytest.approx(1.0, rel=1e-12)
    path = np.array([(k, k + 1) for k in range(5)])
    assert referee.spectral_radius(referee.adjacency(6, path)) == 0.0


def test_radii_match_dense_eigenvalues_on_both_sides_of_the_cutoff():
    net = networks(WORKLOADS["dense-snapshots"], 1)["edge"]
    for edges in net.snapshots:
        B = referee.hashimoto(net.n, edges)
        dense = np.max(np.abs(np.linalg.eigvals(B.toarray())))
        assert referee.spectral_radius(B) == pytest.approx(dense, rel=1e-9)
    assert {len(e) > referee.DENSE_MAX for e in net.snapshots} == {True, False}


def test_perturbed_outputs_are_rejected():
    net = generate(TINY[2], 1, 0)
    alpha = 0.5 * referee.alpha_bounds(net)[1]
    want = referee.total_communicability(net, alpha, "katz", "nbt-both")
    order = sorted(range(net.n), key=lambda i: (-want[i], i))
    distinct = sorted(set(want), reverse=True)
    rows = [f"{i},{float(want[i])!r},{distinct.index(want[i]) + 1}" for i in order]
    text = "# mode=nbt-both\nnode,value,rank\n" + "\n".join(rows) + "\n"
    referee.check_values(referee.parse_ranking(text, net.n), want, "unperturbed")
    with pytest.raises(referee.RefereeError):
        referee.check_values(referee.parse_ranking(text, net.n), want * (1 + 1e-7), "perturbed")
    swapped = text.replace(rows[0], "@").replace(rows[1], rows[0]).replace("@", rows[1])
    with pytest.raises(referee.RefereeError):
        referee.parse_ranking(swapped, net.n)

    bounds = referee.alpha_bounds(net)
    per, _, ell = bounds
    lines = [f"ell = {ell!r}"] + [
        f"snapshot {t}: rho = {r!r} lambda = {lam!r}" for t, (r, lam) in enumerate(per, start=1)
    ]
    referee.check_alpha_output("\n".join(lines), bounds, "nbt-both")
    with pytest.raises(referee.RefereeError):
        referee.check_alpha_output("\n".join([f"ell = {ell * (1 + 1e-5)!r}"] + lines[1:]), bounds, "nbt-both")
    with pytest.raises(referee.RefereeError):
        referee.check_validate(f"n = {net.n}\nN = {net.N}\nm = {net.m + 1}\nduplicates_collapsed = 0\n", net)


def test_generator_is_seeded_and_exact():
    shape = Shape(n=30, N=5, m_t=(40, 60), reciprocated=0.3)
    a, b = generate(shape, 9, 1), generate(shape, 9, 1)
    assert a.to_edgelist() == b.to_edgelist() != generate(shape, 10, 1).to_edgelist()
    for tau, edges in enumerate(a.snapshots):
        pairs = set(map(tuple, edges.tolist()))
        assert len(pairs) == len(edges) == shape.edges_in(tau)
        assert all(u != v for u, v in pairs)
        mutual = sum((v, u) in pairs for u, v in pairs)
        assert mutual == 2 * round(0.3 * len(edges) / 2)
