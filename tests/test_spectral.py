import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from hypothesis import given, settings
from hypothesis import strategies as st

import tempokatz as tk
from tempokatz import Mode, spectral
from tempokatz.spectral import RadiusEstimate

from conftest import TRIANGLE, dense_radius, networks, random_network


def directed_cycle(n):
    rows = np.arange(n)
    cols = (rows + 1) % n
    return sp.csr_array((np.ones(n), (rows, cols)), shape=(n, n))


def cubic_polynomial_min_root(A):
    """Smallest-modulus eigenvalue of I - A z + (D - I) z^2 + (A - S) z^3,
    through the companion linearization of the cubic matrix polynomial."""
    A = np.asarray(A.todense())
    n = A.shape[0]
    D = np.diag(np.diag(A @ A))
    S = A * A.T
    I = np.eye(n)
    Z = np.zeros((n, n))
    pencil = np.block([[Z, I, Z], [Z, Z, I], [-I, A, -(D - I)]])
    leading = scipy.linalg.block_diag(I, I, A - S)
    eigs = scipy.linalg.eig(pencil, leading, right=False)
    eigs = eigs[np.isfinite(eigs)]
    if eigs.size == 0:
        return math.inf
    return float(np.min(np.abs(eigs)))


def test_radius_directed_cycle():
    est = tk.spectral_radius(directed_cycle(5))
    assert est.converged
    assert est.value == pytest.approx(1.0, abs=1e-10)


def test_radius_nilpotent_worked_example(ex5):
    M = tk.global_transition(ex5, Mode.STANDARD)
    est = tk.spectral_radius(M)
    assert est.converged
    assert est.value == 0.0


def test_radius_triangle(triangle):
    est = tk.spectral_radius(tk.adjacency_matrix(triangle, 1))
    assert est.value == pytest.approx(2.0, abs=1e-8)


def test_radius_zero_and_empty():
    assert tk.spectral_radius(sp.csr_array((4, 4))).value == 0.0
    assert tk.spectral_radius(sp.csr_array((0, 0))).value == 0.0


def test_radius_rejects_non_square():
    with pytest.raises(ValueError):
        tk.spectral_radius(sp.csr_array((2, 3)))


def test_radius_matches_dense_oracle():
    rng = np.random.default_rng(20)
    for _ in range(10):
        net = random_network(rng)
        for tau in range(1, net.N + 1):
            A = tk.adjacency_matrix(net, tau)
            assert tk.spectral_radius(A).value == pytest.approx(
                dense_radius(A), abs=1e-8
            )


def test_flanders_identity():
    # line graph and adjacency matrix share their spectral radius
    rng = np.random.default_rng(21)
    for _ in range(10):
        net = random_network(rng, n=8, N=1, density=0.3)
        snap = net.snapshot(1)
        rho_w = tk.spectral_radius(tk.line_graph_matrix(snap, net.n)).value
        rho_a = tk.spectral_radius(tk.adjacency_matrix(net, 1)).value
        assert rho_w == pytest.approx(rho_a, abs=1e-8)


def test_deg_matrices_triangle(triangle):
    A = tk.adjacency_matrix(triangle, 1)
    D, S = tk.deg_matrices(A)
    np.testing.assert_array_equal(np.asarray(D.todense()), 2 * np.eye(3))
    np.testing.assert_array_equal(np.asarray(S.todense()), np.asarray(A.todense()))


def test_deg_matrices_directed_cycle():
    D, S = tk.deg_matrices(directed_cycle(4))
    assert D.nnz == 0
    assert S.nnz == 0


def test_deg_matrices_single_reciprocated_pair():
    net = tk.parse_temporal_edgelist("0 1 1\n1 0 1")
    D, S = tk.deg_matrices(tk.adjacency_matrix(net, 1))
    np.testing.assert_array_equal(np.asarray(D.todense()), np.eye(2))
    assert S.nnz == 2


def nbt_lambda(net):
    """1 / rho(B) of a one-snapshot network, +inf when B is nilpotent."""
    (est,) = spectral.snapshot_radii(net, hashimoto=True)
    assert est.converged
    return math.inf if est.value == 0.0 else 1.0 / est.value


def test_nbt_radius_triangle(triangle):
    assert nbt_lambda(triangle) == pytest.approx(1.0, abs=1e-8)


def test_nbt_radius_single_edge():
    net = tk.parse_temporal_edgelist("0 1 1")
    assert nbt_lambda(net) == math.inf


def test_nbt_radius_directed_cycle_no_reciprocals():
    net = tk.parse_temporal_edgelist("0 1 1\n1 2 1\n2 0 1")
    assert nbt_lambda(net) == pytest.approx(1.0, abs=1e-8)


def test_alpha_bound_nilpotent_standard(ex5):
    assert tk.alpha_bound(ex5, Mode.STANDARD).ell == math.inf


def test_alpha_bound_triangle_modes(triangle):
    assert tk.alpha_bound(triangle, Mode.STANDARD).ell == pytest.approx(0.5, abs=1e-8)
    assert tk.alpha_bound(triangle, Mode.NBT_BOTH).ell == pytest.approx(1.0, abs=1e-8)
    assert tk.alpha_bound(triangle, Mode.NBT_SPACE).ell == pytest.approx(1.0, abs=1e-8)


def test_alpha_bound_mixed_network():
    text = TRIANGLE + "0 1 2\n"
    net = tk.parse_temporal_edgelist(text)
    bound = tk.alpha_bound(net, Mode.STANDARD)
    assert bound.ell == pytest.approx(0.5, abs=1e-8)
    rho1, lam1 = bound.per_snapshot[0]
    rho2, lam2 = bound.per_snapshot[1]
    assert rho1 == pytest.approx(2.0, abs=1e-8)
    assert rho2 == 0.0
    assert lam2 == math.inf


def test_global_radius_equals_max_block_radius():
    rng = np.random.default_rng(22)
    for _ in range(5):
        net = random_network(rng, N=3)
        for mode in Mode:
            M = tk.global_transition(net, mode)
            blocks = [
                tk.hashimoto_matrix(s, net.n)
                if mode in (Mode.NBT_SPACE, Mode.NBT_BOTH)
                else tk.line_graph_matrix(s, net.n)
                for s in net.snapshots
            ]
            expected = max(tk.spectral_radius(b).value for b in blocks)
            assert tk.spectral_radius(M).value == pytest.approx(expected, abs=1e-8)


def test_nbt_radius_matches_cubic_polynomial():
    # the test-only companion-linearization route agrees with 1/rho(B)
    rng = np.random.default_rng(23)
    checked = 0
    while checked < 8:
        net = random_network(rng, n=6, N=1, density=0.35)
        lam = nbt_lambda(net)
        if not math.isfinite(lam):
            continue
        assert lam == pytest.approx(
            cubic_polynomial_min_root(tk.adjacency_matrix(net, 1)), abs=1e-6
        )
        checked += 1


NBT = (Mode.NBT_SPACE, Mode.NBT_BOTH)


def every_radius_bound(net, mode):
    """(ell, converged) from the radius of every snapshot of the mode's family."""
    radii = spectral.snapshot_radii(net, hashimoto=mode in NBT)
    rho = max(e.value for e in radii)
    return (math.inf if rho == 0.0 else 1.0 / rho), all(e.converged for e in radii)


def assert_bound_equal(net):
    for mode in Mode:
        assert spectral.mode_bound(net, mode) == every_radius_bound(net, mode), mode


def undirected(pairs, n):
    """One snapshot holding both directions of every pair."""
    lines = [f"%n {n}"] + [f"{u} {v} 1\n{v} {u} 1" for u, v in pairs]
    return tk.parse_temporal_edgelist("\n".join(lines))


STAR = undirected([(0, k) for k in range(1, 601)], 601)
K_20_30 = undirected([(u, v) for u in range(20) for v in range(20, 50)], 50)
CYCLE = undirected([(i, (i + 1) % 700) for i in range(700)], 700)


@pytest.mark.parametrize(
    "net, rho_a, rho_b",
    [
        (STAR, math.sqrt(600), 0.0),  # the star's Hashimoto matrix is nilpotent
        (K_20_30, math.sqrt(600), math.sqrt(19 * 29)),
        (CYCLE, 2.0, 1.0),
    ],
    ids=["star-K1,600", "K20,30", "cycle-700"],
)
def test_closed_form_radii_above_old_cutoff(net, rho_a, rho_b):
    A = tk.adjacency_matrix(net, 1)
    B = tk.hashimoto_matrix(net.snapshot(1), net.n)
    assert max(A.shape[0], B.shape[0]) > 512
    for matrix, rho in ((A, rho_a), (B, rho_b)):
        est = tk.spectral_radius(matrix)
        assert est.converged
        # an upper bound within the bracket tolerance: ell never exceeds 1 / rho
        assert rho <= est.value <= rho * (1 + 1e-9)
    lam_b = math.inf if rho_b == 0.0 else 1.0 / rho_b
    for mode in Mode:
        bound = tk.alpha_bound(net, mode)
        assert bound.per_snapshot[0][0] == pytest.approx(rho_a, rel=1e-9)
        assert bound.per_snapshot[0][1] == pytest.approx(lam_b, rel=1e-9)
        sup = lam_b if mode in (Mode.NBT_SPACE, Mode.NBT_BOTH) else 1.0 / rho_a
        assert bound.ell <= sup
        assert bound.ell == pytest.approx(sup, rel=1e-9)
        assert spectral.mode_bound(net, mode) == (bound.ell, True)


def test_radius_components_do_not_underflow():
    # an acyclic tail next to the star: its iterates must stay positive while
    # the star's bracket takes hundreds of iterations to close
    lines = [f"0 {k} 1\n{k} 0 1" for k in range(1, 601)]
    lines += [f"{k} {k + 1} 1" for k in range(601, 700)]
    net = tk.parse_temporal_edgelist("%n 701\n" + "\n".join(lines))
    est = tk.spectral_radius(tk.adjacency_matrix(net, 1))
    assert est.converged
    assert 0 < est.iterations < spectral.DEFAULT_MAXIT
    assert math.sqrt(600) <= est.value <= math.sqrt(600) * (1 + 1e-9)


def test_radius_dense_fallback_when_bracket_stays_open(monkeypatch):
    monkeypatch.setattr(spectral, "DEFAULT_MAXIT", 3)
    A = tk.adjacency_matrix(STAR, 1)
    est = tk.spectral_radius(A)
    assert est.converged
    assert est.iterations == 3
    assert est.value == pytest.approx(math.sqrt(600), rel=1e-12)


def test_radius_open_bracket_above_fallback_limit(monkeypatch):
    monkeypatch.setattr(spectral, "DENSE_FALLBACK_MAX", 600)
    monkeypatch.setattr(spectral, "DEFAULT_MAXIT", 3)
    est = tk.spectral_radius(tk.adjacency_matrix(STAR, 1))
    assert not est.converged
    assert est.value >= math.sqrt(600)
    (est,) = spectral.snapshot_radii(K_20_30, hashimoto=True)
    assert est.converged is False
    assert est.value >= math.sqrt(19 * 29)


# --- mode_bound against the radius of every snapshot ------------------------


def network(n, *snapshots):
    """A network of the given edge sets, one snapshot each."""
    snaps = tuple(tk.Snapshot(tau, tuple(edges)) for tau, edges in enumerate(snapshots, 1))
    return tk.TemporalNetwork(n, snaps, tuple(range(len(snaps))))


def both_ways(pairs):
    return [e for u, v in pairs for e in ((u, v), (v, u))]


@given(networks())
@settings(max_examples=150, deadline=None)
def test_mode_bound_equals_every_radius_property(net):
    assert_bound_equal(net)


def test_mode_bound_empty_and_acyclic_snapshots(ex5):
    empty = network(3, [], [], [])
    dag = network(4, [(0, 1), (1, 2), (0, 2)], [], [(3, 0), (2, 3)])
    for net in (ex5, empty, dag):
        assert_bound_equal(net)
        assert all(spectral.mode_bound(net, mode) == (math.inf, True) for mode in Mode)
    # one 2-cycle: rho(A) = 1, while its Hashimoto matrix is nilpotent
    mixed = network(4, [], [(0, 1), (1, 0)], [(1, 2)])
    assert_bound_equal(mixed)
    assert spectral.mode_bound(mixed, Mode.STANDARD) == (1.0, True)
    assert spectral.mode_bound(mixed, Mode.NBT_SPACE) == (math.inf, True)


def chain_of_two_cycles(k, perm):
    """k 2-cycles joined in a row by single edges: rho(A) = 1, defective for
    k > 1, so dense eigenvalues may put it above 1 (by 5.8e-5 for one k = 4
    labelling); the nodes are relabelled by ``perm``."""
    edges = both_ways((2 * i, 2 * i + 1) for i in range(k))
    edges += [(2 * i - 1, 2 * i) for i in range(1, k)]
    return [(int(perm[u]), int(perm[v])) for u, v in edges]


def test_mode_bound_defective_radius_next_to_equal_radii():
    n = 9
    rng = np.random.default_rng(24)
    snapshots = [chain_of_two_cycles(2, np.arange(n))]
    # a directed 5-cycle, radius exactly 1, and relabelled chains whose dense
    # radii come out as 1 or up to ~2e-6 above it
    snapshots.append([(i, (i + 1) % 5) for i in range(5)])
    snapshots += [chain_of_two_cycles(k, rng.permutation(n)) for k in (2, 3, 4) for _ in range(5)]
    net = network(n, *snapshots)
    radii = [e.value for e in spectral.snapshot_radii(net, hashimoto=False)]
    assert all(abs(r - 1.0) < 1e-4 for r in radii)
    assert len(set(radii)) > 1  # the dense values differ, so the order matters
    assert_bound_equal(net)


def recorded_radii(monkeypatch):
    """The 0-based snapshots that get a radius from _block_radius, in call
    order, recorded while ``monkeypatch`` is active."""
    calls, block_radius = [], spectral._block_radius

    def recorded(net, t, hashimoto):
        calls.append(int(t))
        return block_radius(net, t, hashimoto)

    monkeypatch.setattr(spectral, "_block_radius", recorded)
    return calls


def test_mode_bound_blocks_both_sides_of_the_direct_cutoff(monkeypatch):
    # B of K20,30 has 1200 rows and the largest radius, sqrt(19 * 29); the
    # undirected 700-cycle's has 1400 rows and the smallest, 1.  A has 700
    # rows, and its largest radius is sqrt(600) with K20,30, else K6's 5
    k6 = both_ways((u, v) for u in range(6) for v in range(u + 1, 6))  # rho(B) = 4
    k20_30 = both_ways((u, v) for u in range(20) for v in range(20, 50))
    cycle = both_ways((i, (i + 1) % 700) for i in range(700))
    for big, holders in ((k20_30, [1]), (cycle, [0, 3])):
        net = network(700, k6, big, [(0, 1), (1, 2), (2, 0)], k6)
        hashimoto_rows = [s.m for s in net.snapshots]
        assert max(hashimoto_rows) > spectral.DENSE_DIRECT_MAX >= min(hashimoto_rows)
        expected = {mode: every_radius_bound(net, mode) for mode in Mode}
        with monkeypatch.context() as patch:
            calls = recorded_radii(patch)
            for mode in Mode:
                calls.clear()
                assert spectral.mode_bound(net, mode) == expected[mode], mode
                # the stacked bracket proves every other block smaller: the
                # block with the largest bound, then the others that tie
                assert sorted(calls) == holders, mode


def seeded_network(n, N, seed, wide_every=0):
    """N snapshots of about m_t = n random directed edges, or 3 n on every
    ``wide_every``-th snapshot; an eighth of the draws add both directions."""
    rng = np.random.default_rng(seed)
    snapshots = []
    for tau in range(N):
        m = 3 * n if wide_every and tau % wide_every == 0 else n
        edges = set()
        while len(edges) < m:
            u, v = (int(x) for x in rng.choice(n, 2, replace=False))
            edges.update([(u, v), (v, u)] if rng.random() < 0.125 else [(u, v)])
        snapshots.append(sorted(edges))
    return network(n, *snapshots)


def test_mode_bound_takes_few_radii(monkeypatch):
    net = seeded_network(100, 160, seed=25, wide_every=40)
    expected = {mode: every_radius_bound(net, mode) for mode in (Mode.STANDARD, Mode.NBT_SPACE)}
    stacked, stack = [], spectral._stack

    def recorded_stack(net, taus, hashimoto):
        stacked.append([(t, net.snapshots[t].m if hashimoto else net.n) for t in taus])
        return stack(net, taus, hashimoto)

    monkeypatch.setattr(spectral, "_stack", recorded_stack)
    monkeypatch.setattr(spectral, "STACK_ROWS", 2000)
    calls = recorded_radii(monkeypatch)
    for mode, bound in expected.items():
        calls.clear()
        assert spectral.mode_bound(net, mode) == bound
        # a few of the 160 snapshots get a radius, not all of them
        assert 1 <= len(calls) <= 12, (mode, calls)
    # every block was stacked once per family, in stacks of at most 2000
    # rows plus one block
    for blocks in stacked:
        dims = [dim for _, dim in blocks]
        assert sum(dims) <= 2000 + max(dims)
    taus = sorted(t for blocks in stacked for t, _ in blocks)
    assert taus == sorted(list(range(net.N)) * 2)


def test_snapshot_radii_equal_each_block_radius(monkeypatch):
    # per family: the snapshots without a cycle, whose radius is exactly 0.0
    rng = np.random.default_rng(3)
    dag = {(int(u), int(v)) for u, v in rng.integers(0, 20, (80, 2)) if u < v}
    k22 = both_ways((u, v) for u in range(22) for v in range(u + 1, 22))  # B has 462 rows
    cyclic = {(int(u), int(v)) for u, v in rng.integers(0, 30, (60, 2)) if u != v}
    snapshots = (dag, [(0, 1), (1, 2), (2, 0)], [(3, 4), (4, 3)], [], k22, cyclic)
    acyclic = {False: {0, 3}, True: {0, 2, 3}}
    sides = set()
    for n in (30, 250):  # A on both sides of DENSE_DIRECT_MAX
        net = network(n, *snapshots)
        for hashimoto in (False, True):
            dims = [s.m if hashimoto else n for s in net.snapshots]
            calls, eigvals = [], np.linalg.eigvals
            with monkeypatch.context() as patch:
                patch.setattr(np.linalg, "eigvals", lambda a: calls.append(len(a)) or eigvals(a))
                got = spectral.snapshot_radii(net, hashimoto)
            want = [
                spectral.spectral_radius(
                    tk.hashimoto_matrix(s, n) if hashimoto else tk.adjacency_matrix(net, s.tau)
                )
                for s in net.snapshots
            ]
            assert got == want
            np.testing.assert_array_equal(
                np.array([e.value for e in got]).view(np.int64),
                np.array([e.value for e in want]).view(np.int64),
            )
            assert all(got[t].value == 0.0 for t in acyclic[hashimoto])
            small = [t for t, d in enumerate(dims) if d <= spectral.DENSE_DIRECT_MAX]
            assert sorted(calls) == sorted(dims[t] for t in small if t not in acyclic[hashimoto])
            sides |= {d > spectral.DENSE_DIRECT_MAX for d in dims}
    assert sides == {False, True}


def cyclic_by_components(net, hashimoto):
    """Referee of the peel: the 0-based snapshots whose block has an edge
    inside one of its strongly connected components."""
    found = set()
    for t, snap in enumerate(net.snapshots):
        block = tk.hashimoto_matrix(snap, net.n) if hashimoto else tk.adjacency_matrix(net, t + 1)
        coo = sp.coo_array(block)
        _, labels = connected_components(coo, directed=True, connection="strong")
        if np.any(labels[coo.row] == labels[coo.col]):
            found.add(t)
    return found


@given(networks(), st.sampled_from([1, 5, spectral.STACK_ROWS]))
@settings(max_examples=150, deadline=None)
def test_peel_finds_the_blocks_with_a_cycle_property(net, stack_rows):
    # small stacks split the snapshots into several groups
    with mock.patch.object(spectral, "STACK_ROWS", stack_rows):
        for hashimoto in (False, True):
            stacks = spectral._stacks(net, hashimoto)
            got = {int(t) for owner, *stack in stacks for t in owner[spectral._peel(*stack)]}
            assert got == cyclic_by_components(net, hashimoto)


def counted_peel(net, hashimoto, monkeypatch):
    """(kept, rounds): the rows that the peel keeps of the one-snapshot
    ``net``, and the rounds it takes, one range of out-edges each."""
    rows, cols, dim = spectral._stack(net, np.arange(1), hashimoto)
    rounds, ranges = [], spectral._ranges
    with monkeypatch.context() as patch:
        patch.setattr(spectral, "_ranges", lambda *a: rounds.append(1) or ranges(*a))
        kept = spectral._peel(rows, cols, dim)
    return kept, len(rounds)


def peel_rounds(net, hashimoto, monkeypatch):
    """(cyclic, rounds): whether the peel finds a cycle in the one-snapshot
    ``net``, and the rounds it takes."""
    kept, rounds = counted_peel(net, hashimoto, monkeypatch)
    cyclic = bool(kept.any())
    assert cyclic == bool(cyclic_by_components(net, hashimoto))
    return cyclic, rounds


def test_peel_named_cases(monkeypatch):
    path = [(i, i + 1) for i in range(199)]
    # a 200-node directed path: each round frees the next node
    assert peel_rounds(network(200, path), False, monkeypatch) == (False, 200)
    assert peel_rounds(network(200, path), True, monkeypatch) == (False, 199)
    # closed by one edge: a 200-cycle, which no round can start on
    assert peel_rounds(network(200, path + [(199, 0)]), False, monkeypatch) == (True, 0)
    assert peel_rounds(network(200, path + [(199, 0)]), True, monkeypatch) == (True, 0)
    # a path that feeds a 2-cycle: the cycle survives in A, and B has none
    feeds = path[:9] + [(9, 10), (10, 9)]
    assert peel_rounds(network(11, feeds), False, monkeypatch) == (True, 9)
    assert peel_rounds(network(11, feeds), True, monkeypatch)[0] is False
    # reciprocated pairs only, on a tree (a star and a path): A has 2-cycles,
    # and non-backtracking walks on a tree end, so B is acyclic
    tree = both_ways([(0, 1), (0, 2), (0, 3), (3, 4), (4, 5)])
    assert peel_rounds(network(6, tree), False, monkeypatch)[0] is True
    assert peel_rounds(network(6, tree), True, monkeypatch)[0] is False


def test_peel_stops_after_the_direct_cutoff_rounds(monkeypatch):
    # a 300- and a 999-edge path, beside an undirected triangle (rho(A) = 2,
    # rho(B) = 1); mode_bound brackets the rows that the peel keeps of either
    # path, and takes the radius of its B, whose bound reaches the triangle's
    for length in (300, 999):
        n, path = length + 1, [(i, i + 1) for i in range(length)]
        for hashimoto in (False, True):
            kept, rounds = counted_peel(network(n, path), hashimoto, monkeypatch)
            # each round frees the next row; the rows past the last round stay
            assert rounds == spectral.DENSE_DIRECT_MAX
            dim = length if hashimoto else n
            np.testing.assert_array_equal(
                np.flatnonzero(kept), np.arange(spectral.DENSE_DIRECT_MAX + 1, dim)
            )
        alone, beside = network(n, path), network(n, path, both_ways([(0, 1), (1, 2), (2, 0)]))
        zero = RadiusEstimate(0.0, True, 0)
        for hashimoto, rho in ((False, 2.0), (True, 1.0)):
            assert spectral.snapshot_radii(alone, hashimoto) == [zero]
            path_radius, triangle_radius = spectral.snapshot_radii(beside, hashimoto)
            assert path_radius == zero
            assert triangle_radius.converged
            assert triangle_radius.value == pytest.approx(rho, rel=1e-9)
        for mode in Mode:
            assert spectral.mode_bound(alone, mode) == (math.inf, True)
            assert tk.alpha_bound(alone, mode).per_snapshot == ((0.0, math.inf),)
            assert spectral.mode_bound(beside, mode) == every_radius_bound(beside, mode)
            bound = tk.alpha_bound(beside, mode)
            assert bound.per_snapshot[0] == (0.0, math.inf)
            assert bound.per_snapshot[1] == pytest.approx((2.0, 1.0), rel=1e-9)


def test_snapshot_radii_peel_an_acyclic_block_above_the_cutoff(monkeypatch):
    net = network(300, [(0, 1), (0, 2), (1, 2), (2, 3), (1, 3)])
    calls = recorded_radii(monkeypatch)
    for hashimoto in (False, True):
        assert spectral.snapshot_radii(net, hashimoto) == [RadiusEstimate(0.0, True, 0)]
    assert calls == []


# --- strongly connected components on numpy ---------------------------------


def falling_chain(k):
    """k reciprocated pairs on 2k rows, joined in a row by one-way edges, the
    row numbers falling downstream."""
    top = 2 * k - 1
    pairs = both_ways((top - 2 * i, top - 2 * i - 1) for i in range(k))
    return pairs + [(top - 2 * i - 1, top - 2 * i - 2) for i in range(k - 1)]


def falling_path(n):
    return [(i + 1, i) for i in range(n - 1)]


def entries(edges):
    """(rows, cols) of the edge list, in row order."""
    e = np.array(sorted(edges), dtype=np.int64).reshape(-1, 2)
    return e[:, 0], e[:, 1]


@st.composite
def digraphs(draw):
    """(rows, cols, dim): random entries, self-loops and rows without entries
    among them, or a falling chain of pairs or a falling path, its rows
    renumbered or not, in a graph with rows to spare."""
    dim = draw(st.integers(2, 60))
    kind = draw(st.sampled_from(["random", "chain", "path"]))
    if kind == "random":
        node = st.integers(0, dim - 1)
        edges = draw(st.lists(st.tuples(node, node), max_size=3 * dim))
    else:
        size = draw(st.integers(1, dim // 2 if kind == "chain" else dim))
        edges = falling_chain(size) if kind == "chain" else falling_path(size)
        perm = draw(st.permutations(range(dim)) | st.just(list(range(dim))))
        edges = [(perm[u], perm[v]) for u, v in edges]
    return (*entries(edges), dim)


def scipy_components(rows, cols, dim):
    coo = sp.coo_array((np.ones(len(rows)), (rows, cols)), shape=(dim, dim))
    return connected_components(coo, directed=True, connection="strong")[1]


def same_partition(a, b):
    pairs = set(zip(a.tolist(), b.tolist()))
    return len(pairs) == len(set(a.tolist())) == len(set(b.tolist()))


@given(digraphs(), st.sampled_from([0, 1, 3, spectral.COLOUR_PASSES]))
@settings(max_examples=300, deadline=None)
def test_components_equal_scipy_property(graph, passes):
    # a small cap leaves the depth-first search some or all of the rows
    rows, cols, dim = graph
    with mock.patch.object(spectral, "COLOUR_PASSES", passes):
        labels = spectral._components(rows, cols, dim)
    assert same_partition(labels, scipy_components(rows, cols, dim))


def counted_components(rows, cols, dim, monkeypatch):
    """(labels, passes, searched): :func:`spectral._components` of the graph,
    the passes its colouring takes in all, and the number of entries of each
    depth-first search."""
    passes, searched = [], []
    spread, depth_first = spectral._spread, spectral._depth_first

    def counted_spread(values, src, tgt, budget):
        left = spread(values, src, tgt, budget)
        passes.append(max(budget, 0) - max(left, 0))
        return left

    def counted_depth_first(rows, cols, labels):
        searched.append(len(rows))
        return depth_first(rows, cols, labels)

    with monkeypatch.context() as patch:
        patch.setattr(spectral, "_spread", counted_spread)
        patch.setattr(spectral, "_depth_first", counted_depth_first)
        labels = spectral._components(rows, cols, dim)
    return labels, sum(passes), searched


def test_components_passes_are_bounded(monkeypatch):
    # uncapped, the colouring takes 251,500 passes on the chain and 501,498 on
    # the path: each round finds only the top component.  Capped, it takes
    # COLOUR_PASSES and one depth-first search over at most every entry
    for edges in (falling_chain(500), falling_path(1000)):
        rows, cols = entries(edges)
        labels, passes, searched = counted_components(rows, cols, 1000, monkeypatch)
        assert same_partition(labels, scipy_components(rows, cols, 1000))
        assert passes == spectral.COLOUR_PASSES
        assert len(searched) == 1 and searched[0] <= len(rows)
    # 500 disjoint pairs: one round of two passes each way, and no search
    rows, cols = entries(both_ways((2 * i, 2 * i + 1) for i in range(500)))
    labels, passes, searched = counted_components(rows, cols, 1000, monkeypatch)
    assert same_partition(labels, scipy_components(rows, cols, 1000))
    assert (passes, searched) == (4, [])


def test_radius_counts_a_weighted_self_loop():
    # a 250-cycle, and a self-loop of weight 2.5 on a row of its own
    cycle = directed_cycle(250).tocoo()
    rows, cols = np.append(cycle.row, 260), np.append(cycle.col, 260)
    A = sp.csr_array((np.append(cycle.data, 2.5), (rows, cols)), shape=(300, 300))
    assert tk.spectral_radius(A) == RadiusEstimate(2.5, True, 1)


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("seed", [1, 3, 7])
def test_mode_bound_on_the_benchmark_networks(seed, monkeypatch):
    # seed-1 `long-horizon` `node` snapshot 73 has a defective radius of 1
    # that dense eigenvalues put above 1, and the `scan` networks tie
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    nets = [
        tk.parse_temporal_edgelist(net.to_edgelist())
        for workload in workloads.WORKLOADS.values()
        for net in workloads.networks(workload, seed).values()
    ]
    expected = [{mode: every_radius_bound(net, mode) for mode in Mode} for net in nets]
    calls = recorded_radii(monkeypatch)
    for net, bounds in zip(nets, expected):
        for mode in Mode:
            calls.clear()
            assert spectral.mode_bound(net, mode) == bounds[mode], mode
            assert len(set(calls)) == len(calls), mode  # no block twice
