import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tempokatz as tk
from tempokatz import ParseError, ParseReport, Snapshot, TemporalNetwork, ValidationError, oracle
from tempokatz.temporal_graph import _starts

from conftest import FIG_NETWORK, random_network


def test_parse_simple():
    net = tk.parse_temporal_edgelist("0 1 1\n1 2 1\n2 3 2")
    assert net.n == 4
    assert net.N == 2
    assert [s.m for s in net.snapshots] == [2, 1]


def test_parse_fig_network():
    net = tk.parse_temporal_edgelist(FIG_NETWORK)
    assert (net.n, net.N, net.m) == (4, 3, 7)
    # 1-based paper labels shifted down by one
    assert net.snapshot(1).edges == ((0, 1), (1, 2), (3, 0))
    assert net.snapshot(2).edges == ((2, 1), (2, 3))
    assert net.snapshot(3).edges == ((0, 3), (3, 0))


def test_parse_self_loop_rejected():
    with pytest.raises(ValidationError):
        tk.parse_temporal_edgelist("0 0 1")


def test_parse_negative_id_rejected():
    with pytest.raises(ValidationError):
        tk.parse_temporal_edgelist("-1 2 1")


def test_parse_malformed_line_reports_lineno():
    with pytest.raises(ParseError, match="line 2"):
        tk.parse_temporal_edgelist("0 1 1\n0 1\n")


def test_parse_non_integer_field():
    with pytest.raises(ParseError):
        tk.parse_temporal_edgelist("0 1 x")


def test_parse_empty_input():
    with pytest.raises(ParseError):
        tk.parse_temporal_edgelist("# nothing here\n")


def test_parse_header_overrides_n():
    net = tk.parse_temporal_edgelist("%n 10\n0 1 1")
    assert net.n == 10


def test_parse_duplicates_collapse():
    report = ParseReport()
    net = tk.parse_temporal_edgelist("0 1 1\n0 1 1\n0 1 2", report=report)
    assert net.m == 2
    assert report.duplicates_collapsed == 1


def test_parse_comments_and_crlf():
    net = tk.parse_temporal_edgelist("# header\r\n0 1 1 # trailing\r\n1 2 1\r\n")
    assert net.n == 3
    assert net.snapshot(1).m == 2


def test_timestamps_sorted_ascending():
    net = tk.parse_temporal_edgelist("0 1 5\n1 2 -3\n2 0 4")
    assert net.timestamps == (-3, 4, 5)
    assert net.snapshot(1).edges == ((1, 2),)


def test_round_trip():
    rng = np.random.default_rng(0)
    for _ in range(10):
        net = random_network(rng)
        assert tk.parse_temporal_edgelist(tk.to_edgelist(net)) == net


@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 3)),
                min_size=1, max_size=30))
@settings(max_examples=50, deadline=None)
def test_round_trip_hypothesis(triples):
    lines = [f"{u} {v} {t}" for u, v, t in triples if u != v]
    if not lines:
        return
    net = tk.parse_temporal_edgelist("\n".join(lines))
    assert tk.parse_temporal_edgelist(tk.to_edgelist(net)) == net


def test_network_invariants():
    with pytest.raises(ValidationError):
        TemporalNetwork(n=2, snapshots=(), timestamps=())
    with pytest.raises(ValidationError):
        TemporalNetwork(
            n=2,
            snapshots=(Snapshot(1, ((0, 1),)), Snapshot(2, ((1, 0),))),
            timestamps=(3, 3),
        )
    with pytest.raises(ValidationError):
        TemporalNetwork(n=2, snapshots=(Snapshot(1, ((0, 5),)),), timestamps=(1,))


def test_network_needs_one_timestamp_per_snapshot():
    snapshots = (Snapshot(1, ((0, 1),)), Snapshot(2, ((1, 0),)))
    with pytest.raises(ValidationError, match="timestamps and snapshots must have equal length"):
        TemporalNetwork(n=2, snapshots=snapshots, timestamps=(1,))


def test_adjacency_zero_one_with_zero_diagonal():
    rng = np.random.default_rng(1)
    for _ in range(5):
        net = random_network(rng)
        for tau in range(1, net.N + 1):
            A = np.asarray(tk.adjacency_matrix(net, tau).todense())
            assert set(np.unique(A)) <= {0.0, 1.0}
            assert not A.diagonal().any()
            assert tk.adjacency_matrix(net, tau).nnz == net.snapshot(tau).m


def test_adjacency_single_edge():
    net = tk.parse_temporal_edgelist("%n 4\n0 1 1")
    A = np.asarray(tk.adjacency_matrix(net, 1).todense())
    expect = np.zeros((4, 4))
    expect[0, 1] = 1.0
    np.testing.assert_array_equal(A, expect)


def test_adjacency_empty_snapshot():
    net = TemporalNetwork(n=3, snapshots=(Snapshot(1, ()),), timestamps=(0,))
    assert tk.adjacency_matrix(net, 1).nnz == 0
    assert tk.adjacency_matrix(net, 1).shape == (3, 3)


def test_adjacency_fig_t1_nonzeros():
    net = tk.parse_temporal_edgelist(FIG_NETWORK)
    A = tk.adjacency_matrix(net, 1).tocoo()
    assert set(zip(A.coords[0], A.coords[1])) == {(3, 0), (0, 1), (1, 2)}


def test_adjacency_tau_out_of_range():
    net = tk.parse_temporal_edgelist("0 1 1")
    with pytest.raises(IndexError):
        tk.adjacency_matrix(net, 0)
    with pytest.raises(IndexError):
        tk.adjacency_matrix(net, 2)


def outcome(text, parse, as_file):
    """(network, report) from ``parse``, or the error's class, message and
    line number."""
    report = ParseReport()
    try:
        return parse(io.StringIO(text) if as_file else text, report), report
    except (ParseError, ValidationError) as exc:
        return type(exc), str(exc), getattr(exc, "lineno", None)


def brute_reversals(snap):
    return [snap.edges.index((v, u)) if (v, u) in snap.edges else -1 for u, v in snap.edges]


#: node ids and timestamps; 2**40 and 2**62 make keys too wide for one int64
IDS = st.sampled_from([0, 1, 2, 3, 4, 5, 9, 2**40, 2**62])
TIMES = st.sampled_from([-3, 0, 1, 2, 7, 10**18, -(2**63), 2**63 - 1])


MALFORMED = [
    "1 2", "1 2 3 4", "1 x 2", "1.0 2 3", "0x1 2 3", "1 2 3_", "-1 2 3", "2 -3 1",
    "2 2 1", "+2 0002 1", "%n", "%n x", "%n 0", "%n -2", "%n 1 2", "%n 1", "%nn 3",
    "%n 9223372036854775808", "%n 99999999999999999999", "%n -99999999999999999999",
    "99999999999999999999 1 2", "1 2 -9223372036854775809", "1 2 9223372036854775808",
    "1 2 99999999999999999999 # c", "1 x 99999999999999999999", "\x00 1 2", "\ufeff0 1 1",
]


@st.composite
def spelled(draw, value):
    """``value`` as Python's int() reads it: plain, signed, zero-padded or
    with underscores."""
    text = str(value)
    kind = draw(st.sampled_from(["plain", "plain", "plus", "zeros", "underscore"]))
    if kind == "plus" and value >= 0:
        return "+" + text
    if kind == "zeros":
        return text.replace(str(abs(value)), "00" + str(abs(value)))
    if kind == "underscore":
        return f"{value:_}"
    return text


@st.composite
def edge_lists(draw):
    """Edge-list text: edge lines spelled many ways, comments, blank lines,
    %n headers anywhere and duplicates, with at most one malformed line."""
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["edge"] * 6 + ["dup", "comment", "blank", "header"]))
        if kind == "edge" or (kind == "dup" and not lines):
            u, v = draw(IDS), draw(IDS)
            fields = [draw(spelled(u)), draw(spelled(v if v != u else u + 1)), draw(spelled(draw(TIMES)))]
            sep = draw(st.sampled_from([" ", "\t", "  ", " \t "]))
            line = draw(st.sampled_from(["", " "])) + sep.join(fields) + draw(st.sampled_from(["", " ", " # c"]))
        elif kind == "dup":
            line = draw(st.sampled_from(lines))
        elif kind == "comment":
            line = draw(st.sampled_from(["# note", "#", "  # 1 2 3", "#%n 1"]))
        elif kind == "blank":
            line = draw(st.sampled_from(["", "  ", "\t"]))
        else:
            line = draw(st.sampled_from(["%n 8", "%n 20", "%n+9", "%n\t007", " %n 4611686018427387906"]))
        lines.append(line)
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(MALFORMED)))
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    return ending.join(lines) + draw(st.sampled_from(["", ending]))


@given(st.integers(1, 30), st.lists(st.integers(0, 10**6), max_size=60))
@settings(deadline=None)
def test_starts_are_the_cumulative_key_counts(size, draws):
    # the row pointer of sorted keys 0..size-1, as bincount and cumsum give it
    keys = np.sort(np.array(draws, dtype=np.int64) % size)
    want = np.zeros(size + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=size), out=want[1:])
    got = _starts(keys, size)
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(_starts(keys[:0], 0), [0])


@given(edge_lists(), st.booleans())
@settings(max_examples=300, deadline=None)
def test_parser_matches_referee(text, as_file):
    got, want = outcome(text, tk.parse_temporal_edgelist, as_file), outcome(text, oracle.reference_parse, as_file)
    assert got == want
    if isinstance(got[0], TemporalNetwork):
        (net, _), (ref, _) = got, want
        for mine, theirs in [(net.arrays, ref.arrays)] + [(a.arrays, b.arrays) for a, b in zip(net.snapshots, ref.snapshots)]:
            for a, b in zip(mine, theirs):
                np.testing.assert_array_equal(a, b)
        for snap in net.snapshots:
            assert snap.arrays.rev.tolist() == brute_reversals(snap)


@pytest.mark.parametrize("bad", MALFORMED + [""])
def test_parser_matches_referee_on_each_malformed_line(bad):
    for text in (bad, f"0 1 1\n{bad}\n1 2 1\n", f"%n 3\r\n# c\r\n{bad} # c\r\n"):
        got = outcome(text, tk.parse_temporal_edgelist, False)
        assert got == outcome(text, oracle.reference_parse, False)
        assert isinstance(got[0], type) or not bad


@pytest.mark.parametrize(
    "text", ["0\xa01\u20031\n", "\u0663 1 2\n1 0 \u0662", "0 1 2\u3000\n# \xe9\n2 0 \uff11\n"]
)
def test_parser_reads_unicode_spaces_and_digits_as_python_does(text):
    got = outcome(text, tk.parse_temporal_edgelist, False)
    assert isinstance(got[0], TemporalNetwork)
    assert got == outcome(text, oracle.reference_parse, False)


def test_parser_reports_the_first_offending_line():
    text = "0 1 1\n%n 2\n1 1 2\n0 x 3\n"
    with pytest.raises(ValidationError, match=r"^line 3: self-loop 1->1$"):
        tk.parse_temporal_edgelist(text)
    with pytest.raises(ValidationError, match="exceeds node count n=2"):
        tk.parse_temporal_edgelist("0 1 1\n%n 2\n1 2 2\n")


def test_fields_beyond_int64_are_rejected():
    with pytest.raises(ParseError, match="int64") as err:
        tk.parse_temporal_edgelist("0 1 1\n0 1 99999999999999999999\n")
    assert err.value.lineno == 2
    net = tk.parse_temporal_edgelist(f"0 1 {2**63 - 1}\n1 0 {-(2**63)}\n")
    assert net.timestamps == (-(2**63), 2**63 - 1)


def test_wide_node_ids_sort_and_pair():
    big = 2**62
    net = tk.parse_temporal_edgelist(f"{big} 3 1\n3 {big} 1\n3 5 1\n5 3 2\n")
    assert net.n == big + 1
    assert net.snapshot(1).edges == ((3, 5), (3, big), (big, 3))
    assert net.snapshot(1).arrays.rev.tolist() == [-1, 2, 1]
    assert Snapshot(1, ((big, 3), (3, 5), (3, big))) == net.snapshot(1)
