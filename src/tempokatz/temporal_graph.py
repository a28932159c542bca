"""Temporal networks: parsing, validation, per-snapshot adjacency matrices.

A temporal network is an ordered sequence of unweighted directed graphs
(snapshots) on a fixed node set.  Node ids are 0-based.  Timestamps are
arbitrary strictly increasing integers; only their order matters, and
snapshots are addressed by their 1-based ordinal ``tau``.

The parser reads the whole input at once into global int64 edge arrays
(``TemporalNetwork.arrays``): sources and targets sorted by (snapshot,
source, target), and the index of each edge's reversal in its snapshot.  Each ``Snapshot.arrays``
is a slice of them, and ``Snapshot.edges`` derives tuples for the oracle and
the tests.  Every matrix of the package (A_t, W_t, B_t, M and the node-level
Katz systems) is built from the arrays directly in compressed sparse form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp


class ParseError(ValueError):
    """Malformed edge-list input; carries the offending line number."""

    def __init__(self, message, lineno=None):
        if lineno is not None:
            message = f"line {lineno}: {message}"
        super().__init__(message)
        self.lineno = lineno


class ValidationError(ValueError):
    """Structurally invalid network data (self-loop, bad node id, ...)."""


class EdgeArrays(NamedTuple):
    """Edges as int64 arrays, sorted by (snapshot, source, target)."""

    src: np.ndarray
    tgt: np.ndarray
    #: index of the edge (tgt, src) in the same snapshot, or -1
    rev: np.ndarray


def _index_edges(sid, src, tgt):
    """(keep, rev) of the (snapshot, source, target) triples: ``keep`` indexes
    the first occurrence of each distinct one in sorted order, and ``rev[i]``
    is the position in that order of the reversal of the i-th, or -1."""
    m, base = len(src), int(max(src.max(initial=0), tgt.max(initial=0))) + 1
    if (int(sid.max(initial=0)) + 1) * base * base < 2**63:
        fwd, bwd, span = src * base + tgt, tgt * base + src, base * base
    else:  # too wide for one int64 key: number the nodes, then the pairs
        node = np.unique(np.concatenate((src, tgt)), return_inverse=True)[1]
        fwd, bwd = node[:m] * 2 * m + node[m:], node[m:] * 2 * m + node[:m]
        pair = np.unique(np.concatenate((fwd, bwd)), return_inverse=True)[1]
        fwd, bwd, span = pair[:m], pair[m:], 2 * m
    keys, keep = np.unique(sid * span + fwd, return_index=True)
    reversed_key = sid[keep] * span + bwd[keep]
    pos = np.searchsorted(keys, reversed_key)
    return keep, np.where(np.append(keys, -1)[pos] == reversed_key, pos, -1)


def sorted_csr(rows, cols, data, shape):
    """CSR array of entries already sorted by (row, column), without duplicates."""
    indptr = np.zeros(shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=shape[0]), out=indptr[1:])
    return sp.csr_array((data, cols, indptr), shape=shape)


def _compile(tau, edges):
    """EdgeArrays of snapshot ``tau``'s (source, target) pairs, validated."""
    pairs = np.array(edges, dtype=np.int64).reshape(-1, 2)
    src, tgt = pairs[:, 0], pairs[:, 1]
    bad = np.flatnonzero((src == tgt) | (src < 0) | (tgt < 0))
    if len(bad):
        u, v = pairs[bad[0]].tolist()
        loop = f"self-loop {u}->{v} in snapshot {tau}"
        raise ValidationError(loop if u == v else f"negative node id in edge {u}->{v}")
    keep, rev = _index_edges(np.zeros_like(src), src, tgt)
    if len(keep) < len(src):
        raise ValidationError(f"duplicate edges in snapshot {tau}")
    return EdgeArrays(src[keep], tgt[keep], rev)


class Snapshot:
    """One time layer: its directed edges as :class:`EdgeArrays`, sorted by
    (source, target).  ``Snapshot(tau, edges)`` validates and sorts (source,
    target) pairs; the parser passes ``arrays``, slices of the network's."""

    def __init__(self, tau, edges=(), arrays=None):
        self.tau, self.arrays = tau, _compile(tau, edges) if arrays is None else arrays

    @property
    def m(self):
        return len(self.arrays.src)

    @cached_property
    def edges(self):
        """The edges as (source, target) tuples, in (source, target) order."""
        return tuple(zip(self.arrays.src.tolist(), self.arrays.tgt.tolist()))

    def __eq__(self, other):
        return isinstance(other, Snapshot) and (self.tau, self.edges) == (other.tau, other.edges)

    def __hash__(self):
        return hash((self.tau, self.edges))

    def __repr__(self):
        return f"Snapshot(tau={self.tau!r}, edges={self.edges!r})"


@dataclass(frozen=True)
class TemporalNetwork:
    """Fixed node set of size ``n`` observed at ``N`` increasing timestamps."""

    n: int
    snapshots: tuple[Snapshot, ...]
    timestamps: tuple[int, ...]
    #: all m edges in snapshot order, each reversal indexed within its
    #: snapshot: the snapshots' arrays joined, unless the parser passes the
    #: arrays they are slices of
    arrays: EdgeArrays = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if len(self.snapshots) < 1:
            raise ValidationError("a temporal network needs at least one snapshot")
        if len(self.timestamps) != len(self.snapshots):
            raise ValidationError("timestamps and snapshots must have equal length")
        if any(t2 <= t1 for t1, t2 in zip(self.timestamps, self.timestamps[1:])):
            raise ValidationError("timestamps must be strictly increasing")
        if self.arrays is None:
            joined = (np.concatenate(f) for f in zip(*(s.arrays for s in self.snapshots)))
            object.__setattr__(self, "arrays", EdgeArrays(*joined))
        e = self.arrays
        bad = np.flatnonzero((e.src >= self.n) | (e.tgt >= self.n))
        if len(bad):
            u, v = e.src[bad[0]], e.tgt[bad[0]]
            raise ValidationError(f"edge {u}->{v} exceeds node count n={self.n}")

    @property
    def N(self):
        return len(self.snapshots)

    @property
    def m(self):
        """Total number of time-stamped edges."""
        return len(self.arrays.src)

    @cached_property
    def offsets(self):
        """Index in :attr:`arrays` of each snapshot's first edge, then m."""
        return np.cumsum([0] + [s.m for s in self.snapshots])

    def snapshot(self, tau):
        """1-based snapshot accessor."""
        if not 1 <= tau <= self.N:
            raise IndexError(f"tau={tau} out of range [1, {self.N}]")
        return self.snapshots[tau - 1]


@dataclass
class ParseReport:
    """Side information gathered while parsing an edge list."""

    duplicates_collapsed: int = 0
    lines_read: int = 0


#: ASCII digit strings up to this length always fit in int64
_SHORT = 18
#: str.isspace of each byte of an ASCII text
_ASCII_SPACE = np.array([chr(c).isspace() for c in range(256)])


def _line_error(line, lineno):
    """The error of ``line`` (comment removed), the first offending one, in
    the words of ``oracle.reference_parse``."""
    line = line.strip()
    if line.startswith("%n"):
        try:
            n = int(line[2:].strip())
        except ValueError:
            return ParseError(f"bad %n header {line!r}", lineno)
        message = "%n must be positive" if n <= 0 else f"%n outside int64 in {line!r}"
        return ParseError(message, lineno)
    parts = line.split()
    if len(parts) != 3:
        return ParseError(f"expected 'u v t', got {line!r}", lineno)
    try:
        u, v, t = (int(p) for p in parts)
    except ValueError:
        return ParseError(f"non-integer field in {line!r}", lineno)
    if not all(-(2**63) <= x < 2**63 for x in (u, v, t)):
        return ParseError(f"field outside int64 in {line!r}", lineno)
    if u < 0 or v < 0:
        return ValidationError(f"line {lineno}: negative node id in {line!r}")
    return ValidationError(f"line {lineno}: self-loop {u}->{v}")


def _tokens(body):
    """(codes, first, stop, line, ends): the code points of ``body``, the
    index of each whitespace-separated token's first character and of the
    one after its last, its 0-based line, and where each line ends."""
    if body.isascii():
        codes = np.frombuffer(body.encode(), dtype=np.uint8)
        space = _ASCII_SPACE[codes]
    else:
        codes = np.frombuffer(body.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
        space = np.char.isspace(codes.view("<U1"))
    step = np.diff(np.concatenate(([True], space, [True])).view(np.int8))
    first, stop = np.flatnonzero(step == -1), np.flatnonzero(step == 1)
    ends = np.append(np.flatnonzero(codes == 10), len(codes))
    return codes, first, stop, np.searchsorted(ends, first), ends


def parse_temporal_edgelist(text, report=None):
    """Parse `u v t` lines (0-based node ids, integer timestamps) into a network.

    ``#`` starts a comment; a header line ``%n <int>`` overrides the node count
    (default: 1 + max node id).  Fields and the count are integers as Python
    reads them, and must fit in int64.  Duplicate (u, v, t) lines collapse to
    a single edge; pass a :class:`ParseReport` to count them.  ``text`` is a
    string or an open text file.  The whole input is split into tokens and
    converted at once; on an error, the first offending line is reported.
    """
    text = text if isinstance(text, str) else text.read()
    lines_read = text.count("\n") + (not text.endswith("\n")) if text else 0
    if "#" in text:
        text = "\n".join(line.split("#", 1)[0] for line in text.split("\n"))
    codes, first, stop, line, ends = _tokens(text)
    starts = np.append(0, ends[:-1] + 1)
    # a line whose first token starts with "%n" is a header
    lead = np.append(True, line[1:] != line[:-1])
    percent_n = (codes[first] == 37) & (codes[np.minimum(first + 1, len(codes) - 1)] == 110)
    header = np.zeros(len(ends), dtype=bool)
    header[line[lead & percent_n & (stop - first >= 2)]] = True
    counts = np.bincount(line, minlength=len(ends))
    bad = (counts != 3) & (counts > 0) & ~header
    n = None
    for k in np.flatnonzero(header).tolist():
        try:
            n = int(text[starts[k] : ends[k]].strip()[2:].strip())
            bad[k] = not 0 < n < 2**63
        except ValueError:
            bad[k] = True
    # the fields of lines with three, in base 10 where they are short ASCII
    # digit strings, and as Python's int() reads them otherwise
    take = ((counts == 3) & ~header)[line]
    first, length, line = first[take], (stop - first)[take], line[take]
    values = np.zeros(len(first), dtype=np.int64)
    plain = length <= _SHORT
    for k in range(min(int(length.max(initial=0)), _SHORT)):
        digit = codes[np.minimum(first + k, len(codes) - 1)] - 48  # wraps unless a digit
        inside = k < length
        plain &= ~inside | (digit <= 9)
        values = np.where(inside, values * 10 + digit, values)
    for k in np.flatnonzero(~plain).tolist():
        try:
            values[k] = int(text[first[k] : first[k] + length[k]])
        except (ValueError, OverflowError):
            bad[line[k]] = True
    u, v, t = values.reshape(-1, 3).T
    bad[line[::3][(u < 0) | (v < 0) | (u == v)]] = True
    if bad.any():
        k = int(np.argmax(bad))
        raise _line_error(text[starts[k] : ends[k]], k + 1)
    if not len(u):
        raise ParseError("no edges in input")
    timestamps, sid = np.unique(t, return_inverse=True)
    keep, rev = _index_edges(sid, u, v)
    src, tgt, sid = u[keep], v[keep], sid[keep]
    offsets = np.searchsorted(sid, np.arange(len(timestamps) + 1))
    rev = np.where(rev < 0, -1, rev - offsets[sid])
    for shared in (src, tgt, rev):
        shared.flags.writeable = False  # the snapshots hold views of them
    if report is not None:
        report.duplicates_collapsed = len(u) - len(keep)
        report.lines_read = lines_read
    bounds = zip(offsets[:-1].tolist(), offsets[1:].tolist())
    snapshots = tuple(
        Snapshot(k + 1, arrays=EdgeArrays(src[a:b], tgt[a:b], rev[a:b]))
        for k, (a, b) in enumerate(bounds)
    )
    n = n if n is not None else int(max(src.max(), tgt.max())) + 1
    return TemporalNetwork(n, snapshots, tuple(timestamps.tolist()), EdgeArrays(src, tgt, rev))


def to_edgelist(net):
    """Serialize back to the edge-list text format (round-trips with the parser)."""
    lines = [f"%n {net.n}"]
    for snap, t in zip(net.snapshots, net.timestamps):
        for u, v in snap.edges:
            lines.append(f"{u} {v} {t}")
    return "\n".join(lines) + "\n"


def adjacency_matrix(net, tau):
    """0/1 adjacency matrix of snapshot ``tau`` (1-based) as n x n CSR."""
    e = net.snapshot(tau).arrays
    return sorted_csr(e.src, e.tgt, np.ones(len(e.src)), (net.n, net.n))
