"""Temporal networks: parsing, validation, per-snapshot adjacency matrices.

A temporal network is an ordered sequence of unweighted directed graphs
(snapshots) on a fixed node set.  Node ids are 0-based.  Timestamps are
arbitrary strictly increasing integers; only their order matters, and
snapshots are addressed by their 1-based ordinal ``tau``.

Each snapshot owns its compiled edge arrays (``Snapshot.arrays``): numpy
source and target arrays in (source, target) order and the index of each
edge's reversal.  They are built on first use and live as long as the
snapshot; parsing and validation never build them.  Every matrix of the
package (A_t, W_t, B_t, M and the node-level Katz systems) is built from
them directly in compressed sparse form.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
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
    """A snapshot's edges as int64 arrays, sorted by (source, target)."""

    src: np.ndarray
    tgt: np.ndarray
    #: index of the edge (tgt, src) in the same snapshot, or -1
    rev: np.ndarray


def _compile(edges):
    """EdgeArrays of a sorted, duplicate-free sequence of (source, target)."""
    pairs = np.array(edges, dtype=np.int64).reshape(-1, 2)
    src, tgt = pairs[:, 0].copy(), pairs[:, 1].copy()
    base = int(pairs.max(initial=0)) + 1
    key = src * base + tgt  # ascending, since the edges are sorted
    reversed_key = tgt * base + src
    pos = np.searchsorted(key, reversed_key)
    found = np.append(key, -1)[pos] == reversed_key
    return EdgeArrays(src, tgt, np.where(found, pos, -1))


def sorted_csr(rows, cols, data, shape):
    """CSR array of entries already sorted by (row, column), without duplicates."""
    indptr = np.zeros(shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=shape[0]), out=indptr[1:])
    return sp.csr_array((data, cols, indptr), shape=shape)


@dataclass(frozen=True)
class Snapshot:
    """One time layer: a set of directed edges, stored sorted by (source, target)."""

    tau: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for u, v in self.edges:
            if u == v:
                raise ValidationError(f"self-loop {u}->{v} in snapshot {self.tau}")
            if u < 0 or v < 0:
                raise ValidationError(f"negative node id in edge {u}->{v}")
        if len(set(self.edges)) != len(self.edges):
            raise ValidationError(f"duplicate edges in snapshot {self.tau}")
        if tuple(sorted(self.edges)) != self.edges:
            object.__setattr__(self, "edges", tuple(sorted(self.edges)))

    @property
    def m(self):
        return len(self.edges)

    @cached_property
    def arrays(self):
        """The compiled :class:`EdgeArrays`, built on first use and held here;
        not a field, so equality, hashing and repr ignore it."""
        return _compile(self.edges)


@dataclass(frozen=True)
class TemporalNetwork:
    """Fixed node set of size ``n`` observed at ``N`` increasing timestamps."""

    n: int
    snapshots: tuple[Snapshot, ...]
    timestamps: tuple[int, ...]

    def __post_init__(self):
        if len(self.snapshots) < 1:
            raise ValidationError("a temporal network needs at least one snapshot")
        if len(self.timestamps) != len(self.snapshots):
            raise ValidationError("timestamps and snapshots must have equal length")
        if any(t2 <= t1 for t1, t2 in zip(self.timestamps, self.timestamps[1:])):
            raise ValidationError("timestamps must be strictly increasing")
        for snap in self.snapshots:
            for u, v in snap.edges:
                if u >= self.n or v >= self.n:
                    raise ValidationError(
                        f"edge {u}->{v} exceeds node count n={self.n}"
                    )

    @property
    def N(self):
        return len(self.snapshots)

    @property
    def m(self):
        """Total number of time-stamped edges."""
        return sum(s.m for s in self.snapshots)

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


def parse_temporal_edgelist(text, report=None):
    """Parse `u v t` lines (0-based node ids, integer timestamps) into a network.

    ``#`` starts a comment; a header line ``%n <int>`` overrides the node count
    (default: 1 + max node id).  Duplicate (u, v, t) lines collapse to a single
    edge; pass a :class:`ParseReport` to count them.
    """
    if isinstance(text, str):
        text = io.StringIO(text)
    n_override = None
    by_time: dict[int, set[tuple[int, int]]] = {}
    duplicates = 0
    lineno = 0
    for raw in text:
        lineno += 1
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("%n"):
            try:
                n_override = int(line[2:].strip())
            except ValueError:
                raise ParseError(f"bad %n header {line!r}", lineno) from None
            if n_override <= 0:
                raise ParseError("%n must be positive", lineno)
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(f"expected 'u v t', got {line!r}", lineno)
        try:
            u, v, t = (int(p) for p in parts)
        except ValueError:
            raise ParseError(f"non-integer field in {line!r}", lineno) from None
        if u < 0 or v < 0:
            raise ValidationError(f"line {lineno}: negative node id in {line!r}")
        if u == v:
            raise ValidationError(f"line {lineno}: self-loop {u}->{v}")
        edges = by_time.setdefault(t, set())
        if (u, v) in edges:
            duplicates += 1
        edges.add((u, v))
    if not by_time:
        raise ParseError("no edges in input")
    if report is not None:
        report.duplicates_collapsed = duplicates
        report.lines_read = lineno
    timestamps = tuple(sorted(by_time))
    max_id = max(max(max(u, v) for u, v in by_time[t]) for t in timestamps)
    n = n_override if n_override is not None else max_id + 1
    snapshots = tuple(
        Snapshot(tau=k + 1, edges=tuple(sorted(by_time[t])))
        for k, t in enumerate(timestamps)
    )
    return TemporalNetwork(n=n, snapshots=snapshots, timestamps=timestamps)


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
