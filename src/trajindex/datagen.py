"""Synthetic networks, trajectories, interval workloads and file formats.

Everything is a pure function of its arguments plus a 64-bit seed; the
generator is numpy's PCG64, so a fixed seed reproduces byte-identical
output on any platform.  Timestamps are quantized to 8 decimal digits at
generation time, which is exactly what the text record format can carry.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Literal

import numpy as np

from .core import (
    ConfigError,
    IngestionError,
    IntervalRecord,
    InvalidInputError,
    ParseError,
    Point,
    Rect,
    Segment,
    TimeInterval,
)

WEIGHT_EXPONENT = 1.6  # edge-popularity skew of the random walk


def _q8(t: float) -> float:
    """Quantize a timestamp to the 8 fractional digits the file format keeps."""
    return round(t, 8)


@dataclass
class Network:
    """A road graph: node coordinates, and the node pairs its segments join.
    Making one gathers and checks the segments' end coordinates once
    (``endpoints``); ``edges`` makes the ``Segment`` objects on first access
    and keeps them."""

    nodes: list[Point]
    edge_nodes: list[tuple[int, int]]

    def __post_init__(self):
        """Gathers the end coordinates.  Raises ``IngestionError`` for the
        first pair naming an unknown node, ``InvalidInputError`` for the first
        whose nodes coincide."""
        n, m = len(self.nodes), len(self.edge_nodes)
        xy = np.fromiter(chain.from_iterable((p.x, p.y) for p in self.nodes), np.float64, 2 * n).reshape(n, 2)
        pairs = np.fromiter(chain.from_iterable(self.edge_nodes), np.int64).reshape(m, 2)
        unknown = ((pairs < 0) | (pairs >= n)).any(axis=1)
        if unknown.any():
            eid = int(np.argmax(unknown))
            raise IngestionError(f"edge {eid} references unknown node {tuple(pairs[eid].tolist())}")
        ends = np.ascontiguousarray(xy[pairs].reshape(m, 4).T)
        same = (ends[0] == ends[2]) & (ends[1] == ends[3])
        if same.any():
            eid = int(np.argmax(same))
            raise InvalidInputError(f"segment {eid} has zero length at {self.nodes[pairs[eid, 0]]}")
        ends.flags.writeable = False
        self._endpoints = ends

    @cached_property
    def edges(self) -> list[Segment]:
        nodes = self.nodes
        return [Segment(eid, nodes[a], nodes[b]) for eid, (a, b) in enumerate(self.edge_nodes)]

    def endpoints(self) -> np.ndarray:
        """The segments' end coordinates as a read-only (4, m) float64 array of
        rows ``ax, ay, bx, by``, gathered when the network was made."""
        return self._endpoints

    def bounds(self) -> Rect:
        xs = [p.x for p in self.nodes]
        ys = [p.y for p in self.nodes]
        return Rect(min(xs), min(ys), max(xs), max(ys))

    def adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in self.nodes]
        for eid, (a, b) in enumerate(self.edge_nodes):
            adj[a].append(eid)
            adj[b].append(eid)
        return adj


@dataclass(frozen=True)
class WorkloadSpec:
    """Parameters of one synthetic interval workload."""

    kind: Literal["fixed_size", "random_size", "trajectory"]
    n: int
    seed: int
    horizon: float = 1000.0
    length: float = 10.0        # fixed_size: the common length
    mean_length: float = 10.0   # trajectory: cluster center of the lengths
    jitter: float = 0.05        # trajectory: relative length spread

    def __post_init__(self):
        if self.kind not in ("fixed_size", "random_size", "trajectory"):
            raise ConfigError(f"unknown workload kind {self.kind!r}")
        if self.n < 0 or self.horizon <= 0:
            raise ConfigError("workload needs n >= 0 and horizon > 0")


@dataclass(frozen=True)
class Query:
    window: Rect
    t_start: float
    t_end: float

    def __post_init__(self):
        if self.t_start > self.t_end:
            raise InvalidInputError(f"query with t_start {self.t_start} > t_end {self.t_end}")


def gen_grid_network(rows: int, cols: int, cell: float = 1.0) -> Network:
    """A rows x cols lattice with unit-cell horizontal and vertical edges."""
    if rows < 2 or cols < 2:
        raise ConfigError(f"grid needs rows, cols >= 2, got {rows}x{cols}")
    nodes = [Point(c * cell, r * cell) for r in range(rows) for c in range(cols)]
    edge_nodes = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    edge_nodes += [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    return Network(nodes, edge_nodes)


def gen_trajectories(
    net: Network,
    n_objects: int,
    duration: float,
    seed: int,
    jitter: float = 0.05,
    base_edge_time: float = 1.0,
) -> list[tuple[int, IntervalRecord]]:
    """Random-walk trajectories: one record per traversed edge.

    Each object starts at a random node at time 0 and repeatedly crosses
    an incident edge, drawn with probability proportional to a per-edge
    popularity weight (rank**-WEIGHT_EXPONENT over a seeded shuffle of the
    edges), which reproduces the heavily skewed per-segment loads seen on
    real road networks.  A traversal takes base_edge_time * (1 +/- jitter)
    and consecutive records abut exactly.
    """
    if not net.edge_nodes:
        raise IngestionError("cannot generate trajectories on an empty network")
    if duration <= 0:
        raise ConfigError(f"duration must be positive, got {duration}")
    rng = np.random.default_rng(seed)
    ranks = rng.permutation(len(net.edge_nodes))
    weights = (1.0 + ranks) ** -WEIGHT_EXPONENT
    adj = net.adjacency()
    adj_weights: list[np.ndarray | None] = []
    for eids in adj:
        if eids:
            w = weights[np.asarray(eids)]
            adj_weights.append(w / w.sum())
        else:
            adj_weights.append(None)
    edge_nodes = net.edge_nodes
    records: list[tuple[int, IntervalRecord]] = []
    for obj in range(n_objects):
        node = int(rng.integers(len(net.nodes)))
        t = 0.0
        while t < duration:
            eids = adj[node]
            if not eids:
                break
            pick = int(rng.choice(len(eids), p=adj_weights[node]))
            eid = eids[pick]
            step = base_edge_time * (1.0 + jitter * float(rng.uniform(-1.0, 1.0)))
            t_exit = _q8(t + step)
            records.append((eid, IntervalRecord(obj, TimeInterval(t, t_exit))))
            a, b = edge_nodes[eid]
            node = b if node == a else a
            t = t_exit
    return records


def gen_interval_workload(spec: WorkloadSpec) -> list[IntervalRecord]:
    """The three interval scenarios: fixed size, random size, trajectory-like."""
    rng = np.random.default_rng(spec.seed)
    starts = rng.uniform(0.0, spec.horizon, spec.n)
    if spec.kind == "fixed_size":
        lengths = np.full(spec.n, float(spec.length))
    elif spec.kind == "random_size":
        lengths = rng.uniform(0.0, spec.horizon, spec.n)
    else:
        lengths = spec.mean_length * (1.0 + spec.jitter * rng.uniform(-1.0, 1.0, spec.n))
    out = []
    for i in range(spec.n):
        s = _q8(float(starts[i]))
        out.append(IntervalRecord(i, TimeInterval(s, _q8(s + float(lengths[i])))))
    return out


QueryFamily = Literal["range_equal", "range_larger_temporal", "time_slice"]


def gen_queries(
    area: Rect,
    horizon: float,
    family: QueryFamily,
    count: int,
    seed: int,
    spatial_pct: float = 10.0,
    temporal_pct: float = 10.0,
) -> list[Query]:
    """Uniformly placed windows with edge lengths a given percentage of each extent."""
    if not 0 < spatial_pct <= 100 or not 0 < temporal_pct <= 100:
        raise ConfigError("extent percentages must lie in (0, 100]")
    rng = np.random.default_rng(seed)
    w = (area.xmax - area.xmin) * spatial_pct / 100.0
    h = (area.ymax - area.ymin) * spatial_pct / 100.0
    dt = horizon * temporal_pct / 100.0 if family != "time_slice" else 0.0
    queries = []
    for _ in range(count):
        x0 = area.xmin + float(rng.uniform(0.0, max(area.xmax - area.xmin - w, 0.0)))
        y0 = area.ymin + float(rng.uniform(0.0, max(area.ymax - area.ymin - h, 0.0)))
        t0 = _q8(float(rng.uniform(0.0, max(horizon - dt, 0.0))))
        queries.append(Query(Rect(x0, y0, x0 + w, y0 + h), t0, _q8(t0 + dt)))
    return queries


# -- text file formats -------------------------------------------------
#
# network:  "nodes <N> edges <E>" header, then "n <id> <x> <y>" and
#           "e <id> <node_a> <node_b>" lines
# records:  "r <object_id> <edge_id> <t_entry> <t_exit>" lines
# queries:  "q <xmin> <ymin> <xmax> <ymax> <t_start> <t_end>" lines


def write_network(net: Network, path: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"nodes {len(net.nodes)} edges {len(net.edge_nodes)}\n")
        for i, p in enumerate(net.nodes):
            fh.write(f"n {i} {p.x!r} {p.y!r}\n")
        for eid, (a, b) in enumerate(net.edge_nodes):
            fh.write(f"e {eid} {a} {b}\n")


def _parse_lines(path: str, parse) -> None:
    """Calls ``parse(line_no, fields)`` on each non-blank line of a text file;
    a ``ValueError`` or ``OverflowError`` it raises becomes a ``ParseError``."""
    with open(path, encoding="ascii") as fh:
        for line_no, line in enumerate(fh, start=1):
            parts = line.split()
            if parts:
                try:
                    parse(line_no, parts)
                except (ValueError, OverflowError) as exc:  # InvalidInputError is a ValueError
                    raise ParseError(path, line_no, str(exc)) from None


def read_network(path: str) -> Network:
    """The network of a network file, whose header, if any, counts its nodes and edges."""
    nodes: list[Point] = []
    edge_nodes: list[tuple[int, int]] = []
    header: list[int] = []  # line number, node count, edge count

    def parse(line_no: int, parts: list[str]) -> None:
        if parts[0] == "nodes":
            if header or len(parts) != 4 or parts[2] != "edges":
                raise ValueError("expected one 'nodes <N> edges <E>' header")
            header.extend((line_no, int(parts[1]), int(parts[3])))
        elif parts[0] == "n":
            _, nid, x, y = parts
            if int(nid) != len(nodes):
                raise ValueError(f"node ids must be dense, got {nid}")
            nodes.append(Point(float(x), float(y)))
        elif parts[0] == "e":
            _, eid, a, b = parts
            if int(eid) != len(edge_nodes):
                raise ValueError(f"edge ids must be dense, got {eid}")
            a, b = int(a), int(b)
            if not (0 <= a < len(nodes) and 0 <= b < len(nodes)):
                raise ValueError(f"edge {eid} references unknown node")
            if nodes[a] == nodes[b]:
                raise ValueError(f"segment {eid} has zero length at {nodes[a]}")
            edge_nodes.append((a, b))
        else:
            raise ValueError(f"unknown line tag {parts[0]!r}")

    _parse_lines(path, parse)
    if header and header[1:] != [len(nodes), len(edge_nodes)]:
        raise ParseError(path, header[0], f"header declares {header[1]} nodes and {header[2]} edges, "
                                          f"the file has {len(nodes)} and {len(edge_nodes)}")
    return Network(nodes, edge_nodes)


def write_records(records, path: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for eid, rec in records:
            iv = rec.interval
            fh.write(f"r {rec.object_id} {eid} {iv.start:.8f} {iv.end:.8f}\n")


def read_record_columns(path: str) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The segment ids and object ids (int64) and entry and exit times
    (float64) of a record file, in file order.  Only the syntax is checked
    here, the values by ``TrajIndex.from_columns``.  Raises ``ParseError`` at
    the first malformed line."""
    tokens: list[str] = []

    def fields(line_no: int, parts: list[str]) -> None:
        if parts[0] != "r" or len(parts) != 5:
            raise ValueError("expected 'r <object> <edge> <t_entry> <t_exit>'")
        tokens.extend(parts)

    def values(line_no: int, parts: list[str]) -> None:
        fields(line_no, parts)
        np.array(parts[1:3], dtype=np.int64), np.array(parts[3:], dtype=np.float64)

    try:
        _parse_lines(path, fields)
        return (np.array(tokens[2::5], dtype=np.int64), np.array(tokens[1::5], dtype=np.int64),
                np.array(tokens[3::5], dtype=np.float64), np.array(tokens[4::5], dtype=np.float64))
    except (OverflowError, ValueError):
        # a line before the one that failed may hold a number that does not
        # convert: convert line by line
        _parse_lines(path, values)
        raise


def write_queries(queries, path: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for q in queries:
            w = q.window
            fh.write(f"q {w.xmin!r} {w.ymin!r} {w.xmax!r} {w.ymax!r} {q.t_start:.8f} {q.t_end:.8f}\n")


def read_queries(path: str) -> list[Query]:
    out: list[Query] = []

    def parse(line_no: int, parts: list[str]) -> None:
        if parts[0] != "q" or len(parts) != 7:
            raise ValueError("expected 'q <xmin> <ymin> <xmax> <ymax> <t_start> <t_end>'")
        vals = [float(v) for v in parts[1:]]
        out.append(Query(Rect(*vals[:4]), vals[4], vals[5]))

    _parse_lines(path, parse)
    return out
