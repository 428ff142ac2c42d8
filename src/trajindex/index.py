"""The two-level index: an R-tree over segment boxes on top, the temporal
level over every segment's records underneath, and the query pipeline
joining them.

A range query runs the window on the R-tree, refines the candidate
segments with the exact segment/window test where the box test is not
already exact, executes the interval intersection on the surviving
segments' records, and unions the object ids.  Query timestamps are
discretized with the scale the index was built with, so lossy builds
stay exact at the tick level.

The records live in one table ordered segment by segment.  The ``iis``
backend is a single :class:`IISIndex` over that table; the other backends
keep one structure per segment over its slice of the table.  With
``iis``, a query makes three calls into compiled code: the R-tree's window
walk, the row output that ranks every set of every candidate segment and
writes the matching rows, and the union that writes each distinct object
id of those rows once.  When every edge is axis-parallel, as on a grid,
the window walk's hits need no refinement; otherwise the exact test runs
in numpy on the hits that are not axis-parallel.  The ``verbose`` matches
are gathered in numpy.
"""

from __future__ import annotations

import operator
import struct
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .core import (
    ConfigError,
    FormatError,
    IngestionError,
    InvalidInputError,
    InvalidQueryError,
    MAX_SCALE_DIGITS,
    Point,
    Reader,
    Rect,
    ScaleConfig,
    Segment,
    TimeInterval,
    VersionError,
    discretize_time,
    discretize_times,
    segments_intersect_window,
)
from .datagen import Network
from .eliasfano import ffi, lib, prefix_offsets
from .rtree import RTree, build_rtree
from .temporal import BACKENDS
from .temporal.iis import IISIndex

MAGIC = b"TJIX"
FORMAT_VERSION = 4
MAX_OBJECT_ID = (1 << 32) - 1  # object ids are stored as u32

_BACKEND_TAGS = {"linear": 0, "interval_tree": 1, "schmidt": 2, "iis": 3}
_TAG_BACKENDS = {v: k for k, v in _BACKEND_TAGS.items()}
_EMPTY = np.zeros(0, dtype=np.int64)
_new_ids = ffi.new_allocator(should_clear_after_alloc=False)  # the union overwrites what it returns


@dataclass(frozen=True)
class TrajIndexConfig:
    temporal_backend: str = "iis"
    scale: ScaleConfig = field(default_factory=ScaleConfig)

    def __post_init__(self):
        if self.temporal_backend not in BACKENDS:
            raise ConfigError(
                f"unknown temporal backend {self.temporal_backend!r}; expected one of {sorted(BACKENDS)}"
            )


@dataclass
class QueryResult:
    object_ids: set[int]
    matches: list[tuple[int, int, TimeInterval]] | None = None  # (object, segment, interval)


@dataclass
class IndexStats:
    record_count: int
    segment_count: int
    segments_with_records: int
    spatial_bytes: int
    temporal_bytes: int
    data_bytes: int
    per_segment_records: dict[int, int]
    iis_set_counts: dict[int, int]
    records_per_object: dict[int, int]

    @property
    def total_bytes(self) -> int:
        return self.spatial_bytes + self.temporal_bytes + self.data_bytes


class _PerSegment:
    """One temporal structure per loaded segment, each over its segment's
    slice of the record table; answers with record-table rows."""

    def __init__(self, backend: str, parts: dict, seg_rows: np.ndarray):
        self.backend = backend
        self.parts = parts
        self.seg_rows = seg_rows

    @classmethod
    def from_ticks(cls, backend: str, starts, ends, seg_rows: np.ndarray) -> "_PerSegment":
        factory = BACKENDS[backend]
        loaded = np.flatnonzero(np.diff(seg_rows)).tolist()
        bounds = seg_rows.tolist()
        parts = {g: factory.from_ticks(starts[bounds[g]: bounds[g + 1]], ends[bounds[g]: bounds[g + 1]])
                 for g in loaded}
        return cls(backend, parts, seg_rows)

    def query(self, l: int, r: int, segments: np.ndarray) -> np.ndarray:
        out = [self.parts[g].query(l, r) + self.seg_rows[g] for g in segments.tolist() if g in self.parts]
        return np.concatenate(out, dtype=np.int64) if out else _EMPTY

    def space_report(self) -> dict:
        bits = sum(part.space_report()["total_bits"] for part in self.parts.values())
        return {"backend": self.backend, "n": int(self.seg_rows[-1]), "total_bits": bits}


class TrajIndex:
    """The record table holds every record once, ordered by segment:
    ``seg_rows[s]:seg_rows[s + 1]`` are the rows of segment s, whose
    temporal structure answers with those row numbers.  ``make_rtree``
    makes the R-tree from the edges' (n, 4) box array: a new build, or the
    shape a file saved.  ``temporal.query`` answers with a contiguous
    ``int64`` array of rows, each below the record count."""

    def __init__(self, network: Network, make_rtree: Callable[[np.ndarray], RTree], cfg: TrajIndexConfig,
                 seg_rows: np.ndarray, object_ids: np.ndarray, t_start: np.ndarray, t_end: np.ndarray, temporal):
        self.network = network
        self.cfg = cfg
        self.seg_rows = seg_rows
        self.object_ids = np.ascontiguousarray(object_ids, dtype=np.uint32)
        self._ids = ffi.from_buffer("uint32_t[]", self.object_ids)  # the union kernel's argument
        self.t_start = t_start
        self.t_end = t_end
        self.temporal = temporal
        self._ax = np.array([s.a.x for s in network.edges])
        self._ay = np.array([s.a.y for s in network.edges])
        self._bx = np.array([s.b.x for s in network.edges])
        self._by = np.array([s.b.y for s in network.edges])
        # an axis-parallel segment is its own box, so the R-tree's box test is exact
        self._box_exact = (self._ax == self._bx) | (self._ay == self._by)
        self._all_exact = bool(self._box_exact.all())
        self.rtree = make_rtree(np.column_stack((
            np.minimum(self._ax, self._bx), np.minimum(self._ay, self._by),
            np.maximum(self._ax, self._bx), np.maximum(self._ay, self._by))))

    # -- construction ----------------------------------------------------

    @classmethod
    def build(cls, network: Network, records, cfg: TrajIndexConfig | None = None) -> "TrajIndex":
        """The index over ``(segment id, IntervalRecord)`` pairs; see ``from_columns``."""
        n = len(records)
        try:
            # operator.index refuses a fractional id, which fromiter would truncate
            seg = np.fromiter((operator.index(s) for s, _ in records), dtype=np.int64, count=n)
            obj = np.fromiter((operator.index(rec.object_id) for _, rec in records), dtype=np.int64, count=n)
        except (OverflowError, TypeError):
            _reject_first_bad_id(records)
            raise
        t_start = np.fromiter((rec.interval.start for _, rec in records), dtype=np.float64, count=n)
        t_end = np.fromiter((rec.interval.end for _, rec in records), dtype=np.float64, count=n)
        return cls.from_columns(network, seg, obj, t_start, t_end, cfg)

    @classmethod
    def from_columns(cls, network: Network, segments, object_ids, t_start, t_end,
                     cfg: TrajIndexConfig | None = None) -> "TrajIndex":
        """The index over records given as four columns of one length: segment
        and object ids of an integer dtype, and entry and exit times.  Raises
        ``IngestionError`` or, for its times, ``InvalidInputError`` naming the
        first record it cannot index."""
        cfg = cfg or TrajIndexConfig()
        n_edges = len(network.edges)
        seg, obj = np.asarray(segments), np.asarray(object_ids)
        t_start, t_end = np.asarray(t_start, dtype=np.float64), np.asarray(t_end, dtype=np.float64)
        _check_columns(seg, obj, t_start, t_end, n_edges)
        seg, obj = seg.astype(np.int64, copy=False), obj.astype(np.int64, copy=False)
        starts = discretize_times(t_start, cfg.scale)
        ends = discretize_times(t_end, cfg.scale)
        seg_rows = prefix_offsets(np.bincount(seg, minlength=n_edges))
        if cfg.temporal_backend == "iis":
            temporal, order = IISIndex.from_segments(starts, ends, seg, n_edges)
        else:
            order = np.argsort(seg, kind="stable")
            temporal = _PerSegment.from_ticks(cfg.temporal_backend, starts[order], ends[order], seg_rows)
        return cls(network, build_rtree, cfg, seg_rows,
                   obj[order].astype(np.uint32), t_start[order], t_end[order], temporal)

    # -- queries ---------------------------------------------------------

    def _candidate_segments(self, window: Rect) -> np.ndarray:
        """R-tree hits, refined by the exact geometric test where the box
        test alone is not exact."""
        hits = self.rtree.window_query(window)
        if self._all_exact:
            return hits
        exact = self._box_exact[hits]
        rest = hits[~exact]
        keep = segments_intersect_window(self._ax[rest], self._ay[rest], self._bx[rest], self._by[rest], window)
        return np.concatenate((hits[exact], rest[keep]))

    def range_query(self, window: Rect, t_start: float, t_end: float, verbose: bool = False) -> QueryResult:
        if t_start > t_end:
            raise InvalidQueryError(f"time range [{t_start}, {t_end}] has start > end")
        scale = self.cfg.scale
        l = discretize_time(t_start, scale)
        # equal times give equal ticks, so a time slice is discretized once
        r = l if t_end == t_start else discretize_time(t_end, scale)
        rows = self.temporal.query(l, r, self._candidate_segments(window))
        n = len(rows)
        ids = _new_ids("uint32_t[]", n)
        k = lib.distinct_ids(self._ids, ffi.from_buffer("int64_t[]", rows), n, ids)
        if k < 0:
            raise MemoryError("no memory for the object-id union of a query")
        found = set(ffi.unpack(ids, k))
        matches = None
        if verbose:
            segment = np.searchsorted(self.seg_rows, rows, side="right") - 1
            matches = [(o, s, TimeInterval(a, b)) for o, s, a, b in zip(
                self.object_ids[rows].tolist(), segment.tolist(),
                self.t_start[rows].tolist(), self.t_end[rows].tolist())]
        return QueryResult(found, matches)

    def time_slice_query(self, window: Rect, t: float, verbose: bool = False) -> QueryResult:
        return self.range_query(window, t, t, verbose=verbose)

    # -- reporting ---------------------------------------------------------

    def stats(self) -> IndexStats:
        counts = np.diff(self.seg_rows)
        loaded = np.flatnonzero(counts)
        per_segment = dict(zip(loaded.tolist(), counts[loaded].tolist()))
        iis_sets = {}
        if isinstance(self.temporal, IISIndex):
            iis_sets = dict(zip(loaded.tolist(), self.temporal.set_counts()[loaded].tolist()))
        objects, per_object = np.unique(self.object_ids, return_counts=True)
        n = len(self.object_ids)
        return IndexStats(
            record_count=n,
            segment_count=len(self.network.edges),
            segments_with_records=len(loaded),
            spatial_bytes=self.rtree.space_bytes(),
            temporal_bytes=(self.temporal.space_report()["total_bits"] + 7) // 8,
            # u32 object id and two f64 times per record, and the segment offsets
            data_bytes=(4 + 16) * n + self.seg_rows.nbytes,
            per_segment_records=per_segment,
            iis_set_counts=iis_sets,
            records_per_object=dict(zip(objects.tolist(), per_object.tolist())),
        )

    # -- persistence -------------------------------------------------------

    def save(self, path: str) -> None:
        with open(path, "wb") as fh:
            fh.write(_serialize_index(self))

    @classmethod
    def load(cls, path: str) -> "TrajIndex":
        with open(path, "rb") as fh:
            data = fh.read()
        try:
            return _deserialize_index(data)
        except (InvalidInputError, IngestionError) as exc:
            # corrupt bytes can surface as domain validation failures
            raise FormatError(f"corrupt index file: {exc}") from exc


def _record(pos: int, obj, start, end) -> str:
    return f"record {pos} (object {obj}, [{start}, {end}])"


def _reject_first_bad_id(records) -> None:
    for pos, (seg_id, rec) in enumerate(records):
        for kind, value in (("segment", seg_id), ("object", rec.object_id)):
            try:
                fits = -(1 << 63) <= operator.index(value) < 1 << 63
            except TypeError:
                fits = False
            if not fits:
                raise IngestionError(f"{_record(pos, rec.object_id, rec.interval.start, rec.interval.end)}: "
                                     f"{kind} id {value!r} is not an integer, or no int64 holds it")


def _check_columns(seg: np.ndarray, obj: np.ndarray, t_start: np.ndarray, t_end: np.ndarray, n_edges: int) -> None:
    """Raises for the first record ``from_columns`` cannot index.  The ids
    are compared in their own dtype, before a cast could wrap them."""
    if not (seg.ndim == obj.ndim == t_start.ndim == t_end.ndim == 1 and len(seg) == len(obj) == len(t_start) == len(t_end)):
        raise IngestionError("the record columns must be one-dimensional and of one length")
    for kind, ids in (("segment", seg), ("object", obj)):
        if len(ids) and ids.dtype.kind not in "iu":
            raise IngestionError(f"{_record(0, obj[0], t_start[0], t_end[0])}: {kind} ids come in dtype {ids.dtype}, "
                                 f"not an integer dtype")
    bad = (seg < 0) | (seg >= n_edges) | (obj < 0) | (obj > MAX_OBJECT_ID)
    bad |= ~((t_start >= 0) & (t_start <= t_end) & (t_end < np.inf))  # NaN fails every comparison
    if not bad.any():
        return
    pos = int(np.argmax(bad))
    where = _record(pos, obj[pos], t_start[pos], t_end[pos])
    if not 0 <= seg[pos] < n_edges:
        raise IngestionError(f"{where}: unknown segment id {seg[pos]}")
    if not 0 <= obj[pos] <= MAX_OBJECT_ID:
        raise IngestionError(f"{where}: object id {obj[pos]} is outside 0..{MAX_OBJECT_ID}, the range a u32 holds")
    raise InvalidInputError(f"{where}: times must be finite with 0 <= start <= end")


# -- binary format (version 4) ---------------------------------------------
#
# magic "TJIX" | version u16 | backend u8 | digits u8 | fanout u16 |
# network block | R-tree block | record table | temporal block.
# The fanout is the saved R-tree's; load checks the tree's nodes against it.
# The R-tree block is a u64 length and the tree's shape (``RTree.to_bytes``);
# its boxes are recomputed from the network at load.
# The record table is one u32 record count per network edge, then the
# object ids (u32) and original entry and exit times (f64) of all records,
# ordered by segment.  The temporal block is a u64 length and, for the iis
# backend, its universe, set sizes and sequence words (``IISIndex.to_bytes``);
# the sets of each segment follow from the record table at load.  The
# other backends are rebuilt from the record table at load.
# Load reads every part through one ``Reader``: a block's reads stay inside
# its length, and each block, like the whole file, must be read to its end.

_FILE_HEADER = struct.Struct("<4sHBBH")


def _serialize_index(index: TrajIndex) -> bytes:
    cfg = index.cfg
    out = bytearray(
        _FILE_HEADER.pack(MAGIC, FORMAT_VERSION, _BACKEND_TAGS[cfg.temporal_backend], cfg.scale.digits,
                          index.rtree.fanout)
    )
    net = index.network
    out += struct.pack("<II", len(net.nodes), len(net.edges))
    out += np.array([(p.x, p.y) for p in net.nodes], dtype="<f8").tobytes()
    out += np.array(net.edge_nodes, dtype="<u4").tobytes()
    rtree_block = index.rtree.to_bytes()
    out += struct.pack("<Q", len(rtree_block))
    out += rtree_block
    out += np.diff(index.seg_rows).astype("<u4").tobytes()
    out += index.object_ids.astype("<u4").tobytes()
    out += index.t_start.astype("<f8").tobytes()
    out += index.t_end.astype("<f8").tobytes()
    temporal = index.temporal.to_bytes() if isinstance(index.temporal, IISIndex) else b""
    out += struct.pack("<Q", len(temporal))
    out += temporal
    return bytes(out)


def _deserialize_index(data: bytes) -> TrajIndex:
    rd = Reader(data)
    magic, version, backend_tag, digits, fanout = rd.unpack(_FILE_HEADER)
    if magic != MAGIC:
        raise FormatError(f"not an index file (magic {magic!r})")
    if version != FORMAT_VERSION:
        raise VersionError(f"unsupported index format version {version} (expected {FORMAT_VERSION})")
    if backend_tag not in _TAG_BACKENDS:
        raise FormatError(f"unknown backend tag {backend_tag}")
    if digits > MAX_SCALE_DIGITS:
        raise FormatError(f"scale digits {digits} out of range 0..{MAX_SCALE_DIGITS}")
    cfg = TrajIndexConfig(temporal_backend=_TAG_BACKENDS[backend_tag], scale=ScaleConfig(digits))
    n_nodes, n_edges = rd.unpack(struct.Struct("<II"))
    coords = rd.array("<f8", 2 * n_nodes).reshape(n_nodes, 2)
    edge_nodes = rd.array("<u4", 2 * n_edges).reshape(n_edges, 2)
    if n_edges and int(edge_nodes.max()) >= n_nodes:
        eid = int(np.argmax((edge_nodes >= n_nodes).any(axis=1)))
        raise FormatError(f"edge {eid} references unknown node")
    nodes = [Point(x, y) for x, y in coords.tolist()]
    pairs = [(a, b) for a, b in edge_nodes.tolist()]
    network = Network(nodes, [Segment(eid, nodes[a], nodes[b]) for eid, (a, b) in enumerate(pairs)], pairs)
    spatial_block = rd.block("spatial index block")

    def load_rtree(boxes: np.ndarray) -> RTree:
        rtree = RTree.from_bytes(spatial_block, fanout, boxes)
        spatial_block.finish()
        return rtree

    seg_rows = prefix_offsets(rd.array("<u4", n_edges))
    n = int(seg_rows[-1])
    object_ids = rd.array("<u4", n).astype(np.uint32)
    t_start = rd.array("<f8", n).astype(np.float64)
    t_end = rd.array("<f8", n).astype(np.float64)
    temporal_block = rd.block("temporal block")
    rd.finish()
    if cfg.temporal_backend == "iis":
        temporal = IISIndex.from_bytes(temporal_block, seg_rows)
        temporal_block.finish()
    else:
        if temporal_block.end > temporal_block.start:
            raise FormatError("unexpected temporal block")
        starts = discretize_times(t_start, cfg.scale)
        ends = discretize_times(t_end, cfg.scale)
        temporal = _PerSegment.from_ticks(cfg.temporal_backend, starts, ends, seg_rows)
    return TrajIndex(network, load_rtree, cfg, seg_rows, object_ids, t_start, t_end, temporal)
