"""The two-level index: an R-tree over the network's segments on top, the
temporal level over every segment's records underneath, and the query
pipeline joining them.

A range query runs the window on the R-tree, which answers with exactly
the segments that meet it, executes the interval intersection on those
segments' records, and unions the object ids.  Query timestamps are
discretized with the scale the index was built with, so lossy builds
stay exact at the tick level.

The network is two lists, the node coordinates and the node pairs its
segments join (``Network``).  The R-tree reads the segments' end
coordinates from one gather, ``Network.endpoints``, and neither the index
nor a load makes a ``Segment`` object.

The records live in one table ordered segment by segment.  The temporal
level over it owns that order, ``seg_rows``, and is made by the backend
class's ``from_segments`` or ``from_bytes``; the index calls the level
through that one interface and never asks which backend it holds
(``temporal/base.py``).  A query makes two calls into compiled code: the
R-tree's window walk, and the level's ``query_ids``, which takes the walk's
hits and the two float times.  Its kernel reads the edge count, the time
scale and the object ids through one ``range_frame`` struct that the index
binds once, turns both times into exact ticks, as ``discretize_time``
does, and answers with the distinct object ids of the matching rows.
``verbose`` takes ``rows_and_ids``: the level's ``query`` answers with
rows, from which numpy gathers the matches, and one more call writes the
rows' distinct object ids.  Both unions set a bit per id in a bitmap sized
from the index's largest object id, or sort the ids when the bitmap would
be wide against the ids gathered.

A query answers with :class:`ObjectIds`, a read-only set over a copy of
the sorted ``uint32`` ids the kernel wrote, which ``.array`` views; no
Python int is made per id unless the caller iterates.
"""

from __future__ import annotations

import operator
import struct
from collections.abc import Set
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
    TimeInterval,
    VersionError,
    discretize_times,
)
from .datagen import Network
from .eliasfano import prefix_offsets
from .rtree import RTree, build_rtree
from .temporal import BACKENDS, backend_of_tag
from .temporal.base import range_frame, rows_and_ids

MAGIC = b"TJIX"
FORMAT_VERSION = 5
MAX_OBJECT_ID = (1 << 32) - 1  # object ids are stored as u32

_U32 = np.dtype(np.uint32)  # prebuilt: np.frombuffer resolves a dtype given by type on every call


class ObjectIds(Set):
    """The object ids of a query's answer, as a read-only set.  It holds them
    sorted, unique and as native ``uint32`` in a ``bytes`` object, taken as
    given, and ``array`` views them as a read-only numpy array, so no Python
    int is made per id until the caller asks for one.  Iteration yields
    Python ints in ascending order; it equals a ``set`` or ``frozenset`` of
    the same ids, and set operators with one return a ``frozenset``."""

    __slots__ = ("_ids",)
    __hash__ = None  # unhashable, like the set it stands for

    def __init__(self, ids: bytes):
        self._ids = ids

    @property
    def array(self) -> np.ndarray:
        """The ids, ascending, as a read-only ``uint32`` array."""
        return np.frombuffer(self._ids, _U32)  # read-only, as bytes are

    def __len__(self) -> int:
        return len(self._ids) // 4

    def __bool__(self) -> bool:
        return bool(self._ids)

    def __iter__(self):
        return iter(self.array.tolist())

    def __contains__(self, value) -> bool:
        try:
            value = operator.index(value)
        except TypeError:
            return False
        array = self.array
        i = int(np.searchsorted(array, value))  # the exact test below also rejects ints no u32 holds
        return i < len(array) and int(array[i]) == value

    def __eq__(self, other) -> bool:
        if isinstance(other, ObjectIds):
            return self._ids == other._ids  # sorted and unique, so equal sets have equal bytes
        if isinstance(other, (set, frozenset)):
            # both loops in C: no Python-level pass over the ids
            return len(other) == len(self) and other.issuperset(self.array.tolist())
        return super().__eq__(other)

    @classmethod
    def _from_iterable(cls, it) -> frozenset:
        return frozenset(it)

    def __repr__(self) -> str:
        return f"ObjectIds({self.array.tolist()})"


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
    object_ids: ObjectIds
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


class TrajIndex:
    """The record table holds every record once, ordered by segment; the
    temporal level ``temporal`` answers with its rows, and its ``seg_rows``
    delimits each segment's.  ``rtree`` is the R-tree over the network's
    segments: a new build, or the shape a file saved."""

    def __init__(self, network: Network, rtree: RTree, cfg: TrajIndexConfig,
                 object_ids: np.ndarray, t_start: np.ndarray, t_end: np.ndarray, temporal):
        self.network = network
        self.rtree = rtree
        self.cfg = cfg
        self.object_ids = np.ascontiguousarray(object_ids, dtype=np.uint32)
        self.t_start = t_start
        self.t_end = t_end
        self.temporal = temporal
        # handed to the kernels once; ``_frame_ids`` keeps what it points to
        self._frame, self._frame_ids = range_frame(len(network.edge_nodes), cfg.scale.scale, self.object_ids)

    @property
    def seg_rows(self) -> np.ndarray:
        return self.temporal.seg_rows

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
        first record it cannot index.  The index keeps a network of its own,
        made from the network's two lists, which a save writes, so that a
        caller's later edits cannot reach it."""
        cfg = cfg or TrajIndexConfig()
        network = Network(list(network.nodes), [tuple(p) for p in network.edge_nodes])
        n_edges = len(network.edge_nodes)
        seg, obj = np.asarray(segments), np.asarray(object_ids)
        t_start, t_end = np.asarray(t_start, dtype=np.float64), np.asarray(t_end, dtype=np.float64)
        _check_columns(seg, obj, t_start, t_end, n_edges)
        seg, obj = seg.astype(np.int64, copy=False), obj.astype(np.int64, copy=False)
        starts, ends = discretize_times(t_start, cfg.scale), discretize_times(t_end, cfg.scale)
        temporal, order = BACKENDS[cfg.temporal_backend].from_segments(starts, ends, seg, n_edges)
        return cls(network, build_rtree(network.endpoints()), cfg,
                   obj[order].astype(np.uint32), t_start[order], t_end[order], temporal)

    # -- queries ---------------------------------------------------------

    def range_query(self, window: Rect, t_start: float, t_end: float, verbose: bool = False) -> QueryResult:
        if t_start > t_end:
            raise InvalidQueryError(f"time range [{t_start}, {t_end}] has start > end")
        hits = self.rtree.window_query(window)
        if not verbose:
            return QueryResult(ObjectIds(self.temporal.query_ids(self._frame, hits, t_start, t_end)))
        rows, ids = rows_and_ids(self.temporal, self._frame, hits, t_start, t_end)
        segment = np.searchsorted(self.seg_rows, rows, side="right") - 1
        return QueryResult(ObjectIds(ids), [(o, s, TimeInterval(a, b)) for o, s, a, b in zip(
            self.object_ids[rows].tolist(), segment.tolist(), self.t_start[rows].tolist(), self.t_end[rows].tolist())])

    def time_slice_query(self, window: Rect, t: float, verbose: bool = False) -> QueryResult:
        return self.range_query(window, t, t, verbose=verbose)

    # -- reporting ---------------------------------------------------------

    def stats(self) -> IndexStats:
        counts = np.diff(self.seg_rows)
        loaded = np.flatnonzero(counts)
        per_segment = dict(zip(loaded.tolist(), counts[loaded].tolist()))
        sets = self.temporal.set_counts()
        iis_sets = {} if sets is None else dict(zip(loaded.tolist(), sets[loaded].tolist()))
        objects, per_object = np.unique(self.object_ids, return_counts=True)
        n = len(self.object_ids)
        return IndexStats(
            record_count=n,
            segment_count=len(self.network.edge_nodes),
            segments_with_records=len(loaded),
            spatial_bytes=self.rtree.space_bytes(),
            temporal_bytes=(self.temporal.space_report()["total_bits"] + 7) // 8,
            data_bytes=(4 + 16) * n,  # u32 object id and two f64 times per record
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


_TIME_RULE = "times must be finite with 0 <= start <= end"


def _bad_times(t_start: np.ndarray, t_end: np.ndarray) -> np.ndarray:
    """Where a record's times break ``_TIME_RULE``."""
    return ~((t_start >= 0) & (t_start <= t_end) & (t_end < np.inf))  # NaN fails every comparison


def _check_columns(seg: np.ndarray, obj: np.ndarray, t_start: np.ndarray, t_end: np.ndarray, n_edges: int) -> None:
    """Raises for the first record ``from_columns`` cannot index.  The ids
    are compared in their own dtype, before a cast could wrap them."""
    if not (seg.ndim == obj.ndim == t_start.ndim == t_end.ndim == 1 and len(seg) == len(obj) == len(t_start) == len(t_end)):
        raise IngestionError("the record columns must be one-dimensional and of one length")
    for kind, ids in (("segment", seg), ("object", obj)):
        if len(ids) and ids.dtype.kind not in "iu":
            raise IngestionError(f"{_record(0, obj[0], t_start[0], t_end[0])}: {kind} ids come in dtype {ids.dtype}, "
                                 f"not an integer dtype")
    bad = (seg < 0) | (seg >= n_edges) | (obj < 0) | (obj > MAX_OBJECT_ID) | _bad_times(t_start, t_end)
    if not bad.any():
        return
    pos = int(np.argmax(bad))
    where = _record(pos, obj[pos], t_start[pos], t_end[pos])
    if not 0 <= seg[pos] < n_edges:
        raise IngestionError(f"{where}: unknown segment id {seg[pos]}")
    if not 0 <= obj[pos] <= MAX_OBJECT_ID:
        raise IngestionError(f"{where}: object id {obj[pos]} is outside 0..{MAX_OBJECT_ID}, the range a u32 holds")
    raise InvalidInputError(f"{where}: {_TIME_RULE}")


# -- binary format (version 5) ---------------------------------------------
#
# magic "TJIX" | version u16 | backend u8 | digits u8 | fanout u16 |
# network block | R-tree block | record table | temporal block.
# The network block is the node and edge counts (u32 each), each node's
# x and y (f64), then each edge's node pair (u32 each): the two lists of a
# ``Network``, which checks every pair when a load makes it.
# The fanout is the saved R-tree's; load checks the tree's nodes against it.
# The R-tree block is a u64 length and the tree's shape (``RTree.to_bytes``);
# its boxes are recomputed from the network's segments at load.
# The record table is one u32 record count per network edge, then the
# object ids (u32) and original entry and exit times (f64) of all records,
# ordered by segment; load checks the times as a build does and turns them
# into ticks once, the one source of ticks at load.  The backend byte is
# the backend class's ``tag``.  The temporal block is a u64 length and the
# level's ``to_bytes``, which the class's ``from_bytes`` reads back over the
# record table's rows and ticks.
# Load reads every part through one ``Reader``: a block's reads stay inside
# its length, and each block, like the whole file, must be read to its end.

_FILE_HEADER = struct.Struct("<4sHBBH")


def _serialize_index(index: TrajIndex) -> bytes:
    cfg = index.cfg
    out = bytearray(
        _FILE_HEADER.pack(MAGIC, FORMAT_VERSION, BACKENDS[cfg.temporal_backend].tag, cfg.scale.digits,
                          index.rtree.fanout)
    )
    net = index.network
    out += struct.pack("<II", len(net.nodes), len(net.edge_nodes))
    out += np.array([(p.x, p.y) for p in net.nodes], dtype="<f8").tobytes()
    out += np.array(net.edge_nodes, dtype="<u4").tobytes()
    rtree_block = index.rtree.to_bytes()
    out += struct.pack("<Q", len(rtree_block))
    out += rtree_block
    out += np.diff(index.seg_rows).astype("<u4").tobytes()
    out += index.object_ids.astype("<u4").tobytes()
    out += index.t_start.astype("<f8").tobytes()
    out += index.t_end.astype("<f8").tobytes()
    temporal = index.temporal.to_bytes()
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
    backend = backend_of_tag(backend_tag)
    if digits > MAX_SCALE_DIGITS:
        raise FormatError(f"scale digits {digits} out of range 0..{MAX_SCALE_DIGITS}")
    cfg = TrajIndexConfig(temporal_backend=backend, scale=ScaleConfig(digits))
    n_nodes, n_edges = rd.unpack(struct.Struct("<II"))
    coords = rd.array("<f8", 2 * n_nodes).reshape(n_nodes, 2)
    edge_nodes = rd.array("<u4", 2 * n_edges).reshape(n_edges, 2)
    network = Network([Point(x, y) for x, y in coords.tolist()], [(a, b) for a, b in edge_nodes.tolist()])
    spatial_block = rd.block("spatial index block")
    rtree = RTree.from_bytes(spatial_block, fanout, network.endpoints())
    spatial_block.finish()
    seg_rows = prefix_offsets(rd.array("<u4", n_edges))
    n = int(seg_rows[-1])
    object_ids = rd.array("<u4", n).astype(np.uint32)
    t_start = rd.array("<f8", n).astype(np.float64)
    t_end = rd.array("<f8", n).astype(np.float64)
    bad = _bad_times(t_start, t_end)
    if bad.any():
        pos = int(np.argmax(bad))
        raise FormatError(f"{_record(pos, object_ids[pos], t_start[pos], t_end[pos])}: {_TIME_RULE}")
    temporal_block = rd.block("temporal block")
    rd.finish()
    starts, ends = discretize_times(t_start, cfg.scale), discretize_times(t_end, cfg.scale)
    temporal = BACKENDS[backend].from_bytes(temporal_block, seg_rows, starts, ends)
    temporal_block.finish()
    return TrajIndex(network, rtree, cfg, object_ids, t_start, t_end, temporal)
