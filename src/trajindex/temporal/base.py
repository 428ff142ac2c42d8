"""Shared temporal-index contract, the brute-force oracle and the array backend.

Every backend is built from a list of :class:`IntervalRecord` under one
:class:`ScaleConfig` and answers ``query(l, r)`` with the indices of all
records whose discretized interval [s, e] satisfies ``s <= r and e >= l``
(closed intervals on both ends).  All backends must agree exactly.

A ``TrajIndex`` holds one level over every segment's records, which owns
their row layout, ``seg_rows``: an ``IISIndex``, or by default a
:class:`_PerSegment`, one structure of the backend per loaded segment.
"""

from __future__ import annotations

import numpy as np

from ..core import FormatError, InvalidInputError, InvalidQueryError, ScaleConfig, discretize_times
from ..eliasfano import prefix_offsets
from ..kernel import ffi, lib

_EMPTY = np.zeros(0, dtype=np.int64)
_new_ids = ffi.new_allocator(should_clear_after_alloc=False)  # the union overwrites what it returns


def record_tick_arrays(records, cfg: ScaleConfig) -> tuple[np.ndarray, np.ndarray]:
    """Discretize record endpoints into (starts, ends) int64 arrays."""
    starts = discretize_times([r.interval.start for r in records], cfg)
    ends = discretize_times([r.interval.end for r in records], cfg)
    return starts, ends


def check_query(l: int, r: int) -> None:
    if l > r:
        raise InvalidQueryError(f"query interval [{l}, {r}] has l > r")


def range_query_error(status: int, hits, t_start, t_end) -> Exception:
    """The error a range-query kernel entry reports with a negative
    ``status``: -1 or -2 when ``t_start`` or ``t_end`` is not finite and
    non-negative, -3 - i when hit i names no edge, and -3 - ``len(hits)``
    when out of memory."""
    if status >= -2:
        t = float(t_start if status == -1 else t_end)
        return InvalidInputError(f"timestamp must be finite and non-negative, got {t}")
    i = -3 - status
    if i == len(hits):
        return MemoryError("no memory for the answer of a range query")
    return IndexError(f"hit {i}: no edge {hits[i]}")


def intersect_ticks(starts: np.ndarray, ends: np.ndarray, l: int, r: int) -> np.ndarray:
    """Indices i with starts[i] <= r and ends[i] >= l, ascending."""
    check_query(l, r)
    return np.flatnonzero((starts <= r) & (ends >= l))


def brute_force_intersect(records, l: int, r: int, cfg: ScaleConfig) -> np.ndarray:
    """The correctness oracle: a linear scan over discretized records."""
    starts, ends = record_tick_arrays(records, cfg)
    return intersect_ticks(starts, ends, l, r)


def range_frame(n_edges: int, scale: float, object_ids: np.ndarray) -> tuple:
    """The ``range_frame *`` the range entries read besides a level's own
    arrays, and the buffer of ``object_ids`` it points to, which the caller
    keeps.  The union's bitmap words come from these ids, never from a file."""
    ids = ffi.from_buffer("uint32_t[]", object_ids)
    words = (int(object_ids.max()) >> 6) + 1 if len(object_ids) else 0
    return ffi.new("range_frame *", [n_edges, float(scale), ids, words]), ids


def rows_and_ids(temporal, frame, hits: np.ndarray, t_start: float, t_end: float) -> tuple[np.ndarray, bytes]:
    """For ``query_ids``'s arguments, the rows ``temporal.query`` matches
    and their distinct object ids, as ``query_ids`` gives them."""
    ticks = lib.range_ticks(frame, ffi.from_buffer("int64_t[]", hits), len(hits), t_start, t_end)
    if ticks.status:
        raise range_query_error(ticks.status, hits, t_start, t_end)
    rows = temporal.query(ticks.l, ticks.r, hits)
    n = len(rows)
    out = _new_ids("uint32_t[]", n)
    k = lib.distinct_ids(frame, ffi.from_buffer("int64_t[]", rows), n, out)
    if k < 0:
        raise MemoryError("no memory for the object-id union of a query")
    return rows, ffi.buffer(out, 4 * k)[:]


class TemporalIndexBase:
    """Common attributes of the temporal backends.  ``tag`` is the
    backend's number in an index file."""

    backend = "base"
    tag: int

    def __init__(self, n: int):
        self.n = n

    @classmethod
    def build(cls, records, cfg: ScaleConfig) -> "TemporalIndexBase":
        starts, ends = record_tick_arrays(records, cfg)
        return cls.from_ticks(starts, ends)

    @classmethod
    def from_ticks(cls, starts: np.ndarray, ends: np.ndarray) -> "TemporalIndexBase":
        """Index discretized intervals; queries answer with their positions."""
        raise NotImplementedError

    @classmethod
    def from_segments(cls, starts, ends, segments, n_segments: int) -> tuple["_PerSegment", np.ndarray]:
        """The level over records of segments ``[0, n_segments)`` and the
        row order: row j holds record ``order[j]``."""
        order = np.argsort(segments, kind="stable")
        seg_rows = prefix_offsets(np.bincount(segments, minlength=n_segments))
        return _PerSegment(cls, starts[order], ends[order], seg_rows), order

    @classmethod
    def from_bytes(cls, reader, seg_rows: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> "_PerSegment":
        """The level a file holds: none but the rows, so an empty block."""
        if reader.end > reader.start:
            raise FormatError("unexpected temporal block")
        return _PerSegment(cls, starts, ends, seg_rows)

    def query(self, l: int, r: int) -> np.ndarray:
        raise NotImplementedError

    def space_report(self) -> dict:
        raise NotImplementedError


class LinearScanIndex(TemporalIndexBase):
    """Records kept in two plain arrays and scanned sequentially.

    This is both a legitimate backend for small indexes and the reference
    the other structures are compared against.
    """

    backend = "linear"
    tag = 0

    def __init__(self, starts: np.ndarray, ends: np.ndarray):
        super().__init__(len(starts))
        self.starts = starts
        self.ends = ends

    @classmethod
    def from_ticks(cls, starts, ends) -> "LinearScanIndex":
        return cls(np.asarray(starts, dtype=np.int64), np.asarray(ends, dtype=np.int64))

    def query(self, l: int, r: int) -> np.ndarray:
        return intersect_ticks(self.starts, self.ends, l, r)

    def space_report(self) -> dict:
        bits = 64 * 2 * self.n
        return {"backend": self.backend, "n": self.n, "tick_bits": bits, "total_bits": bits}


class _PerSegment:
    """One ``factory`` structure per loaded segment g, over rows ``seg_rows[g]:seg_rows[g + 1]``."""

    def __init__(self, factory, starts, ends, seg_rows: np.ndarray):
        self.backend = factory.backend
        self.seg_rows = seg_rows
        bounds = seg_rows.tolist()
        self.parts = {g: factory.from_ticks(starts[bounds[g]: bounds[g + 1]], ends[bounds[g]: bounds[g + 1]])
                      for g in np.flatnonzero(np.diff(seg_rows)).tolist()}

    def query(self, l: int, r: int, segments: np.ndarray) -> np.ndarray:
        out = [self.parts[g].query(l, r) + self.seg_rows[g] for g in segments.tolist() if g in self.parts]
        return np.concatenate(out, dtype=np.int64) if out else _EMPTY

    def query_ids(self, frame, hits: np.ndarray, t_start: float, t_end: float) -> bytes:
        return rows_and_ids(self, frame, hits, t_start, t_end)[1]

    def set_counts(self) -> None:
        return None  # no independent sets

    def to_bytes(self) -> bytes:
        return b""  # a load rebuilds the structures from the record table

    def space_report(self) -> dict:
        bits = sum(part.space_report()["total_bits"] for part in self.parts.values()) + 8 * self.seg_rows.nbytes
        return {"backend": self.backend, "n": int(self.seg_rows[-1]), "total_bits": bits}
