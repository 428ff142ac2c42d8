"""Shared temporal-index contract, the brute-force oracle and the array backend.

Every backend is built from a list of :class:`IntervalRecord` under one
:class:`ScaleConfig` and answers ``query(l, r)`` with the indices of all
records whose discretized interval [s, e] satisfies ``s <= r and e >= l``
(closed intervals on both ends).  All backends must agree exactly.
"""

from __future__ import annotations

import numpy as np

from ..core import InvalidInputError, InvalidQueryError, ScaleConfig, discretize_times


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


class TemporalIndexBase:
    """Common attributes of the temporal backends."""

    backend = "base"

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
