"""Geometric and temporal domain types shared by every module, the errors,
and the checked reader every part of an index file is read with.

The domain types are immutable value types and the functions are pure, so
they can be shared freely between threads.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .kernel import ffi, lib

MAX_SCALE_DIGITS = 8
MAX_COORD = 2.0**1022  # so that the clip's differences of coordinates stay finite


class InvalidInputError(ValueError):
    """A value violates a domain invariant (NaN coordinate, negative time, ...)."""


class InvalidQueryError(ValueError):
    """A query interval whose start lies after its end."""


class ConfigError(ValueError):
    """A structurally invalid configuration value."""


class IngestionError(ValueError):
    """A record references data that does not exist (e.g. an unknown segment id)."""


class ParseError(ValueError):
    """A malformed line in a text input file."""

    def __init__(self, path: str, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = path
        self.line_no = line_no


class FormatError(RuntimeError):
    """A corrupt, truncated or otherwise unreadable binary index file."""


class VersionError(FormatError):
    """An index file written by an incompatible format version."""


_BLOCK_LENGTH = struct.Struct("<Q")


class Reader:
    """Bounds-checked reads from ``data[start:end]``, one part of a binary
    index file named ``what``.  A read past the end raises ``FormatError``."""

    def __init__(self, data, what: str = "index file", start: int = 0, end: int | None = None):
        self.data = data
        self.what = what
        self.start = self.pos = start
        self.end = len(data) if end is None else end

    def _take(self, size: int, what: str | None = None) -> int:
        """Move past ``size`` bytes of ``what`` (by default, this part),
        returning where they begin."""
        at = self.pos
        if size > self.end - at:
            raise FormatError(f"truncated {what or self.what}")
        self.pos = at + size
        return at

    def unpack(self, st: struct.Struct) -> tuple:
        return st.unpack_from(self.data, self._take(st.size))

    def array(self, dtype, count: int) -> np.ndarray:
        """The next ``count`` values, a view of the data."""
        dtype = np.dtype(dtype)
        return np.frombuffer(self.data, dtype=dtype, count=count, offset=self._take(dtype.itemsize * count))

    def block(self, what: str) -> "Reader":
        """A reader confined to the next block: a u64 length, then that many bytes."""
        (size,) = self.unpack(_BLOCK_LENGTH)
        at = self._take(size, what)
        return Reader(self.data, what, at, at + size)

    def finish(self) -> None:
        """Raise unless every byte up to the end has been read."""
        if self.pos != self.end:
            raise FormatError(f"{self.what} length mismatch")


@dataclass(frozen=True)
class Point:
    x: float
    y: float

    def __post_init__(self):
        if not (abs(self.x) <= MAX_COORD and abs(self.y) <= MAX_COORD):  # also false for NaN
            raise InvalidInputError(f"point coordinates ({self.x}, {self.y}) must be at most 2**1022 in magnitude")


@dataclass(frozen=True)
class Segment:
    id: int
    a: Point
    b: Point

    def __post_init__(self):
        if self.id < 0:
            raise InvalidInputError(f"segment id must be non-negative, got {self.id}")
        if self.a == self.b:
            raise InvalidInputError(f"segment {self.id} has zero length at {self.a}")


@dataclass(frozen=True)
class Rect:
    xmin: float
    ymin: float
    xmax: float
    ymax: float

    def __post_init__(self):
        for v in (self.xmin, self.ymin, self.xmax, self.ymax):
            if not abs(v) <= MAX_COORD:  # also true for NaN
                raise InvalidInputError(f"rectangle coordinate {v} must be at most 2**1022 in magnitude")
        if self.xmin > self.xmax or self.ymin > self.ymax:
            raise InvalidInputError(
                f"inverted rectangle ({self.xmin}, {self.ymin}, {self.xmax}, {self.ymax})"
            )


@dataclass(frozen=True)
class TimeInterval:
    start: float
    end: float

    def __post_init__(self):
        if not (math.isfinite(self.start) and math.isfinite(self.end)):
            raise InvalidInputError("non-finite time interval endpoint")
        if self.start < 0 or self.start > self.end:
            raise InvalidInputError(f"invalid time interval [{self.start}, {self.end}]")


@dataclass(frozen=True)
class IntervalRecord:
    """One object's stay on a segment; ``TrajIndex.from_columns`` checks its ids."""

    object_id: int
    interval: TimeInterval


@dataclass(frozen=True)
class ScaleConfig:
    """Decimal precision kept when truncating timestamps to integer ticks."""

    digits: int = MAX_SCALE_DIGITS

    def __post_init__(self):
        if not 0 <= self.digits <= MAX_SCALE_DIGITS:
            raise ConfigError(f"digits must be in 0..{MAX_SCALE_DIGITS}, got {self.digits}")

    @property
    def scale(self) -> int:
        return 10 ** self.digits


def discretize_time(t: float, cfg: ScaleConfig) -> int:
    """Truncate a timestamp to a tick: floor(t * 10**digits).

    The floor is taken of the exact product, so results do not depend on
    intermediate rounding.  The rounded product has the exact product's
    floor unless it is an integer: an integer between the two would lie
    nearer to the exact product than the rounded one.  That case, and
    every time the rounded product does not cover, takes the float's
    integer ratio.  This is the scalar oracle that the tests hold the
    compiled ticks of builds and queries (``discretize_times``) to.
    """
    t = float(t)
    p = t * cfg.scale
    if 0.0 <= p < 2.0**62:  # not for NaN
        tick = math.floor(p)
        if tick != p:
            return tick
    if not math.isfinite(t) or t < 0:
        raise InvalidInputError(f"timestamp must be finite and non-negative, got {t}")
    num, den = t.as_integer_ratio()
    return num * cfg.scale // den


def discretize_times(ts, cfg: ScaleConfig) -> np.ndarray:
    """Vectorized ``discretize_time`` by the queries' compiled tick rule,
    which takes ``fma``'s exact rounding error where the product rounds to
    an integer.  Raises ``InvalidInputError`` naming the first time that is
    not finite and non-negative, or whose tick no universe holds (2**62 or
    more)."""
    shape = np.shape(ts)
    t = np.ascontiguousarray(ts, dtype=np.float64).ravel()
    ticks = np.empty(t.size, dtype=np.int64)
    bad = lib.time_ticks(ffi.from_buffer("double[]", t), t.size, float(cfg.scale),
                         ffi.from_buffer("int64_t[]", ticks))
    if bad >= 0:
        t = float(t[bad])
        if not (math.isfinite(t) and t >= 0):
            raise InvalidInputError(f"timestamp {t} at position {bad} must be finite and non-negative")
        raise InvalidInputError(f"timestamp {t} at position {bad} gives a tick of 2**62 or more at "
                                f"{cfg.digits} digits, outside the sequence universe")
    return ticks.reshape(shape)


def mbb_of_segment(s: Segment) -> Rect:
    """Smallest axis-aligned rectangle containing both endpoints."""
    return Rect(
        min(s.a.x, s.b.x),
        min(s.a.y, s.b.y),
        max(s.a.x, s.b.x),
        max(s.a.y, s.b.y),
    )


def rects_overlap(a: Rect, b: Rect) -> bool:
    """Closed-set overlap: touching edges or corners count."""
    return a.xmin <= b.xmax and b.xmin <= a.xmax and a.ymin <= b.ymax and b.ymin <= a.ymax


def segment_intersects_window(s: Segment, w: Rect) -> bool:
    """Exact closed-set test between a line segment and a rectangle.

    Parametric (Liang-Barsky style) clipping of the segment against the
    four rectangle edges; a touch counts as an intersection.
    """
    ax, ay = s.a.x, s.a.y
    dx = s.b.x - ax
    dy = s.b.y - ay
    t0, t1 = 0.0, 1.0
    for p, q in (
        (-dx, ax - w.xmin),
        (dx, w.xmax - ax),
        (-dy, ay - w.ymin),
        (dy, w.ymax - ay),
    ):
        if p == 0.0:
            if q < 0.0:
                return False
        else:
            t = q / p
            if p < 0.0:
                if t > t0:
                    t0 = t
            else:
                if t < t1:
                    t1 = t
            if t0 > t1:
                return False
    return True


def segments_intersect_window(ax, ay, bx, by, w: Rect) -> np.ndarray:
    """Vectorized ``segment_intersects_window`` over endpoint arrays.

    Returns a boolean mask.  The R-tree's compiled window walk repeats this
    test operation for operation; this one is the full-scan oracles' and the
    reference the tests hold the kernel to.
    """
    ax = np.asarray(ax, dtype=np.float64)
    ay = np.asarray(ay, dtype=np.float64)
    bx = np.asarray(bx, dtype=np.float64)
    by = np.asarray(by, dtype=np.float64)
    dx = bx - ax
    dy = by - ay
    t0 = np.zeros(ax.shape)
    t1 = np.ones(ax.shape)
    ok = np.ones(ax.shape, dtype=bool)
    for p, q in (
        (-dx, ax - w.xmin),
        (dx, w.xmax - ax),
        (-dy, ay - w.ymin),
        (dy, w.ymax - ay),
    ):
        parallel = p == 0.0
        ok &= ~(parallel & (q < 0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            t = q / np.where(parallel, 1.0, p)
        t0 = np.where(~parallel & (p < 0.0), np.maximum(t0, t), t0)
        t1 = np.where(~parallel & (p > 0.0), np.minimum(t1, t), t1)
    return ok & (t0 <= t1)
