"""Shared oracles and data generators for the test suite.

The oracles here are deliberately independent of the structures they
check: full scans, quadratic DP and exponential enumeration.
"""

from __future__ import annotations

import itertools
import re
from bisect import bisect_left
from pathlib import Path

import numpy as np

import trajindex
from trajindex import (
    IntervalRecord,
    ParseError,
    Rect,
    ScaleConfig,
    TimeInterval,
    discretize_time,
    segments_intersect_window,
)
from trajindex.eliasfano import SELECT_SAMPLE, FlatEliasFano, prefix_offsets

BACKEND_NAMES = ("linear", "interval_tree", "schmidt", "iis")


def id_words(object_ids) -> int:
    """The union's bitmap words over ``object_ids``, as a ``TrajIndex``
    gives its frame: (the largest id >> 6) + 1, or 0 for no ids."""
    object_ids = np.asarray(object_ids, dtype=np.uint32)
    return (int(object_ids.max()) >> 6) + 1 if len(object_ids) else 0


def kernel_constant(name: str) -> int:
    """An integer constant of the kernel source, ``#define``d by ``name``:
    the union takes its bitmap when 0 < id_words <= UNION_WORDS_PER_ID * n
    for n ids gathered, on the stack up to UNION_STACK_WORDS words."""
    text = Path(trajindex.__file__).with_name("eliasfano_rank.c").read_text()
    return int(re.search(rf"^#define {name} (\d+)", text, re.M).group(1))


def ascending(object_ids, rows) -> list[int]:
    """The reference union: each id of ``rows`` once, in ascending order."""
    return sorted(set(np.asarray(object_ids, dtype=np.uint32)[np.asarray(rows, dtype=np.int64)].tolist()))


def reference_walk(tree, w: Rect) -> np.ndarray:
    """An R-tree's window walk in numpy: the last overlapping child of a node
    is walked first, a leaf's slots in order, and a leaf keeps each entry
    whose box overlaps the window and whose segment meets it by
    ``segments_intersect_window``."""
    q = np.array((w.xmax, w.ymax, -w.xmin, -w.ymin))
    meets = segments_intersect_window(*tree.ends, w)
    out = [np.zeros(0, dtype=np.int64)]
    stack = [0] if tree.n_entries else []
    while stack:
        k = stack.pop()
        a = tree.first.item(k)
        b = a + tree.counts.item(k)
        if k < tree.n_internal:
            stack.extend(((tree.node_boxes[a:b] <= q).all(1).nonzero()[0] + a).tolist())
        else:
            entries = tree.order[a:b]
            out.append(entries[(tree.entry_boxes[a:b] <= q).all(1) & meets[entries]])
    return np.concatenate(out, dtype=np.int64)


def exact_floor_times(digits: int) -> list[float]:
    """Times to check a discretization against the exact floor with:
    floats of every kind, decimals whose rounded product with 10**digits is
    an integer, and products on both sides of 2**62."""
    rng = np.random.default_rng(50 + digits)
    scale = 10**digits
    sums = [a / 10**d + b / 10**d for d in range(9) for a, b in rng.integers(0, 10**4, (40, 2)).tolist()]
    below = above = 2.0**62 / scale
    near_top = [below]
    for _ in range(40):
        below, above = float(np.nextafter(below, 0.0)), float(np.nextafter(above, np.inf))
        near_top += [below, above]
    return [
        *rng.uniform(0, 1e6, 2000).tolist(), *(rng.random(500) * 10.0 ** rng.integers(-300, 300, 500)).tolist(),
        *[round(float(t), d) for d in range(9) for t in rng.uniform(0, 1e4, 300)],
        *[k / 10**d for d in range(9) for k in rng.integers(0, 10**7, 100).tolist()],
        0.1 + 0.2, 0.7 + 0.1, 1.1 * 3, 0.145, 2.675, 1.0000000000000002, *sums,
        *near_top, 2.0**61 / scale, 2.0**63 / scale, 1e300, 0.0, -0.0, 5e-324,
    ]


def top_edge_times(digits: int) -> list[float]:
    """Times whose products with 10**digits lie on both sides of 2**62 and
    of 2**63, and the largest floats."""
    scale = 10**digits
    at_top = []
    for edge in (2.0**62, 2.0**63):
        below = above = edge / scale
        for _ in range(30):
            at_top += [below, above]
            below, above = float(np.nextafter(below, 0.0)), float(np.nextafter(above, np.inf))
    return [*at_top, 1e300, 1.7976931348623157e308]


def near_integer_times(digits: int) -> np.ndarray:
    """Decimal times whose float lies just below or above them, their float
    neighbours, and products with 10**digits up to 2**61, where a float's
    spacing exceeds 1."""
    rng = np.random.default_rng(digits)
    scale = 10**digits
    k = rng.integers(0, 2**53 // scale, 600)
    decimal = k / scale
    huge = rng.integers(0, 2**61 // scale, 600).astype(np.float64)
    return np.concatenate([
        np.round(rng.uniform(0, 1e5, 600), 8),  # workload-style 8-decimal times
        np.round(rng.uniform(0, 1e3, 600), 6),
        decimal, np.nextafter(decimal, np.inf), np.nextafter(decimal, 0),
        rng.uniform(0, 2.0**61 / scale, 600), huge, np.nextafter(huge, 0), np.nextafter(huge, np.inf),
        [0.0, 5e-324, 0.145, 2.0**61 / scale, np.nextafter(2.0**62 / scale, 0)],
    ])


def make_records(starts, lengths) -> list[IntervalRecord]:
    return [
        IntervalRecord(i, TimeInterval(float(s), float(s) + float(ln)))
        for i, (s, ln) in enumerate(zip(starts, lengths))
    ]


def reference_record_columns(path: str):
    """The record reader as a loop of per-line ``int`` and ``float`` calls:
    the columns ``read_record_columns`` must return, and the line of the
    first ``ParseError`` it must raise."""
    segments, objects, starts, ends = [], [], [], []
    with open(path, encoding="ascii") as fh:
        for line_no, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            try:
                if parts[0] != "r" or len(parts) != 5:
                    raise ValueError("expected 'r <object> <edge> <t_entry> <t_exit>'")
                obj, eid = int(parts[1]), int(parts[2])
                if not (-(2**63) <= obj < 2**63 and -(2**63) <= eid < 2**63):
                    raise ValueError("an id outside the int64 range")
                start, end = float(parts[3]), float(parts[4])
            except ValueError as exc:
                raise ParseError(path, line_no, str(exc)) from None
            segments.append(eid)
            objects.append(obj)
            starts.append(start)
            ends.append(end)
    return (np.array(segments, dtype=np.int64), np.array(objects, dtype=np.int64),
            np.array(starts, dtype=np.float64), np.array(ends, dtype=np.float64))


def scenario_arrays(rng: np.random.Generator, kind: str, n: int, horizon: float = 1000.0):
    """(starts, lengths) float arrays for the workload scenarios and the
    adversarial shapes used in the equivalence trials."""
    if kind == "fixed":
        return rng.uniform(0, horizon, n), np.full(n, horizon / 100.0)
    if kind == "random":
        return rng.uniform(0, horizon, n), rng.uniform(0, horizon, n)
    if kind == "trajectory":
        mean = horizon / 100.0
        return rng.uniform(0, horizon, n), mean * (1 + 0.05 * rng.uniform(-1, 1, n))
    if kind == "nested":  # a containment chain with noise
        s = np.sort(rng.uniform(0, horizon / 4, n))
        return s, (horizon / 2 - 2 * s) + rng.uniform(0, 1e-3, n)
    if kind == "identical":
        return np.full(n, horizon / 3), np.full(n, horizon / 10)
    if kind == "shared":  # small integer endpoints, many ties
        return (
            rng.integers(0, 8, n).astype(float),
            rng.integers(0, 5, n).astype(float),
        )
    raise ValueError(kind)


def full_scan_objects(network, records, window: Rect, t0: float, t1: float,
                      scale: ScaleConfig) -> set[int]:
    """End-to-end oracle: scan every (segment, record) pair."""
    l = discretize_time(t0, scale)
    r = discretize_time(t1, scale)
    out: set[int] = set()
    for seg_id, rec in records:
        seg = network.edges[seg_id]
        hit = segments_intersect_window(
            np.array([seg.a.x]), np.array([seg.a.y]), np.array([seg.b.x]), np.array([seg.b.y]), window
        )[0]
        if not hit:
            continue
        ls = discretize_time(rec.interval.start, scale)
        le = discretize_time(rec.interval.end, scale)
        if ls <= r and le >= l:
            out.add(rec.object_id)
    return out


class FullScanOracle:
    """Vectorized full-scan oracle over a fixed (network, records) dataset."""

    def __init__(self, network, records, scale: ScaleConfig):
        self.network = network
        self.scale = scale
        self.seg_ids = np.array([seg_id for seg_id, _ in records], dtype=np.int64)
        self.obj_ids = np.array([rec.object_id for _, rec in records], dtype=np.int64)
        from trajindex import discretize_times

        self.t_start = np.array([rec.interval.start for _, rec in records], dtype=np.float64)
        self.t_end = np.array([rec.interval.end for _, rec in records], dtype=np.float64)
        self.start_ticks = discretize_times(self.t_start, scale)
        self.end_ticks = discretize_times(self.t_end, scale)
        self.ax = np.array([s.a.x for s in network.edges])
        self.ay = np.array([s.a.y for s in network.edges])
        self.bx = np.array([s.b.x for s in network.edges])
        self.by = np.array([s.b.y for s in network.edges])

    def _hits(self, window: Rect, t0: float, t1: float) -> np.ndarray:
        l = discretize_time(t0, self.scale)
        r = discretize_time(t1, self.scale)
        seg_hit = segments_intersect_window(self.ax, self.ay, self.bx, self.by, window)
        return seg_hit[self.seg_ids] & (self.start_ticks <= r) & (self.end_ticks >= l)

    def query(self, window: Rect, t0: float, t1: float) -> set[int]:
        return set(np.unique(self.obj_ids[self._hits(window, t0, t1)]).tolist())

    def matches(self, window: Rect, t0: float, t1: float) -> list[tuple[int, int, TimeInterval]]:
        """The matching records as ``verbose`` lists them, (object, segment,
        interval), in ``sorted_matches`` order."""
        hit = np.flatnonzero(self._hits(window, t0, t1))
        return sorted_matches((o, s, TimeInterval(a, b)) for o, s, a, b in zip(
            self.obj_ids[hit].tolist(), self.seg_ids[hit].tolist(), self.t_start[hit].tolist(),
            self.t_end[hit].tolist()))


def sorted_matches(matches) -> list[tuple[int, int, TimeInterval]]:
    """``verbose`` matches sorted by object, segment, start and end."""
    return sorted(matches, key=lambda m: (m[0], m[1], m[2].start, m[2].end))


def min_chain_cover_dp(starts, ends) -> int:
    """Minimum strictly-increasing-chain cover via its dual: the longest
    sequence pairwise ordered by (start non-increasing, end non-decreasing),
    computed with a quadratic DP."""
    n = len(starts)
    if n == 0:
        return 0
    order = sorted(range(n), key=lambda i: (-starts[i], ends[i]))
    best = [1] * n
    for a in range(n):
        i = order[a]
        for b in range(a):
            j = order[b]
            if starts[j] >= starts[i] and ends[j] <= ends[i]:
                best[a] = max(best[a], best[b] + 1)
    return max(best)


def max_antichain_bruteforce(starts, ends) -> int:
    """Exponential reference for the DP above (tiny inputs only)."""
    n = len(starts)
    best = 0
    for mask in range(1 << n):
        members = [i for i in range(n) if mask >> i & 1]
        ok = True
        for a in range(len(members)):
            for b in range(a + 1, len(members)):
                i, j = members[a], members[b]
                if (starts[i] < starts[j] and ends[i] < ends[j]) or (
                    starts[j] < starts[i] and ends[j] < ends[i]
                ):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            best = max(best, len(members))
    return best


def reference_decomposition(starts, ends, groups=None) -> tuple[np.ndarray, int]:
    """The greedy decomposition as a Python loop with one ``bisect`` per
    record: the placement the compiled ``decompose_independent_sets`` must
    reproduce set id for set id."""
    starts = np.asarray(starts, dtype=np.int64)
    ends = np.asarray(ends, dtype=np.int64)
    n = len(starts)
    groups = np.zeros(n, dtype=np.int64) if groups is None else np.asarray(groups, dtype=np.int64)
    order = np.lexsort((-ends, starts, groups))  # group asc, start asc, end desc, index asc
    sorted_groups = groups[order]
    cuts = [0, *(np.flatnonzero(sorted_groups[1:] != sorted_groups[:-1]) + 1).tolist(), n]
    ends_l = ends[order].tolist()
    placed = [0] * n
    m = 0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        tails: list[int] = []     # tail end per open set, ascending
        tail_set: list[int] = []  # set id per tail position
        for p in range(lo, hi):
            e = ends_l[p]
            pos = bisect_left(tails, e)
            if pos == 0:
                tails.insert(0, e)
                tail_set.insert(0, m)
                placed[p] = m
                m += 1
            else:
                tails[pos - 1] = e
                placed[p] = tail_set[pos - 1]
    assignment = np.empty(n, dtype=np.int64)
    assignment[order] = placed
    return assignment, m


def reference_encoding(values, sizes, u: int) -> FlatEliasFano:
    """Elias-Fano packing with ``np.bitwise_or.at`` and ``np.packbits``: the
    words the compiled encoder of ``FlatEliasFano.from_values`` must write."""
    values = np.asarray(values, dtype=np.int64)
    sizes = np.asarray(sizes, dtype=np.int64)
    widths = FlatEliasFano._widths(u, sizes)
    low_bits, high_bits, _ = FlatEliasFano._section_lengths(u, sizes, widths)
    seq = np.repeat(np.arange(len(sizes)), sizes)
    index = np.arange(len(values)) - prefix_offsets(sizes)[seq]
    width = widths[seq]
    pos = prefix_offsets(low_bits)[seq] + index * width
    lows = np.zeros(-(-int(low_bits.sum()) // 64) + 2, dtype=np.uint64)
    low = (values & ((1 << width) - 1)).astype(np.uint64)
    shift = (pos & 63).astype(np.uint64)
    np.bitwise_or.at(lows, pos >> 6, low << shift)
    np.bitwise_or.at(lows, (pos >> 6) + 1, (low >> np.uint64(1)) >> (np.uint64(63) - shift))
    bits = np.zeros(-(-int(high_bits.sum()) // 64) * 64, dtype=np.uint8)
    bits[prefix_offsets(high_bits)[seq] + (values >> width) + index] = 1
    highs = np.packbits(bits, bitorder="little").view("<u8").astype(np.uint64)
    # per sequence, the position of every SELECT_SAMPLE-th zero of its high part, from zero number SELECT_SAMPLE on
    zeros = [np.flatnonzero(bits[a:b] == 0)[SELECT_SAMPLE::SELECT_SAMPLE]
             for a, b in itertools.pairwise(prefix_offsets(high_bits).tolist())]
    samples = np.append(np.concatenate([np.zeros(0, np.int64), *zeros]), 0).astype(np.uint32)
    return FlatEliasFano(u, sizes, lows, highs, samples)
