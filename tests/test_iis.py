import gc
import itertools
import math

import numpy as np
import pytest

from trajindex import FormatError, ScaleConfig, brute_force_intersect
from trajindex.core import Reader
from trajindex.eliasfano import prefix_offsets
from trajindex.kernel import ffi, lib
from trajindex.temporal import record_tick_arrays
from trajindex.temporal.base import range_query_error
from trajindex.temporal.iis import IISIndex, decompose_independent_sets

from helpers import (
    ascending,
    id_words,
    kernel_constant,
    make_records,
    max_antichain_bruteforce,
    min_chain_cover_dp,
    reference_decomposition,
    scenario_arrays,
)


def assert_valid_decomposition(starts, ends, assignment, m):
    """Every record in exactly one set; each set strictly increasing in both
    endpoints when ordered by start."""
    assert len(assignment) == len(starts)
    if len(starts):
        assert set(assignment.tolist()) == set(range(m))
    for k in range(m):
        members = np.flatnonzero(assignment == k)
        order = members[np.argsort(starts[members], kind="stable")]
        s, e = starts[order], ends[order]
        assert (np.diff(s) > 0).all()
        assert (np.diff(e) > 0).all()


def decompose(starts, ends, groups=None):
    """The compiled decomposition, checked set id for set id against the
    Python reference."""
    a, m = decompose_independent_sets(starts, ends, groups)
    want_a, want_m = reference_decomposition(starts, ends, groups)
    assert m == want_m
    assert a.tolist() == want_a.tolist()
    return a, m


class TestDecomposition:
    def test_examples(self):
        a, m = decompose_independent_sets(np.array([], int), np.array([], int))
        assert m == 0 and len(a) == 0

        a, m = decompose_independent_sets(np.array([1, 2, 5]), np.array([4, 3, 8]))
        assert m == 2
        assert a[0] == a[2] != a[1]  # [2,3] nests inside [1,4]

        a, m = decompose_independent_sets(np.array([0, 1, 2]), np.array([2, 3, 4]))
        assert m == 1

        a, m = decompose_independent_sets(np.array([5, 5]), np.array([9, 9]))
        assert m == 2  # identical intervals cannot share a set

    def test_oracles_agree_with_each_other(self):
        # the quadratic DP against exhaustive enumeration on tiny cases
        intervals = [(s, e) for s in range(4) for e in range(s, 4)]
        for k in (1, 2, 3):
            for combo in itertools.combinations_with_replacement(intervals, k):
                s = np.array([c[0] for c in combo])
                e = np.array([c[1] for c in combo])
                assert min_chain_cover_dp(s, e) == max_antichain_bruteforce(s, e)

    def test_minimal_on_exhaustive_small_cases(self):
        intervals = [(s, e) for s in range(4) for e in range(s, 4)]
        for k in (1, 2, 3, 4):
            for combo in itertools.combinations_with_replacement(intervals, k):
                s = np.array([c[0] for c in combo])
                e = np.array([c[1] for c in combo])
                a, m = decompose(s, e)
                assert_valid_decomposition(s, e, a, m)
                assert m == min_chain_cover_dp(s, e), combo

    def test_minimal_on_random_cases(self):
        rng = np.random.default_rng(0)
        for _ in range(800):
            n = int(rng.integers(0, 13))
            s = rng.integers(0, 8, n)
            e = s + rng.integers(0, 8 - s.clip(max=7)) if n else s
            a, m = decompose(s, e)
            assert_valid_decomposition(s, e, a, m)
            assert m == min_chain_cover_dp(s, e)

    def test_valid_on_larger_workloads(self):
        rng = np.random.default_rng(1)
        for kind in ("fixed", "random", "trajectory", "nested", "identical", "shared"):
            starts, lengths = scenario_arrays(rng, kind, 600)
            records = make_records(starts, lengths)
            s, e = record_tick_arrays(records, ScaleConfig(2))
            a, m = decompose(s, e)
            assert_valid_decomposition(s, e, a, m)

    @pytest.mark.parametrize("kind", ["random", "nested", "identical", "shared", "equal_starts"])
    def test_groups_match_reference(self, kind):
        # heavy ties, groups numbered out of order, with gaps and singletons
        rng = np.random.default_rng(12)
        for n in (0, 1, 2, 7, 300, 2_000):
            if kind == "equal_starts":
                s = np.full(n, 40, dtype=np.int64)
                e = s + rng.integers(0, 6, n)
            else:
                s, e = record_tick_arrays(make_records(*scenario_arrays(rng, kind, n)), ScaleConfig(0))
            groups = rng.choice([9, 2, 2, 5, 0, 2**40], n)
            order = rng.permutation(n)
            a, m = decompose(s[order], e[order], groups[order])
            for g in np.unique(groups).tolist():
                members = np.flatnonzero(groups[order] == g)
                assert_valid_decomposition(s[order][members], e[order][members], a[members] - a[members].min(),
                                           len(np.unique(a[members])))


def ordered(starts, ends, groups, n_groups):
    """The compiled decomposition with dense groups, checked against
    ``np.lexsort`` for the order and the Python reference for the sets."""
    s, e, g = (np.asarray(a, dtype=np.int64) for a in (starts, ends, groups))
    a, m, order = decompose_independent_sets(s, e, g, n_groups=n_groups, return_order=True)
    assert order.tolist() == np.lexsort((-e, s, g)).tolist()
    want_a, want_m = reference_decomposition(s, e, g)
    assert m == want_m and a.tolist() == want_a.tolist()
    return order


class TestOrderKernel:
    """The record order the decomposition sorts into: by group, start
    ascending, end descending, then record index."""

    def test_ties(self):
        rng = np.random.default_rng(30)
        for n in (2, 15, 16, 17, 33, 200, 3_000):
            s = rng.integers(0, 4, n)
            e = s + rng.integers(0, 3, n)  # ties on start, on end and identical intervals
            ordered(s, e, rng.integers(0, 3, n), 3)
            ordered(np.full(n, 7), np.full(n, 9), np.zeros(n), 1)
            ordered(np.arange(n)[::-1], np.full(n, n + 5), np.zeros(n), 1)

    def test_group_shapes(self):
        # empty groups, groups of one record and records in the last group
        rng = np.random.default_rng(31)
        for n in (1, 5, 40, 1_000):
            groups = rng.choice([1, 4, 4, 4, 9], n)
            groups[-1] = 11
            s = rng.integers(0, 50, n)
            order = ordered(s, s + rng.integers(0, 50, n), groups, 12)
            assert groups[order].tolist() == sorted(groups.tolist())
        ordered([3], [5], [0], 1)

    def test_no_records(self):
        for n_groups in (0, 1, 5):
            assert ordered([], [], [], n_groups).tolist() == []
        a, m = decompose_independent_sets([], [], [])
        assert m == 0 and len(a) == 0

    def test_ticks_near_the_universe_limit(self):
        rng = np.random.default_rng(32)
        top = 2**62 - 1
        s = top - rng.integers(0, 40, 500)
        e = np.minimum(s + rng.integers(0, 40, 500), top)
        ordered(s, e, rng.integers(0, 2, 500), 2)
        ordered([0, top, 0, top], [top, top, 0, top], [0, 0, 0, 0], 1)

    def test_group_outside_the_range_raises(self):
        s = np.array([1, 2, 3, 4])
        for bad in (-1, 3, 2**40):
            with pytest.raises(IndexError, match=f"record 2: group {bad} outside"):
                decompose_independent_sets(s, s + 1, np.array([0, 2, bad, 1]), n_groups=3)
        with pytest.raises(IndexError):
            IISIndex.from_segments(s, s + 1, np.array([0, 1, 2, 1]), 2)
        with pytest.raises(ValueError, match="one value per interval"):
            decompose_independent_sets(s, s[:3] + 1)


class TestIISIndex:
    def test_empty(self):
        index = IISIndex.build([], ScaleConfig(0))
        assert index.m == 0
        assert index.query(0, 10**9).tolist() == []

    def test_three_interval_example(self):
        records = make_records([1, 2, 5], [3, 1, 3])  # [1,4], [2,3], [5,8]
        index = IISIndex.build(records, ScaleConfig(0))
        assert index.m == 2
        for l, r in [(0, 100), (3, 4), (9, 9), (4, 4)]:
            want = brute_force_intersect(records, l, r, ScaleConfig(0)).tolist()
            assert sorted(index.query(l, r).tolist()) == want

    def test_rank_arithmetic_on_single_set(self):
        # one set [0,2],[1,3],[2,4]: at [3,3] the last candidate is the
        # third start, the first is one past the single end below 3
        records = make_records([0, 1, 2], [2, 2, 2])
        index = IISIndex.build(records, ScaleConfig(0))
        assert index.m == 1
        first, last = index.sets[0].query_slice(3, 3)
        assert (first, last) == (1, 3)
        assert sorted(index.query(3, 3).tolist()) == [1, 2]
        assert index.query(4, 6).tolist() == [2]
        assert index.query(5, 6).tolist() == []

    def test_batched_query_matches_scalar_set_ranks(self):
        # the batched rank over all sets against per-set ranks, and each
        # set's ranks against a scan of its decoded values
        rng = np.random.default_rng(2)
        for kind in ("random", "nested", "shared"):
            starts, lengths = scenario_arrays(rng, kind, 300)
            records = make_records(starts, lengths)
            index = IISIndex.build(records, ScaleConfig(2))
            sets = [(s, s.starts_seq.to_array(), s.ends_seq.to_array()) for s in index.sets]
            for _ in range(50):
                l = int(rng.integers(-2, 10**5))
                r = l + int(rng.integers(0, 10**4))
                want = []
                for k, (s, set_starts, set_ends) in enumerate(sets):
                    first, last = s.query_slice(l, r)
                    assert list(range(first, last)) == np.flatnonzero((set_starts <= r) & (set_ends >= l)).tolist()
                    want += index.row_ids[index.set_rows[k] + first: index.set_rows[k] + last].tolist()
                assert sorted(index.query(l, r).tolist()) == sorted(want)

    def test_segments_decomposed_on_their_own(self):
        rng = np.random.default_rng(6)
        starts, lengths = scenario_arrays(rng, "random", 500)
        s, e = record_tick_arrays(make_records(starts, lengths), ScaleConfig(1))
        segment = rng.integers(0, 7, len(s))
        segment[segment == 3] = 4  # segment 3 stays empty
        index, order = IISIndex.from_segments(s, e, segment, 7)
        assignment, _ = decompose_independent_sets(s, e, segment)
        assert order.tolist() == np.lexsort((s, assignment)).tolist()  # set by set, by start inside a set
        assert (segment[order][index.set_rows[:-1]] == np.repeat(np.arange(7), index.set_counts())).all()
        assert index.set_counts()[3] == 0
        for g in range(7):
            members = np.flatnonzero(segment == g)
            _, m = decompose_independent_sets(s[members], e[members])
            assert index.set_counts()[g] == m
        for _ in range(60):
            l = int(rng.integers(0, 11_000))
            r = l + int(rng.integers(0, 2_000))
            probe = rng.choice(7, size=int(rng.integers(0, 8)), replace=False)
            want = np.flatnonzero(np.isin(segment, probe) & (s <= r) & (e >= l))
            got = order[index.query(l, r, probe)]
            assert sorted(got.tolist()) == want.tolist()

    def test_scale_monotonicity(self):
        # a lossy build answers exactly like the oracle on the same ticks
        rng = np.random.default_rng(3)
        starts, lengths = scenario_arrays(rng, "trajectory", 500)
        records = make_records(starts, lengths)
        for digits in (0, 2, 4, 6, 8):
            cfg = ScaleConfig(digits)
            index = IISIndex.build(records, cfg)
            hi = 1000 * cfg.scale
            for _ in range(25):
                l = int(rng.integers(0, hi))
                r = l + int(rng.integers(0, hi // 3))
                want = brute_force_intersect(records, l, r, cfg).tolist()
                assert sorted(index.query(l, r).tolist()) == want


def reference_rows(index, l, r, segments=None):
    """Rows from per-set ranks of the set's two sequences: segment by
    segment as given, set by set, ascending inside a set."""
    segments = range(len(index.seg_sets) - 1) if segments is None else segments
    out = []
    for g in segments:
        for k in range(index.seg_sets[g], index.seg_sets[g + 1]):
            last = index.seqs.sequence(2 * k).rank(r)
            first = index.seqs.sequence(2 * k + 1).rank(l - 1)
            rows = range(index.set_rows[k] + first, index.set_rows[k] + max(last, first))
            out += list(rows) if index.row_ids is None else index.row_ids[list(rows)].tolist()
    return out


def segment_index(rng, n=600):
    """An index over segments 0..8 where segments 3 and 5 hold no records."""
    starts, lengths = scenario_arrays(rng, "random", n)
    s, e = record_tick_arrays(make_records(starts, lengths), ScaleConfig(1))
    return IISIndex.from_segments(s, e, rng.choice([0, 1, 2, 4, 6, 7, 8], len(s)), 9)[0]


def assert_rows_alike(index, l, r, segments=None):
    got = index.query(l, r, segments)
    assert got.dtype == np.int64
    assert got.tolist() == reference_rows(index, l, r, segments), (l, r, segments)


class TestKernelRows:
    """The compiled row output against per-set ranks: the same rows in the
    same order."""

    def test_segment_choices(self):
        rng = np.random.default_rng(7)
        index = segment_index(rng)
        assert index.set_counts()[[3, 5]].tolist() == [0, 0]
        probes = [np.zeros(0, dtype=np.int64), np.array([3]), np.array([5, 3]), np.array([3, 1, 5, 0]),
                  np.array([8, 0, 8]), np.arange(9)[::-1], None]
        for _ in range(40):
            l = int(rng.integers(-5, 12_000))
            r = l + int(rng.integers(0, 3_000))
            for probe in probes:
                assert_rows_alike(index, l, r, probe)
        assert index.query(0, 10**9, np.zeros(0, dtype=np.int64)).tolist() == []
        assert index.query(0, 10**9, np.array([3, 5])).tolist() == []

    def test_query_bounds(self):
        rng = np.random.default_rng(8)
        index = segment_index(rng)
        u = index.u
        for l, r in [(0, 0), (0, 50), (0, u - 1), (0, u), (0, 10**30), (-(10**30), 10**30), (u - 1, u - 1),
                     (u, u), (u + 5, 10**30), (-3, -1), (-1, 0), (100, 100), (4_321, 4_321)]:
            assert_rows_alike(index, l, r)
            assert_rows_alike(index, l, r, np.array([2, 0, 7]))
        assert sorted(index.query(0, u).tolist()) == list(range(index.n))

    def test_unit_universe(self):
        # every tick 0: identical intervals, one set each
        segment = np.array([0, 1, 1, 0, 1])
        index, _ = IISIndex.from_segments(np.zeros(5, int), np.zeros(5, int), segment, 2)
        assert index.u == 1 and index.m == 5
        for l, r in [(0, 0), (0, 3), (-2, -1), (1, 1)]:
            for probe in (None, np.array([1]), np.array([1, 0])):
                assert_rows_alike(index, l, r, probe)
        assert index.query(0, 0, np.array([1, 0])).tolist() == [2, 3, 4, 0, 1]

    def test_stand_alone_row_ids(self):
        rng = np.random.default_rng(9)
        starts, lengths = scenario_arrays(rng, "random", 500)
        records = make_records(starts, lengths)
        index = IISIndex.build(records, ScaleConfig(2))
        assert index.m > 1 and (index.row_ids != np.arange(500)).any()
        for _ in range(60):
            l = int(rng.integers(-10, 10**5))
            r = l + int(rng.integers(0, 10**4))
            assert_rows_alike(index, l, r)
            assert_rows_alike(index, l, r, np.array([0, 0]))
            assert sorted(index.query(l, r).tolist()) == brute_force_intersect(records, l, r, ScaleConfig(2)).tolist()

    def test_int64_offsets(self):
        rng = np.random.default_rng(10)
        index = segment_index(rng, n=2_000)
        flat = index.seqs
        # the bases an index gets once it passes 2^32 bits
        flat.low_base, flat.high_base, flat.sample_base = (
            b.astype(np.int64) for b in (flat.low_base, flat.high_base, flat.sample_base))
        flat._bind()
        assert flat.c_struct.offset_size == 8
        wide = IISIndex(index.seg_sets, index.set_rows, flat)
        for _ in range(60):
            l = int(rng.integers(-5, 12_000))
            r = l + int(rng.integers(0, 3_000))
            probe = rng.integers(0, 9, int(rng.integers(0, 12)))
            assert wide.query(l, r, probe).tolist() == index.query(l, r, probe).tolist()
            assert_rows_alike(wide, l, r, probe)

    def test_keeps_the_codec_struct_past_a_rebind(self):
        """Rebinding the codec to int64 offsets replaces its struct and the
        arrays it points to; the index keeps the ones its own struct points
        to, when nothing else does.  Under the sanitizers, a read of a freed
        array fails the test."""
        rng = np.random.default_rng(12)
        index = segment_index(rng, n=2_000)
        ticks = [(int(l), int(l + rng.integers(0, 3_000))) for l in rng.integers(-5, 12_000, 30)]
        want = [index.query(l, r).tolist() for l, r in ticks]
        flat = index.seqs
        flat.low_base, flat.high_base, flat.sample_base = (
            b.astype(np.int64) for b in (flat.low_base, flat.high_base, flat.sample_base))
        flat._bind()
        del flat
        gc.collect()
        assert [index.query(l, r).tolist() for l, r in ticks] == want

    def test_segment_out_of_range_raises(self):
        rng = np.random.default_rng(11)
        index = segment_index(rng)
        for g in (9, -1, 2**40):
            with pytest.raises(IndexError, match="no segment"):
                index.query(0, 10**6, np.array([0, 4, g, 1]))
        assert_rows_alike(index, 0, 10**6, np.array([0, 4, 8, 1]))


def record_ids(rng, n):
    """One object id per row: repeats, both ends of the u32 range, and
    enough distinct ids that long answers take the radix sort."""
    ids = rng.choice(np.array([0, 1, 7, 2**31, 2**32 - 2, 2**32 - 1], dtype=np.uint32), n)
    spread = rng.random(n) < 0.5
    ids[spread] = rng.integers(0, 2**32, int(spread.sum()), dtype=np.uint64).astype(np.uint32)
    return ids


def query_ids(index, object_ids, l, r, segments=None, words=None):
    """The ids, as a list, that the kernel's range entry gathers for the rows
    ``query(l, r, segments)`` gives, ``object_ids`` holding one id per row
    (all segments by default).  Its frame has one edge per segment and the
    scale 1, so the times ``l`` and ``r``, which must not be negative, have
    the ticks ``l`` and ``r``.  Its bitmap words are ``words``, by default
    those a ``TrajIndex`` gives these ids."""
    n = len(index.seg_sets) - 1
    ids = ffi.from_buffer("uint32_t[]", object_ids)
    words = id_words(object_ids) if words is None else words
    frame = ffi.new("range_frame *", [n, 1.0, ids, words])
    hits = np.arange(n) if segments is None else np.ascontiguousarray(segments, dtype=np.int64)
    out = lib.iis_range(index.c_struct, frame, ffi.from_buffer("int64_t[]", hits), len(hits), float(l), float(r))
    if out.status:
        raise range_query_error(out.status, hits, l, r)
    assert (out.out == ffi.NULL) == (out.n == 0)
    found = ffi.unpack(ffi.cast("uint32_t *", out.out), out.n) if out.n else []
    lib.free(out.out)
    return found


def assert_ids_alike(index, object_ids, l, r, segments=None):
    """The ids against the union of the rows ``query`` gives."""
    rows = index.query(l, r, segments)
    assert query_ids(index, object_ids, l, r, segments) == ascending(object_ids, rows), (l, r, segments)
    return len(rows)


class TestKernelIds:
    """The compiled range entry's sorted object ids against the union of the
    rows the same index answers with, for the probes and the non-negative
    ticks of TestKernelRows."""

    def test_segment_choices(self):
        rng = np.random.default_rng(7)
        index = segment_index(rng)
        ids = record_ids(rng, index.n)
        probes = [np.zeros(0, dtype=np.int64), np.array([3]), np.array([5, 3]), np.array([3, 1, 5, 0]),
                  np.array([8, 0, 8]), np.arange(9)[::-1], np.arange(9), None]
        sizes = set()
        for _ in range(40):
            l = int(rng.integers(0, 12_000))
            r = l + int(rng.integers(0, 3_000))
            for probe in probes:
                sizes.add(assert_ids_alike(index, ids, l, r, probe))
        assert 0 in sizes and min(sizes - {0}) <= 32 < max(sizes)  # both sorts, and no rows at all
        assert query_ids(index, ids, 0, 10**9, np.zeros(0, dtype=np.int64)) == []
        assert query_ids(index, ids, 0, 10**9, np.array([3, 5])) == []

    def test_query_bounds(self):
        rng = np.random.default_rng(8)
        index = segment_index(rng)
        ids = record_ids(rng, index.n)
        u = index.u
        for l, r in [(0, 0), (0, 50), (0, u - 1), (0, u), (0, 10**30), (u - 1, u - 1), (u, u), (u + 5, 10**30),
                     (100, 100), (4_321, 4_321)]:
            assert_ids_alike(index, ids, l, r)
            assert_ids_alike(index, ids, l, r, np.array([2, 0, 7]))
        assert query_ids(index, ids, 0, u) == np.unique(ids).tolist()

    def test_unit_universe(self):
        segment = np.array([0, 1, 1, 0, 1])
        index, _ = IISIndex.from_segments(np.zeros(5, int), np.zeros(5, int), segment, 2)
        ids = np.array([4, 9, 4, 2**32 - 1, 0], dtype=np.uint32)
        assert index.u == 1
        for l, r in [(0, 0), (0, 3), (1, 1)]:
            for probe in (None, np.array([1]), np.array([1, 0])):
                assert_ids_alike(index, ids, l, r, probe)
        # rows 2, 3, 4 of segment 1 and rows 0, 1 of segment 0
        assert query_ids(index, ids, 0, 0, np.array([1, 0])) == [0, 4, 9, 2**32 - 1]

    def test_stand_alone_row_ids(self):
        rng = np.random.default_rng(9)
        starts, lengths = scenario_arrays(rng, "random", 500)
        records = make_records(starts, lengths)
        index = IISIndex.build(records, ScaleConfig(2))
        ids = record_ids(rng, 500)  # by record, which the row ids map to
        assert (index.row_ids != np.arange(500)).any()
        for _ in range(60):
            l = int(rng.integers(0, 10**5))
            r = l + int(rng.integers(0, 10**4))
            assert_ids_alike(index, ids, l, r)
            assert_ids_alike(index, ids, l, r, np.array([0, 0]))
            assert query_ids(index, ids, l, r) == ascending(ids, brute_force_intersect(records, l, r,
                                                                                       ScaleConfig(2)))

    def test_int64_offsets(self):
        rng = np.random.default_rng(10)
        index = segment_index(rng, n=2_000)
        ids = record_ids(rng, index.n)
        flat = index.seqs
        flat.low_base, flat.high_base, flat.sample_base = (
            b.astype(np.int64) for b in (flat.low_base, flat.high_base, flat.sample_base))
        flat._bind()
        assert flat.c_struct.offset_size == 8
        wide = IISIndex(index.seg_sets, index.set_rows, flat)
        for _ in range(60):
            l = int(rng.integers(0, 12_000))
            r = l + int(rng.integers(0, 3_000))
            probe = rng.integers(0, 9, int(rng.integers(0, 12)))
            assert query_ids(wide, ids, l, r, probe) == query_ids(index, ids, l, r, probe)
            assert_ids_alike(wide, ids, l, r, probe)

    def test_probes_of_other_dtypes(self):
        """A probe of another integer dtype, a strided one or a list answers
        as the same segments in int64 do."""
        rng = np.random.default_rng(13)
        index = segment_index(rng)
        ids = record_ids(rng, index.n)
        probes = [np.array([2, 0, 3, 0], dtype=np.int32), np.array([0, 1, 2, 3], dtype=np.uint8),
                  np.array([0, 1, 2, 3], dtype=np.int32), np.array([8, 0, 7, 1, 4, 2], dtype=np.uint16)[::2],
                  [6, 1]]
        for probe in probes:
            rows = index.query(0, 10**6, np.array(probe, dtype=np.int64))
            assert len(rows) and index.query(0, 10**6, probe).tolist() == rows.tolist()
            assert query_ids(index, ids, 0, 10**6, probe) == ascending(ids, rows)

    def test_segment_out_of_range_raises(self):
        rng = np.random.default_rng(11)
        index = segment_index(rng)
        ids = record_ids(rng, index.n)
        for g in (9, -1, 2**40):
            with pytest.raises(IndexError, match=f"hit 2: no edge {g}"):
                query_ids(index, ids, 0, 10**6, np.array([0, 4, g, 1]))
        assert_ids_alike(index, ids, 0, 10**6, np.array([0, 4, 8, 1]))

    def test_one_object(self):
        rng = np.random.default_rng(14)
        index = segment_index(rng)
        for obj in (0, 63, 64, 2**32 - 1):
            ids = np.full(index.n, obj, dtype=np.uint32)
            for l, r in [(0, 10**6), (0, 0), (5_000, 5_100)]:
                assert_ids_alike(index, ids, l, r)
            assert query_ids(index, ids, 0, 10**6) == [obj]

    def test_largest_id_takes_the_sort(self):
        rng = np.random.default_rng(15)
        index = segment_index(rng)
        ids = rng.integers(0, 100, index.n).astype(np.uint32)
        ids[::7] = 2**32 - 1
        assert id_words(ids) > kernel_constant("UNION_WORDS_PER_ID") * index.n
        for l, r in [(0, 10**6), (0, 50), (4_000, 4_500)]:
            assert_ids_alike(index, ids, l, r)
            assert_ids_alike(index, ids, l, r, np.array([6, 0]))

    def test_word_boundary(self):
        rng = np.random.default_rng(16)
        index = segment_index(rng)
        for top, words in ((63, 1), (64, 2), (127, 2), (128, 3)):
            ids = rng.integers(0, top + 1, index.n).astype(np.uint32)
            ids[rng.integers(0, index.n, 5)] = top
            assert id_words(ids) == words
            for l, r in [(0, 10**6), (0, 50), (4_000, 4_500), (100, 100)]:
                assert_ids_alike(index, ids, l, r)
                assert_ids_alike(index, ids, l, r, np.array([8, 2]))
            assert query_ids(index, ids, 0, 10**6)[-1] == top

    def test_gathers_either_side_of_the_crossover(self):
        """Ids whose bitmap holds exactly as many words as a gather of n
        rows may take, and one word more, which sorts."""
        c = kernel_constant("UNION_WORDS_PER_ID")
        rng = np.random.default_rng(17)
        index = segment_index(rng, n=2_000)
        seen = set()
        for _ in range(30):
            l = int(rng.integers(0, 12_000))
            r = l + int(rng.integers(0, 3_000))
            probe = rng.integers(0, 9, int(rng.integers(1, 5)))
            n = len(index.query(l, r, probe))
            if not n:
                continue
            for words in (c * n, c * n + 1):
                ids = rng.integers(0, 64 * words, index.n).astype(np.uint32)
                ids[rng.integers(0, index.n)] = 64 * words - 1
                assert id_words(ids) == words
                assert_ids_alike(index, ids, l, r, probe)
                seen.add(c * n > kernel_constant("UNION_STACK_WORDS"))
        assert seen == {False, True}  # bitmaps on the stack and on the heap

    def test_a_zero_word_frame_sorts(self):
        rng = np.random.default_rng(18)
        index = segment_index(rng)
        ids = rng.integers(0, 500, index.n).astype(np.uint32)
        for l, r in [(0, 10**6), (0, 50), (4_000, 4_500), (100, 100)]:
            rows = index.query(l, r)
            assert query_ids(index, ids, l, r, words=0) == query_ids(index, ids, l, r) == ascending(ids, rows)


class TestSpaceReport:
    def test_empty(self):
        report = IISIndex.build([], ScaleConfig(4)).space_report()
        assert report["payload_bits"] == 0
        assert report["total_bits"] == 0

    def test_totals_additive_and_bounded(self):
        rng = np.random.default_rng(4)
        starts, lengths = scenario_arrays(rng, "random", 800)
        index = IISIndex.build(make_records(starts, lengths), ScaleConfig(4))
        report = index.space_report()
        payload = index.seqs.payload_bits()
        assert int(payload.sum()) == report["payload_bits"]
        assert report["total_bits"] == (
            report["payload_bits"] + report["select_overhead_bits"]
            + report["plain_bits"] + report["id_bits"]
        )
        set_payload = payload[0::2] + payload[1::2]  # a set's start and end sequences
        assert index.m > 1 and len(set_payload) == index.m
        for n, bits in zip(np.diff(index.set_rows).tolist(), set_payload.tolist()):
            assert bits <= 2 * (2 * n + n * math.ceil(math.log2(index.u / n)))


class TestSerialization:
    @staticmethod
    def indexed(rng, n=400):
        """An index over segments 0..6, three of them empty, as
        ``from_segments`` builds it, the rows of each segment and the ticks
        of the rows, in row order."""
        starts, lengths = scenario_arrays(rng, "random", n)
        s, e = record_tick_arrays(make_records(starts, lengths), ScaleConfig(3))
        segment = rng.choice([0, 1, 4, 6], len(s))
        index, order = IISIndex.from_segments(s, e, segment, 7)
        return index, prefix_offsets(np.bincount(segment, minlength=7)), s[order], e[order]

    def test_roundtrip(self):
        rng = np.random.default_rng(5)
        index, seg_rows, starts, ends = self.indexed(rng)
        data = index.to_bytes()
        assert len(data) == 4 + 4 * index.m  # the shape only: the set count and the rows per set
        reader = Reader(data)
        decoded = IISIndex.from_bytes(reader, seg_rows, starts, ends)
        reader.finish()  # read to the last byte
        assert decoded.seg_sets.tolist() == index.seg_sets.tolist()
        assert decoded.set_rows.tolist() == index.set_rows.tolist()
        for name in ("widths", "low_base", "high_base", "sample_base", "lows", "highs", "samples"):
            assert np.array_equal(getattr(decoded.seqs, name), getattr(index.seqs, name)), name
        for _ in range(40):
            l = int(rng.integers(0, 10**6))
            r = l + int(rng.integers(0, 10**5))
            probe = rng.integers(0, 7, int(rng.integers(0, 9)))
            assert decoded.query(l, r, probe).tolist() == index.query(l, r, probe).tolist()
            assert decoded.query(l, r).tolist() == index.query(l, r).tolist()
        assert decoded.to_bytes() == data

    def test_truncated_rejected(self):
        index, seg_rows, starts, ends = self.indexed(np.random.default_rng(12), 40)
        data = index.to_bytes()
        for cut in (2, len(data) // 2, len(data) - 4):
            with pytest.raises(FormatError, match="truncated"):
                IISIndex.from_bytes(Reader(data[:cut]), seg_rows, starts, ends)

    def test_stand_alone_index_is_not_written(self):
        index = IISIndex.build(make_records(range(0, 80, 2), [3] * 40), ScaleConfig(0))
        assert index.row_ids is not None
        with pytest.raises(ValueError, match="stand-alone"):
            index.to_bytes()
