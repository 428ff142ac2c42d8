import json
import math
import os
import struct
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from trajindex import (
    FormatError,
    IngestionError,
    ObjectIds,
    IntervalRecord,
    InvalidInputError,
    InvalidQueryError,
    Network,
    Point,
    Query,
    Rect,
    ScaleConfig,
    TimeInterval,
    TrajIndex,
    TrajIndexConfig,
    VersionError,
    build_rtree,
    discretize_time,
    gen_grid_network,
    gen_queries,
    gen_trajectories,
    mbb_of_segment,
    rects_overlap,
    segments_intersect_window,
)
import trajindex.index
import trajindex.rtree
import trajindex.temporal.iis
from trajindex.kernel import ffi, lib
from trajindex.temporal import BACKENDS
from trajindex.temporal.iis import IISIndex

from helpers import (FullScanOracle, ascending, exact_floor_times, full_scan_objects, id_words, kernel_constant,
                     make_records, near_integer_times, reference_walk, scenario_arrays, sorted_matches,
                     top_edge_times)

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

REC = IntervalRecord


def two_segment_setup():
    """Object 1 crosses segment A during [0,5] and segment B during [5,9]."""
    nodes = [Point(0, 0), Point(10, 0), Point(20, 0)]
    net = Network(nodes, [(0, 1), (1, 2)])
    records = [
        (0, REC(1, TimeInterval(0.0, 5.0))),
        (1, REC(1, TimeInterval(5.0, 9.0))),
    ]
    return net, records


class TestTwoSegmentExample:
    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_spec_queries(self, backend):
        net, records = two_segment_setup()
        cfg = TrajIndexConfig(temporal_backend=backend, scale=ScaleConfig(2))
        index = TrajIndex.build(net, records, cfg)
        # each temporal index holds exactly one record
        assert index.stats().per_segment_records == {0: 1, 1: 1}
        # window covering only segment B, before the object got there
        only_b = Rect(12, -1, 18, 1)
        assert index.range_query(only_b, 0.0, 4.0).object_ids == set()
        # window covering segment A while the object crossed it
        only_a = Rect(1, -1, 9, 1)
        assert index.range_query(only_a, 1.0, 2.0).object_ids == {1}
        # whole network, all time
        assert index.range_query(Rect(-1, -1, 21, 1), 0.0, 100.0).object_ids == {1}
        # closed-interval boundary: at t=5 the object is on both segments
        assert index.time_slice_query(Rect(-1, -1, 21, 1), 5.0).object_ids == {1}
        assert index.time_slice_query(only_b, 5.0).object_ids == {1}
        assert index.time_slice_query(only_b, 4.999).object_ids == set()

    def test_verbose_matches(self):
        net, records = two_segment_setup()
        index = TrajIndex.build(net, records, TrajIndexConfig(scale=ScaleConfig(2)))
        res = index.range_query(Rect(-1, -1, 21, 1), 0.0, 100.0, verbose=True)
        assert sorted(res.matches) == [
            (1, 0, TimeInterval(0.0, 5.0)),
            (1, 1, TimeInterval(5.0, 9.0)),
        ]

    def test_inverted_time_range_rejected(self):
        net, records = two_segment_setup()
        index = TrajIndex.build(net, records)
        with pytest.raises(InvalidQueryError):
            index.range_query(Rect(0, 0, 1, 1), 5.0, 1.0)


class TestBuild:
    def test_unknown_segment_rejected(self):
        net, records = two_segment_setup()
        records.append((7, REC(2, TimeInterval(0.0, 1.0))))
        with pytest.raises(IngestionError, match="segment id 7"):
            TrajIndex.build(net, records)

    def test_object_id_beyond_u32_rejected(self):
        # the file stores ids as u32; 2**33 used to save and load back as 0
        net, records = two_segment_setup()
        for bad in (-1, 2**32, 2**33, 2**70):
            with pytest.raises(IngestionError, match="object id"):
                TrajIndex.build(net, records + [(0, REC(bad, TimeInterval(1.0, 2.0)))])

    def test_fractional_ids_rejected(self):
        # fromiter used to truncate them: (1.5, object 2.5) was stored as object 2 on segment 1
        net, records = two_segment_setup()
        for bad, kind in (((1.5, REC(2, TimeInterval(1.0, 2.0))), "segment id 1.5"),
                          ((1, REC(2.5, TimeInterval(1.0, 2.0))), "object id 2.5"),
                          ((np.float64(1.0), REC(2, TimeInterval(1.0, 2.0))), "segment id")):
            with pytest.raises(IngestionError, match=f"record {len(records)} .*{kind}.* not an integer"):
                TrajIndex.build(net, records + [bad])

    @pytest.mark.parametrize("column, values, error, match", [
        (0, np.array([0, 2**63, 0], dtype=np.uint64), IngestionError, "record 1 .*unknown segment id 9223372036854775808"),
        (1, np.array([1, 2**64 - 1, 2], dtype=np.uint64), IngestionError, "record 1 .*object id 18446744073709551615"),
        (1, np.array([1, 2**32, 2]), IngestionError, "record 1 .*object id 4294967296"),
        (0, np.array([0.0, 1.0, 0.0]), IngestionError, "record 0 .*segment ids .*float64"),
        (1, np.array([1.0, 1.5, 2.0]), IngestionError, "record 0 .*object ids .*float64"),
        (1, [1, 2**70, 2], IngestionError, "record 0 .*object ids .*dtype object"),
        (0, np.array([0, -1, 0], dtype=np.int8), IngestionError, "record 1 .*unknown segment id -1"),
        (1, [1, -1, 2], IngestionError, r"record 1 \(object -1, .*object id -1"),
        (0, [0, 2, 0], IngestionError, "record 1 .*unknown segment id 2"),
        (2, [0.0, np.nan, 1.0], InvalidInputError, r"record 1 \(object 1, \[nan, 9.0\]\)"),
        (3, [5.0, np.nan, 2.0], InvalidInputError, "record 1 .*nan"),
        (2, [0.0, np.inf, 1.0], InvalidInputError, "record 1 .*inf"),
        (3, [5.0, np.inf, 2.0], InvalidInputError, "record 1 .*inf"),
        (2, [0.0, -1.0, 1.0], InvalidInputError, r"record 1 .*\[-1.0, 9.0\]"),
        (2, [0.0, 9.5, 1.0], InvalidInputError, r"record 1 .*\[9.5, 9.0\]"),
    ])
    def test_from_columns_rejects_first_bad_record(self, column, values, error, match):
        net, _ = two_segment_setup()
        columns = [[0, 1, 0], [1, 1, 2], [0.0, 5.0, 1.0], [5.0, 9.0, 2.0]]
        columns[column] = values
        with pytest.raises(error, match=match):
            TrajIndex.from_columns(net, *columns)

    def test_from_columns_rejects_columns_of_different_lengths(self):
        net, _ = two_segment_setup()
        with pytest.raises(IngestionError, match="one length"):
            TrajIndex.from_columns(net, np.array([0, 1]), np.array([1]), [0.0], [1.0])

    def test_from_columns_takes_any_integer_dtype(self, tmp_path):
        net, records = two_segment_setup()
        records.append((1, REC(2**32 - 1, TimeInterval(6.0, 7.0))))
        TrajIndex.build(net, records).save(str(tmp_path / "build.tjix"))
        TrajIndex.from_columns(net, np.array([0, 1, 1], dtype=np.uint8), np.array([1, 1, 2**32 - 1], dtype=np.uint32),
                               [0.0, 5.0, 6.0], [5.0, 9.0, 7.0]).save(str(tmp_path / "columns.tjix"))
        assert (tmp_path / "build.tjix").read_bytes() == (tmp_path / "columns.tjix").read_bytes()

    def test_tick_beyond_sequence_universe_rejected(self):
        net, records = two_segment_setup()
        records.append((0, REC(2, TimeInterval(0.0, 5e10))))  # 5e18 ticks at 8 digits, above 2**62
        with pytest.raises(InvalidInputError, match="universe"):
            TrajIndex.build(net, records, TrajIndexConfig(scale=ScaleConfig(8)))

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_tick_beyond_int64_rejected(self, backend):
        net, records = two_segment_setup()
        records.append((0, REC(2, TimeInterval(0.0, 1e15))))  # 1e23 ticks at 8 digits, above 2**63
        with pytest.raises(InvalidInputError, match="universe"):
            TrajIndex.build(net, records, TrajIndexConfig(temporal_backend=backend, scale=ScaleConfig(8)))

    def test_largest_u32_object_id_round_trips(self, tmp_path):
        net, records = two_segment_setup()
        records.append((1, REC(2**32 - 1, TimeInterval(6.0, 7.0))))
        index = TrajIndex.build(net, records)
        path = str(tmp_path / "x.tjix")
        index.save(path)
        assert TrajIndex.load(path).range_query(Rect(-1, -1, 21, 1), 6.5, 6.5).object_ids == {1, 2**32 - 1}

    def test_empty_records(self):
        net, _ = two_segment_setup()
        index = TrajIndex.build(net, [])
        assert index.range_query(Rect(-100, -100, 100, 100), 0.0, 1e6).object_ids == set()
        assert index.stats().record_count == 0
        assert index.stats().temporal_bytes == 0

    def test_every_loaded_segment_is_decomposed(self):
        # one record per segment still gets its own independent set
        net, records = two_segment_setup()
        index = TrajIndex.build(net, records, TrajIndexConfig(temporal_backend="iis"))
        assert isinstance(index.temporal, IISIndex)
        assert index.stats().iis_set_counts == {0: 1, 1: 1}
        assert index.temporal.set_rows.tolist() == [0, 1, 2]


def range_ticks(index, t_start: float, t_end: float, hits=()):
    """What the ``range_ticks`` kernel gives for these hits and times: its
    status and the ticks of both times."""
    hits = np.asarray(hits, dtype=np.int64)
    out = lib.range_ticks(index._frame, ffi.from_buffer("int64_t[]", hits), len(hits), t_start, t_end)
    return out.status, [out.l, out.r]


class TestRefinement:
    def test_mbb_false_positive_filtered(self):
        # diagonal segment whose box covers the window but whose geometry
        # stays clear of it
        nodes = [Point(0, 0), Point(10, 10), Point(0, 8), Point(2, 8)]
        net = Network(nodes, [(0, 1), (2, 3)])
        records = [
            (0, REC(1, TimeInterval(0.0, 10.0))),
            (1, REC(2, TimeInterval(0.0, 10.0))),
        ]
        index = TrajIndex.build(net, records)
        window = Rect(0.5, 7.5, 2.5, 9.0)  # inside the diagonal's box, off the line
        assert rects_overlap(mbb_of_segment(net.edges[0]), window)
        assert index.rtree.window_query(window).tolist() == [1]  # the walk drops the box's false positive
        assert index.range_query(window, 0.0, 10.0).object_ids == {2}

    def test_candidates_geometrically_intersect(self):
        net = gen_grid_network(8, 8)
        records = gen_trajectories(net, 10, 20.0, seed=1)
        index = TrajIndex.build(net, records)
        rng = np.random.default_rng(2)
        from trajindex import segment_intersects_window

        for _ in range(60):
            x0, x1 = np.sort(rng.uniform(0, 7, 2))
            y0, y1 = np.sort(rng.uniform(0, 7, 2))
            window = Rect(x0, y0, x1, y1)
            for seg_id in index.rtree.window_query(window).tolist():
                assert segment_intersects_window(net.edges[seg_id], window)


def jittered_network(seed: int) -> Network:
    """A rotated, jittered 6x6 lattice with both diagonals of every cell,
    plus a few exactly axis-parallel edges."""
    rng = np.random.default_rng(seed)
    angle = 0.3
    nodes = []
    for i in range(6):
        for j in range(6):
            x, y = i + rng.uniform(-0.2, 0.2), j + rng.uniform(-0.2, 0.2)
            nodes.append(Point(x * np.cos(angle) - y * np.sin(angle) + 5, x * np.sin(angle) + y * np.cos(angle)))
    pairs = []
    for i in range(6):
        for j in range(6):
            a = 6 * i + j
            if i < 5:
                pairs.append((a, a + 6))
            if j < 5:
                pairs.append((a, a + 1))
            if i < 5 and j < 5:
                pairs += [(a, a + 7), (a + 1, a + 6)]
    nodes += [Point(0.5, 2.0), Point(3.5, 2.0), Point(2.0, 0.5), Point(2.0, 6.5)]
    pairs += [(36, 37), (38, 39)]
    return Network(nodes, pairs)


class TestCandidates:
    def test_box_exact_shortcut_matches_full_scan_off_grid(self):
        net = jittered_network(3)
        index = TrajIndex.build(net, [])
        ax, ay, bx, by = index.network.endpoints()
        box_exact = (ax == bx) | (ay == by)
        assert box_exact.sum() == 2 and not box_exact.all()
        rng = np.random.default_rng(4)
        windows = []
        for _ in range(300):
            x0, x1 = np.sort(rng.uniform(-1, 11, 2))
            y0, y1 = np.sort(rng.uniform(-1, 8, 2))
            windows.append(Rect(x0, y0, x1, y1))
        for k in range(len(net.edges)):  # windows that touch an edge only at its ends or its box
            a, b = net.edges[k].a, net.edges[k].b
            windows += [Rect(a.x, a.y, a.x, a.y), Rect(b.x, b.y, b.x + 0.5, b.y + 0.5),
                        Rect(max(a.x, b.x), min(a.y, b.y) - 0.3, max(a.x, b.x) + 0.3, max(a.y, b.y))]
        windows += [Rect(1.0, 2.0, 1.5, 2.5), Rect(0.0, 0.0, 2.0, 0.5), Rect(2.0, 6.5, 3.0, 7.0),
                    Rect(3.5, 1.0, 4.0, 2.0), Rect(1.0, 1.0, 1.9, 1.9)]
        for w in windows:
            want = np.flatnonzero(segments_intersect_window(ax, ay, bx, by, w))
            assert sorted(index.rtree.window_query(w).tolist()) == want.tolist(), w


class TestEndToEnd:
    def test_all_backends_match_full_scan(self):
        net = gen_grid_network(10, 10)
        records = gen_trajectories(net, 25, 40.0, seed=5)
        queries = gen_queries(net.bounds(), 40.0, "range_equal", 60, seed=8, spatial_pct=20, temporal_pct=20)
        scale = ScaleConfig(4)
        oracle = FullScanOracle(net, records, scale)
        for backend in BACKENDS:
            cfg = TrajIndexConfig(temporal_backend=backend, scale=scale)
            index = TrajIndex.build(net, records, cfg)
            for q in queries:
                got = index.range_query(q.window, q.t_start, q.t_end).object_ids
                assert got == oracle.query(q.window, q.t_start, q.t_end), (backend, q)

    def test_vectorized_oracle_matches_reference_scan(self):
        net = gen_grid_network(5, 5)
        records = gen_trajectories(net, 5, 10.0, seed=3)
        scale = ScaleConfig(2)
        oracle = FullScanOracle(net, records, scale)
        rng = np.random.default_rng(4)
        for _ in range(30):
            x0, x1 = np.sort(rng.uniform(0, 4, 2))
            y0, y1 = np.sort(rng.uniform(0, 4, 2))
            t0 = float(rng.uniform(0, 10))
            t1 = t0 + float(rng.uniform(0, 5))
            w = Rect(x0, y0, x1, y1)
            assert oracle.query(w, t0, t1) == full_scan_objects(net, records, w, t0, t1, scale)

    def test_time_slice_equals_degenerate_range(self):
        net = gen_grid_network(6, 6)
        records = gen_trajectories(net, 8, 15.0, seed=9)
        index = TrajIndex.build(net, records)
        rng = np.random.default_rng(10)
        for _ in range(40):
            x0, x1 = np.sort(rng.uniform(0, 5, 2))
            y0, y1 = np.sort(rng.uniform(0, 5, 2))
            t = float(rng.uniform(0, 15))
            w = Rect(x0, y0, x1, y1)
            assert index.time_slice_query(w, t).object_ids == index.range_query(w, t, t).object_ids

    def test_time_slice_at_tick_boundaries(self):
        # 0.1 + 0.2 is just above 0.3 and 0.3 just below it, so at one
        # decimal digit they fall on either side of the tick boundary
        net = gen_grid_network(3, 3)
        edges = range(len(net.edges))
        times = [0.1 + 0.2, 0.3, 0.7, 0.1 * 7, 1.1, 0.1 * 11, 0.6, 0.2 * 3, 2.675, 1e-9, 0.0]
        records = [(e, REC(10 * k + e % 3, TimeInterval(t, t + 0.1 * (e % 4))))
                   for k, t in enumerate(times) for e in edges if (e + k) % 3 == 0]
        records += [(e, REC(500 + k, TimeInterval(t / 2, t))) for k, t in enumerate(times) for e in edges[k::4]]
        window = net.bounds()
        for digits in (0, 1, 2, 8):
            scale = ScaleConfig(digits)
            oracle = FullScanOracle(net, records, scale)
            index = TrajIndex.build(net, records, TrajIndexConfig(scale=scale))
            for t in times + [t + 0.05 for t in times] + [float(np.nextafter(t, 0.0)) for t in times]:
                got = index.time_slice_query(window, t).object_ids
                assert got == index.range_query(window, t, t).object_ids == oracle.query(window, t, t), (digits, t)

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_kernel_calls_per_query(self, monkeypatch, backend):
        """An ``iis`` query is the window walk and one temporal entry.  A
        query of the other backends, and a ``verbose`` one of every backend,
        is the walk, the check of its hits and the ticks of the times, the
        level's query (a kernel call for ``iis`` only) and the union of the
        rows' ids.  The ``free`` of an answer's buffer is not counted."""
        calls = []

        class Counting:
            def __init__(self, own):
                self.own = own

            def __getattr__(self, name):
                def call(*args):
                    if name != "free":
                        calls.append(name)
                    return getattr(self.own, name)(*args)
                return call

        for module in (trajindex.index, trajindex.rtree, trajindex.temporal.iis, trajindex.eliasfano):
            monkeypatch.setattr(module, "lib", Counting(module.lib))
        net = jittered_network(2)
        records = gen_trajectories(net, 10, 20.0, seed=3)
        index = TrajIndex.build(net, records, TrajIndexConfig(temporal_backend=backend, scale=ScaleConfig(3)))
        rows = ["rtree_window", "range_ticks", *(["iis_query"] if backend == "iis" else []), "distinct_ids"]
        for window in (net.bounds(), Rect(2.0, 1.0, 3.0, 2.5), Rect(-9.0, -9.0, -8.0, -8.0)):
            for verbose in (False, True):
                want = ["rtree_window", "iis_range"] if backend == "iis" and not verbose else rows
                for t_start, t_end in ((0.0, 20.0), (5.5, 5.5)):
                    calls.clear()
                    index.range_query(window, t_start, t_end, verbose)
                    assert calls == want, (window, verbose)


def distinct_ids(object_ids, rows, words=None) -> list[int]:
    """The union kernel's answer: the distinct ids of ``rows``, through a
    frame over ``object_ids`` whose bitmap words are ``words``, by default
    those a ``TrajIndex`` gives these ids."""
    object_ids = np.ascontiguousarray(object_ids, dtype=np.uint32)
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    out = np.empty(len(rows), dtype=np.uint32)
    ids = ffi.from_buffer("uint32_t[]", object_ids)
    frame = ffi.new("range_frame *", {"object_ids": ids, "id_words": id_words(object_ids) if words is None else words})
    k = lib.distinct_ids(frame, ffi.from_buffer("int64_t[]", rows), len(rows), ffi.from_buffer("uint32_t[]", out))
    assert 0 <= k <= len(rows)
    return out[:k].tolist()


class TestDistinctIds:
    """The compiled object-id union against a set over the gathered ids."""

    def test_no_rows_and_one_row(self):
        ids = np.array([7, 0, 2**32 - 1], dtype=np.uint32)
        assert distinct_ids(ids, []) == []
        assert distinct_ids(np.zeros(0, dtype=np.uint32), []) == []
        for row in range(3):
            assert distinct_ids(ids, [row]) == [int(ids[row])]

    def test_every_row_the_same_object(self):
        for obj in (0, 1, 63, 64, 2**31, 2**32 - 1):
            ids = np.full(1_000, obj, dtype=np.uint32)
            assert distinct_ids(ids, np.arange(1_000)) == [obj]
            assert distinct_ids(ids, np.full(5, 999)) == [obj]

    def test_zero_and_the_largest_id_together(self):
        ids = np.array([2**32 - 1, 0, 1, 2**32 - 2, 0, 2**32 - 1], dtype=np.uint32)
        assert distinct_ids(ids, np.arange(6)) == [0, 1, 2**32 - 2, 2**32 - 1]
        assert distinct_ids(ids, [1, 4, 0, 5]) == [0, 2**32 - 1]
        # past the insertion sort's size, so the radix passes sort the top byte
        rows = np.tile(np.arange(6), 10)
        assert distinct_ids(ids, rows) == ascending(ids, rows) == [0, 1, 2**32 - 2, 2**32 - 1]

    def test_rows_out_of_order_and_repeated(self):
        ids = np.array([10, 11, 12, 10, 13, 11], dtype=np.uint32)
        rows = [5, 5, 2, 0, 3, 4, 1, 2, 5, 0]
        assert distinct_ids(ids, rows) == ascending(ids, rows) == [10, 11, 12, 13]

    def test_ids_colliding_in_their_low_bits(self):
        n = 100_000
        rng = np.random.default_rng(40)
        for ids in (np.arange(n, dtype=np.uint32) << 16,          # the low 16 bits all zero
                    (np.arange(n, dtype=np.uint32) % 40_000) << 16,  # and repeated
                    np.arange(n, dtype=np.uint32) << 15 | 1):
            rows = rng.permutation(n)
            got = distinct_ids(ids, rows)
            assert got == ascending(ids, rows)
            assert len(got) == len(np.unique(ids))

    def test_random_against_the_numpy_union(self):
        rng = np.random.default_rng(41)
        for _ in range(300):
            n_records = int(rng.integers(1, 3_000))
            pool = int(rng.choice([1, 5, 400, 2**20, 2**32]))  # 0 to 4 radix passes
            ids = rng.integers(0, pool, n_records, dtype=np.uint64).astype(np.uint32)
            rows = rng.integers(0, n_records, int(rng.integers(0, 2_000)))
            got = distinct_ids(ids, rows)
            assert got == ascending(ids, rows)
            assert got == np.unique(ids[rows]).tolist()

    def test_largest_id_takes_the_sort(self):
        ids = np.array([5, 2**32 - 1, 70, 5, 2**32 - 1, 0], dtype=np.uint32)
        assert id_words(ids) == 2**26 > kernel_constant("UNION_WORDS_PER_ID") * 600  # more words than the rows justify
        for rows in (np.arange(6), np.tile(np.arange(6), 100), [1, 1, 4]):
            assert distinct_ids(ids, rows) == ascending(ids, rows)

    def test_word_boundary(self):
        """A largest id of 63 fits one word and one of 64 needs two; the
        last bit of a word and the first of the next both come out."""
        rng = np.random.default_rng(42)
        for top, words in ((63, 1), (64, 2), (127, 2), (128, 3)):
            ids = np.append(rng.integers(0, top, 40).astype(np.uint32), np.uint32(top))
            assert id_words(ids) == words
            for rows in ([40], [40, 0], np.arange(41), np.arange(41)[::-1], np.tile([40, 3, 40], 5)):
                assert distinct_ids(ids, rows) == ascending(ids, rows)
        ids = np.array([63, 64, 0, 127, 128], dtype=np.uint32)
        assert distinct_ids(ids, np.arange(5)) == [0, 63, 64, 127, 128]

    def test_gathers_either_side_of_the_crossover(self):
        """For bitmaps on the stack and on the heap, gathers of one id too
        few for the bitmap, which sort, and of just enough, which take it."""
        c = kernel_constant("UNION_WORDS_PER_ID")
        rng = np.random.default_rng(43)
        for words in (1, 2, 79, 256, 257, 1_000):
            ids = rng.integers(0, 64 * words, 5_000).astype(np.uint32)
            ids[rng.integers(0, 5_000)] = 64 * words - 1
            assert id_words(ids) == words
            least = -(-words // c)  # the fewest ids that take the bitmap
            for n in (least - 1, least, least + 1):
                for rows in (rng.integers(0, 5_000, n), np.flatnonzero(ids == 64 * words - 1).repeat(n),
                             np.argsort(ids)[-n:] if n else []):
                    assert distinct_ids(ids, rows) == ascending(ids, rows), (words, n)

    def test_a_zero_word_frame_sorts(self):
        """A frame of no bitmap words answers through the sort, whatever
        the gather, as every frame over an empty table does."""
        rng = np.random.default_rng(44)
        ids = rng.integers(0, 300, 2_000).astype(np.uint32)
        for n in (0, 1, 30, 33, 500, 2_000):
            rows = rng.integers(0, 2_000, n)
            assert distinct_ids(ids, rows, words=0) == distinct_ids(ids, rows) == ascending(ids, rows)

    def test_an_index_frames_its_own_ids(self, tmp_path):
        """A built and a loaded index give their frame the bitmap words of
        their own object ids, 0 for no records, and answer alike."""
        net = gen_grid_network(3, 3)
        cases = ([], [0], [63], [64, 3, 64], [2**32 - 1, 7])
        for backend in ("iis", "linear"):
            cfg = TrajIndexConfig(temporal_backend=backend)
            for objects in cases:
                records = [(k % len(net.edges), REC(o, TimeInterval(k, k + 2.0))) for k, o in enumerate(objects)]
                index = TrajIndex.build(net, records, cfg)
                path = os.fspath(tmp_path / "index.tjix")
                index.save(path)
                for idx in (index, TrajIndex.load(path)):
                    assert idx._frame.id_words == id_words(objects)
                    for verbose in (False, True):
                        got = idx.range_query(net.bounds(), 0.0, 100.0, verbose).object_ids
                        assert got == set(objects), (backend, objects)


def object_ids(*values) -> ObjectIds:
    """An answer as a query makes it: the sorted ids as uint32 bytes."""
    return ObjectIds(np.array(sorted(set(values)), dtype=np.uint32).tobytes())


def perfbench_workloads():
    """Each benchmark workload at its self-test size, with 60 queries."""
    sys.path.insert(0, os.path.join(os.path.dirname(SRC), "perfbench"))
    try:
        from workloads import WORKLOADS, generate
    finally:
        sys.path.pop(0)
    return [(w.name, *generate(trajindex, w, 5, 60, True)) for w in WORKLOADS.values()]


def c1_scenario_records(seed: int) -> tuple[Network, list]:
    """C1's interval shapes as records on a grid, with ids that include
    0 and 2**32 - 1 and repeat across records."""
    rng = np.random.default_rng(seed)
    net = gen_grid_network(5, 5)
    records = []
    for kind in ("fixed", "random", "trajectory", "nested", "identical", "shared"):
        starts, lengths = scenario_arrays(rng, kind, 150)
        segments = rng.integers(0, len(net.edges), len(starts))
        ids = rng.choice([0, 1, 2, 77, 2**31, 2**32 - 2, 2**32 - 1, *range(1000, 1040)], len(starts))
        records += [(int(g), REC(int(o), rec.interval))
                    for g, o, rec in zip(segments, ids, make_records(starts, lengths))]
    return net, records


class TestObjectIds:
    """The answer type: a read-only set view of a sorted uint32 array."""

    def test_equality_with_sets_in_both_orders(self):
        ids = object_ids(3, 0, 2**32 - 1)
        for same in ({0, 3, 2**32 - 1}, frozenset({0, 3, 2**32 - 1})):
            assert ids == same and same == ids
            assert not (ids != same) and not (same != ids)
        for other in ({0, 3}, {0, 3, 4}, {0, 3, 2**32 - 1, 5}, frozenset(), {0, 3, "x"}):
            assert ids != other and other != ids
            assert not (ids == other) and not (other == ids)
        assert ids == object_ids(0, 3, 2**32 - 1) and not (ids != object_ids(0, 3, 2**32 - 1))
        assert ids != object_ids(0, 3) and ids != object_ids(0, 3, 2**32 - 2)
        assert ids != [0, 3, 2**32 - 1] and ids != (0, 3, 2**32 - 1)  # sequences are not sets
        with pytest.raises(TypeError):
            hash(ids)

    def test_set_operators_give_frozensets(self):
        ids, other = object_ids(1, 2, 3), {3, 4}
        assert ids ^ other == other ^ ids == frozenset({1, 2, 4})
        assert ids | other == other | ids == frozenset({1, 2, 3, 4})
        assert ids & other == other & ids == frozenset({3})
        assert ids - other == frozenset({1, 2}) and other - ids == frozenset({4})
        for result in (ids ^ other, other ^ ids, ids | other, other & ids, ids - other, other - ids,
                       ids ^ object_ids(2)):
            assert type(result) is frozenset
        assert len(ids ^ object_ids(1, 2, 3)) == 0
        assert ids <= {1, 2, 3, 9} and ids >= {1} and ids.isdisjoint({0, 4})

    def test_membership(self):
        ids = object_ids(0, 5, 2**32 - 1)
        for value in (0, 5, 2**32 - 1, np.uint32(5), np.int64(0), np.uint64(2**32 - 1)):
            assert value in ids, value
        for value in (-1, 1, 4, 6, 2**32, 2**32 + 5, 2**64, 2**100, -(2**63), -(2**100), 1.5, 5.0, "x", None, (5,),
                      np.float64(5.0)):
            assert value not in ids, value
        assert 0 not in object_ids() and -1 not in object_ids() and 2**32 not in object_ids()

    def test_iteration_yields_ints_in_ascending_order(self):
        ids = object_ids(2**32 - 1, 7, 0, 300)
        got = list(ids)
        assert got == [0, 7, 300, 2**32 - 1]
        assert all(type(i) is int for i in got)
        assert sorted(ids) == got and set(ids) == {0, 7, 300, 2**32 - 1}

    def test_the_empty_answer(self):
        empty = object_ids()
        assert len(empty) == 0 and not empty and list(empty) == []
        assert empty == set() and set() == empty and empty == frozenset() and empty == object_ids()
        assert empty != {0} and empty ^ {1} == frozenset({1})
        assert object_ids(0) and len(object_ids(0)) == 1

    def test_a_query_answers_with_a_read_only_sorted_array(self):
        net, records = c1_scenario_records(3)
        index = TrajIndex.build(net, records, TrajIndexConfig(scale=ScaleConfig(2)))
        for window, t0, t1 in ((net.bounds(), 0.0, 2000.0), (Rect(-9, -9, -8, -8), 0.0, 1.0)):
            ids = index.range_query(window, t0, t1).object_ids
            assert type(ids) is ObjectIds
            array = ids.array
            assert array.dtype == np.uint32 and array.ndim == 1
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[:1] = 1
            assert np.array_equal(array, np.unique(array))

    @pytest.mark.parametrize("dataset", ["c1_scenarios", "c5_grid", "perfbench_tiny"])
    def test_every_backend_built_and_reloaded_equals_the_oracle(self, tmp_path, dataset):
        if dataset == "c1_scenarios":
            net, records = c1_scenario_records(2)
            scale = ScaleConfig(4)
            queries = gen_queries(net.bounds(), 1100.0, "range_equal", 60, seed=3, spatial_pct=30, temporal_pct=5)
            queries += gen_queries(net.bounds(), 1100.0, "time_slice", 40, seed=4, spatial_pct=50, temporal_pct=5)
            queries += [Query(net.bounds(), 0.0, 2000.0)]
            cases = [("c1", net, records, queries)]
        elif dataset == "c5_grid":
            net = gen_grid_network(20, 20)
            records = gen_trajectories(net, 100, 100.0, seed=7)
            scale = ScaleConfig(6)
            cases = [("c5", net, records, gen_queries(net.bounds(), 100.0, family, 80, seed=1000 + i,
                                                      spatial_pct=10.0, temporal_pct=10.0))
                     for i, family in enumerate(("range_equal", "range_larger_temporal", "time_slice"))]
        else:
            scale = ScaleConfig(6)
            cases = perfbench_workloads()
        for name, net, records, queries in cases:
            oracle = FullScanOracle(net, records, scale)
            want = [oracle.query(q.window, q.t_start, q.t_end) for q in queries]
            assert any(want)
            answers = {}
            for backend in sorted(BACKENDS):
                index = TrajIndex.build(net, records, TrajIndexConfig(temporal_backend=backend, scale=scale))
                path = os.fspath(tmp_path / f"{name}-{backend}.tjix")
                index.save(path)
                for idx in (index, TrajIndex.load(path)):
                    got = [idx.range_query(q.window, q.t_start, q.t_end).object_ids for q in queries]
                    assert all(type(g) is ObjectIds for g in got)
                    assert got == want, (name, backend)
                    assert want == got, (name, backend)
                    answers.setdefault(name, got)
                    assert got == answers[name], (name, backend)  # ObjectIds against ObjectIds


def diagonal_network(lo: float = 0.0, hi: float = 5.0) -> Network:
    """Both diagonals of every cell of a 6x6 lattice from ``lo`` to ``hi`` on
    both axes: no edge is axis-parallel."""
    ticks = np.linspace(lo, hi, 6).tolist()
    nodes = [Point(x, y) for x in ticks for y in ticks]
    pairs = [p for i in range(5) for j in range(5) for p in ((6 * i + j, 6 * i + j + 7), (6 * i + j + 1, 6 * i + j + 6))]
    return Network(nodes, pairs)


class TestRangeQueryNetworks:
    """Every backend, built and then reloaded, against the full scan on
    networks with mixed, only diagonal and only axis-parallel edges."""

    @pytest.mark.parametrize("name, network, all_exact", [
        ("jittered", lambda: jittered_network(5), False),
        ("diagonal", diagonal_network, False),
        ("grid", lambda: gen_grid_network(6, 6), True),
    ])
    def test_backends_match_full_scan(self, tmp_path, name, network, all_exact):
        net = network()
        records = gen_trajectories(net, 30, 25.0, seed=17)
        scale = ScaleConfig(3)
        oracle = FullScanOracle(net, records, scale)
        bounds = net.bounds()
        queries = gen_queries(bounds, 25.0, "range_equal", 60, seed=18, spatial_pct=25, temporal_pct=10)
        queries += gen_queries(bounds, 25.0, "time_slice", 40, seed=19, spatial_pct=40, temporal_pct=10)
        queries += [Query(bounds, 0.0, 25.0), Query(Rect(-50, -50, -40, -40), 0.0, 25.0)]
        for backend in sorted(BACKENDS):
            index = TrajIndex.build(net, records, TrajIndexConfig(temporal_backend=backend, scale=scale))
            path = os.fspath(tmp_path / f"{name}-{backend}.tjix")
            index.save(path)
            loaded = TrajIndex.load(path)
            for idx in (index, loaded):
                ax, ay, bx, by = idx.network.endpoints()
                assert bool(((ax == bx) | (ay == by)).all()) is all_exact
                for q in queries:
                    want = oracle.query(q.window, q.t_start, q.t_end)
                    got = idx.range_query(q.window, q.t_start, q.t_end, verbose=True)
                    assert got.object_ids == want, (name, backend, q)
                    assert idx.range_query(q.window, q.t_start, q.t_end).object_ids == want, (name, backend, q)
                    assert sorted_matches(got.matches) == oracle.matches(q.window, q.t_start, q.t_end)


COORD_BOUND = 2.0**1022  # the largest coordinate magnitude a point or a window takes


def nested_windows(rng, lo: float, hi: float, n: int) -> list[tuple[Rect, Rect]]:
    """n random windows inside [lo, hi] on both axes, each with a window
    that contains it."""
    out = []
    for _ in range(n):
        x0, x1, y0, y1 = (*np.sort(rng.uniform(lo, hi, 2)), *np.sort(rng.uniform(lo, hi, 2)))
        grow = rng.uniform(0.0, 1.0, 4) * (hi - lo) / 4
        outer = Rect(max(lo, x0 - grow[0]), max(lo, y0 - grow[1]), min(hi, x1 + grow[2]), min(hi, y1 + grow[3]))
        out.append((Rect(x0, y0, x1, y1), outer))
    return out


class TestHugeCoordinates:
    """Coordinates up to 2**1022 in magnitude, where every difference the
    clip takes stays finite.  Past it, the difference of two coordinates
    could overflow and the clip give NaN, so a window could answer less
    than a window inside it."""

    def test_a_network_past_the_bound_is_refused(self):
        with pytest.raises(InvalidInputError, match=r"at most 2\*\*1022"):
            Network([Point(-1.5e308, 0.0), Point(1.5e308, 1.0)], [(0, 1)])
        with pytest.raises(InvalidInputError, match=r"at most 2\*\*1022"):
            Rect(-1e308, 0.0, 1e308, 1.0)

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    @pytest.mark.parametrize("lo, hi", [(0.0, 5.0), (-COORD_BOUND, COORD_BOUND)])
    def test_windows_answer_as_the_full_scan_and_nest(self, tmp_path, backend, lo, hi):
        """Every backend, built and reloaded, on a diagonal network up to the
        bound: 300 windows against the full scan, and a window that contains
        another answers a superset of its ids."""
        net = diagonal_network(lo, hi)
        records = gen_trajectories(net, 30, 25.0, seed=17)
        scale = ScaleConfig(3)
        oracle = FullScanOracle(net, records, scale)
        index = TrajIndex.build(net, records, TrajIndexConfig(temporal_backend=backend, scale=scale))
        path = os.fspath(tmp_path / "diagonal.tjix")
        index.save(path)
        pairs = nested_windows(np.random.default_rng(31), lo, hi, 150)
        for idx in (index, TrajIndex.load(path)):
            grew = 0
            for inner, outer in pairs:
                small, large = (idx.range_query(w, 0.0, 25.0).object_ids for w in (inner, outer))
                assert small == oracle.query(inner, 0.0, 25.0) and large == oracle.query(outer, 0.0, 25.0)
                assert small <= large, (inner, outer)
                grew += len(large) > len(small)
            assert grew > 10
        assert idx.range_query(Rect(lo, lo, hi, hi), 0.0, 25.0).object_ids == {rec.object_id for _, rec in records}

    def test_a_file_node_past_the_bound_fails_at_load(self, tmp_path):
        net = diagonal_network(-COORD_BOUND, COORD_BOUND)
        index = TrajIndex.build(net, gen_trajectories(net, 5, 10.0, seed=3))
        path = tmp_path / "x.tjix"
        index.save(str(path))
        data = path.read_bytes()
        assert struct.unpack_from("<d", data, 18) == (-COORD_BOUND,)  # node 0's x follows the header and counts
        above = float(np.nextafter(COORD_BOUND, math.inf))
        for where, value in ((18, -above), (26, above), (18, math.nan), (26, -math.inf)):
            path.write_bytes(data[:where] + struct.pack("<d", value) + data[where + 8:])
            with pytest.raises(FormatError, match=r"corrupt index file: point coordinates .* at most 2\*\*1022"):
                TrajIndex.load(str(path))
        path.write_bytes(data[:18] + struct.pack("<d", COORD_BOUND) + data[26:])  # at the bound: node 0 moves
        assert TrajIndex.load(str(path)).network.nodes[0] == Point(COORD_BOUND, -COORD_BOUND)


TICK_TOP = 2**62  # where ``range_ticks`` clamps a tick, above every record's

# a query's times and what every backend answers them with, as before the
# ticks were computed in the kernel: the order check comes first
TIME_ERRORS = [
    (math.nan, 1.0, InvalidInputError), (1.0, math.nan, InvalidInputError), (math.nan, math.nan, InvalidInputError),
    (math.inf, math.inf, InvalidInputError), (0.0, math.inf, InvalidInputError), (math.inf, 1.0, InvalidQueryError),
    (-1.0, 1.0, InvalidInputError), (-2.0, -1.0, InvalidInputError), (-1.0, -2.0, InvalidQueryError),
    (5.0, 1.0, InvalidQueryError), (-math.inf, 0.0, InvalidInputError), (0.0, -math.inf, InvalidQueryError),
    (-math.inf, -math.inf, InvalidInputError), (-5e-324, 0.0, InvalidInputError), (10**400, 10**401, OverflowError),
]


class TestKernelTicks:
    """The ticks of ``range_ticks``, whose helper the ``iis`` entry shares,
    against ``discretize_time``; and the errors of bad times."""

    @pytest.mark.parametrize("digits", range(9))
    def test_ticks_equal_discretize_time(self, digits):
        net, _ = two_segment_setup()
        cfg = ScaleConfig(digits)
        index = TrajIndex.build(net, [], TrajIndexConfig(scale=cfg))
        scale = 10**digits
        rng = np.random.default_rng(60 + digits)
        # products that round to an integer, exactly or not
        integral = [k / scale for k in rng.integers(1, 2**53, 300).tolist()]
        integral += [float(np.nextafter(t, d)) for t in integral[:100] for d in (0.0, math.inf)]
        integral += [float(k) for k in rng.integers(0, 2**40, 100).tolist()]
        subnormal = [5e-324, 1e-310, 2.0**-1022 - 5e-324, 2.0**-1022, 3 * 5e-324, -0.0, 0.0]
        values = [*exact_floor_times(digits), *near_integer_times(digits).tolist(), *integral, *subnormal,
                  *top_edge_times(digits)]
        for t in values:
            tick = min(discretize_time(t, cfg), TICK_TOP)
            assert range_ticks(index, t, t) == (0, [tick, tick]), (t, digits)
            assert range_ticks(index, 0.0, t, [1, 0]) == (0, [0, tick]), (t, digits)

    def test_bad_times_are_refused(self):
        net, _ = two_segment_setup()
        index = TrajIndex.build(net, [])
        for bad in (math.nan, math.inf, -math.inf, -1.0, -5e-324, -1e300, -0.5):
            for hits in ([0, 1], [0, 7]):  # bad times are found before a hit out of range
                assert range_ticks(index, bad, 1.0, hits)[0] == -1
                assert range_ticks(index, 0.0, bad, hits)[0] == -2
                assert range_ticks(index, bad, bad, hits)[0] == -1

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_bad_times_raise_as_before_on_every_backend(self, backend):
        cfg = TrajIndexConfig(temporal_backend=backend)
        net, records = two_segment_setup()
        full = TrajIndex.build(net, records, cfg)
        empty = TrajIndex.build(Network([], []), [], cfg)
        for index in (full, empty):
            for window in (Rect(-1, -1, 21, 1), Rect(50, 50, 60, 60)):
                for t_start, t_end, error in TIME_ERRORS:
                    for verbose in (False, True):
                        with pytest.raises(error):
                            index.range_query(window, t_start, t_end, verbose)
        assert full.range_query(Rect(-1, -1, 21, 1), -0.0, 0.0).object_ids == {1}
        assert empty.range_query(Rect(-1, -1, 21, 1), -0.0, 0.0).object_ids == set()

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_ticks_near_the_top_of_the_universe(self, tmp_path, backend):
        """At 0 digits a time's tick is the time, so records up to 2**62 - 512
        put the universe's top there, and query times at and past it are
        clamped."""
        net, _ = two_segment_setup()
        scale = ScaleConfig(0)
        times = [2.0**62 - 512 * k for k in range(1, 12)]
        records = [(k % 2, REC(k, TimeInterval(times[k + j], times[k]))) for k in range(8) for j in (1, 3)]
        index = TrajIndex.build(net, records, TrajIndexConfig(temporal_backend=backend, scale=scale))
        path = os.fspath(tmp_path / "top.tjix")
        index.save(path)
        oracle = FullScanOracle(net, records, scale)
        queries = [*times, 2.0**62 - 256, 2.0**62, 2.0**62 + 1024, 2.0**63 - 1024, 2.0**63, 2.0**64, 1e300]
        queries += [float(np.nextafter(t, d)) for t in times[:3] for d in (0.0, math.inf)]
        for idx in (index, TrajIndex.load(path)):
            for t_start in queries:
                for t_end in queries:
                    if t_start <= t_end:
                        want = oracle.query(Rect(-1, -1, 21, 1), t_start, t_end)
                        got = idx.range_query(Rect(-1, -1, 21, 1), t_start, t_end, verbose=True)
                        assert got.object_ids == want, (t_start, t_end)
                        assert sorted_matches(got.matches) == oracle.matches(Rect(-1, -1, 21, 1), t_start, t_end)


class TestTopTickEdge:
    """A time whose product with the scale rounds to 2**62 but whose exact
    tick lies below it: a build takes it, and the query gives it the same tick."""

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    @pytest.mark.parametrize("digits, t", [(6, 4611686018427.388), (7, 461168601842.7388)])
    def test_time_slice_finds_a_record_just_below_the_top(self, tmp_path, backend, digits, t):
        cfg = ScaleConfig(digits)
        assert t * cfg.scale == 2.0**62 and discretize_time(t, cfg) == 2**62 - 209
        net, _ = two_segment_setup()
        records = [(0, REC(1, TimeInterval(1.0, 2.0))), (0, REC(2, TimeInterval(t, t)))]
        index = TrajIndex.build(net, records, TrajIndexConfig(temporal_backend=backend, scale=cfg))
        path = os.fspath(tmp_path / "edge.tjix")
        index.save(path)
        window = Rect(-1, -1, 21, 1)
        for idx in (index, TrajIndex.load(path)):
            assert idx.range_query(window, t, t).object_ids == {2}
            assert idx.range_query(window, 1.5, 1.5).object_ids == {1}
            assert idx.range_query(window, 0.0, 1e300).object_ids == {1, 2}


def clip_network(seed: int) -> Network:
    """Horizontal, vertical, diagonal, steep, shallow, tiny and huge segments,
    several sharing endpoints, and random ones, a third snapped to a grid of
    halves so that windows touch them exactly."""
    rng = np.random.default_rng(seed)
    pairs_xy = [((0, 0), (4, 0)), ((4, 0), (4, 4)), ((0, 0), (4, 4)), ((0, 4), (4, 0)), ((1, 0), (1.5, 4)),
                ((0, 1), (4, 1.5)), ((4, 4), (6, 3)), ((2, 2), (2 + 1e-9, 2 + 1e-9)), ((-1e6, -1e6), (1e6, 1e6 + 1)),
                ((3, 0.1), (3.3, 0.1)), ((0.1, 0.1), (0.1, 3.3)), ((0.1, 3.3), (3.3, 0.1))]
    for k in range(150):
        a, b = rng.uniform(-2, 8, 2), rng.uniform(-2, 8, 2)
        if k % 3 == 0:
            a, b = np.round(a * 2) / 2, np.round(b * 2) / 2
        if (a != b).any():
            pairs_xy.append((tuple(a.tolist()), tuple(b.tolist())))
    nodes, pairs = [], []
    for a, b in pairs_xy:
        nodes += [Point(*a), Point(*b)]
        pairs.append((len(nodes) - 2, len(nodes) - 1))
    return Network(nodes, pairs)


class TestKernelClip:
    """The window walk's clip against ``segments_intersect_window`` over
    every edge, and the temporal entries' check of the walk's hits."""

    def test_clip_equals_the_exact_test(self):
        net = clip_network(21)
        index = TrajIndex.build(net, [])
        ax, ay, bx, by = index.network.endpoints()
        assert ((ax == bx) | (ay == by)).any() and not ((ax == bx) | (ay == by)).all()
        windows = []
        for a, b in ((s.a, s.b) for s in net.edges[:40]):
            lo_x, hi_x, lo_y, hi_y = min(a.x, b.x), max(a.x, b.x), min(a.y, b.y), max(a.y, b.y)
            windows += [
                Rect(a.x, a.y, a.x, a.y), Rect(b.x, b.y, b.x, b.y),  # points at the ends
                Rect((a.x + b.x) / 2, (a.y + b.y) / 2, (a.x + b.x) / 2, (a.y + b.y) / 2),
                Rect(a.x, -20, a.x, 20), Rect(-20, a.y, 20, a.y),  # lines through an end
                Rect(a.x, a.y, a.x + 1, a.y + 1), Rect(a.x - 1, a.y - 1, a.x, a.y),  # corners at an end
                Rect(hi_x, lo_y, hi_x + 0.5, hi_y), Rect(lo_x - 0.5, lo_y, lo_x, hi_y),  # the box's sides
                Rect(lo_x, hi_y, hi_x, hi_y + 0.5), Rect(hi_x, hi_y, hi_x + 1, hi_y + 1),  # and its corner
                Rect(lo_x, lo_y, hi_x, hi_y),
            ]
        rng = np.random.default_rng(22)
        for _ in range(300):
            x0, x1 = np.sort(rng.uniform(-3, 9, 2))
            y0, y1 = np.sort(rng.uniform(-3, 9, 2))
            windows.append(Rect(x0, y0, x1, y1))
        windows += [Rect(0.5, 0.5, 1.5, 1.5), Rect(1.9, 1.9, 2.1, 2.1), Rect(3.9, -1, 5, 0), Rect(1.0, 1.0, 1.0, 3.0)]
        kept_somewhere = set()
        for w in windows:
            meets = segments_intersect_window(ax, ay, bx, by, w)
            got = index.rtree.window_query(w)
            assert got.tolist() == reference_walk(index.rtree, w).tolist(), w
            assert sorted(got.tolist()) == np.flatnonzero(meets).tolist(), w
            kept_somewhere.update(got.tolist())
        assert len(kept_somewhere) == len(net.edges)

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_integer_coordinates(self, backend):
        """Points may hold ints; the clip reads them as the floats they equal."""
        nodes = [Point(i, j) for i in range(5) for j in range(5)]
        pairs = [(5 * i + j, 5 * i + j + 6) for i in range(4) for j in range(4)]
        pairs += [(5 * i + j + 1, 5 * i + j + 5) for i in range(4) for j in range(4)] + [(0, 4), (0, 20)]
        net = Network(nodes, pairs)
        records = [(k, REC(k % 7, TimeInterval(0.0, 10.0))) for k in range(len(pairs))]
        index = TrajIndex.build(net, records, TrajIndexConfig(temporal_backend=backend))
        oracle = FullScanOracle(net, records, ScaleConfig())
        rng = np.random.default_rng(23)
        windows = [Rect(1.5, 1.5, 2.5, 2.5), Rect(0.2, 0.6, 0.4, 0.8), Rect(0.5, 0.5, 0.5, 0.5), Rect(2, 2, 2, 2)]
        for _ in range(100):
            x0, x1 = np.sort(rng.uniform(-1, 5, 2))
            y0, y1 = np.sort(rng.uniform(-1, 5, 2))
            windows.append(Rect(x0, y0, x1, y1))
        for w in windows:
            meets = segments_intersect_window(*index.network.endpoints(), w)
            assert sorted(index.rtree.window_query(w).tolist()) == np.flatnonzero(meets).tolist(), w
            assert index.range_query(w, 0.0, 10.0).object_ids == oracle.query(w, 0.0, 10.0), w

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_hits_outside_the_edges_are_refused(self, backend, monkeypatch):
        """By the temporal entry, and by a ``verbose`` query's rows path, for
        hits the window walk is made to give."""
        net, records = two_segment_setup()
        index = TrajIndex.build(net, records, TrajIndexConfig(temporal_backend=backend))
        w = Rect(-1, -1, 21, 1)
        assert range_ticks(index, 0.0, 9.0, [0, 2])[0] == -4
        assert range_ticks(index, 0.0, 9.0, [-1, 0])[0] == -3
        for hits, message in (([0, 2], "hit 1: no edge 2"), ([1, 0, -1], "hit 2: no edge -1"),
                              ([2**40], f"hit 0: no edge {2**40}"), ([1, 0, 1], None)):
            hits = np.array(hits, dtype=np.int64)
            monkeypatch.setattr(index.rtree, "window_query", lambda window: hits)
            if message is None:
                ids = index.temporal.query_ids(index._frame, hits, 0.0, 9.0)
                assert np.frombuffer(ids, np.uint32).tolist() == [1]
                result = index.range_query(w, 0.0, 9.0, verbose=True)
                later, first = (1, 1, TimeInterval(5.0, 9.0)), (1, 0, TimeInterval(0.0, 5.0))  # rows 1 and 0
                assert result.object_ids == {1} and result.matches == [later, first, later]
                continue
            with pytest.raises(IndexError, match=message):
                index.temporal.query_ids(index._frame, hits, 0.0, 9.0)
            for verbose in (False, True):
                with pytest.raises(IndexError, match=message):
                    index.range_query(w, 0.0, 9.0, verbose)


class TestThreads:
    """The kernels release the GIL, and an index keeps no scratch of its
    own, so threads can share one."""

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_four_threads_get_the_sequential_answers(self, backend):
        from concurrent.futures import ThreadPoolExecutor

        net = jittered_network(6)
        records = gen_trajectories(net, 40, 30.0, seed=7)
        index = TrajIndex.build(net, records, TrajIndexConfig(temporal_backend=backend, scale=ScaleConfig(4)))
        queries = gen_queries(net.bounds(), 30.0, "range_equal", 150, seed=8, spatial_pct=30, temporal_pct=20)

        def answers(order):
            out = {}
            for k in order:
                q = queries[k]
                got = index.range_query(q.window, q.t_start, q.t_end, verbose=k % 2 == 1)
                out[k] = (got.object_ids.array.tolist(), None if got.matches is None else sorted_matches(got.matches))
            return out

        want = answers(range(len(queries)))
        assert sum(len(ids) for ids, _ in want.values())
        orders = [np.random.default_rng(seed).permutation(len(queries)).tolist() * 3 for seed in range(4)]
        with ThreadPoolExecutor(4) as pool:
            for got in pool.map(answers, orders):
                assert got == want


class TestWorkloadMatches:
    """Every backend, built and then reloaded, on every benchmark workload at
    its self-test size: the answer with and without ``verbose`` against the
    full scan, and the ``verbose`` matches, sorted, against its records."""

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_answers_and_matches_equal_the_full_scan(self, tmp_path, backend):
        scale = ScaleConfig(6)
        for name, net, records, queries in perfbench_workloads():
            oracle = FullScanOracle(net, records, scale)
            index = TrajIndex.build(net, records, TrajIndexConfig(temporal_backend=backend, scale=scale))
            path = os.fspath(tmp_path / f"{name}.tjix")
            index.save(path)
            matched = 0
            for idx in (index, TrajIndex.load(path)):
                for q in queries:
                    want = oracle.query(q.window, q.t_start, q.t_end)
                    plain = idx.range_query(q.window, q.t_start, q.t_end)
                    full = idx.range_query(q.window, q.t_start, q.t_end, verbose=True)
                    assert plain.matches is None
                    assert plain.object_ids == want == full.object_ids, (name, q)
                    assert sorted_matches(full.matches) == oracle.matches(q.window, q.t_start, q.t_end), (name, q)
                    matched += len(full.matches)
            assert matched, name


class TestStats:
    def test_accounting(self):
        net = gen_grid_network(8, 8)
        records = gen_trajectories(net, 20, 30.0, seed=11)
        index = TrajIndex.build(net, records, TrajIndexConfig())
        stats = index.stats()
        assert stats.record_count == len(records)
        assert sum(stats.per_segment_records.values()) == len(records)
        assert stats.total_bytes == stats.spatial_bytes + stats.temporal_bytes + stats.data_bytes
        assert sum(stats.records_per_object.values()) == len(records)
        assert set(stats.iis_set_counts) == set(stats.per_segment_records)

    def test_generated_load_is_skewed(self):
        net = gen_grid_network(20, 20)
        records = gen_trajectories(net, 100, 100.0, seed=7)
        stats = TrajIndex.build(net, records).stats()
        counts = np.sort(np.array(list(stats.per_segment_records.values())))
        full = np.zeros(len(net.edges), dtype=int)
        full[: len(counts)] = counts
        top_decile = np.sort(full)[-len(full) // 10:]
        assert top_decile.sum() > 0.5 * len(records)


class TestPersistence:
    def test_roundtrip_replays_queries(self, tmp_path):
        net = gen_grid_network(10, 10)
        records = gen_trajectories(net, 20, 30.0, seed=13)
        queries = gen_queries(net.bounds(), 30.0, "range_equal", 80, seed=14, spatial_pct=15, temporal_pct=15)
        for backend in BACKENDS:
            cfg = TrajIndexConfig(temporal_backend=backend, scale=ScaleConfig(5))
            index = TrajIndex.build(net, records, cfg)
            path = os.fspath(tmp_path / f"{backend}.tjix")
            index.save(path)
            loaded = TrajIndex.load(path)
            assert loaded.cfg == cfg
            for q in queries:
                assert (
                    loaded.range_query(q.window, q.t_start, q.t_end).object_ids
                    == index.range_query(q.window, q.t_start, q.t_end).object_ids
                )

    def test_corruption_detected(self, tmp_path):
        net, records = two_segment_setup()
        index = TrajIndex.build(net, records)
        path = os.fspath(tmp_path / "x.tjix")
        index.save(path)
        data = open(path, "rb").read()

        truncated = tmp_path / "t.tjix"
        truncated.write_bytes(data[: len(data) // 2])
        with pytest.raises(FormatError):
            TrajIndex.load(os.fspath(truncated))

        bad_magic = tmp_path / "m.tjix"
        bad_magic.write_bytes(b"NOPE" + data[4:])
        with pytest.raises(FormatError):
            TrajIndex.load(os.fspath(bad_magic))

    def test_every_truncation_is_format_error(self, tmp_path):
        net = gen_grid_network(4, 4)
        records = gen_trajectories(net, 4, 20.0, seed=3)
        target = tmp_path / "cut.tjix"
        for backend in BACKENDS:
            index = TrajIndex.build(net, records, TrajIndexConfig(temporal_backend=backend, scale=ScaleConfig(4)))
            index.save(str(target))
            data = target.read_bytes()
            for cut in range(len(data)):
                target.write_bytes(data[:cut])
                with pytest.raises(FormatError, match="truncated"):
                    TrajIndex.load(str(target))

    def test_file_with_another_fanout_loads(self, tmp_path):
        """A file whose R-tree has fanout 8 loads, answers like the fanout-32
        original and saves back byte for byte."""
        net = gen_grid_network(10, 10)
        records = gen_trajectories(net, 20, 30.0, seed=13)
        index = TrajIndex.build(net, records)
        path = tmp_path / "x.tjix"
        index.save(str(path))
        data = path.read_bytes()
        shape = build_rtree(net.endpoints(), 8).to_bytes()
        start = 10 + 8 + 16 * len(net.nodes) + 8 * len(net.edges)  # the R-tree block's length word
        end = start + 8 + len(index.rtree.to_bytes())
        assert struct.unpack_from("<H", data, 8) == (index.rtree.fanout,) == (32,)
        spliced = data[:8] + struct.pack("<H", 8) + data[10:start] + struct.pack("<Q", len(shape)) + shape + data[end:]
        path.write_bytes(spliced)
        loaded = TrajIndex.load(str(path))
        assert loaded.rtree.fanout == 8 and loaded.rtree.height == index.rtree.height + 1
        queries = gen_queries(net.bounds(), 30.0, "range_equal", 80, seed=14, spatial_pct=15, temporal_pct=15)
        for q in queries:
            got, want = (sorted(ix.range_query(q.window, q.t_start, q.t_end, verbose=True).matches,
                                key=repr) for ix in (loaded, index))
            assert got == want
        loaded.save(str(path))
        assert path.read_bytes() == spliced

    def test_network_edited_after_the_build_is_not_saved(self, tmp_path):
        """The index owns its network: a caller's later edit of the lists
        it was built from reaches neither its answers nor its file."""
        nodes = [Point(0.0, 0.0), Point(1.0, 0.0), Point(2.0, 0.0), Point(3.0, 0.0)]
        net = Network(nodes, [(0, 1), (1, 2)])
        index = TrajIndex.build(net, [(0, REC(7, TimeInterval(0.0, 1.0))), (1, REC(8, TimeInterval(0.0, 1.0)))])
        window = Rect(0.2, -0.1, 0.4, 0.1)
        assert index.range_query(window, 0.0, 1.0).object_ids == {7}
        net.edge_nodes[1] = (0, 3)  # edge 1 would now cross the window
        path = str(tmp_path / "x.tjix")
        index.save(path)
        assert index.range_query(window, 0.0, 1.0).object_ids == {7}
        loaded = TrajIndex.load(path)
        assert loaded.network.edge_nodes == [(0, 1), (1, 2)]
        assert loaded.range_query(window, 0.0, 1.0).object_ids == {7}

    def test_no_segment_objects_behind_a_query(self, tmp_path):
        """An index reads its network's node pairs only: neither a build nor
        a load, nor a query, ``stats`` or a save after them, makes the
        network's ``Segment`` objects."""
        net = gen_grid_network(5, 5)
        index = TrajIndex.build(net, gen_trajectories(net, 10, 20.0, seed=3))
        path = str(tmp_path / "x.tjix")
        index.save(path)
        for ix in (index, TrajIndex.load(path)):
            assert ix.range_query(Rect(0.5, 0.5, 2.5, 2.5), 0.0, 20.0).object_ids
            ix.stats()
            ix.save(path)
            assert "edges" not in vars(ix.network)

    def test_loaded_sequences_equal_the_build(self, tmp_path):
        """A load encodes the record table's ticks as the build did: every
        array of the Elias-Fano sequences is the build's."""
        net = gen_grid_network(10, 10)
        index = TrajIndex.build(net, gen_trajectories(net, 40, 30.0, seed=13), TrajIndexConfig(scale=ScaleConfig(6)))
        path = str(tmp_path / "x.tjix")
        index.save(path)
        loaded = TrajIndex.load(path)
        assert loaded.temporal.m == index.temporal.m > len(net.edges) // 2
        for name in ("widths", "low_base", "high_base", "sample_base", "lows", "highs", "samples"):
            got, want = getattr(loaded.temporal.seqs, name), getattr(index.temporal.seqs, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name

    def test_version_mismatch(self, tmp_path):
        net, records = two_segment_setup()
        index = TrajIndex.build(net, records)
        path = os.fspath(tmp_path / "x.tjix")
        index.save(path)
        data = bytearray(open(path, "rb").read())
        data[4] = 99  # version word
        bad = tmp_path / "v.tjix"
        bad.write_bytes(bytes(data))
        with pytest.raises(VersionError):
            TrajIndex.load(os.fspath(bad))


class TestFormatChecks:
    """A corrupt version-5 file fails at load, never at query time."""

    @pytest.fixture
    def saved(self, tmp_path):
        net = gen_grid_network(6, 6)
        records = gen_trajectories(net, 15, 30.0, seed=17)
        index = TrajIndex.build(net, records, TrajIndexConfig(scale=ScaleConfig(4)))
        path = tmp_path / "x.tjix"
        index.save(str(path))
        return index, path.read_bytes(), tmp_path / "bad.tjix"

    @staticmethod
    def record_table(index) -> int:
        """Byte offset of the record table."""
        net = index.network
        return 10 + 8 + 16 * len(net.nodes) + 8 * len(net.edges) + 8 + len(index.rtree.to_bytes())

    @classmethod
    def layout(cls, index, data: bytes) -> dict:
        """Byte offsets of the record table and of the set index block: its
        set count (u32), then each set's size (u32)."""
        net = index.network
        records = cls.record_table(index)
        block = len(data) - len(index.temporal.to_bytes())
        return {
            "record_counts": records,
            "object_ids": records + 4 * len(net.edges),
            "block": block,
            "set_sizes": block + 4,
        }

    @classmethod
    def with_set_sizes(cls, index, data: bytes, sizes) -> bytes:
        """``data`` with the set index's shape replaced by these set sizes."""
        shape = struct.pack("<I", len(sizes)) + np.asarray(sizes, dtype="<u4").tobytes()
        return data[:cls.layout(index, data)["block"] - 8] + struct.pack("<Q", len(shape)) + shape

    @staticmethod
    def fuzz_queries(index, seed: int) -> list:
        """300 windows around the network and time ranges over the records'."""
        rng = np.random.default_rng(seed)
        box = index.network.bounds()
        queries = []
        for _ in range(300):
            x0, x1 = np.sort(rng.uniform(box.xmin - 0.5, box.xmax + 0.5, 2))
            y0, y1 = np.sort(rng.uniform(box.ymin - 0.5, box.ymax + 0.5, 2))
            t0, t1 = np.sort(rng.uniform(0.0, 31.0, 2))
            queries.append((Rect(x0, y0, x1, y1), t0, t1))
        return queries

    def test_truncation_at_every_part(self, saved):
        index, data, bad = saved
        at = self.layout(index, data)
        cuts = [at["record_counts"] + 2, at["object_ids"] + 5, at["block"] - 3, at["block"] + 2,
                at["set_sizes"] + 4, len(data) - 1]
        for cut in cuts:
            bad.write_bytes(data[:cut])
            with pytest.raises(FormatError, match="truncated"):
                TrajIndex.load(str(bad))

    def test_offsets_past_the_record_table(self, saved):
        index, data, bad = saved
        at = self.layout(index, data)
        for where, value in ((at["record_counts"], 2**31), (at["set_sizes"], len(index.object_ids) + 1),
                             (at["block"], 2**20)):  # a segment's records, a set's rows, the set count
            corrupt = bytearray(data)
            corrupt[where: where + 4] = struct.pack("<I", value)
            bad.write_bytes(bytes(corrupt))
            with pytest.raises(FormatError):
                TrajIndex.load(str(bad))

    def test_sets_moved_between_segments(self, saved):
        """One row moves across a segment boundary: the last set before it
        grows by one row and the first set after it shrinks by one."""
        index, data, bad = saved
        at = self.layout(index, data)
        sizes = np.diff(index.temporal.set_rows)
        first = next(k for k in index.temporal.seg_sets[1:-1].tolist() if 0 < k < len(sizes) and sizes[k] > 1)
        corrupt = bytearray(data)
        for k, delta in ((first - 1, 1), (first, -1)):
            where = at["set_sizes"] + 4 * k
            corrupt[where: where + 4] = struct.pack("<I", int(sizes[k]) + delta)
        bad.write_bytes(bytes(corrupt))
        with pytest.raises(FormatError, match="segment offsets"):
            TrajIndex.load(str(bad))

    def test_set_sizes_disagree_with_the_record_table(self, saved):
        index, data, bad = saved
        at = self.layout(index, data)
        sizes = np.diff(index.temporal.set_rows)
        for k, delta in ((0, 1), (len(sizes) - 1, 5)):
            corrupt = bytearray(data)
            where = at["set_sizes"] + 4 * k
            corrupt[where: where + 4] = struct.pack("<I", int(sizes[k]) + delta)
            bad.write_bytes(bytes(corrupt))
            with pytest.raises(FormatError, match="add up to the record table's rows"):
                TrajIndex.load(str(bad))

    def test_spatial_entry_id_out_of_range(self, saved):
        index, data, bad = saved
        at = self.layout(index, data)
        block = at["record_counts"] - len(index.rtree.to_bytes())
        assert struct.unpack_from("<I", data, block)[0] == index.rtree.height == 2
        slots = block + 4 * (1 + len(index.rtree.counts))  # the entry order follows the height and the counts
        second = struct.unpack_from("<I", data, slots + 4)[0]
        for value in (len(index.network.edges) + 3, second):  # an id past the last edge, a duplicated id
            corrupt = bytearray(data)
            corrupt[slots: slots + 4] = struct.pack("<I", value)  # the first slot's entry id
            bad.write_bytes(bytes(corrupt))
            with pytest.raises(FormatError, match="spatial index entries"):
                TrajIndex.load(str(bad))

    def test_edge_endpoint_out_of_range(self, saved):
        index, data, bad = saved
        net = index.network
        corrupt = bytearray(data)
        where = 10 + 8 + 16 * len(net.nodes) + 8 * 5 + 4  # edge 5's second endpoint
        corrupt[where: where + 4] = struct.pack("<I", len(net.nodes))
        bad.write_bytes(bytes(corrupt))
        with pytest.raises(FormatError, match="edge 5 references unknown node"):
            TrajIndex.load(str(bad))

    def test_zero_length_edge(self, saved):
        index, data, bad = saved
        net = index.network
        a, b = net.edge_nodes[5]
        corrupt = bytearray(data)
        corrupt[18 + 16 * b: 18 + 16 * b + 16] = data[18 + 16 * a: 18 + 16 * a + 16]  # node b onto node a
        bad.write_bytes(bytes(corrupt))
        with pytest.raises(FormatError, match="has zero length"):
            TrajIndex.load(str(bad))

    def test_spatial_block_fuzz(self, saved, tmp_path):
        """A flipped or cut byte, or two swapped words, in the R-tree block
        either fail at load or leave every answer unchanged.  The mutants
        run in a child process, so a crash in the compiled window walk
        fails the test."""
        index, data, _ = saved
        at = self.layout(index, data)
        start = at["record_counts"] - len(index.rtree.to_bytes())
        end = at["record_counts"]
        rng = np.random.default_rng(23)
        box = index.network.bounds()
        windows = []
        for _ in range(300):
            x0, x1 = np.sort(rng.uniform(box.xmin - 0.5, box.xmax + 0.5, 2))
            y0, y1 = np.sort(rng.uniform(box.ymin - 0.5, box.ymax + 0.5, 2))
            windows.append(Rect(x0, y0, x1, y1))
        want = [(sorted(index.rtree.window_query(w).tolist()), sorted(index.range_query(w, 0.0, 30.0).object_ids))
                for w in windows]
        mutants = []
        for pos in rng.integers(start, end, 150).tolist():
            flipped = bytearray(data)
            flipped[pos] ^= int(rng.integers(1, 256))
            mutants.append(bytes(flipped))
        for pos in rng.integers(start, end, 30).tolist():
            mutants.append(data[:pos])
            mutants.append(data[:pos] + data[pos + int(rng.integers(1, 9)):])
        for i, j in rng.integers(0, (end - start) // 4, (40, 2)).tolist():
            swapped = bytearray(data)
            a, b = start + 4 * i, start + 4 * j
            swapped[a: a + 4], swapped[b: b + 4] = data[b: b + 4], data[a: a + 4]
            mutants.append(bytes(swapped))
        for i, mutant in enumerate(mutants):
            (tmp_path / f"mutant{i}.tjix").write_bytes(mutant)
        (tmp_path / "windows.json").write_text(json.dumps([[float(w.xmin), float(w.ymin), float(w.xmax), float(w.ymax)] for w in windows]))
        child = textwrap.dedent("""
            import json, sys
            from trajindex import FormatError, Rect, TrajIndex
            folder, count = sys.argv[1], int(sys.argv[2])
            windows = [Rect(*w) for w in json.load(open(f"{folder}/windows.json"))]
            loaded, answers = 0, {}
            for i in range(count):
                try:
                    index = TrajIndex.load(f"{folder}/mutant{i}.tjix")
                except FormatError:
                    continue
                loaded += 1
                answers[i] = [(sorted(index.rtree.window_query(w).tolist()),
                               sorted(index.range_query(w, 0.0, 30.0).object_ids)) for w in windows]
            print(json.dumps({"loaded": loaded, "answers": answers}))
        """)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [os.fspath(SRC), os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", child, os.fspath(tmp_path), str(len(mutants))], env=env,
                              capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr[-4000:]
        result = json.loads(proc.stdout.splitlines()[-1])
        for i, got in result["answers"].items():
            assert [(ids, objects) for ids, objects in got] == want, f"mutant {i} answered differently"
        assert 0 < result["loaded"] < len(mutants)

    def test_temporal_block_fuzz(self, saved, tmp_path):
        """A flipped, cut or excised byte, or two swapped set sizes, in the
        set index block either fail at load or leave every answer exactly
        the original's.  The mutants run in a child process, so a crash
        fails the test."""
        index, data, _ = saved
        start = self.layout(index, data)["block"]
        rng = np.random.default_rng(29)
        mutants = []
        for pos in rng.integers(start, len(data), 150).tolist():
            flipped = bytearray(data)
            flipped[pos] ^= int(rng.integers(1, 256))
            mutants.append(bytes(flipped))
        for pos in rng.integers(start, len(data), 50).tolist():
            mutants.append(data[:pos])
            mutants.append(data[:pos] + data[pos + int(rng.integers(1, 9)):])
        sizes = np.diff(index.temporal.set_rows)
        for i, j in rng.integers(0, len(sizes), (40, 2)).tolist():
            swapped = sizes.copy()
            swapped[[i, j]] = sizes[[j, i]]
            mutants.append(self.with_set_sizes(index, data, swapped))
        loaded = self.run_mutants(tmp_path, index, data, mutants, """
            want = [original.range_query(*q).object_ids for q in queries]

            def expected(index):
                return want
        """)
        print(f"{len(mutants)} temporal-block mutants: {loaded} loaded")
        assert loaded < len(mutants)

    def test_record_table_fuzz(self, saved, tmp_path):
        """A flipped byte in the record table's object ids or times either
        fails at load or leaves a file that answers exactly like a fresh
        build over its own network and columns.  The mutants run in a child
        process, so a crash fails the test."""
        index, data, _ = saved
        at = self.layout(index, data)
        rng = np.random.default_rng(37)
        mutants = []
        for pos in rng.integers(at["object_ids"], at["block"] - 8, 150).tolist():  # up to the block's length
            flipped = bytearray(data)
            flipped[pos] ^= int(rng.integers(1, 256))
            mutants.append(bytes(flipped))
        loaded = self.run_mutants(tmp_path, index, data, mutants, """
            def expected(index):
                segments = np.repeat(np.arange(len(index.network.edges)), np.diff(index.seg_rows))
                fresh = TrajIndex.from_columns(index.network, segments, index.object_ids, index.t_start,
                                               index.t_end, index.cfg)
                return [fresh.range_query(*q).object_ids for q in queries]
        """)
        print(f"{len(mutants)} record-table mutants: {loaded} loaded")
        assert 0 < loaded < len(mutants)

    def run_mutants(self, folder, index, data: bytes, mutants: list, expected: str) -> int:
        """Loads each mutant in a child process and checks that every one
        that loads answers the fuzz queries with ``expected(index)``, which
        the code ``expected`` defines, over the loaded ``original`` file
        and the ``queries``.  Returns the number of mutants that loaded."""
        (folder / "original.tjix").write_bytes(data)
        for i, mutant in enumerate(mutants):
            (folder / f"mutant{i}.tjix").write_bytes(mutant)
        queries = [[float(w.xmin), float(w.ymin), float(w.xmax), float(w.ymax), float(t0), float(t1)]
                   for w, t0, t1 in self.fuzz_queries(index, 31)]
        (folder / "queries.json").write_text(json.dumps(queries))
        child = textwrap.dedent("""
            import json, sys
            import numpy as np
            from trajindex import FormatError, Rect, TrajIndex
            folder, count = sys.argv[1], int(sys.argv[2])
            original = TrajIndex.load(f"{folder}/original.tjix")
            queries = [(Rect(*q[:4]), q[4], q[5]) for q in json.load(open(f"{folder}/queries.json"))]
        """) + textwrap.dedent(expected) + textwrap.dedent("""
            loaded = 0
            for i in range(count):
                try:
                    index = TrajIndex.load(f"{folder}/mutant{i}.tjix")
                except FormatError:
                    continue
                loaded += 1
                got = [index.range_query(*q).object_ids for q in queries]
                assert got == expected(index), f"mutant {i} answered differently"
            print(json.dumps({"loaded": loaded}))
        """)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", child, os.fspath(folder), str(len(mutants))], env=env,
                              capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr[-4000:]
        return json.loads(proc.stdout.splitlines()[-1])["loaded"]

    def test_unknown_backend_tag(self, saved):
        _, data, bad = saved
        bad.write_bytes(data[:6] + bytes([len(BACKENDS)]) + data[7:])
        with pytest.raises(FormatError, match="unknown backend tag 4"):
            TrajIndex.load(str(bad))

    def test_spatial_block_one_word_longer(self, saved):
        index, data, bad = saved
        end = self.layout(index, data)["record_counts"]
        start = end - len(index.rtree.to_bytes())
        longer = data[:start - 8] + struct.pack("<Q", end - start + 4) + data[start:end] + bytes(4) + data[end:]
        bad.write_bytes(longer)
        with pytest.raises(FormatError, match="spatial index block length mismatch"):
            TrajIndex.load(str(bad))

    def test_temporal_block_in_a_linear_file(self, tmp_path):
        net = gen_grid_network(4, 4)
        index = TrajIndex.build(net, gen_trajectories(net, 4, 20.0, seed=3), TrajIndexConfig(temporal_backend="linear"))
        path = tmp_path / "x.tjix"
        index.save(str(path))
        data = path.read_bytes()
        assert data[-8:] == bytes(8)  # an empty temporal block
        path.write_bytes(data[:-8] + struct.pack("<Q", 8) + bytes(8))
        with pytest.raises(FormatError, match="unexpected temporal block"):
            TrajIndex.load(str(path))

    def test_time_beyond_the_tick_range_in_a_linear_file(self, tmp_path):
        net, records = two_segment_setup()
        index = TrajIndex.build(net, records, TrajIndexConfig(temporal_backend="linear"))
        path = tmp_path / "x.tjix"
        index.save(str(path))
        data = path.read_bytes()
        # the last exit time, just before the empty temporal block's length
        assert struct.unpack_from("<d", data, len(data) - 16) == (9.0,)
        path.write_bytes(data[:-16] + struct.pack("<d", 1e300) + data[-8:])
        with pytest.raises(FormatError, match=r"2\*\*62"):
            TrajIndex.load(str(path))

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_record_time_breaks_the_build_rule(self, tmp_path, backend):
        """An entry time above its exit time, NaN, infinite or negative
        fails at load, as it does at build, with every backend."""
        net = gen_grid_network(4, 4)
        index = TrajIndex.build(net, gen_trajectories(net, 4, 20.0, seed=3), TrajIndexConfig(temporal_backend=backend))
        path = tmp_path / "x.tjix"
        index.save(str(path))
        data = path.read_bytes()
        # the entry times follow a u32 record count per edge and a u32 object id per record
        first = self.record_table(index) + 4 * len(net.edges) + 4 * len(index.object_ids)
        assert struct.unpack_from("<d", data, first) == (index.t_start[0],)
        for value in (index.t_end[0] + 1.0, math.nan, math.inf, -1.0):
            path.write_bytes(data[:first] + struct.pack("<d", value) + data[first + 8:])
            with pytest.raises(FormatError, match=r"record 0 .*times must be finite with 0 <= start <= end"):
                TrajIndex.load(str(path))

    def test_trailing_bytes(self, saved):
        _, data, bad = saved
        bad.write_bytes(data + bytes(8))
        with pytest.raises(FormatError, match="index file length mismatch"):
            TrajIndex.load(str(bad))

    def test_crafted_set_shapes(self, saved):
        """A file may partition each segment's rows into any independent
        sets.  Every set split into singletons, or cut at random rows, loads
        and answers exactly like the original; two adjacent sets of one
        segment merged into one, which breaks independence, fail at load."""
        index, data, bad = saved
        sizes = np.diff(index.temporal.set_rows)
        n = len(index.object_ids)
        queries = self.fuzz_queries(index, 41)
        want = [index.range_query(*q, verbose=True) for q in queries]
        rng = np.random.default_rng(43)
        cuts = [np.ones(n, dtype=np.int64)]  # singletons
        for _ in range(3):
            begins = rng.random(n) < 0.3
            begins[index.temporal.set_rows[:-1]] = True
            cuts.append(np.diff(np.append(np.flatnonzero(begins), n)))
        for shape in cuts:
            bad.write_bytes(self.with_set_sizes(index, data, shape))
            loaded = TrajIndex.load(str(bad))
            assert loaded.temporal.m == len(shape) > index.temporal.m
            for q, result in zip(queries, want):
                got = loaded.range_query(*q, verbose=True)
                assert got.object_ids == result.object_ids
                assert sorted(got.matches, key=repr) == sorted(result.matches, key=repr)
        seg_of_set = np.searchsorted(index.temporal.seg_sets, np.arange(len(sizes)), side="right")
        pairs = np.flatnonzero(seg_of_set[:-1] == seg_of_set[1:])  # sets k and k + 1 of one segment
        assert len(pairs) >= 5
        for k in pairs[:: len(pairs) // 5].tolist():
            merged = np.concatenate([sizes[:k], [sizes[k] + sizes[k + 1]], sizes[k + 2:]])
            bad.write_bytes(self.with_set_sizes(index, data, merged))
            with pytest.raises(FormatError, match=f"set {k} of the set index is not independent"):
                TrajIndex.load(str(bad))

    def test_digits_byte_out_of_range(self, saved):
        _, data, bad = saved
        corrupt = bytearray(data)
        corrupt[7] = 9  # the header's scale digits, one above the largest allowed
        bad.write_bytes(bytes(corrupt))
        with pytest.raises(FormatError, match="scale digits"):
            TrajIndex.load(str(bad))

    def test_version_1_file_rejected(self, saved):
        _, data, bad = saved
        for version in (1, 2, 3, 4):
            bad.write_bytes(data[:4] + struct.pack("<H", version) + data[6:])
            with pytest.raises(VersionError):
                TrajIndex.load(str(bad))
