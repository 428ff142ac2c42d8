import json
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
    IntervalRecord,
    InvalidInputError,
    InvalidQueryError,
    Network,
    Point,
    Query,
    Rect,
    ScaleConfig,
    Segment,
    TimeInterval,
    TrajIndex,
    TrajIndexConfig,
    VersionError,
    build_rtree,
    discretize_time,
    gen_grid_network,
    gen_queries,
    gen_trajectories,
    segments_intersect_window,
)
import trajindex.index
from trajindex.eliasfano import ffi, lib
from trajindex.temporal import BACKENDS
from trajindex.temporal.iis import IISIndex

from helpers import FullScanOracle, full_scan_objects

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

REC = IntervalRecord


def two_segment_setup():
    """Object 1 crosses segment A during [0,5] and segment B during [5,9]."""
    nodes = [Point(0, 0), Point(10, 0), Point(20, 0)]
    net = Network(
        nodes,
        [Segment(0, nodes[0], nodes[1]), Segment(1, nodes[1], nodes[2])],
        [(0, 1), (1, 2)],
    )
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


class TestRefinement:
    def test_mbb_false_positive_filtered(self):
        # diagonal segment whose box covers the window but whose geometry
        # stays clear of it
        nodes = [Point(0, 0), Point(10, 10), Point(0, 8), Point(2, 8)]
        net = Network(
            nodes,
            [Segment(0, nodes[0], nodes[1]), Segment(1, nodes[2], nodes[3])],
            [(0, 1), (2, 3)],
        )
        records = [
            (0, REC(1, TimeInterval(0.0, 10.0))),
            (1, REC(2, TimeInterval(0.0, 10.0))),
        ]
        index = TrajIndex.build(net, records)
        window = Rect(0.5, 7.5, 2.5, 9.0)  # inside the diagonal's box, off the line
        assert 0 in index.rtree.window_query(window)
        assert index._candidate_segments(window) == [1]
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
            for seg_id in index._candidate_segments(window):
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
    return Network(nodes, [Segment(k, nodes[a], nodes[b]) for k, (a, b) in enumerate(pairs)], pairs)


class TestCandidates:
    def test_box_exact_shortcut_matches_full_scan_off_grid(self):
        net = jittered_network(3)
        index = TrajIndex.build(net, [])
        assert index._box_exact.sum() == 2 and not index._box_exact.all()
        ax, ay, bx, by = index._ax, index._ay, index._bx, index._by
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
            assert sorted(index._candidate_segments(w).tolist()) == want.tolist(), w


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

    def test_time_slice_discretizes_its_time_once(self, monkeypatch):
        net, records = two_segment_setup()
        index = TrajIndex.build(net, records, TrajIndexConfig(scale=ScaleConfig(2)))
        seen = []

        def counting(t, scale):
            seen.append(t)
            return discretize_time(t, scale)

        monkeypatch.setattr(trajindex.index, "discretize_time", counting)
        assert index.time_slice_query(Rect(-1, -1, 21, 1), 5.0).object_ids == {1}
        assert seen == [5.0]
        assert index.range_query(Rect(-1, -1, 21, 1), 4.0, 5.0).object_ids == {1}
        assert seen == [5.0, 4.0, 5.0]


def distinct_ids(object_ids, rows) -> list[int]:
    """The union kernel's answer: the distinct ids of ``rows``."""
    object_ids = np.ascontiguousarray(object_ids, dtype=np.uint32)
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    out = np.empty(len(rows), dtype=np.uint32)
    k = lib.distinct_ids(ffi.from_buffer("uint32_t[]", object_ids), ffi.from_buffer("int64_t[]", rows), len(rows),
                         ffi.from_buffer("uint32_t[]", out))
    assert 0 <= k <= len(rows)
    return out[:k].tolist()


def first_seen(object_ids, rows) -> list[int]:
    """The reference: each id of ``rows`` once, in the order it first appears."""
    return list(dict.fromkeys(np.asarray(object_ids, dtype=np.uint32)[np.asarray(rows, dtype=np.int64)].tolist()))


class TestDistinctIds:
    """The compiled object-id union against a dict over the gathered ids."""

    def test_no_rows_and_one_row(self):
        ids = np.array([7, 0, 2**32 - 1], dtype=np.uint32)
        assert distinct_ids(ids, []) == []
        assert distinct_ids(np.zeros(0, dtype=np.uint32), []) == []
        for row in range(3):
            assert distinct_ids(ids, [row]) == [int(ids[row])]

    def test_every_row_the_same_object(self):
        for obj in (0, 1, 2**31, 2**32 - 1):
            ids = np.full(1_000, obj, dtype=np.uint32)
            assert distinct_ids(ids, np.arange(1_000)) == [obj]
            assert distinct_ids(ids, np.full(5, 999)) == [obj]

    def test_zero_and_the_largest_id_together(self):
        ids = np.array([2**32 - 1, 0, 1, 2**32 - 2, 0, 2**32 - 1], dtype=np.uint32)
        assert distinct_ids(ids, np.arange(6)) == [2**32 - 1, 0, 1, 2**32 - 2]
        assert distinct_ids(ids, [1, 4, 0, 5]) == [0, 2**32 - 1]

    def test_rows_out_of_order_and_repeated(self):
        ids = np.array([10, 11, 12, 10, 13, 11], dtype=np.uint32)
        rows = [5, 5, 2, 0, 3, 4, 1, 2, 5, 0]
        assert distinct_ids(ids, rows) == first_seen(ids, rows) == [11, 12, 10, 13]

    def test_ids_colliding_in_their_low_bits(self):
        n = 100_000
        rng = np.random.default_rng(40)
        for ids in (np.arange(n, dtype=np.uint32) << 16,          # the low 16 bits all zero
                    (np.arange(n, dtype=np.uint32) % 40_000) << 16,  # and repeated
                    np.arange(n, dtype=np.uint32) << 15 | 1):
            rows = rng.permutation(n)
            got = distinct_ids(ids, rows)
            assert got == first_seen(ids, rows)
            assert len(got) == len(np.unique(ids))

    def test_random_against_the_numpy_union(self):
        rng = np.random.default_rng(41)
        for _ in range(300):
            n_records = int(rng.integers(1, 3_000))
            pool = int(rng.choice([1, 5, 400, 2**32]))
            ids = rng.integers(0, pool, n_records, dtype=np.uint64).astype(np.uint32)
            rows = rng.integers(0, n_records, int(rng.integers(0, 2_000)))
            got = distinct_ids(ids, rows)
            assert got == first_seen(ids, rows)
            assert set(got) == set(ids[rows].tolist())


def diagonal_network() -> Network:
    """Both diagonals of every cell of a 6x6 lattice: no edge is axis-parallel."""
    nodes = [Point(float(i), float(j)) for i in range(6) for j in range(6)]
    pairs = [p for i in range(5) for j in range(5) for p in ((6 * i + j, 6 * i + j + 7), (6 * i + j + 1, 6 * i + j + 6))]
    return Network(nodes, [Segment(k, nodes[a], nodes[b]) for k, (a, b) in enumerate(pairs)], pairs)


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
                assert idx._all_exact is all_exact
                for q in queries:
                    want = oracle.query(q.window, q.t_start, q.t_end)
                    got = idx.range_query(q.window, q.t_start, q.t_end, verbose=True)
                    assert got.object_ids == want, (name, backend, q)
                    assert {o for o, _, _ in got.matches} == want


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
        boxes = np.array([[min(e.a.x, e.b.x), min(e.a.y, e.b.y), max(e.a.x, e.b.x), max(e.a.y, e.b.y)]
                          for e in net.edges])
        shape = build_rtree(boxes, 8).to_bytes()
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
    """A corrupt version-4 file fails at load, never at query time."""

    @pytest.fixture
    def saved(self, tmp_path):
        net = gen_grid_network(6, 6)
        records = gen_trajectories(net, 15, 30.0, seed=17)
        index = TrajIndex.build(net, records, TrajIndexConfig(scale=ScaleConfig(4)))
        path = tmp_path / "x.tjix"
        index.save(str(path))
        return index, path.read_bytes(), tmp_path / "bad.tjix"

    @staticmethod
    def layout(index, data: bytes) -> dict:
        """Byte offsets of the record table and of the set index block: its
        universe (u64) and set count (u32), then each set's size (u32)."""
        net = index.network
        records = 10 + 8 + 16 * len(net.nodes) + 8 * len(net.edges) + 8 + len(index.rtree.to_bytes())
        block = len(data) - len(index.temporal.to_bytes())
        return {
            "record_counts": records,
            "object_ids": records + 4 * len(net.edges),
            "block": block,
            "set_sizes": block + 12,
            "highs": len(data) - 8 * len(index.temporal.seqs.highs),
        }

    def test_truncation_at_every_part(self, saved):
        index, data, bad = saved
        at = self.layout(index, data)
        cuts = [at["record_counts"] + 2, at["object_ids"] + 5, at["block"] - 3, at["block"] + 6,
                at["set_sizes"] + 4, at["highs"] - 8, at["highs"] + 3, len(data) - 1]
        for cut in cuts:
            bad.write_bytes(data[:cut])
            with pytest.raises(FormatError, match="truncated"):
                TrajIndex.load(str(bad))

    def test_offsets_past_the_record_table(self, saved):
        index, data, bad = saved
        at = self.layout(index, data)
        for where, value in ((at["record_counts"], 2**31), (at["set_sizes"], len(index.object_ids) + 1),
                             (at["block"] + 8, 2**20)):  # a segment's records, a set's rows, the set count
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
        """A flipped, cut or excised byte in the set index block either fails
        at load or leaves every query answering, with ids the index holds.
        The mutants run in a child process, so a crash fails the test."""
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
        (tmp_path / "original.tjix").write_bytes(data)
        for i, mutant in enumerate(mutants):
            (tmp_path / f"mutant{i}.tjix").write_bytes(mutant)
        child = textwrap.dedent("""
            import json, sys
            import numpy as np
            from trajindex import FormatError, Rect, TrajIndex
            folder, count = sys.argv[1], int(sys.argv[2])
            original = TrajIndex.load(f"{folder}/original.tjix")
            ids = set(original.object_ids.tolist())
            rng = np.random.default_rng(31)
            box = original.network.bounds()
            queries = []
            for _ in range(300):
                x0, x1 = np.sort(rng.uniform(box.xmin - 0.5, box.xmax + 0.5, 2))
                y0, y1 = np.sort(rng.uniform(box.ymin - 0.5, box.ymax + 0.5, 2))
                t0, t1 = np.sort(rng.uniform(0.0, 31.0, 2))
                queries.append((Rect(x0, y0, x1, y1), t0, t1))
            want = [original.range_query(*q).object_ids for q in queries]
            loaded = wrong = 0
            for i in range(count):
                try:
                    index = TrajIndex.load(f"{folder}/mutant{i}.tjix")
                except FormatError:
                    continue
                loaded += 1
                got = [index.range_query(*q).object_ids for q in queries]
                assert all(found <= ids for found in got), f"mutant {i} answered an id the index lacks"
                wrong += got != want
            print(json.dumps({"loaded": loaded, "wrong": wrong}))
        """)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [os.fspath(SRC), os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", child, os.fspath(tmp_path), str(len(mutants))], env=env,
                              capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr[-4000:]
        result = json.loads(proc.stdout.splitlines()[-1])
        print(f"{len(mutants)} temporal-block mutants: {result['loaded']} loaded, {result['wrong']} answered wrongly")
        assert 0 < result["loaded"] < len(mutants)

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

    def test_trailing_bytes(self, saved):
        _, data, bad = saved
        bad.write_bytes(data + bytes(8))
        with pytest.raises(FormatError, match="index file length mismatch"):
            TrajIndex.load(str(bad))

    def test_cleared_high_bit(self, saved):
        index, data, bad = saved
        at = self.layout(index, data)
        corrupt = bytearray(data)
        pos = next(i for i in range(at["highs"], len(data)) if corrupt[i])
        corrupt[pos] &= corrupt[pos] - 1  # clear the lowest set bit
        bad.write_bytes(bytes(corrupt))
        with pytest.raises(FormatError, match="set bit per value"):
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
        for version in (1, 2, 3):
            bad.write_bytes(data[:4] + struct.pack("<H", version) + data[6:])
            with pytest.raises(VersionError):
                TrajIndex.load(str(bad))
