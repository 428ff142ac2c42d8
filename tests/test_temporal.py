from array import array

import numpy as np
import pytest

from trajindex import (
    InvalidQueryError,
    ScaleConfig,
    brute_force_intersect,
    build_temporal_index,
)
from trajindex.temporal import BACKENDS, LinearScanIndex, record_tick_arrays
from trajindex.temporal.interval_tree import LEAF_MAX, IntervalTreeIndex
from trajindex.temporal.schmidt import SchmidtIndex

from helpers import make_records, scenario_arrays

CFG0 = ScaleConfig(0)
THREE = make_records([1, 2, 6], [2, 3, 3])  # [1,3], [2,5], [6,9]


class TestBruteForce:
    def test_examples(self):
        assert brute_force_intersect(THREE, 4, 7, CFG0).tolist() == [1, 2]
        assert brute_force_intersect(THREE, 10, 12, CFG0).tolist() == []
        assert brute_force_intersect(THREE, 0, 100, CFG0).tolist() == [0, 1, 2]

    def test_rejects_inverted_query(self):
        with pytest.raises(InvalidQueryError):
            brute_force_intersect(THREE, 5, 4, CFG0)


class TestLinearScan:
    def test_same_as_brute_force(self):
        index = LinearScanIndex.build(THREE, CFG0)
        for l, r in [(4, 7), (10, 12), (0, 100), (3, 3)]:
            assert index.query(l, r).tolist() == brute_force_intersect(THREE, l, r, CFG0).tolist()


class TestIntervalTree:
    def test_empty(self):
        index = IntervalTreeIndex.build([], CFG0)
        assert index.query(0, 100).tolist() == []

    def test_small_structure(self):
        index = IntervalTreeIndex.build(THREE, CFG0)
        assert sorted(index.query(0, 100).tolist()) == [0, 1, 2]

    @staticmethod
    def trees():
        """Trees over several scenarios and sizes, with their tick arrays."""
        rng = np.random.default_rng(0)
        for kind, n, digits in [("random", 400, 2), ("random", 300, 1), ("nested", 250, 0),
                                ("identical", 40, 0), ("fixed", 16, 1), ("trajectory", 3, 1), ("fixed", 0, 0)]:
            starts, lengths = scenario_arrays(rng, kind, n)
            sticks, eticks = record_tick_arrays(make_records(starts, lengths), ScaleConfig(digits))
            yield IntervalTreeIndex.from_ticks(sticks, eticks), sticks, eticks

    def test_every_record_stored_once_and_node_bound(self):
        for index, sticks, _ in self.trees():
            n = len(sticks)
            # start order holds every id once; end order holds the internal nodes' ids once more
            assert sorted(index.start_ids.tolist()) == list(range(n))
            assert len(index.end_ids) == (index.offsets[index.first_leaf] if n else 0)
            for node in range(index.first_leaf):
                a, b = index.offsets[node], index.offsets[node + 1]
                assert sorted(index.end_ids[a:b].tolist()) == sorted(index.start_ids[a:b].tolist())
            assert len(index.x_med) <= 2 * n

    def test_median_stabs_all_kept_intervals(self):
        for index, sticks, eticks in self.trees():
            start_ticks, end_ticks = index.start_ticks.tolist(), index.end_ticks.tolist()
            assert start_ticks == sticks[index.start_ids].tolist()
            end_order = np.concatenate((index.end_ids, index.start_ids[len(index.end_ids):]))
            assert end_ticks == eticks[end_order].tolist()
            if len(sticks) > LEAF_MAX:
                endpoints = sorted(sticks.tolist() + eticks.tolist())
                assert index.x_med[0] == endpoints[(len(endpoints) - 1) // 2]  # the lower median
            for node in range(index.first_leaf):
                a, b = index.offsets[node], index.offsets[node + 1]
                x = index.x_med[node]
                assert b > a
                assert all(s <= x for s in start_ticks[a:b])
                assert all(e >= x for e in end_ticks[a:b])
                assert start_ticks[a:b] == sorted(start_ticks[a:b])
                assert end_ticks[a:b] == sorted(end_ticks[a:b])

    def test_children_point_forward_to_one_parent(self):
        for index, sticks, _ in self.trees():
            nodes = len(index.x_med)
            assert len(index.left) == len(index.right) == nodes
            children = [c for c in index.left.tolist() + index.right.tolist() if c >= 0]
            assert sorted(children) == list(range(1, nodes))
            for node in range(nodes):
                assert all(c == -1 or c > node for c in (index.left[node], index.right[node]))
                if node >= index.first_leaf:
                    assert index.left[node] == index.right[node] == -1
                    assert index.offsets[node + 1] - index.offsets[node] <= LEAF_MAX

    def test_offsets_cover_the_sections(self):
        for index, sticks, _ in self.trees():
            n = len(sticks)
            assert len(index.start_ticks) == len(index.end_ticks) == len(index.start_ids) == n
            if n == 0:
                assert len(index.offsets) == len(index.x_med) == 0
                continue
            assert len(index.offsets) == len(index.x_med) + 1
            assert index.offsets[0] == 0 and index.offsets[-1] == n
            assert all(a < b for a, b in zip(index.offsets, index.offsets[1:]))

    def test_space_report_is_every_array_held(self):
        widths = {"start_ticks": 64, "end_ticks": 64, "start_ids": 32, "end_ids": 32,
                  "x_med": 64, "left": 32, "right": 32, "offsets": 32}
        for index, sticks, _ in self.trees():
            held = {name: v for name, v in vars(index).items() if isinstance(v, (list, array, np.ndarray))}
            assert set(held) == set(index.TICKS + index.REFS + index.NODES) == set(widths)
            assert {name: 8 * v.itemsize for name, v in held.items()} == widths
            assert index.start_ids.dtype == index.end_ids.dtype == np.uint32
            report = index.space_report()
            assert report["total_bits"] == sum(8 * v.itemsize * len(v) for v in held.values())
            assert report["tick_bits"] == 2 * 64 * len(sticks)
            assert report["total_bits"] == report["tick_bits"] + report["ref_bits"] + report["node_bits"]


class TestSchmidt:
    def test_empty(self):
        index = SchmidtIndex.build([], CFG0)
        assert index.query(0, 10).tolist() == []

    def test_father_relation_on_nested_example(self):
        # [1,10] covers [2,9] covers [3,4]; fathers follow the tightest
        # rightmost cover and the outermost hangs off the virtual root
        records = make_records([1, 2, 3], [9, 7, 1])
        index = SchmidtIndex.build(records, CFG0)
        assert index.father[2] == 1
        assert index.father[1] == 0
        assert index.father[0] == -1

    def test_stabbing_query_reports_whole_chain(self):
        records = make_records([1, 2, 3], [9, 7, 1])
        index = SchmidtIndex.build(records, CFG0)
        assert sorted(index.query(3, 3).tolist()) == [0, 1, 2]
        assert index.query(20, 30).tolist() == []

    def test_sibling_traversal_orders_starts(self):
        rng = np.random.default_rng(2)
        starts, lengths = scenario_arrays(rng, "random", 500)
        index = SchmidtIndex.build(make_records(starts, lengths), ScaleConfig(1))
        # depth-first left-to-right = the precomputed preorder
        order = index.pre_order
        assert (np.diff(index.starts[order]) >= 0).all()

    def test_father_covers_child(self):
        rng = np.random.default_rng(3)
        starts, lengths = scenario_arrays(rng, "shared", 300)
        index = SchmidtIndex.build(make_records(starts, lengths), CFG0)
        for i, f in enumerate(index.father.tolist()):
            if f >= 0:
                assert index.starts[f] <= index.starts[i]
                assert index.ends[f] >= index.ends[i]


class TestBackendAgreement:
    @pytest.mark.parametrize("kind", ["fixed", "random", "trajectory", "nested", "identical", "shared"])
    def test_kind(self, kind):
        rng = np.random.default_rng(hash(kind) % 2**32)
        for trial in range(12):
            n = int(rng.integers(0, 400))
            digits = int(rng.choice([0, 1, 2, 4]))
            cfg = ScaleConfig(digits)
            starts, lengths = scenario_arrays(rng, kind, n)
            records = make_records(starts, lengths)
            indexes = {name: build_temporal_index(name, records, cfg) for name in BACKENDS}
            hi = 1000 * cfg.scale + 10
            for _ in range(25):
                l = int(rng.integers(0, hi))
                r = l + int(rng.integers(0, hi // 2))
                want = brute_force_intersect(records, l, r, cfg).tolist()
                for name, index in indexes.items():
                    got = sorted(index.query(l, r).tolist())
                    assert got == want, (kind, name, trial, n, digits, l, r)

    def test_ten_thousand_records_match_oracle(self):
        rng = np.random.default_rng(10)
        cfg = ScaleConfig(3)
        starts, lengths = scenario_arrays(rng, "random", 10_000)
        records = make_records(starts, lengths)
        sticks, eticks = record_tick_arrays(records, cfg)
        indexes = {name: build_temporal_index(name, records, cfg) for name in BACKENDS}
        for _ in range(40):
            l = int(rng.integers(0, 10**6))
            r = l + int(rng.integers(0, 10**5))
            want = np.flatnonzero((sticks <= r) & (eticks >= l)).tolist()
            for name, index in indexes.items():
                assert sorted(index.query(l, r).tolist()) == want, name

    def test_inverted_query_rejected_everywhere(self):
        for name in BACKENDS:
            index = build_temporal_index(name, THREE, CFG0)
            with pytest.raises(InvalidQueryError):
                index.query(9, 3)
