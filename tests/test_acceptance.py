"""Acceptance suite: one test per exit criterion.

Each test prints a single pass line with its runtime (run pytest with -s
to see them as they complete); a failed assertion marks the criterion
red.  Runtime budgets are asserted where the criterion states one.
"""

import itertools
import math
import time

import numpy as np
import pytest

import trajindex as ti
from trajindex.bench import BENCH_COLUMNS, BenchSpec, run_benchmark
from trajindex.temporal import BACKENDS, build_temporal_index, record_tick_arrays
from trajindex.temporal.iis import IISIndex, decompose_independent_sets

from helpers import FullScanOracle, make_records, min_chain_cover_dp, scenario_arrays


def report(criterion: str, started: float, detail: str = "") -> float:
    elapsed = time.perf_counter() - started
    suffix = f" [{detail}]" if detail else ""
    print(f"\n[ACCEPTANCE] {criterion}: PASS ({elapsed:.1f}s){suffix}")
    return elapsed


# -- criterion 1: temporal backends equal the brute-force oracle ------------

C1_TRIALS_PER_SCENARIO = 1000
C1_QUERIES_PER_TRIAL = 100
C1_BUDGET_SECONDS = 300.0


def test_c1_backend_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(20240101)
    digit_cycle = [0, 2, 4, 6, 8]
    adversarial = ["nested", "identical", "shared"]
    checked = 0
    for scenario in ("fixed", "random", "trajectory"):
        for trial in range(C1_TRIALS_PER_SCENARIO):
            if trial % 5 == 4:
                kind = adversarial[trial % len(adversarial)]
                n = int(rng.integers(0, 300))
            else:
                kind = scenario
                n = int(np.exp(rng.uniform(0, math.log(10_000))))
            cfg = ti.ScaleConfig(digit_cycle[trial % len(digit_cycle)])
            starts, lengths = scenario_arrays(rng, kind, n)
            records = make_records(starts, lengths)
            sticks, eticks = record_tick_arrays(records, cfg)
            indexes = [build_temporal_index(name, records, cfg) for name in BACKENDS]
            hi = 1100 * cfg.scale + 2
            ls = rng.integers(0, hi, C1_QUERIES_PER_TRIAL)
            lens = rng.integers(0, hi // 3 + 1, C1_QUERIES_PER_TRIAL)
            lens[::7] = 0  # point queries
            if n:  # probe stored endpoints to stress closed-boundary ties
                probe = rng.integers(0, n, 8)
                ls[:8] = np.where(probe % 2 == 0, sticks[probe], eticks[probe])
                lens[:8] = probe % 3
            for l, query_len in zip(ls.tolist(), lens.tolist()):
                r = l + query_len
                want = np.flatnonzero((sticks <= r) & (eticks >= l))
                for index in indexes:
                    got = np.sort(index.query(l, r))
                    assert np.array_equal(got, want), (
                        f"{index.backend} disagrees: scenario={scenario} trial={trial} "
                        f"kind={kind} n={n} digits={cfg.digits} query=({l},{r})"
                    )
                checked += 1
    elapsed = report("C1 temporal-backend oracle equivalence", started,
                     f"{checked} queries x {len(BACKENDS)} backends, zero mismatches")
    assert elapsed < C1_BUDGET_SECONDS


# -- criterion 2: decomposition minimality -----------------------------------


def _all_intervals(universe: int):
    return [(s, e) for s in range(universe) for e in range(s, universe)]


def test_c2_decomposition_minimality():
    started = time.perf_counter()
    cases = 0
    exhaustive = [(3, 5), (4, 4), (8, 3)]  # (tick universe, max multiset size)
    for universe, max_size in exhaustive:
        intervals = _all_intervals(universe)
        for k in range(1, max_size + 1):
            for combo in itertools.combinations_with_replacement(intervals, k):
                s = np.array([c[0] for c in combo])
                e = np.array([c[1] for c in combo])
                _, m = decompose_independent_sets(s, e)
                assert m == min_chain_cover_dp(s, e), combo
                cases += 1
    rng = np.random.default_rng(7)
    for _ in range(10_000):
        n = int(rng.integers(0, 13))
        s = rng.integers(0, 8, n)
        e = s + rng.integers(0, 8 - s.clip(max=7)) if n else s
        _, m = decompose_independent_sets(s, e)
        assert m == min_chain_cover_dp(s, e), (s.tolist(), e.tolist())
        cases += 1
    report("C2 decomposition minimality vs DP oracle", started, f"{cases} cases, zero mismatches")


# -- criterion 3: Elias-Fano space bound --------------------------------------


def test_c3_elias_fano_space_bound():
    started = time.perf_counter()
    rng = np.random.default_rng(11)
    built = 0

    def check(seq, n, u):
        nonlocal built
        bound = 0 if n == 0 else 2 * n + n * math.ceil(math.log2(u / n)) if u > n else 2 * n
        assert seq.payload_bits <= bound, (n, u, seq.payload_bits, bound)
        assert seq.select_overhead_bits <= 0.5 * max(n, 1), (n, u)
        built += 1

    for u in (1, 2, 10, 1000, 10**6, 10**10, 10**14):
        for frac in (0.0, 0.001, 0.1, 0.5, 1.0):
            n = min(int(u * frac), 4000)
            values = np.sort(rng.choice(min(u, 10**7), size=n, replace=False)) if n else []
            seq = ti.EliasFanoSeq.from_values(values, u)
            check(seq, n, u)
    # every sequence inside compact indexes over the three scenarios
    for kind in ("fixed", "random", "trajectory"):
        starts, lengths = scenario_arrays(rng, kind, 3000)
        index = IISIndex.build(make_records(starts, lengths), ti.ScaleConfig(6))
        for s in index.sets:
            check(s.starts_seq, len(s), index.u)
            check(s.ends_seq, len(s), index.u)
    report("C3 Elias-Fano space bound", started, f"{built} sequences within bound")


# -- criterion 4: qualitative set counts at n = 100,000 -----------------------


def test_c4_set_count_reproduction():
    started = time.perf_counter()
    cfg = ti.ScaleConfig(8)
    results = {}
    for kind in ("fixed_size", "trajectory", "random_size"):
        spec = ti.WorkloadSpec(kind=kind, n=100_000, seed=42, horizon=1000.0,
                               length=10.0, mean_length=10.0, jitter=0.05)
        records = ti.gen_interval_workload(spec)
        s, e = record_tick_arrays(records, cfg)
        _, m = decompose_independent_sets(s, e)
        results[kind] = m
    assert results["fixed_size"] == 1, results
    assert results["trajectory"] <= 100, results
    assert results["random_size"] >= 100, results
    report("C4 set-count qualitative reproduction", started,
           f"fixed m={results['fixed_size']}, trajectory m={results['trajectory']}, "
           f"random m={results['random_size']}")


# -- criterion 5: end-to-end equivalence --------------------------------------

C5_BUDGET_SECONDS = 120.0


def test_c5_end_to_end_equivalence():
    started = time.perf_counter()
    net = ti.gen_grid_network(20, 20)
    records = ti.gen_trajectories(net, 100, 100.0, seed=7)
    scale = ti.ScaleConfig(6)
    oracle = FullScanOracle(net, records, scale)
    bounds = net.bounds()

    query_sets = []
    families = ("range_equal", "range_larger_temporal", "time_slice")
    for fi, family in enumerate(families):
        for ei, extent in enumerate((1.0, 10.0, 20.0)):
            temporal = 100.0 if family == "range_larger_temporal" else extent
            query_sets.append(ti.gen_queries(
                bounds, 100.0, family, 500, seed=1000 + 10 * fi + ei,
                spatial_pct=extent, temporal_pct=temporal,
            ))

    indexes = {
        name: ti.TrajIndex.build(net, records, ti.TrajIndexConfig(
            temporal_backend=name, scale=scale))
        for name in BACKENDS
    }
    checked = 0
    for queries in query_sets:
        for q in queries:
            want = oracle.query(q.window, q.t_start, q.t_end)
            for name, index in indexes.items():
                got = index.range_query(q.window, q.t_start, q.t_end).object_ids
                assert got == want, (name, q)
            checked += 1
    elapsed = report("C5 end-to-end equivalence", started,
                     f"{checked} queries x {len(indexes)} backends, zero mismatches")
    assert elapsed < C5_BUDGET_SECONDS


# -- criterion 6: scale-sensitivity contract ----------------------------------


def test_c6_scale_sensitivity():
    started = time.perf_counter()
    net = ti.gen_grid_network(12, 12)
    records = ti.gen_trajectories(net, 40, 60.0, seed=21)
    queries = ti.gen_queries(net.bounds(), 60.0, "range_equal", 300, seed=22,
                             spatial_pct=10, temporal_pct=10)
    checked = 0
    for digits in (0, 2, 4, 6, 8):
        scale = ti.ScaleConfig(digits)
        oracle = FullScanOracle(net, records, scale)
        for name in BACKENDS:
            index = ti.TrajIndex.build(net, records, ti.TrajIndexConfig(
                temporal_backend=name, scale=scale))
            for q in queries:
                got = index.range_query(q.window, q.t_start, q.t_end).object_ids
                assert got == oracle.query(q.window, q.t_start, q.t_end), (digits, name, q)
                checked += 1
    report("C6 scale-sensitivity contract", started,
           f"digits 0/2/4/6/8, {checked} checks, zero mismatches")


# -- criterion 7: serialization ------------------------------------------------


def test_c7_serialization_roundtrip(tmp_path):
    started = time.perf_counter()
    net = ti.gen_grid_network(20, 20)
    records = ti.gen_trajectories(net, 100, 100.0, seed=7)
    index = ti.TrajIndex.build(net, records, ti.TrajIndexConfig(
        temporal_backend="iis", scale=ti.ScaleConfig(6)))
    path = str(tmp_path / "index.tjix")
    index.save(path)
    loaded = ti.TrajIndex.load(path)

    queries = []
    for fi, family in enumerate(("range_equal", "range_larger_temporal", "time_slice")):
        queries.extend(ti.gen_queries(net.bounds(), 100.0, family, 500, seed=100 + fi,
                                      spatial_pct=10, temporal_pct=50))
    assert len(queries) == 1500
    for q in queries:
        assert (loaded.range_query(q.window, q.t_start, q.t_end).object_ids
                == index.range_query(q.window, q.t_start, q.t_end).object_ids)

    data = open(path, "rb").read()
    corrupt = tmp_path / "corrupt.tjix"
    corrupt.write_bytes(data[: len(data) // 3])
    with pytest.raises(ti.FormatError):
        ti.TrajIndex.load(str(corrupt))
    bad_magic = tmp_path / "magic.tjix"
    bad_magic.write_bytes(b"XXXX" + data[4:])
    with pytest.raises(ti.FormatError):
        ti.TrajIndex.load(str(bad_magic))
    bad_version = bytearray(data)
    bad_version[4] ^= 0xFF
    versioned = tmp_path / "version.tjix"
    versioned.write_bytes(bytes(bad_version))
    with pytest.raises(ti.VersionError):
        ti.TrajIndex.load(str(versioned))
    report("C7 serialization round-trip", started, "1500 queries replayed, corruption rejected")


# -- criterion 8: benchmark report ---------------------------------------------

C8_BUDGET_SECONDS = 900.0


def test_c8_benchmark_matrix(tmp_path):
    started = time.perf_counter()
    spec = BenchSpec(
        sizes=(1_000, 10_000, 50_000, 100_000),
        queries_per_set=500,
        repetitions=1,
        seed=1,
    )
    rows = run_benchmark(spec)
    path = tmp_path / "bench.csv"
    with open(path, "w", newline="") as fh:
        ti.write_csv(rows, fh)

    import csv

    parsed = list(csv.DictReader(open(path)))
    assert list(parsed[0].keys()) == BENCH_COLUMNS
    assert len(parsed) == 3 * 4 * 4 + 3 * 4

    by_group: dict[tuple, set] = {}
    for row in parsed:
        by_group.setdefault((row["scenario"], row["n"]), set()).add(row["result_count_total"])
    assert all(len(v) == 1 for v in by_group.values()), "result counts differ across backends"

    space = {
        (row["scenario"], row["backend"], int(row["n"])): int(row["space_bytes"]) for row in parsed
    }
    assert space[("trajectory", "iis", 100_000)] < space[("trajectory", "interval_tree", 100_000)]
    elapsed = report("C8 benchmark report", started,
                     f"{len(parsed)} rows; iis {space[('trajectory', 'iis', 100_000)]} B "
                     f"< interval-tree {space[('trajectory', 'interval_tree', 100_000)]} B on trajectory@1e5")
    assert elapsed < C8_BUDGET_SECONDS
