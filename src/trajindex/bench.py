"""Benchmark matrix: interval scenarios x backends x sizes, plus the three
query families against the full two-level index, emitted as CSV rows.

Timing is monotonic wall clock around a whole query set, the median over
the configured repetitions.  An interval cell times its backends in turns,
so that a change of machine pace does not decide the cell.  Space is the
accounted in-structure size from the space reports, not process RSS, so
rows are reproducible; every non-timing column is a pure function of the
spec and seed.

Cells run one after another in one process and one thread, so a timed
cell shares the machine with no other cell.
"""

from __future__ import annotations

import csv
import statistics
import time
from dataclasses import dataclass

import numpy as np

from .core import ConfigError, ScaleConfig, discretize_times
from .datagen import WorkloadSpec, gen_grid_network, gen_interval_workload, gen_queries, gen_trajectories
from .index import TrajIndex, TrajIndexConfig
from .temporal import BACKENDS, build_temporal_index

BENCH_COLUMNS = [
    "scenario",
    "backend",
    "n",
    "scale_digits",
    "build_seconds",
    "query_seconds_total",
    "space_bytes",
    "m_total",
    "result_count_total",
]

INTERVAL_SCENARIOS = ("fixed_size", "random_size", "trajectory")
QUERY_FAMILIES = ("range_equal", "range_larger_temporal", "time_slice")


@dataclass(frozen=True)
class BenchSpec:
    scenarios: tuple[str, ...] = INTERVAL_SCENARIOS
    backends: tuple[str, ...] = ("linear", "interval_tree", "schmidt", "iis")
    sizes: tuple[int, ...] = (1_000, 10_000, 50_000, 100_000)
    families: tuple[str, ...] = QUERY_FAMILIES
    queries_per_set: int = 500
    repetitions: int = 3
    seed: int = 1
    scale_digits: int = 8
    query_extent_pct: float = 10.0
    horizon: float = 1000.0
    grid_rows: int = 20
    grid_cols: int = 20
    objects: int = 100
    duration: float = 100.0

    def __post_init__(self):
        for s in self.scenarios:
            if s not in INTERVAL_SCENARIOS:
                raise ConfigError(f"unknown scenario {s!r}")
        for b in self.backends:
            if b not in BACKENDS:
                raise ConfigError(f"unknown backend {b!r}")
        for f in self.families:
            if f not in QUERY_FAMILIES:
                raise ConfigError(f"unknown query family {f!r}")
        if not 0 < self.query_extent_pct <= 100:
            raise ConfigError("query extent must be in (0, 100]")
        if self.repetitions < 1:
            raise ConfigError("repetitions must be >= 1")


def _interval_queries(spec: BenchSpec, seed: int, cfg: ScaleConfig) -> list[tuple[int, int]]:
    t0 = np.random.default_rng(seed).uniform(0.0, spec.horizon, spec.queries_per_set)
    length = spec.horizon * spec.query_extent_pct / 100.0
    return list(zip(discretize_times(t0, cfg).tolist(), discretize_times(t0 + length, cfg).tolist()))


def _interleaved_reps(runs: list, repetitions: int) -> list[tuple[float, int]]:
    """Per run, the median wall-clock seconds over the repetitions and the
    result count it returns.  Repetition k calls every run once, starting
    at run k mod len(runs)."""
    times: list[list[float]] = [[] for _ in runs]
    counts = [0] * len(runs)
    for k in range(repetitions):
        for j in range(len(runs)):
            i = (k + j) % len(runs)
            t0 = time.perf_counter()
            counts[i] = runs[i]()
            times[i].append(time.perf_counter() - t0)
    return [(statistics.median(t), c) for t, c in zip(times, counts)]


def _interval_cell(spec: BenchSpec, si: int, scenario: str, ni: int, n: int) -> list[dict]:
    """All backend rows for one (scenario, size) cell."""
    cfg = ScaleConfig(spec.scale_digits)
    wl_seed = spec.seed + 7919 * si + 104729 * ni
    records = gen_interval_workload(
        WorkloadSpec(kind=scenario, n=n, seed=wl_seed, horizon=spec.horizon)
    )
    queries = _interval_queries(spec, wl_seed + 1, cfg)
    indexes, builds = [], []
    for backend in spec.backends:
        t0 = time.perf_counter()
        indexes.append(build_temporal_index(backend, records, cfg))
        builds.append(time.perf_counter() - t0)
    timed = _interleaved_reps([lambda index=index: sum(len(index.query(l, r)) for l, r in queries)
                               for index in indexes], spec.repetitions)
    rows = []
    for backend, index, build_seconds, (query_seconds, result_count) in zip(spec.backends, indexes, builds, timed):
        report = index.space_report()
        rows.append({
            "scenario": scenario,
            "backend": backend,
            "n": n,
            "scale_digits": spec.scale_digits,
            "build_seconds": round(build_seconds, 6),
            "query_seconds_total": round(query_seconds, 6),
            "space_bytes": (report["total_bits"] + 7) // 8,
            "m_total": report.get("m", ""),
            "result_count_total": result_count,
        })
    counts = {row["result_count_total"] for row in rows}
    if len(counts) > 1:
        raise AssertionError(f"backends disagree on {scenario} n={n}: counts {sorted(counts)}")
    return rows


def _trajectory_cell(spec: BenchSpec, backend: str) -> list[dict]:
    """All family rows for one backend over the trajectory dataset."""
    cfg = ScaleConfig(spec.scale_digits)
    network = gen_grid_network(spec.grid_rows, spec.grid_cols)
    records = gen_trajectories(network, spec.objects, spec.duration, seed=spec.seed)
    bounds = network.bounds()
    t0 = time.perf_counter()
    index = TrajIndex.build(network, records, TrajIndexConfig(temporal_backend=backend, scale=cfg))
    build_seconds = time.perf_counter() - t0
    stats = index.stats()
    m_total = sum(stats.iis_set_counts.values()) if backend == "iis" else ""
    rows = []
    for fi, family in enumerate(spec.families):
        temporal_pct = 100.0 if family == "range_larger_temporal" else spec.query_extent_pct
        queries = gen_queries(
            bounds, spec.duration, family, spec.queries_per_set,
            seed=spec.seed + 31 * fi, spatial_pct=spec.query_extent_pct,
            temporal_pct=temporal_pct,
        )
        [(query_seconds, result_count)] = _interleaved_reps(
            [lambda: sum(len(index.range_query(q.window, q.t_start, q.t_end).object_ids) for q in queries)],
            spec.repetitions,
        )
        rows.append({
            "scenario": family,
            "backend": backend,
            "n": len(records),
            "scale_digits": spec.scale_digits,
            "build_seconds": round(build_seconds, 6),
            "query_seconds_total": round(query_seconds, 6),
            "space_bytes": stats.total_bytes,
            "m_total": m_total,
            "result_count_total": result_count,
        })
    return rows


def run_benchmark(spec: BenchSpec) -> list[dict]:
    rows: list[dict] = []
    for si, scenario in enumerate(spec.scenarios):
        for ni, n in enumerate(spec.sizes):
            rows.extend(_interval_cell(spec, si, scenario, ni, n))
    if spec.families:
        for backend in spec.backends:
            rows.extend(_trajectory_cell(spec, backend))

    family_counts: dict[tuple, set] = {}
    for row in rows:
        if row["scenario"] in QUERY_FAMILIES:
            family_counts.setdefault((row["scenario"], row["n"]), set()).add(row["result_count_total"])
    for (family, n), counts in family_counts.items():
        if len(counts) > 1:
            raise AssertionError(f"backends disagree on {family} n={n}: counts {sorted(counts)}")
    return rows


def write_csv(rows: list[dict], fh) -> None:
    writer = csv.DictWriter(fh, fieldnames=BENCH_COLUMNS)
    writer.writeheader()
    writer.writerows(rows)
