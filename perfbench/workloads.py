"""The benchmark's workloads: seeded inputs built from public ``datagen``
functions plus numpy.

Each workload stresses a different layer of the two-level index:

* ``grid_window``: many small segments (most below the linear fallback),
  so the R-tree, the refinement and the per-segment dispatch do the work.
* ``long_history``: few segments with long, barely nested histories, so a
  probe is an Elias-Fano rank inside large independent sets.
* ``nested_dwell``: dwell intervals whose lengths span four decades, so
  segments decompose into many independent sets and the per-set loop of
  the compact backend dominates.

The program under test receives only the generated network, records and
queries; the seed never reaches it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    family: str          # gen_queries family: "range_equal" or "time_slice"
    spatial_pct: float
    temporal_pct: float
    spec: dict           # full-size generator parameters
    tiny_spec: dict      # parameters of the self-test size
    make: Callable       # (trajindex module, spec, seed) -> (network, records, horizon)


def _trajectories(tj, spec: dict, seed: int):
    net = tj.gen_grid_network(spec["rows"], spec["cols"])
    records = tj.gen_trajectories(net, spec["objects"], spec["duration"], seed=seed)
    return net, records, float(spec["duration"])


def _dwells(tj, spec: dict, seed: int):
    """Dwell intervals: uniform starts, log-uniform lengths, segments drawn
    with popularity rank**-1 and objects drawn from a fixed pool.

    Segments are ranked by the distance of their midpoint from the centre of
    the network (ties by id), so the busy segments sit in the same place for
    every seed and the seed changes the traffic, not the city."""
    net = tj.gen_grid_network(spec["rows"], spec["cols"])
    rng = np.random.default_rng(seed)
    n = spec["n"]
    n_edges = len(net.edges)
    box = net.bounds()
    dist = [math.hypot((s.a.x + s.b.x - box.xmin - box.xmax) / 2, (s.a.y + s.b.y - box.ymin - box.ymax) / 2)
            for s in net.edges]
    rank = np.empty(n_edges)
    rank[np.lexsort((np.arange(n_edges), dist))] = np.arange(n_edges)
    weights = (1.0 + rank) ** -1.0
    segs = rng.choice(n_edges, size=n, p=weights / weights.sum())
    starts = np.round(rng.uniform(0.0, spec["horizon"], n), 8)
    lengths = np.exp(rng.uniform(math.log(spec["min_len"]), math.log(spec["max_len"]), n))
    ends = np.round(starts + lengths, 8)
    objects = rng.integers(0, spec["object_pool"], n)
    records = [
        (int(s), tj.IntervalRecord(int(o), tj.TimeInterval(float(a), float(b))))
        for s, o, a, b in zip(segs.tolist(), objects.tolist(), starts.tolist(), ends.tolist())
    ]
    return net, records, float(spec["horizon"])


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="grid_window",
            family="range_equal",
            spatial_pct=10.0,
            temporal_pct=10.0,
            spec={"rows": 40, "cols": 40, "objects": 400, "duration": 100.0},
            tiny_spec={"rows": 8, "cols": 8, "objects": 20, "duration": 20.0},
            make=_trajectories,
        ),
        Workload(
            name="long_history",
            family="time_slice",
            spatial_pct=20.0,
            temporal_pct=10.0,
            spec={"rows": 10, "cols": 10, "objects": 100, "duration": 1000.0},
            tiny_spec={"rows": 5, "cols": 5, "objects": 10, "duration": 100.0},
            make=_trajectories,
        ),
        Workload(
            name="nested_dwell",
            family="range_equal",
            spatial_pct=20.0,
            temporal_pct=1.0,
            spec={"rows": 8, "cols": 8, "n": 100_000, "horizon": 1000.0,
                  "min_len": 0.01, "max_len": 100.0, "object_pool": 5000},
            tiny_spec={"rows": 4, "cols": 4, "n": 3000, "horizon": 1000.0,
                       "min_len": 0.01, "max_len": 100.0, "object_pool": 200},
            make=_dwells,
        ),
    )
}


def generate(tj, workload: Workload, seed: int, n_queries: int, tiny: bool):
    """Network, records and queries of one workload, a pure function of the seed."""
    spec = workload.tiny_spec if tiny else workload.spec
    net, records, horizon = workload.make(tj, spec, seed)
    queries = tj.gen_queries(
        net.bounds(), horizon, workload.family, n_queries,
        seed=seed + 1_000_003,
        spatial_pct=workload.spatial_pct, temporal_pct=workload.temporal_pct,
    )
    return net, records, queries
