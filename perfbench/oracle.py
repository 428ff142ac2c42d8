"""Brute-force answers for the benchmark's correctness gate.

Every query is answered by a full scan that shares nothing with the index
but the two public predicates: ``segments_intersect_window`` over every
edge of the network and ``intersect_ticks`` over every discretized record.
"""

from __future__ import annotations

import numpy as np


class Oracle:
    def __init__(self, tj, network, records, scale):
        self._tj = tj
        self._scale = scale
        edges = network.edges
        self._ax = np.array([s.a.x for s in edges])
        self._ay = np.array([s.a.y for s in edges])
        self._bx = np.array([s.b.x for s in edges])
        self._by = np.array([s.b.y for s in edges])
        self._seg = np.array([seg for seg, _ in records], dtype=np.int64)
        self._obj = np.array([rec.object_id for _, rec in records], dtype=np.int64)
        self._starts = tj.discretize_times([rec.interval.start for _, rec in records], scale)
        self._ends = tj.discretize_times([rec.interval.end for _, rec in records], scale)

    def answer(self, query) -> set[int]:
        tj = self._tj
        hit = tj.segments_intersect_window(self._ax, self._ay, self._bx, self._by, query.window)
        l = tj.discretize_time(query.t_start, self._scale)
        r = tj.discretize_time(query.t_end, self._scale)
        rows = tj.temporal.intersect_ticks(self._starts, self._ends, l, r)
        rows = rows[hit[self._seg[rows]]]
        return set(self._obj[rows].tolist())
