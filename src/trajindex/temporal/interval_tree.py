"""Classic interval tree over discretized record endpoints, held flat.

Each node takes the lower median of all endpoint values in scope, keeps
the intervals stabbed by it and hands the strictly-left and
strictly-right remainders to its children; a scope of at most LEAF_MAX
intervals is a leaf.  There is no object per node:

* a node table holds per node its median ``x_med``, its ``left`` and
  ``right`` child ids (-1 for none; a child's id is above its parent's)
  and ``offsets``: node v owns positions ``offsets[v]:offsets[v + 1]``
  of the sections.  Ids from ``first_leaf`` on are leaves.
* four shared sections hold, node after node, the start ticks and ids
  sorted by start and the end ticks and ids sorted by end.  A leaf keeps
  its intervals in record order: their start and end ticks sit at the
  same positions and their ids once, in the start section, because the
  end-order ids stop where the first leaf begins.

A query walks node ids on a stack, makes one binary search in each
stabbed node's section and scans the leaves it reaches.  The node table
and the ticks are ``array.array`` columns: ``bisect`` searches them in
place and reads plain ints, where a numpy scalar per read would cost
more than the search, and unlike lists they hold no objects for the
garbage collector to walk.  Ids are ``uint32`` numpy arrays, so a match
is a slice.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right

import numpy as np

from .base import TemporalIndexBase, check_query

LEAF_MAX = 16
_EMPTY = np.zeros(0, dtype=np.int64)


class IntervalTreeIndex(TemporalIndexBase):
    backend = "interval_tree"

    # every array the tree holds, by the part of space_report() it counts in
    TICKS = ("start_ticks", "end_ticks")
    REFS = ("start_ids", "end_ids")
    NODES = ("x_med", "left", "right", "offsets")

    def __init__(self, nodes: tuple, sections: tuple):
        """``nodes`` is (x_med, left, right, offsets, first_leaf) and
        ``sections`` is (start_ticks, start_ids, end_ticks, end_ids)."""
        self.x_med, self.left, self.right, self.offsets, self.first_leaf = nodes
        self.start_ticks, self.start_ids, self.end_ticks, self.end_ids = sections
        super().__init__(len(self.start_ids))

    @classmethod
    def from_ticks(cls, starts, ends) -> "IntervalTreeIndex":
        starts = np.asarray(starts, dtype=np.int64)
        ends = np.asarray(ends, dtype=np.int64)
        x_med, left, right = array("q"), array("i"), array("i")
        by_start, by_end = [], []  # ids per node in start order, per internal node in end order

        def add_node(column, parent: int, x: int, ids: np.ndarray) -> int:
            node = len(x_med)
            if column is not None:
                column[parent] = node
            x_med.append(x)
            left.append(-1)
            right.append(-1)
            by_start.append(ids)
            return node

        # (the parent's child column that will point at the scope's node, parent id, scope)
        work = [(None, -1, np.arange(len(starts)))] if len(starts) else []
        leaves = []
        while work:
            column, parent, idx = work.pop()
            if len(idx) <= LEAF_MAX:
                leaves.append((column, parent, idx))
                continue
            s, e = starts[idx], ends[idx]
            endpoints = np.concatenate([s, e])
            med_pos = (len(endpoints) - 1) // 2  # lower median
            x = int(np.partition(endpoints, med_pos)[med_pos])
            stabbed = (s <= x) & (e >= x)
            kept = idx[stabbed]
            node = add_node(column, parent, x, kept[np.argsort(s[stabbed], kind="stable")])
            by_end.append(kept[np.argsort(e[stabbed], kind="stable")])
            for column, side in ((right, s > x), (left, e < x)):
                if side.any():
                    work.append((column, node, idx[side]))
        first_leaf = len(x_med)
        for column, parent, idx in leaves:
            add_node(column, parent, 0, idx)
        offsets = array("I", np.cumsum([0] + [len(ids) for ids in by_start]).tolist() if by_start else [])
        start_ids = np.concatenate(by_start or [_EMPTY]).astype(np.uint32)
        end_ids = np.concatenate(by_end or [_EMPTY]).astype(np.uint32)
        end_order = np.concatenate((end_ids, start_ids[len(end_ids):]))
        sections = (array("q", starts[start_ids].tobytes()), start_ids,
                    array("q", ends[end_order].tobytes()), end_ids)
        return cls((x_med, left, right, offsets, first_leaf), sections)

    def query(self, l: int, r: int) -> np.ndarray:
        check_query(l, r)
        x_med, left, right, offsets = self.x_med, self.left, self.right, self.offsets
        start_ticks, start_ids = self.start_ticks, self.start_ids
        end_ticks, end_ids = self.end_ticks, self.end_ids
        first_leaf = self.first_leaf
        out: list[np.ndarray] = []
        report = out.append
        stack = [0] if x_med else []
        push = stack.append
        while stack:
            node = stack.pop()
            a = offsets[node]
            b = offsets[node + 1]
            if node >= first_leaf:
                hit = [i for i in range(a, b) if start_ticks[i] <= r and end_ticks[i] >= l]
                if hit:
                    report(start_ids[hit])
                continue
            x = x_med[node]
            if r < x:
                # stabbed intervals end at or after x > r, so only the start
                # condition can fail
                k = bisect_right(start_ticks, r, a, b)
                if k > a:
                    report(start_ids[a:k])
                if left[node] >= 0:
                    push(left[node])
            elif l > x:
                k = bisect_left(end_ticks, l, a, b)
                if k < b:
                    report(end_ids[k:b])
                if right[node] >= 0:
                    push(right[node])
            else:
                # x inside the query: every stabbed interval matches (there
                # is one, as x is an endpoint in scope)
                report(start_ids[a:b])
                if l < x and left[node] >= 0:
                    push(left[node])
                if r > x and right[node] >= 0:
                    push(right[node])
        return np.concatenate(out, dtype=np.int64) if out else _EMPTY

    def space_report(self) -> dict:
        tick_bits, ref_bits, node_bits = (
            sum(8 * getattr(self, name).itemsize * len(getattr(self, name)) for name in names)
            for names in (self.TICKS, self.REFS, self.NODES))
        return {
            "backend": self.backend,
            "n": self.n,
            "tick_bits": tick_bits,
            "ref_bits": ref_bits,
            "node_bits": node_bits,
            "total_bits": tick_bits + ref_bits + node_bits,
        }
