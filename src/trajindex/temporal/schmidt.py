"""Stabbing-tree backend built on the interval fatherhood relation.

The father of an interval is the rightmost-starting interval that covers
it completely (ties broken toward the tighter cover); a virtual root
adopts the uncovered ones.  Three properties of that forest drive the
query algorithm:

* siblings, ordered by start, are also ordered by end (no sibling covers
  another), so the eligible part of a sibling run is delimited by two
  binary searches;
* the father of an interval intersecting the query also intersects it,
  so matches form a father-closed sub-forest;
* descendants of a node that lies fully inside [l, r] all match, and
  consecutive sibling subtrees are consecutive in preorder, so such runs
  are reported as single preorder slices.

A query [l, r] first finds the rightmost-starting stored interval with
start <= r through a table of distinct start values.  If that interval
starts before l, the true rightmost match is its nearest ancestor whose
end reaches l (every interval intersecting the query covers the table
hit, and the maximal such cover sits on its father chain).  From that
node the algorithm reports the node itself, eligible runs of its left
siblings at every level up to the root, and eligible child runs inside
every straddling subtree.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

import numpy as np

from .base import TemporalIndexBase, check_query


class SchmidtIndex(TemporalIndexBase):
    backend = "schmidt"

    def __init__(self, starts, ends, father, child_flat, child_offsets, pos_in_parent,
                 pre_order, pre_pos, sub_size, uniq_starts, start_reps):
        super().__init__(len(starts))
        self.starts = starts
        self.ends = ends
        self.father = father
        self.child_flat = child_flat
        self.child_offsets = child_offsets  # indexed by node id + 1; slot 0 is the virtual root
        self.pos_in_parent = pos_in_parent
        self.pre_order = pre_order
        self.pre_pos = pre_pos
        self.sub_size = sub_size
        self.uniq_starts = uniq_starts
        self.start_reps = start_reps
        n = len(starts)
        # query-time walk state kept as plain lists: the per-node steps use
        # bisect and scalar reads, which beat numpy dispatch on short runs
        self._child_starts = (starts[child_flat] if n else np.zeros(0, np.int64)).tolist()
        self._child_ends = (ends[child_flat] if n else np.zeros(0, np.int64)).tolist()
        self._child_flat_l = child_flat.tolist()
        self._offsets_l = child_offsets.tolist()
        self._father_l = father.tolist()
        self._ends_l = ends.tolist()
        self._pos_l = pos_in_parent.tolist()
        self._pre_pos_l = pre_pos.tolist()
        self._sub_size_l = sub_size.tolist()
        has = (child_offsets[2:] - child_offsets[1:-1]) > 0 if n else np.zeros(0, bool)
        self._has_children = has.tolist()

    @classmethod
    def from_ticks(cls, starts, ends) -> "SchmidtIndex":
        starts = np.asarray(starts, dtype=np.int64)
        ends = np.asarray(ends, dtype=np.int64)
        n = len(starts)
        if n == 0:
            empty = np.zeros(0, np.int64)
            return cls(empty, empty, empty, empty, np.zeros(2, np.int64), empty,
                       empty, empty, empty, empty, empty)

        sigma = np.lexsort((-ends, starts))  # start asc, end desc, record index asc
        father = np.full(n, -1, dtype=np.int64)
        starts_l = starts.tolist()
        ends_l = ends.tolist()
        stack: list[int] = []
        for i in sigma.tolist():
            s, e = starts_l[i], ends_l[i]
            while stack:
                top = stack[-1]
                if ends_l[top] < e or (starts_l[top] == s and ends_l[top] == e):
                    stack.pop()  # cannot cover i (or is an identical twin, replaced by i)
                else:
                    break
            if stack:
                father[i] = stack[-1]
            stack.append(i)

        # children in sibling order, grouped per father (virtual root = slot 0)
        fp = father + 1
        group = np.argsort(fp[sigma], kind="stable")
        child_flat = sigma[group]
        counts = np.bincount(fp, minlength=n + 1)
        child_offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        pos_in_parent = np.empty(n, dtype=np.int64)
        nonempty = counts > 0
        pos_in_parent[child_flat] = np.arange(n) - np.repeat(child_offsets[:-1][nonempty], counts[nonempty])

        pre_order, pre_pos, sub_size = cls._preorder(n, father, child_flat, child_offsets)

        # rank-space table: per distinct start, the interval maximizing (end, index)
        order = np.lexsort((ends, starts))
        sorted_starts = starts[order]
        is_last = np.empty(n, dtype=bool)
        is_last[:-1] = sorted_starts[1:] != sorted_starts[:-1]
        is_last[-1] = True
        return cls(starts, ends, father, child_flat, child_offsets, pos_in_parent,
                   pre_order, pre_pos, sub_size,
                   sorted_starts[is_last], order[is_last])

    @staticmethod
    def _preorder(n, father, child_flat, child_offsets):
        """Preorder traversal of the forest plus per-node subtree sizes."""
        offsets = child_offsets.tolist()
        children = child_flat.tolist()
        pre_order = np.empty(n, dtype=np.int64)
        pre_pos = np.empty(n, dtype=np.int64)
        stack = list(reversed(children[offsets[0]: offsets[1]]))  # top-level nodes
        k = 0
        while stack:
            v = stack.pop()
            pre_order[k] = v
            pre_pos[v] = k
            k += 1
            a, b = offsets[v + 1], offsets[v + 2]
            if a != b:
                stack.extend(reversed(children[a:b]))
        sub_size = np.ones(n, dtype=np.int64)
        fathers = father.tolist()
        sizes = sub_size.tolist()
        for v in pre_order[::-1].tolist():
            f = fathers[v]
            if f >= 0:
                sizes[f] += sizes[v]
        return pre_order, pre_pos, np.asarray(sizes, dtype=np.int64)

    def query(self, l: int, r: int) -> np.ndarray:
        check_query(l, r)
        if self.n == 0:
            return np.zeros(0, dtype=np.int64)
        p = int(np.searchsorted(self.uniq_starts, r, side="right")) - 1
        if p < 0:
            return np.zeros(0, dtype=np.int64)
        v0 = int(self.start_reps[p])
        starts = self.starts
        ends = self._ends_l
        father = self._father_l
        if starts[v0] < l:
            while v0 != -1 and ends[v0] < l:
                v0 = father[v0]
            if v0 == -1:
                return np.zeros(0, dtype=np.int64)

        offsets = self._offsets_l
        child_flat = self.child_flat
        child_flat_l = self._child_flat_l
        child_starts = self._child_starts
        child_ends = self._child_ends
        has_children = self._has_children
        pre_order = self.pre_order
        pre_pos = self._pre_pos_l
        sub_size = self._sub_size_l
        path: list[int] = []
        bulk: list[np.ndarray] = []
        descend: list[int] = []

        def report_run(lo: int, hi: int) -> None:
            # child positions [lo, hi) all match; nodes fully inside [l, r]
            # contribute their whole subtree as one preorder slice, the
            # straddlers are reported alone and their children re-examined
            mid_lo = bisect_left(child_starts, l, lo, hi)
            mid_hi = bisect_right(child_ends, r, lo, hi)
            mid_end = mid_hi if mid_hi > mid_lo else mid_lo
            if mid_lo > lo:  # start before l
                bulk.append(child_flat[lo:mid_lo])
                for c in child_flat_l[lo:mid_lo]:
                    if has_children[c]:
                        descend.append(c)
            if mid_hi > mid_lo:
                first = pre_pos[child_flat_l[mid_lo]]
                last = child_flat_l[mid_hi - 1]
                bulk.append(pre_order[first: pre_pos[last] + sub_size[last]])
            if hi > mid_end:  # end after r
                bulk.append(child_flat[mid_end:hi])
                for c in child_flat_l[mid_end:hi]:
                    if has_children[c]:
                        descend.append(c)

        def drain() -> None:
            while descend:
                w = descend.pop()
                a = offsets[w + 1]
                b = offsets[w + 2]
                if ends[w] <= r:
                    hi = b  # children cannot start after their father's end
                else:
                    hi = bisect_right(child_starts, r, a, b)
                if hi == a:
                    continue
                lo = bisect_left(child_ends, l, a, hi)
                if lo < hi:
                    report_run(lo, hi)

        if starts[v0] >= l and ends[v0] <= r:
            pos = pre_pos[v0]
            bulk.append(pre_order[pos: pos + sub_size[v0]])
        else:
            path.append(v0)
            if has_children[v0]:
                descend.append(v0)
                drain()
        cur = v0
        while True:
            f = father[cur]
            a = offsets[f + 1]
            ap = a + self._pos_l[cur]
            if ap > a:
                lo = bisect_left(child_ends, l, a, ap)
                if lo < ap:
                    report_run(lo, ap)
                    drain()
            if f == -1:
                break
            cur = f
            path.append(cur)

        parts = [np.asarray(path, dtype=np.int64)]
        parts.extend(bulk)
        return np.concatenate(parts)

    def space_report(self) -> dict:
        n = self.n
        d = len(self.uniq_starts)
        tick_bits = 64 * 2 * n
        tree_bits = 32 * (len(self.father) + len(self.child_flat) + len(self.pos_in_parent)
                          + len(self.child_offsets) + 3 * n)  # preorder, positions, sizes
        table_bits = 64 * d + 32 * d
        return {
            "backend": self.backend,
            "n": n,
            "tick_bits": tick_bits,
            "tree_bits": tree_bits,
            "table_bits": table_bits,
            "total_bits": tick_bits + tree_bits + table_bits,
        }
