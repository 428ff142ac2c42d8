"""Classic interval tree over discretized record endpoints.

Each node takes the lower median of all endpoint values in scope, keeps
the intervals stabbed by it in two arrays (sorted by start and by end)
and recurses on the strictly-left and strictly-right remainders.  Nodes
with at most LEAF_MAX intervals are stored flat and scanned.
"""

from __future__ import annotations

import numpy as np

from .base import TemporalIndexBase, check_query

LEAF_MAX = 16


class _Node:
    __slots__ = (
        "x_med", "left", "right",
        "by_start", "by_start_idx", "by_end", "by_end_idx",
        "leaf_starts", "leaf_ends", "leaf_idx",
    )

    def __init__(self):
        self.x_med = 0
        self.left = None
        self.right = None
        self.by_start = None
        self.by_start_idx = None
        self.by_end = None
        self.by_end_idx = None
        self.leaf_starts = None
        self.leaf_ends = None
        self.leaf_idx = None


def _build(starts: np.ndarray, ends: np.ndarray, idx: np.ndarray) -> _Node:
    node = _Node()
    if len(idx) <= LEAF_MAX:
        node.leaf_starts = starts
        node.leaf_ends = ends
        node.leaf_idx = idx
        return node
    endpoints = np.concatenate([starts, ends])
    med_pos = (len(endpoints) - 1) // 2  # lower median
    x_med = int(np.partition(endpoints, med_pos)[med_pos])
    node.x_med = x_med
    stabbed = (starts <= x_med) & (ends >= x_med)
    left = ends < x_med
    right = starts > x_med
    order_s = np.argsort(starts[stabbed], kind="stable")
    order_e = np.argsort(ends[stabbed], kind="stable")
    node.by_start = starts[stabbed][order_s]
    node.by_start_idx = idx[stabbed][order_s]
    node.by_end = ends[stabbed][order_e]
    node.by_end_idx = idx[stabbed][order_e]
    if left.any():
        node.left = _build(starts[left], ends[left], idx[left])
    if right.any():
        node.right = _build(starts[right], ends[right], idx[right])
    return node


class IntervalTreeIndex(TemporalIndexBase):
    backend = "interval_tree"

    def __init__(self, root: _Node | None, digits: int, n: int):
        super().__init__(digits, n)
        self.root = root

    @classmethod
    def from_ticks(cls, starts, ends, digits: int) -> "IntervalTreeIndex":
        starts = np.asarray(starts, dtype=np.int64)
        ends = np.asarray(ends, dtype=np.int64)
        n = len(starts)
        root = _build(starts, ends, np.arange(n, dtype=np.int64)) if n else None
        return cls(root, digits, n)

    def query(self, l: int, r: int) -> np.ndarray:
        check_query(l, r)
        if self.root is None:
            return np.zeros(0, dtype=np.int64)
        out: list[np.ndarray] = []
        node = self.root
        stack = [node]
        while stack:
            node = stack.pop()
            if node.leaf_idx is not None:
                hit = (node.leaf_starts <= r) & (node.leaf_ends >= l)
                if hit.any():
                    out.append(node.leaf_idx[hit])
                continue
            if r < node.x_med:
                # stabbed intervals end at or after x_med > r, so only the
                # start condition can fail
                k = int(np.searchsorted(node.by_start, r, side="right"))
                if k:
                    out.append(node.by_start_idx[:k])
                if node.left is not None:
                    stack.append(node.left)
            elif l > node.x_med:
                k = int(np.searchsorted(node.by_end, l, side="left"))
                if k < len(node.by_end_idx):
                    out.append(node.by_end_idx[k:])
                if node.right is not None:
                    stack.append(node.right)
            else:
                # x_med inside the query: every stabbed interval matches
                if len(node.by_start_idx):
                    out.append(node.by_start_idx)
                if l < node.x_med and node.left is not None:
                    stack.append(node.left)
                if r > node.x_med and node.right is not None:
                    stack.append(node.right)
        if not out:
            return np.zeros(0, dtype=np.int64)
        return np.concatenate(out)

    # -- accounting ----------------------------------------------------

    def node_count(self) -> int:
        count = 0
        stack = [self.root] if self.root else []
        while stack:
            node = stack.pop()
            count += 1
            if node.left is not None:
                stack.append(node.left)
            if node.right is not None:
                stack.append(node.right)
        return count

    def space_report(self) -> dict:
        tick_bits = 0
        ref_bits = 0
        node_bits = 0
        stack = [self.root] if self.root else []
        while stack:
            node = stack.pop()
            node_bits += 64 + 2 * 64  # x_med plus two child references
            if node.leaf_idx is not None:
                tick_bits += 64 * 2 * len(node.leaf_idx)
                ref_bits += 32 * len(node.leaf_idx)
            else:
                tick_bits += 64 * (len(node.by_start) + len(node.by_end))
                ref_bits += 32 * (len(node.by_start_idx) + len(node.by_end_idx))
                if node.left is not None:
                    stack.append(node.left)
                if node.right is not None:
                    stack.append(node.right)
        return {
            "backend": self.backend,
            "n": self.n,
            "tick_bits": tick_bits,
            "ref_bits": ref_bits,
            "node_bits": node_bits,
            "total_bits": tick_bits + ref_bits + node_bits,
        }
