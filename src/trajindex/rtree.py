"""Static 2D R-tree over segment bounding boxes, bulk loaded with STR.

Sort-tile-recursive packing: entries are sorted by box center along x,
cut into vertical slices, sorted by center y inside each slice, and the
resulting order is chunked into leaves.  Upper levels repeat the same
packing over the node boxes until a single root remains.  Chunk sizes
are evened out so every non-root node holds at least fanout/2 entries.
Ties in either sort are broken by (xmin, ymin, id) for determinism.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .core import ConfigError, FormatError, Rect, rects_overlap

_NODE_HEADER = struct.Struct("<BI4d")  # kind, count, mbb
_EMPTY_IDS = np.zeros(0, dtype=np.int64)
_KIND_INTERNAL, _KIND_LEAF, _KIND_EMPTY = 0, 1, 2


@dataclass(frozen=True)
class RTreeEntry:
    id: int
    mbb: Rect


class _Node:
    __slots__ = ("mbb", "children", "entry_ids", "entry_boxes")

    def __init__(self, mbb, children=None, entry_ids=None, entry_boxes=None):
        self.mbb = mbb
        self.children = children
        self.entry_ids = entry_ids
        self.entry_boxes = entry_boxes

    @property
    def is_leaf(self) -> bool:
        return self.children is None


def _even_chunks(n: int, cap: int) -> list[int]:
    """Chunk sizes covering n items, each <= cap and >= cap/2 when n > cap."""
    k = max(1, math.ceil(n / cap))
    base = n // k
    extra = n % k
    return [base + 1] * extra + [base] * (k - extra)


def _str_order(boxes: np.ndarray, ids: np.ndarray, cap: int) -> np.ndarray:
    """Sort-tile order of the given boxes (indices into the arrays)."""
    n = len(ids)
    cx = (boxes[:, 0] + boxes[:, 2]) / 2.0
    cy = (boxes[:, 1] + boxes[:, 3]) / 2.0
    by_x = np.lexsort((ids, boxes[:, 1], boxes[:, 0], cx))
    n_leaves = math.ceil(n / cap)
    n_slices = math.ceil(math.sqrt(n_leaves))
    order = np.empty(n, dtype=np.int64)
    pos = 0
    for size in _even_chunks(n, math.ceil(n / n_slices)):
        sl = by_x[pos: pos + size]
        inner = np.lexsort((ids[sl], boxes[sl, 1], boxes[sl, 0], cy[sl]))
        order[pos: pos + size] = sl[inner]
        pos += size
    return order


def _mbb_of(boxes: np.ndarray) -> Rect:
    return Rect(
        float(boxes[:, 0].min()),
        float(boxes[:, 1].min()),
        float(boxes[:, 2].max()),
        float(boxes[:, 3].max()),
    )


class RTree:
    def __init__(self, root: _Node | None, fanout: int, n_entries: int, height: int):
        self.root = root
        self.fanout = fanout
        self.min_fill = fanout // 2
        self.n_entries = n_entries
        self.height = height

    def window_query(self, w: Rect) -> list[int]:
        """Ids of entries whose stored box overlaps the window (closed sets)."""
        if self.root is None:
            return []
        out: list[int] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                boxes = node.entry_boxes
                hit = (
                    (boxes[:, 0] <= w.xmax)
                    & (w.xmin <= boxes[:, 2])
                    & (boxes[:, 1] <= w.ymax)
                    & (w.ymin <= boxes[:, 3])
                )
                out.extend(node.entry_ids[hit].tolist())
            else:
                for child in node.children:
                    if rects_overlap(child.mbb, w):
                        stack.append(child)
        return out

    def space_bytes(self) -> int:
        """Accounted bytes: 4 doubles + child slot per node, 36 bytes per entry."""
        total = 0
        stack = [self.root] if self.root else []
        while stack:
            node = stack.pop()
            total += 4 * 8 + 8
            if node.is_leaf:
                total += 36 * len(node.entry_ids)
            else:
                total += 8 * len(node.children)
                stack.extend(node.children)
        return total

    def entry_ids(self) -> np.ndarray:
        """Ids of all entries, leaf by leaf."""
        ids = [_EMPTY_IDS]
        stack = [self.root] if self.root else []
        while stack:
            node = stack.pop()
            if node.is_leaf:
                ids.append(node.entry_ids)
            else:
                stack.extend(node.children)
        return np.concatenate(ids)

    def node_count(self) -> int:
        count = 0
        stack = [self.root] if self.root else []
        while stack:
            node = stack.pop()
            count += 1
            if not node.is_leaf:
                stack.extend(node.children)
        return count

    # -- serialization ---------------------------------------------------
    # pre-order, self-describing: kind u8, count u32, mbb 4xf64, then
    # either count leaf entries (id u32 + box 4xf64) or count child nodes

    def to_bytes(self) -> bytes:
        if self.root is None:
            return _NODE_HEADER.pack(_KIND_EMPTY, 0, 0.0, 0.0, 0.0, 0.0)
        out = bytearray()

        def emit(node: _Node) -> None:
            mbb = node.mbb
            if node.is_leaf:
                out.extend(_NODE_HEADER.pack(_KIND_LEAF, len(node.entry_ids),
                                             mbb.xmin, mbb.ymin, mbb.xmax, mbb.ymax))
                for i in range(len(node.entry_ids)):
                    out.extend(struct.pack("<I4d", int(node.entry_ids[i]), *node.entry_boxes[i]))
            else:
                out.extend(_NODE_HEADER.pack(_KIND_INTERNAL, len(node.children),
                                             mbb.xmin, mbb.ymin, mbb.xmax, mbb.ymax))
                for child in node.children:
                    emit(child)

        emit(self.root)
        return bytes(out)

    @classmethod
    def from_bytes(cls, data: bytes, offset: int, fanout: int) -> tuple["RTree", int]:
        entry_struct = struct.Struct("<I4d")

        def parse(offset: int) -> tuple[_Node | None, int, int, int]:
            try:
                kind, count, xmin, ymin, xmax, ymax = _NODE_HEADER.unpack_from(data, offset)
            except struct.error as exc:
                raise FormatError(f"truncated spatial index: {exc}") from None
            offset += _NODE_HEADER.size
            if kind == _KIND_EMPTY:
                return None, offset, 0, 0
            mbb = Rect(xmin, ymin, xmax, ymax)
            if kind == _KIND_LEAF:
                ids = np.empty(count, dtype=np.int64)
                boxes = np.empty((count, 4), dtype=np.float64)
                for i in range(count):
                    try:
                        row = entry_struct.unpack_from(data, offset)
                    except struct.error as exc:
                        raise FormatError(f"truncated spatial index: {exc}") from None
                    ids[i] = row[0]
                    boxes[i] = row[1:]
                    offset += entry_struct.size
                return _Node(mbb, entry_ids=ids, entry_boxes=boxes), offset, count, 1
            if kind != _KIND_INTERNAL:
                raise FormatError(f"unknown spatial node kind {kind}")
            children = []
            total = 0
            depth = 0
            for _ in range(count):
                child, offset, n, d = parse(offset)
                children.append(child)
                total += n
                depth = max(depth, d)
            return _Node(mbb, children=children), offset, total, depth + 1

        root, offset, n_entries, height = parse(offset)
        return cls(root, fanout, n_entries, height), offset


def build_rtree(entries, fanout: int = 32) -> RTree:
    """Bulk load a static R-tree from (id, box) entries."""
    if fanout < 4:
        raise ConfigError(f"fanout must be at least 4, got {fanout}")
    entries = list(entries)
    n = len(entries)
    if n == 0:
        return RTree(None, fanout, 0, 0)
    ids = np.array([e.id for e in entries], dtype=np.int64)
    boxes = np.array(
        [(e.mbb.xmin, e.mbb.ymin, e.mbb.xmax, e.mbb.ymax) for e in entries],
        dtype=np.float64,
    )
    order = _str_order(boxes, ids, fanout)
    level: list[_Node] = []
    pos = 0
    for size in _even_chunks(n, fanout):
        member = order[pos: pos + size]
        pos += size
        level.append(_Node(_mbb_of(boxes[member]), entry_ids=ids[member], entry_boxes=boxes[member]))
    height = 1
    while len(level) > 1:
        node_boxes = np.array(
            [(nd.mbb.xmin, nd.mbb.ymin, nd.mbb.xmax, nd.mbb.ymax) for nd in level],
            dtype=np.float64,
        )
        node_ids = np.arange(len(level), dtype=np.int64)
        order = _str_order(node_boxes, node_ids, fanout)
        parents: list[_Node] = []
        pos = 0
        for size in _even_chunks(len(level), fanout):
            member = order[pos: pos + size]
            pos += size
            children = [level[i] for i in member]
            parents.append(_Node(_mbb_of(node_boxes[member]), children=children))
        level = parents
        height += 1
    return RTree(level[0], fanout, n, height)
