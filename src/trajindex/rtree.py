"""Static 2D R-tree over line segments, bulk loaded with STR over their
bounding boxes and held in flat arrays; a window query answers with exactly
the segments that meet the window.

Sort-tile-recursive packing: entries are sorted by box center along x,
cut into vertical slices, sorted by center y inside each slice, and the
resulting order is chunked into leaves.  Upper levels repeat the same
packing over the node boxes until a single root remains.  Chunk sizes
are evened out so every non-root node holds at least fanout/2 entries.
Ties in either sort are broken by (xmin, ymin, index) for determinism.

The tree is one node table with its levels stored root first.  The
children of node k are the contiguous rows ``first[k] : first[k] +
counts[k]`` of the level below it, or, for a leaf, of the entry slots;
``order`` gives the entry id of each slot.  Every box is stored as
``(xmin, ymin, -xmax, -ymax)``, so one comparison against
``(wxmax, wymax, -wxmin, -wymin)`` tests a child against a window.

A window query is one call into a compiled kernel (``eliasfano_rank.c``,
loaded by ``kernel.py``), which reads the tree's arrays and the segments'
end points through one ``rtree_index`` struct.  It descends from the root
with an explicit stack of node ids, walking the last overlapping child of
a node first and a leaf's slots in ascending order.  It keeps an entry
whose box overlaps the window when the box is degenerate (an axis-parallel
segment is its own box) or the segment, clipped as by
``segments_intersect_window``, meets the window.

The tree's shape (its height, each level's child counts and the entry
order) fixes everything else: the boxes are recomputed from the end
points.  So a saved tree is its shape only, and any shape that passes the
load checks is a correct R-tree over the given segments.
"""

from __future__ import annotations

import math

import numpy as np

from .core import ConfigError, FormatError, Reader, Rect
from .eliasfano import concat_ranges, prefix_offsets
from .kernel import ffi, lib

_U32 = np.dtype("<u4")


def _signed_boxes(ends: np.ndarray) -> np.ndarray:
    """The (xmin, ymin, -xmax, -ymax) rows of the segments ``ends`` holds."""
    return np.concatenate((np.minimum(ends[:2], ends[2:]), -np.maximum(ends[:2], ends[2:]))).T


def _even_chunks(n: int, cap: int) -> list[int]:
    """Chunk sizes covering n items, each <= cap and >= cap/2 when n > cap."""
    k = max(1, math.ceil(n / cap))
    base = n // k
    extra = n % k
    return [base + 1] * extra + [base] * (k - extra)


def _str_order(boxes: np.ndarray, cap: int) -> np.ndarray:
    """Sort-tile order of the given (xmin, ymin, -xmax, -ymax) boxes."""
    n = len(boxes)
    ids = np.arange(n)
    cx = (boxes[:, 0] - boxes[:, 2]) / 2.0
    cy = (boxes[:, 1] - boxes[:, 3]) / 2.0
    by_x = np.lexsort((ids, boxes[:, 1], boxes[:, 0], cx))
    n_leaves = math.ceil(n / cap)
    n_slices = math.ceil(math.sqrt(n_leaves))
    order = np.empty(n, dtype=np.int64)
    pos = 0
    for size in _even_chunks(n, math.ceil(n / n_slices)):
        sl = by_x[pos: pos + size]
        inner = np.lexsort((sl, boxes[sl, 1], boxes[sl, 0], cy[sl]))
        order[pos: pos + size] = sl[inner]
        pos += size
    return order


class RTree:
    def __init__(self, levels: list[np.ndarray], order: np.ndarray, ends: np.ndarray, fanout: int):
        """The tree of the given shape over the segments of ``ends``, a
        contiguous (4, n) float64 array of rows ``ax, ay, bx, by``, not
        copied: ``levels`` holds each level's child counts, root first, and
        ``order`` the entry id of each leaf slot."""
        self.fanout = fanout
        self.min_fill = fanout // 2
        self.height = len(levels)
        self.n_entries = len(order)
        self.counts = np.concatenate([np.zeros(0, np.uint32), *levels]).astype(np.uint32)
        self.order = order.astype(np.uint32)
        self.ends = ends
        self.entry_boxes = _signed_boxes(ends)[order]
        bases = prefix_offsets([len(c) for c in levels])
        self.n_internal = int(bases[-2]) if levels else 0
        # an internal level's children start at the next level's first node, a leaf level's at slot 0
        self.first = np.concatenate(
            [np.zeros(0, np.uint32)]
            + [prefix_offsets(c)[:-1] + base for c, base in zip(levels, [*bases[1:-1], 0])]).astype(np.uint32)
        node_boxes = [np.zeros((0, 4))]
        below = self.entry_boxes
        for counts in reversed(levels):
            below = np.minimum.reduceat(below, prefix_offsets(counts)[:-1], axis=0)
            node_boxes.insert(1, below)
        self.node_boxes = np.concatenate(node_boxes)
        # the walk's arrays, handed to the kernel once as a struct of raw
        # pointers; ``c_arrays`` keeps what they point to
        self.c_arrays = [ffi.from_buffer(ctype, a) for ctype, a in (
            ("uint32_t[]", self.first), ("uint32_t[]", self.counts), ("uint32_t[]", self.order),
            ("double[]", self.node_boxes), ("double[]", self.entry_boxes), *(("double[]", row) for row in ends))]
        self.c_struct = ffi.new("rtree_index *", [*self.c_arrays[:5], self.n_internal, *self.c_arrays[5:]])

    def window_query(self, w: Rect) -> np.ndarray:
        """Ids of the entries whose segment meets the window (closed sets),
        in walk order."""
        if not self.n_entries:
            return np.zeros(0, dtype=np.int64)
        # the output slots, then the stack's
        buf = np.empty(self.n_entries + self.height * self.fanout, dtype=np.int64)
        out = ffi.from_buffer("int64_t[]", buf)
        n = lib.rtree_window(self.c_struct, w.xmin, w.ymin, w.xmax, w.ymax, out + self.n_entries, out)
        return buf[:n]

    def space_bytes(self) -> int:
        """Accounted bytes: every array the tree holds but the end points,
        which are the caller's."""
        return sum(a.nbytes for a in (self.counts, self.first, self.order, self.node_boxes, self.entry_boxes))

    # -- serialization ---------------------------------------------------
    # the shape only, all u32: height, each level's child counts (root
    # level first), then the entry id of each leaf slot

    def to_bytes(self) -> bytes:
        return np.concatenate(([self.height], self.counts, self.order)).astype(_U32).tobytes()

    @classmethod
    def from_bytes(cls, reader: Reader, fanout: int, ends: np.ndarray) -> "RTree":
        """The tree that ``reader`` reads next, over the segments of ``ends``.
        Raises FormatError unless the shape is an R-tree over all of them
        whose nodes each hold 1 to ``fanout`` children."""
        height = int(reader.array(_U32, 1)[0])
        levels = []
        width = 1 if height else 0  # nodes on the level being read
        for _ in range(height):
            counts = reader.array(_U32, width)
            if counts.min() < 1 or counts.max() > fanout:
                raise FormatError(f"spatial index node child counts outside [1, {fanout}]")
            levels.append(counts)
            width = int(counts.sum(dtype=np.int64))
        ends = _as_ends(ends)
        n = ends.shape[1]
        if width != n:
            raise FormatError(f"spatial index entries do not match the network's edges ({width} slots, {n} edges)")
        order = reader.array(_U32, n)
        if not np.array_equal(np.sort(order), np.arange(n)):
            raise FormatError("spatial index entries do not match the network's edges")
        return cls(levels, order, ends, fanout)


def _as_ends(ends) -> np.ndarray:
    """``ends`` as the contiguous (4, n) float64 array the kernel reads, the
    same array when it is one; any other shape raises ValueError."""
    ends = np.ascontiguousarray(ends, dtype=np.float64)
    if ends.ndim != 2 or len(ends) != 4:
        raise ValueError(f"segment end points come as 4 rows ax, ay, bx, by, got shape {ends.shape}")
    return ends


def build_rtree(ends, fanout: int = 32) -> RTree:
    """Bulk load a static R-tree over segments, given as the (4, n) rows
    ``ax, ay, bx, by`` that ``Network.endpoints`` gives; entry i is the
    segment from ``(ax[i], ay[i])`` to ``(bx[i], by[i])``."""
    if fanout < 4:
        raise ConfigError(f"fanout must be at least 4, got {fanout}")
    ends = _as_ends(ends)
    if not ends.shape[1]:
        return RTree([], np.zeros(0, dtype=np.int64), ends, fanout)
    # bottom up: each level's STR order of the level below, and its chunk sizes
    packs = []
    below = _signed_boxes(ends)
    while not packs or len(below) > 1:  # until one node remains
        order = _str_order(below, fanout)
        sizes = np.array(_even_chunks(len(below), fanout))
        packs.append((order, sizes))
        below = np.minimum.reduceat(below[order], prefix_offsets(sizes)[:-1], axis=0)
    # top down: lay out each level's children contiguously, in their parents' order
    levels = []
    nodes = np.zeros(1, dtype=np.int64)  # the root
    for order, sizes in reversed(packs):
        levels.append(sizes[nodes])
        nodes = order[concat_ranges(prefix_offsets(sizes)[nodes], sizes[nodes])]
    return RTree(levels, nodes, ends, fanout)
