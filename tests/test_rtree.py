import math

import numpy as np
import pytest

from trajindex import ConfigError, FormatError, Rect, build_rtree, rects_overlap
from trajindex.rtree import RTree


def random_boxes(rng, n, extent=100.0, size=1.0):
    xy = rng.uniform(0, extent, (n, 2))
    return np.hstack((xy, xy + size))


def scan(boxes, w):
    return [i for i, b in enumerate(boxes.tolist()) if rects_overlap(Rect(*b), w)]


def random_window(rng):
    x0, x1 = np.sort(rng.uniform(0, 100, 2))
    y0, y1 = np.sort(rng.uniform(0, 100, 2))
    return Rect(x0, y0, x1, y1)


def levels(tree):
    """Each level's child counts and first children, root first."""
    out, pos, width = [], 0, 1
    for _ in range(tree.height):
        out.append((tree.counts[pos: pos + width], tree.first[pos: pos + width]))
        pos, width = pos + width, int(tree.counts[pos: pos + width].sum())
    return out


class TestBuild:
    def test_empty(self):
        tree = build_rtree(np.zeros((0, 4)))
        assert tree.height == 0
        assert tree.window_query(Rect(0, 0, 100, 100)).tolist() == []

    def test_singleton(self):
        tree = build_rtree([[0, 0, 1, 1]])
        assert tree.height == 1
        assert tree.window_query(Rect(0.5, 0.5, 2, 2)).tolist() == [0]

    def test_fanout_validation(self):
        with pytest.raises(ConfigError):
            build_rtree([[0, 0, 1, 1]], fanout=3)

    def test_height_bound(self):
        rng = np.random.default_rng(0)
        for n in (1, 5, 33, 400, 3000):
            tree = build_rtree(random_boxes(rng, n), fanout=16)
            bound = math.ceil(math.log(max(n, 2), tree.min_fill)) + 1
            assert tree.height <= bound

    def test_occupancy(self):
        rng = np.random.default_rng(1)
        tree = build_rtree(random_boxes(rng, 333), fanout=16)
        assert tree.height == len(levels(tree)) == 3
        assert len(tree.counts) == sum(len(c) for c, _ in levels(tree))
        assert (tree.counts <= tree.fanout).all()
        assert (tree.counts[1:] >= tree.min_fill).all()  # every node below the root
        assert levels(tree)[-1][0].sum() == tree.n_entries == 333

    def test_node_mbb_contains_children(self):
        rng = np.random.default_rng(2)
        boxes = random_boxes(rng, 500)
        tree = build_rtree(boxes, fanout=8)
        assert tree.height == 3
        # boxes are stored as (xmin, ymin, -xmax, -ymax): a container is <= each part
        for k in range(len(tree.counts)):
            a, b = tree.first[k], tree.first[k] + tree.counts[k]
            children = tree.node_boxes[a:b] if k < tree.n_internal else tree.entry_boxes[a:b]
            assert len(children) == tree.counts[k]
            assert (tree.node_boxes[k] <= children).all()
        # every slot holds its entry's box, and the leaves cover every slot once
        assert np.array_equal(tree.entry_boxes * [1, 1, -1, -1], boxes[tree.order])
        leaf_counts, leaf_first = levels(tree)[-1]
        assert np.array_equal(leaf_first, np.cumsum(leaf_counts) - leaf_counts)

    def test_space_bytes_is_every_array_held(self):
        rng = np.random.default_rng(8)
        for n in (0, 1, 40, 700):
            tree = build_rtree(random_boxes(rng, n), fanout=8)
            arrays = [v for v in vars(tree).values() if isinstance(v, np.ndarray)]
            assert len(arrays) == 5
            assert tree.space_bytes() == sum(a.nbytes for a in arrays)
            assert tree.counts.dtype == tree.first.dtype == tree.order.dtype == np.uint32


class TestQuery:
    def test_thousand_squares_match_scan(self):
        rng = np.random.default_rng(3)
        boxes = random_boxes(rng, 1000)
        tree = build_rtree(boxes)
        for _ in range(200):
            w = random_window(rng)
            got = tree.window_query(w)
            assert got.dtype == np.int64
            assert sorted(got.tolist()) == scan(boxes, w)
            assert len(got) == len(set(got.tolist()))

    def test_disjoint_and_full_cover(self):
        rng = np.random.default_rng(4)
        boxes = random_boxes(rng, 64)
        tree = build_rtree(boxes, fanout=8)
        assert tree.window_query(Rect(500, 500, 600, 600)).tolist() == []
        cover = Rect(*boxes[:, :2].min(axis=0), *boxes[:, 2:].max(axis=0))
        assert sorted(tree.window_query(cover).tolist()) == list(range(64))

    def test_touching_counts(self):
        tree = build_rtree([[0, 0, 1, 1]])
        assert tree.window_query(Rect(1, 1, 2, 2)).tolist() == [0]

    def test_deterministic_rebuild(self):
        rng = np.random.default_rng(5)
        boxes = random_boxes(rng, 333)
        a = build_rtree(boxes)
        b = build_rtree(boxes.copy())
        for name in ("counts", "first", "order", "node_boxes", "entry_boxes"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name


class TestSerialization:
    def test_roundtrip(self):
        rng = np.random.default_rng(6)
        for n in (0, 1, 40, 700):
            boxes = random_boxes(rng, n)
            tree = build_rtree(boxes, fanout=8)
            data = tree.to_bytes()
            assert len(data) == 4 * (1 + len(tree.counts) + n)
            back, offset = RTree.from_bytes(data, 0, 8, boxes)
            assert offset == len(data)
            assert back.n_entries == n
            assert back.height == tree.height
            for name in ("counts", "first", "order", "node_boxes", "entry_boxes"):
                assert np.array_equal(getattr(back, name), getattr(tree, name)), name
            for _ in range(25):
                w = random_window(rng)
                assert sorted(back.window_query(w).tolist()) == sorted(tree.window_query(w).tolist())

    def test_truncated_rejected(self):
        rng = np.random.default_rng(7)
        boxes = random_boxes(rng, 100)
        data = build_rtree(boxes).to_bytes()
        for cut in (0, 3, len(data) // 2, len(data) - 1):
            with pytest.raises(FormatError, match="truncated"):
                RTree.from_bytes(data[:cut], 0, 32, boxes)

    @pytest.mark.parametrize("slot, value, message", [
        (1, 0, "child counts"),                  # the root holds no children
        (2, 9, "child counts"),                  # a leaf holds more than the fanout
        (2, 7, "entries do not match"),          # the leaves hold one slot short of the entries
        (1, 4, "entries do not match"),          # the root holds one leaf short of the leaf level
        (0, 1, "entries do not match"),          # the height leaves out the leaf level
        ("order", None, "entries do not match"),  # one entry twice, another never
        ("order", 40, "entries do not match"),   # an entry id past the last entry
    ])
    def test_bad_shape_rejected(self, slot, value, message):
        rng = np.random.default_rng(9)
        boxes = random_boxes(rng, 40)
        tree = build_rtree(boxes, fanout=8)
        assert tree.height == 2 and tree.counts[0] == 5
        words = np.frombuffer(tree.to_bytes(), dtype="<u4").copy()
        if slot == "order":
            order_at = 1 + len(tree.counts)
            words[order_at] = words[order_at + 1] if value is None else value
        else:
            words[slot] = value
        with pytest.raises(FormatError, match=message):
            RTree.from_bytes(words.tobytes(), 0, 8, boxes)
