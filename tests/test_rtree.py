import math

import numpy as np
import pytest

from trajindex import ConfigError, FormatError, Rect, build_rtree, rects_overlap, segments_intersect_window
from trajindex.core import Reader
from trajindex.rtree import RTree

from helpers import reference_walk


def segments(rows):
    """The (4, n) end points of segments given as (ax, ay, bx, by) rows."""
    return np.array(rows, dtype=float).reshape(-1, 4).T.copy()


def random_diagonals(rng, n, extent=100.0, size=1.0):
    """A diagonal, in either direction, of each of n random squares of side
    ``size``: no segment is axis-parallel."""
    x, y = rng.uniform(0, extent, (2, n))
    up = rng.random(n) < 0.5
    return np.vstack((x, np.where(up, y, y + size), x + size, np.where(up, y + size, y)))


def mbbs(ends):
    """The (xmin, ymin, xmax, ymax) rows of the segments' boxes."""
    return np.vstack((np.minimum(ends[:2], ends[2:]), np.maximum(ends[:2], ends[2:]))).T


def scan(ends, w):
    """The segments that meet the window, by the exact test."""
    return np.flatnonzero(segments_intersect_window(*ends, w)).tolist()


def random_window(rng, extent=100.0):
    x0, x1 = np.sort(rng.uniform(0, extent, 2))
    y0, y1 = np.sort(rng.uniform(0, extent, 2))
    return Rect(x0, y0, x1, y1)


def assert_walks_alike(tree, windows):
    """The compiled walk against the numpy one, in order, and against the
    exact test over every segment."""
    for w in windows:
        got = tree.window_query(w)
        assert got.dtype == np.int64
        assert got.tolist() == reference_walk(tree, w).tolist(), w
        assert sorted(got.tolist()) == scan(tree.ends, w), w


def levels(tree):
    """Each level's child counts and first children, root first."""
    out, pos, width = [], 0, 1
    for _ in range(tree.height):
        out.append((tree.counts[pos: pos + width], tree.first[pos: pos + width]))
        pos, width = pos + width, int(tree.counts[pos: pos + width].sum())
    return out


class TestBuild:
    def test_empty(self):
        tree = build_rtree(np.zeros((4, 0)))
        assert tree.height == 0
        assert tree.window_query(Rect(0, 0, 100, 100)).tolist() == []

    def test_singleton(self):
        tree = build_rtree(segments([[0, 0, 1, 1]]))
        assert tree.height == 1
        assert tree.window_query(Rect(0.5, 0.5, 2, 2)).tolist() == [0]

    def test_fanout_validation(self):
        with pytest.raises(ConfigError):
            build_rtree(segments([[0, 0, 1, 1]]), fanout=3)

    def test_end_points_come_as_four_rows(self):
        """Three rows would leave the kernel a pointer short."""
        ends = random_diagonals(np.random.default_rng(0), 10)
        for bad in (ends[:3], ends.T, ends[0]):
            with pytest.raises(ValueError, match="4 rows"):
                build_rtree(bad)
            with pytest.raises(ValueError, match="4 rows"):
                RTree.from_bytes(Reader(build_rtree(ends).to_bytes()), 32, bad)
        assert build_rtree(ends.astype(np.float32)).ends.dtype == np.float64

    def test_height_bound(self):
        rng = np.random.default_rng(0)
        for n in (1, 5, 33, 400, 3000):
            tree = build_rtree(random_diagonals(rng, n), fanout=16)
            bound = math.ceil(math.log(max(n, 2), tree.min_fill)) + 1
            assert tree.height <= bound

    def test_occupancy(self):
        rng = np.random.default_rng(1)
        tree = build_rtree(random_diagonals(rng, 333), fanout=16)
        assert tree.height == len(levels(tree)) == 3
        assert len(tree.counts) == sum(len(c) for c, _ in levels(tree))
        assert (tree.counts <= tree.fanout).all()
        assert (tree.counts[1:] >= tree.min_fill).all()  # every node below the root
        assert levels(tree)[-1][0].sum() == tree.n_entries == 333

    def test_node_mbb_contains_children(self):
        rng = np.random.default_rng(2)
        ends = random_diagonals(rng, 500)
        tree = build_rtree(ends, fanout=8)
        assert tree.height == 3
        # boxes are stored as (xmin, ymin, -xmax, -ymax): a container is <= each part
        for k in range(len(tree.counts)):
            a, b = tree.first[k], tree.first[k] + tree.counts[k]
            children = tree.node_boxes[a:b] if k < tree.n_internal else tree.entry_boxes[a:b]
            assert len(children) == tree.counts[k]
            assert (tree.node_boxes[k] <= children).all()
        # every slot holds its entry's box, and the leaves cover every slot once
        assert np.array_equal(tree.entry_boxes * [1, 1, -1, -1], mbbs(ends)[tree.order])
        leaf_counts, leaf_first = levels(tree)[-1]
        assert np.array_equal(leaf_first, np.cumsum(leaf_counts) - leaf_counts)

    def test_space_bytes_is_every_array_held(self):
        """Every array the tree holds but the end points, which it reads
        from the caller's array without a copy."""
        rng = np.random.default_rng(8)
        for n in (0, 1, 40, 700):
            ends = random_diagonals(rng, n)
            tree = build_rtree(ends, fanout=8)
            assert tree.ends is ends
            arrays = [v for v in vars(tree).values() if isinstance(v, np.ndarray) and v is not ends]
            assert len(arrays) == 5
            assert tree.space_bytes() == sum(a.nbytes for a in arrays)
            assert tree.counts.dtype == tree.first.dtype == tree.order.dtype == np.uint32


class TestQuery:
    def test_thousand_squares_match_scan(self):
        rng = np.random.default_rng(3)
        ends = random_diagonals(rng, 1000)
        tree = build_rtree(ends)
        for _ in range(200):
            w = random_window(rng)
            got = tree.window_query(w)
            assert got.dtype == np.int64
            assert sorted(got.tolist()) == scan(ends, w)
            assert len(got) == len(set(got.tolist()))

    def test_disjoint_and_full_cover(self):
        rng = np.random.default_rng(4)
        ends = random_diagonals(rng, 64)
        tree = build_rtree(ends, fanout=8)
        assert tree.window_query(Rect(500, 500, 600, 600)).tolist() == []
        boxes = mbbs(ends)
        cover = Rect(*boxes[:, :2].min(axis=0), *boxes[:, 2:].max(axis=0))
        assert sorted(tree.window_query(cover).tolist()) == list(range(64))

    def test_touching_counts(self):
        tree = build_rtree(segments([[0, 0, 1, 1]]))
        assert tree.window_query(Rect(1, 1, 2, 2)).tolist() == [0]

    def test_deterministic_rebuild(self):
        rng = np.random.default_rng(5)
        ends = random_diagonals(rng, 333)
        a = build_rtree(ends)
        b = build_rtree(ends.copy())
        for name in ("counts", "first", "order", "node_boxes", "entry_boxes"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name


class TestKernelWalk:
    """The compiled walk against the numpy reference: the same ids in the
    same order, exactly the segments that meet the window."""

    def test_empty_and_one_entry(self):
        windows = [Rect(0, 0, 100, 100), Rect(0.5, 0.5, 0.5, 0.5), Rect(1, 1, 2, 2), Rect(5, 5, 6, 6),
                   Rect(0.6, 0.2, 0.9, 0.5)]
        for rows in ([], [[0, 0, 1, 1]], [[0, 1, 1, 0]]):
            tree = build_rtree(segments(rows))
            assert_walks_alike(tree, windows)
        assert build_rtree(segments([[0, 0, 1, 1]])).window_query(Rect(1, 1, 2, 2)).tolist() == [0]
        assert build_rtree(segments([[0, 1, 1, 0]])).window_query(Rect(0.6, 0.2, 0.9, 0.5)).tolist() == [0]
        assert build_rtree(segments([[0, 0, 1, 1]])).window_query(Rect(0.6, 0.2, 0.9, 0.5)).tolist() == []

    def test_height_one(self):
        rng = np.random.default_rng(10)
        tree = build_rtree(random_diagonals(rng, 20, size=10.0), fanout=32)
        assert tree.height == 1 and tree.n_internal == 0
        assert_walks_alike(tree, [random_window(rng) for _ in range(200)])

    def test_one_entry_leaves(self):
        # fanout 4 over 5 segments, saved as a root of two nodes over five one-entry leaves
        ends = segments([[i, 0, i + 1, 1] for i in range(5)])
        shape = [3, 2, 4, 1, 1, 1, 1, 1, 1, 4, 2, 0, 3, 1]
        tree = RTree.from_bytes(Reader(np.array(shape, dtype="<u4").tobytes()), 4, ends)
        assert tree.height == 3 and (tree.counts[-5:] == 1).all()
        windows = [Rect(x, -1, x + w, 2) for x in np.arange(-1, 6, 0.5) for w in (0, 0.5, 1, 3, 10)]
        assert_walks_alike(tree, windows)
        assert tree.window_query(Rect(-1, -1, 10, 10)).tolist() == [1, 3, 0, 2, 4]  # last child first

    def test_shared_edges_and_corners(self):
        # the diagonals of unit squares tiling a 6 x 6 board: windows on the squares' shared edges and corners
        tree = build_rtree(segments([[i, j, i + 1, j + 1] for i in range(6) for j in range(6)]), fanout=4)
        windows = [Rect(x, y, x, y) for x in range(7) for y in range(7)]        # corners
        windows += [Rect(x, 0, x, 6) for x in range(7)]                         # vertical edges
        windows += [Rect(0, y, 6, y) for y in range(7)]                         # horizontal edges
        windows += [Rect(x, y, x + 1, y + 1) for x in range(6) for y in range(6)]  # exactly one square
        assert_walks_alike(tree, windows)
        # four boxes touch the corner, two of the diagonals pass through it
        assert sorted(tree.window_query(Rect(2, 3, 2, 3)).tolist()) == [8, 15]

    def test_degenerate_boxes_and_windows(self):
        rng = np.random.default_rng(11)
        # points and axis-parallel lines, each its own box
        xy = rng.integers(0, 20, (2, 300)).astype(float)
        points = np.vstack((xy, xy))                                            # zero-size boxes
        lines = np.vstack((xy, xy + [[0.0], [3.0]]))                            # zero-width boxes
        flat = np.vstack((xy, xy + [[3.0], [0.0]]))                             # zero-height boxes
        tree = build_rtree(np.hstack((points, lines, flat)), fanout=8)
        windows = [Rect(x, y, x, y) for x, y in rng.integers(0, 20, (100, 2)).tolist()]
        windows += [Rect(x, 0, x, 20) for x in range(20)] + [Rect(0, y, 20, y) for y in range(20)]
        assert_walks_alike(tree, windows)

    def test_windows_outside(self):
        rng = np.random.default_rng(12)
        tree = build_rtree(random_diagonals(rng, 500), fanout=8)
        windows = [Rect(-10, -10, -1, -1), Rect(200, 0, 300, 100), Rect(0, 101.5, 100, 200),
                   Rect(-5, 40, -0.001, 60), Rect(101.001, 101.001, 101.001, 101.001)]
        for w in windows:
            assert tree.window_query(w).tolist() == reference_walk(tree, w).tolist() == []

    @pytest.mark.parametrize("fanout", [4, 32])
    def test_thousand_squares(self, fanout):
        rng = np.random.default_rng(3)
        tree = build_rtree(random_diagonals(rng, 1000), fanout=fanout)
        assert_walks_alike(tree, [random_window(rng) for _ in range(1000)])

    def test_any_loadable_shape(self):
        # a shape whose leaf slots hold the entries in any order still walks alike
        rng = np.random.default_rng(13)
        ends = random_diagonals(rng, 300)
        words = np.frombuffer(build_rtree(ends, fanout=8).to_bytes(), dtype="<u4").copy()
        words[-300:] = rng.permutation(300)
        tree = RTree.from_bytes(Reader(words.tobytes()), 8, ends)
        assert_walks_alike(tree, [random_window(rng) for _ in range(300)])

    @pytest.mark.parametrize("fanout", [4, 32])
    def test_segments_that_need_the_clip(self, fanout):
        """Long segments in every direction, steep, shallow and short, a
        third snapped to a grid of halves so that windows touch them
        exactly: many boxes overlap a window that their segment misses."""
        rng = np.random.default_rng(14)
        a = rng.uniform(0, 20, (2, 600))
        b = a + rng.uniform(-8, 8, (2, 600)) * rng.choice([1.0, 0.05, 1e-6], (2, 600))
        snap = np.arange(600) % 3 == 0
        a[:, snap], b[:, snap] = np.round(a[:, snap] * 2) / 2, np.round(b[:, snap] * 2) / 2
        ends = np.vstack((a, b))
        tree = build_rtree(ends, fanout=fanout)
        windows = [random_window(rng, 20.0) for _ in range(300)]
        windows += [Rect(x, y, x + 0.5, y + 0.5) for x in np.arange(0, 20, 2.5) for y in np.arange(0, 20, 2.5)]
        windows += [Rect(x, y, x, y) for x, y in a[:, snap][:, :50].T.tolist()]  # points on segments' ends
        assert_walks_alike(tree, windows)
        boxes = [Rect(*box) for box in mbbs(ends).tolist()]
        dropped = [sum(rects_overlap(box, w) for box in boxes) - len(tree.window_query(w)) for w in windows]
        assert sum(dropped) > 500 and sum(d > 0 for d in dropped) > 100


class TestSerialization:
    def test_roundtrip(self):
        rng = np.random.default_rng(6)
        for n in (0, 1, 40, 700):
            ends = random_diagonals(rng, n)
            tree = build_rtree(ends, fanout=8)
            data = tree.to_bytes()
            assert len(data) == 4 * (1 + len(tree.counts) + n)
            reader = Reader(data)
            back = RTree.from_bytes(reader, 8, ends)
            reader.finish()  # read to the last byte
            assert back.n_entries == n
            assert back.height == tree.height
            for name in ("counts", "first", "order", "node_boxes", "entry_boxes"):
                assert np.array_equal(getattr(back, name), getattr(tree, name)), name
            for _ in range(25):
                w = random_window(rng)
                assert sorted(back.window_query(w).tolist()) == sorted(tree.window_query(w).tolist())

    def test_truncated_rejected(self):
        rng = np.random.default_rng(7)
        ends = random_diagonals(rng, 100)
        data = build_rtree(ends).to_bytes()
        for cut in (0, 3, len(data) // 2, len(data) - 1):
            with pytest.raises(FormatError, match="truncated"):
                RTree.from_bytes(Reader(data[:cut]), 32, ends)

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
        ends = random_diagonals(rng, 40)
        tree = build_rtree(ends, fanout=8)
        assert tree.height == 2 and tree.counts[0] == 5
        words = np.frombuffer(tree.to_bytes(), dtype="<u4").copy()
        if slot == "order":
            order_at = 1 + len(tree.counts)
            words[order_at] = words[order_at + 1] if value is None else value
        else:
            words[slot] = value
        with pytest.raises(FormatError, match=message):
            RTree.from_bytes(Reader(words.tobytes()), 8, ends)
