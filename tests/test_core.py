import math
import re
import struct
from fractions import Fraction

import numpy as np
import pytest

from trajindex import (
    FormatError,
    InvalidInputError,
    Point,
    Rect,
    ScaleConfig,
    Segment,
    TimeInterval,
    discretize_time,
    discretize_times,
    mbb_of_segment,
    rects_overlap,
    segment_intersects_window,
    segments_intersect_window,
)
from trajindex.core import Reader

from helpers import exact_floor_times, near_integer_times, top_edge_times


def seg(ax, ay, bx, by, sid=0):
    return Segment(sid, Point(ax, ay), Point(bx, by))


class TestDiscretize:
    def test_examples(self):
        assert discretize_time(1.2345678, ScaleConfig(6)) == 1234567
        assert discretize_time(0.0, ScaleConfig(8)) == 0
        assert discretize_time(2.5, ScaleConfig(0)) == 2

    def test_rejects_bad_input(self):
        with pytest.raises(InvalidInputError):
            discretize_time(-1.0, ScaleConfig(4))
        with pytest.raises(InvalidInputError):
            discretize_time(math.nan, ScaleConfig(4))
        with pytest.raises(InvalidInputError):
            discretize_time(math.inf, ScaleConfig(4))

    def test_monotone(self):
        rng = np.random.default_rng(0)
        for digits in (0, 2, 5, 8):
            cfg = ScaleConfig(digits)
            ts = np.sort(rng.uniform(0, 1e4, 500))
            ticks = [discretize_time(t, cfg) for t in ts]
            assert all(a <= b for a, b in zip(ticks, ticks[1:]))

    def test_exact_floor_of_float_value(self):
        # 0.145 is stored as a float slightly below the decimal value, so
        # the exact floor at 3 digits is 144 even though 0.145*1000
        # rounds up to 145.0 in float arithmetic
        assert discretize_time(0.145, ScaleConfig(3)) == 144

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(1)
        values = np.concatenate([
            rng.uniform(0, 1e6, 300),
            np.round(rng.uniform(0, 1e3, 300), 8),  # quantized, lands near integers
            np.arange(50, dtype=float),
        ])
        for digits in (0, 3, 8):
            cfg = ScaleConfig(digits)
            bulk = discretize_times(values, cfg)
            assert bulk.tolist() == [discretize_time(v, cfg) for v in values]

    @pytest.mark.parametrize("digits", range(9))
    def test_scalar_is_the_exact_floor(self, digits):
        # against rationals
        scale = 10**digits
        values = exact_floor_times(digits)
        cfg = ScaleConfig(digits)
        integral = 0
        for t in values:
            assert discretize_time(t, cfg) == math.floor(Fraction(t) * scale), (t, digits)
            integral += t * scale == math.floor(t * scale)
        assert integral > 400  # the ratio path runs too
        for bad in (math.nan, math.inf, -math.inf, -1.0, -5e-324, -1e300, -0.5):
            with pytest.raises(InvalidInputError, match="finite and non-negative"):
                discretize_time(bad, cfg)

    @pytest.mark.parametrize("digits", range(9))
    def test_vectorized_is_exact_on_adversarial_values(self, digits):
        scale = 10**digits
        values = near_integer_times(digits)
        values = values[values * scale < 2.0**62]
        cfg = ScaleConfig(digits)
        assert discretize_times(values, cfg).tolist() == [discretize_time(v, cfg) for v in values.tolist()]
        assert discretize_times(values[5], cfg).shape == ()

    @pytest.mark.parametrize("digits", range(9))
    def test_vectorized_at_the_top_of_the_universe(self, digits):
        # a tick below 2**62 is the oracle's, even where the rounded product
        # is 2**62; a tick of 2**62 or more is refused
        cfg = ScaleConfig(digits)
        below = 0
        for t in top_edge_times(digits):
            tick = discretize_time(t, cfg)
            if tick < 2**62:
                below += 1
                assert discretize_times([t], cfg).tolist() == [tick], (t, digits)
            else:
                with pytest.raises(InvalidInputError, match=re.escape(f"{t} at position 1 ") + ".* universe"):
                    discretize_times([0.0, t], cfg)
        assert below >= 29  # the floats below 2**62 / 10**digits

    def test_vectorized_names_the_first_bad_time(self):
        cfg = ScaleConfig(3)
        for bad in (math.nan, math.inf, -1.0, -5e-324):
            message = f"{bad} at position 2 must be finite and non-negative"
            with pytest.raises(InvalidInputError, match=re.escape(message)):
                discretize_times([1.0, 2.0, bad, -1.0], cfg)

    def test_scale_config_range(self):
        from trajindex import ConfigError

        with pytest.raises(ConfigError):
            ScaleConfig(9)
        with pytest.raises(ConfigError):
            ScaleConfig(-1)


class TestGeometry:
    def test_mbb_examples(self):
        assert mbb_of_segment(seg(0, 0, 10, 5)) == Rect(0, 0, 10, 5)
        assert mbb_of_segment(seg(3, 7, 3, 2)) == Rect(3, 2, 3, 7)
        assert mbb_of_segment(seg(1, 1, 0, 0)) == Rect(0, 0, 1, 1)

    def test_window_examples(self):
        assert segment_intersects_window(seg(0, 0, 10, 10), Rect(2, 0, 4, 10))
        assert not segment_intersects_window(seg(0, 0, 1, 0), Rect(2, 2, 3, 3))
        assert segment_intersects_window(seg(2.5, 2.5, 2.6, 2.6), Rect(2, 2, 3, 3))

    def test_touch_counts_as_intersection(self):
        assert segment_intersects_window(seg(0, 0, 2, 0), Rect(2, 0, 3, 1))  # endpoint on corner
        assert segment_intersects_window(seg(0, 1, 2, 1), Rect(0, 0, 2, 1))  # collinear with edge

    def test_intersection_implies_mbb_overlap(self):
        rng = np.random.default_rng(2)
        for _ in range(500):
            s = seg(*rng.uniform(-10, 10, 4))
            x0, x1 = np.sort(rng.uniform(-10, 10, 2))
            y0, y1 = np.sort(rng.uniform(-10, 10, 2))
            w = Rect(x0, y0, x1, y1)
            if segment_intersects_window(s, w):
                assert rects_overlap(mbb_of_segment(s), w)

    def test_agrees_with_point_sampling(self):
        # a sampled point inside the window proves intersection, so the
        # exact test must agree whenever sampling finds a hit
        rng = np.random.default_rng(3)
        ts = np.linspace(0.0, 1.0, 10_000)
        checked_hits = 0
        for _ in range(300):
            ax, ay, bx, by = rng.uniform(0, 10, 4)
            if (ax, ay) == (bx, by):
                continue
            x0, x1 = np.sort(rng.uniform(0, 10, 2))
            y0, y1 = np.sort(rng.uniform(0, 10, 2))
            w = Rect(x0, y0, x1, y1)
            xs = ax + ts * (bx - ax)
            ys = ay + ts * (by - ay)
            sampled = bool(((xs >= x0) & (xs <= x1) & (ys >= y0) & (ys <= y1)).any())
            exact = segment_intersects_window(seg(ax, ay, bx, by), w)
            if sampled:
                checked_hits += 1
                assert exact
        assert checked_hits > 50

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(4)
        coords = rng.uniform(0, 10, (200, 4))
        x0, x1 = np.sort(rng.uniform(0, 10, 2))
        y0, y1 = np.sort(rng.uniform(0, 10, 2))
        w = Rect(x0, y0, x1, y1)
        got = segments_intersect_window(coords[:, 0], coords[:, 1], coords[:, 2], coords[:, 3], w)
        want = [segment_intersects_window(seg(*row), w) for row in coords]
        assert got.tolist() == want


class TestValidation:
    def test_point_rejects_nan(self):
        with pytest.raises(InvalidInputError):
            Point(math.nan, 0.0)

    def test_coordinates_up_to_2_to_the_1022(self):
        """The bound is taken, the next float above it refused, for a point
        and a rectangle alike; NaN, the infinities and ints no float holds
        are refused by the same comparison."""
        bound = 2.0**1022
        above = float(np.nextafter(bound, math.inf))
        for v in (bound, -bound, 0.0, -0.0, 5e-324, 7):
            assert Point(v, -v) == Point(v, -v)
            assert Rect(-abs(v), -abs(v), abs(v), abs(v)).xmax == abs(v)
        for v in (above, -above, math.inf, -math.inf, math.nan, 10**400, -(10**400)):
            for point in ((v, 0.0), (0.0, v)):
                with pytest.raises(InvalidInputError, match=re.escape("at most 2**1022 in magnitude")):
                    Point(*point)
            for rect in ((v, 0.0, bound, 1.0), (-bound, v, bound, bound), (-bound, 0.0, v, 1.0), (0.0, -bound, 1.0, v)):
                with pytest.raises(InvalidInputError, match=re.escape("at most 2**1022 in magnitude")):
                    Rect(*rect)

    def test_the_clip_stays_finite_at_the_bound(self):
        """Segments and windows spanning the whole coordinate range: the
        scalar and the vectorized exact tests agree, and a window that
        contains another meets every segment the other meets."""
        bound = 2.0**1022
        rng = np.random.default_rng(5)
        ends = rng.uniform(-bound, bound, (4, 300))
        ends[:, :4] = [[-bound, bound, -bound, bound], [-bound, -bound, bound, 0.0],
                       [bound, -bound, bound, -bound], [bound, bound, -bound, 1.0]]
        for _ in range(200):
            x0, x1 = np.sort(rng.uniform(-bound, bound, 2))
            y0, y1 = np.sort(rng.uniform(-bound, bound, 2))
            inner = Rect(x0, y0, x1, y1)
            outer = Rect(-bound, y0, bound, y1)
            meets = segments_intersect_window(*ends, inner)
            assert meets.tolist() == [segment_intersects_window(seg(*row), inner) for row in ends.T.tolist()]
            assert not (meets & ~segments_intersect_window(*ends, outer)).any()
        assert segments_intersect_window(*ends[:, :1], Rect(-bound, 0.0, bound, 0.0)).tolist() == [True]

    def test_segment_rejects_degenerate(self):
        with pytest.raises(InvalidInputError):
            Segment(0, Point(1, 1), Point(1, 1))

    def test_rect_rejects_inverted(self):
        with pytest.raises(InvalidInputError):
            Rect(1, 0, 0, 1)

    def test_interval_rejects_negative_and_inverted(self):
        with pytest.raises(InvalidInputError):
            TimeInterval(-1.0, 2.0)
        with pytest.raises(InvalidInputError):
            TimeInterval(3.0, 2.0)


class TestReader:
    # a u16, then a 16-byte block (a u32, 4 bytes of padding, a u64), then a u16
    DATA = struct.pack("<HQI4xQH", 7, 16, 5, 9, 3)

    def test_reads_in_order(self):
        rd = Reader(self.DATA)
        assert rd.unpack(struct.Struct("<H")) == (7,)
        block = rd.block("test block")
        assert block.array("<u4", 1).tolist() == [5]
        block.unpack(struct.Struct("<4x"))
        assert block.array("<u8", 1).tolist() == [9]
        block.finish()
        assert rd.array("<u2", 1).tolist() == [3]
        rd.finish()

    def test_block_confines_reads(self):
        rd = Reader(self.DATA)
        rd.unpack(struct.Struct("<H"))
        block = rd.block("test block")
        with pytest.raises(FormatError, match="truncated test block"):
            block.array("<u8", 3)  # 24 bytes from a 16-byte block
        with pytest.raises(FormatError, match="truncated test block"):
            block.unpack(struct.Struct("<17s"))

    def test_every_read_past_the_end(self):
        for cut in range(len(self.DATA)):
            rd = Reader(self.DATA[:cut])
            with pytest.raises(FormatError, match="truncated"):
                rd.unpack(struct.Struct("<H"))
                block = rd.block("test block")
                block.array("<u4", 1)
                block.unpack(struct.Struct("<4x"))
                block.array("<u8", 1)
                rd.array("<u2", 1)

    def test_unread_bytes_are_a_length_mismatch(self):
        rd = Reader(self.DATA)
        rd.unpack(struct.Struct("<H"))
        block = rd.block("test block")
        block.array("<u4", 1)
        with pytest.raises(FormatError, match="test block length mismatch"):
            block.finish()
        with pytest.raises(FormatError, match="index file length mismatch"):
            rd.finish()
