import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotiso.geometry import (
    Box,
    PLCurve,
    Point3,
    curve_is_simple,
    distance,
    read_curve,
    segment_distance,
    union_diameter,
    write_curve,
)

coords = st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False)
points = st.builds(Point3, coords, coords, coords)


class TestPoint3:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Point3(float("nan"), 0.0, 0.0)
        with pytest.raises(ValueError):
            Point3(0.0, float("inf"), 0.0)

    @given(points, points)
    @settings(max_examples=50, deadline=None)
    def test_distance_symmetric_nonnegative(self, a, b):
        assert distance(a, b) == distance(b, a)
        assert distance(a, b) >= 0.0
        assert distance(a, a) == 0.0

    @given(points, points, points)
    @settings(max_examples=50, deadline=None)
    def test_triangle_inequality(self, a, b, c):
        assert distance(a, c) <= distance(a, b) + distance(b, c) + 1e-9

    def test_array_roundtrip(self):
        p = Point3(1.5, -2.25, 0.125)
        assert Point3.from_array(p.as_array()) == p


class TestBox:
    def test_rejects_inverted_corners(self):
        with pytest.raises(ValueError):
            Box(Point3(1, 0, 0), Point3(0, 1, 1))

    def test_from_center_and_cube(self):
        b = Box.from_center(Point3(1, 2, 3), Point3(0.5, 1.0, 1.5))
        assert b.lo == Point3(0.5, 1.0, 1.5)
        assert b.hi == Point3(1.5, 3.0, 4.5)
        c = Box.cube(Point3(0, 0, 0), 2.0)
        assert c.lo == Point3(-1, -1, -1)

    def test_contains_strict_vs_closed(self):
        b = Box.cube(Point3(0, 0, 0), 2.0)
        assert b.contains(Point3(1, 0, 0))
        assert not b.contains(Point3(1, 0, 0), strict=True)
        assert b.contains(Point3(0.999, 0, 0), strict=True)

    def test_diameter_is_corner_to_corner(self):
        b = Box(Point3(0, 0, 0), Point3(3, 4, 12))
        assert b.diameter() == pytest.approx(13.0)

    def test_wall_distance(self):
        b = Box.cube(Point3(0, 0, 0), 2.0)
        assert b.wall_distance(Point3(0.25, 0, 0)) == pytest.approx(0.75)

    def test_intersects_and_contains_box(self):
        a = Box.cube(Point3(0, 0, 0), 2.0)
        b = Box.cube(Point3(0.5, 0, 0), 1.0)
        c = Box.cube(Point3(5, 0, 0), 1.0)
        assert a.intersects(b) and not a.intersects(c)
        assert a.contains_box(b) and not a.contains_box(b, strict=False) is False
        assert not a.contains_box(Box.cube(Point3(0, 0, 0), 2.0), strict=True)

    def test_sample_inside_and_deterministic(self):
        b = Box(Point3(-1, 0, 2), Point3(1, 3, 5))
        s1 = b.sample(np.random.default_rng(11), 200)
        s2 = b.sample(np.random.default_rng(11), 200)
        assert np.array_equal(s1, s2)
        assert b.contains_array(s1).all()


class TestUnionDiameter:
    def test_matches_brute_force_corner_pairs(self):
        rng = np.random.default_rng(3)
        boxes = [
            Box.from_center(
                Point3(*rng.uniform(-5, 5, 3)), Point3(*rng.uniform(0.1, 2, 3))
            )
            for _ in range(6)
        ]
        # independent oracle: exhaustive corner-pair distances
        corners = [c for b in boxes for c in b.corners()]
        brute = max(distance(p, q) for p in corners for q in corners)
        assert union_diameter(boxes) == pytest.approx(brute, abs=0.0)

    def test_single_box_is_diameter(self):
        b = Box(Point3(0, 0, 0), Point3(1, 1, 1))
        assert union_diameter([b]) == pytest.approx(math.sqrt(3.0))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            union_diameter([])


class TestSegments:
    def test_crossing_segments_intersect(self):
        d, mid = segment_distance(
            Point3(-1, 0, 0), Point3(1, 0, 0), Point3(0, -1, 0), Point3(0, 1, 0)
        )
        assert d < 1e-9 and distance(mid, Point3(0, 0, 0)) < 1e-12

    def test_skew_segments_distance(self):
        d, _ = segment_distance(
            Point3(-1, 0, 0), Point3(1, 0, 0), Point3(0, -1, 1), Point3(0, 1, 1)
        )
        assert d == pytest.approx(1.0)

    def test_parallel_segments(self):
        d, _ = segment_distance(
            Point3(0, 0, 0), Point3(1, 0, 0), Point3(0, 0.5, 0), Point3(1, 0.5, 0)
        )
        assert d == pytest.approx(0.5)

    def test_matches_sampled_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            p = rng.uniform(-1, 1, (4, 3))
            d, _ = segment_distance(*(Point3(*row) for row in p))
            t = np.linspace(0, 1, 200)
            a = p[0] + t[:, None] * (p[1] - p[0])
            b = p[2] + t[:, None] * (p[3] - p[2])
            brute = np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(-1)).min()
            assert d <= brute + 1e-12
            assert d >= brute - 1e-2  # sampled oracle overestimates slightly


class TestPLCurve:
    def test_vertex_count_validation(self):
        with pytest.raises(ValueError):
            PLCurve((Point3(0, 0, 0),), closed=False)
        with pytest.raises(ValueError):
            PLCurve((Point3(0, 0, 0), Point3(1, 0, 0)), closed=True)
        with pytest.raises(ValueError):
            PLCurve((Point3(0, 0, 0), Point3(0, 0, 0)))

    def test_densified_preserves_trace_and_endpoints(self):
        c = PLCurve((Point3(0, 0, 0), Point3(1, 0, 0), Point3(1, 1, 0)))
        d = c.densified(0.1)
        assert d.vertices[0] == c.vertices[0]
        assert d.vertices[-1] == c.vertices[-1]
        a, b = d.segment_arrays()
        assert np.sqrt(((b - a) ** 2).sum(-1)).max() <= 0.1 + 1e-12

    def test_densified_closed_keeps_closure(self):
        sq = PLCurve(
            (Point3(0, 0, 0), Point3(1, 0, 0), Point3(1, 1, 0), Point3(0, 1, 0)),
            closed=True,
        )
        d = sq.densified(0.25)
        assert d.closed and d.n_segments == len(d.vertices)

    def test_square_is_simple_figure_eight_is_not(self):
        sq = PLCurve(
            (Point3(0, 0, 0), Point3(1, 0, 0), Point3(1, 1, 0), Point3(0, 1, 0)),
            closed=True,
        )
        assert curve_is_simple(sq, 1e-9)
        bow = PLCurve(
            (Point3(0, 0, 0), Point3(1, 1, 0), Point3(1, 0, 0), Point3(0, 1, 0)),
            closed=True,
        )
        assert not curve_is_simple(bow, 1e-9)

    def test_simple_large_curve_uses_prefilter(self):
        t = np.linspace(0, 2 * np.pi, 2000, endpoint=False)
        ring = PLCurve(
            tuple(Point3(math.cos(x), math.sin(x), 0.0) for x in t), closed=True
        )
        assert curve_is_simple(ring, 1e-6)

    def test_file_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        c = PLCurve(
            tuple(Point3(*rng.uniform(-3, 3, 3)) for _ in range(40)), closed=True
        )
        path = tmp_path / "c.curve"
        write_curve(c, path)
        back = read_curve(path)
        assert back.closed == c.closed
        assert back.vertices == c.vertices

    def test_reader_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.curve"
        path.write_text("weird 3\n0 0 0\n")
        with pytest.raises(ValueError):
            read_curve(path)
