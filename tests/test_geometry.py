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
    multiscale_close_pairs,
    _segment_pair_distances,
    read_curve,
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


def _segment_distance(p1, p2, q1, q2) -> float:
    """Distance between segments p1p2 and q1q2 through the batched kernel."""
    a = np.array([p1, q1], dtype=float)
    b = np.array([p2, q2], dtype=float)
    return float(_segment_pair_distances(a, b, np.array([0]), np.array([1]))[0])


class TestSegments:
    def test_crossing_segments_intersect(self):
        d = _segment_distance((-1, 0, 0), (1, 0, 0), (0, -1, 0), (0, 1, 0))
        assert d < 1e-9

    def test_skew_segments_distance(self):
        d = _segment_distance((-1, 0, 0), (1, 0, 0), (0, -1, 1), (0, 1, 1))
        assert d == pytest.approx(1.0)

    def test_parallel_segments(self):
        d = _segment_distance((0, 0, 0), (1, 0, 0), (0, 0.5, 0), (1, 0.5, 0))
        assert d == pytest.approx(0.5)

    def test_matches_sampled_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            p = rng.uniform(-1, 1, (4, 3))
            d = _segment_distance(*p)
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


def _closed_ok(verts) -> bool:
    return len(verts) >= 3 and verts[0] != verts[-1]


@st.composite
def _polylines(draw):
    """Vertex lists with distinct consecutive vertices, and whether closed."""
    verts = draw(st.lists(points, min_size=2, max_size=30))
    verts = [v for k, v in enumerate(verts) if k == 0 or v != verts[k - 1]]
    closed = draw(st.booleans())
    if len(verts) < 2 or (closed and not _closed_ok(verts)):
        closed = False
        verts = verts + [verts[-1] + Point3(1.0, 0.0, 0.0)]
    return verts, closed


def _densified_by_segment(curve: PLCurve, max_seg_len: float) -> np.ndarray:
    """The per-segment loop densified() replaces, as an oracle."""
    a_arr, b_arr = curve.segment_arrays()
    out = []
    for a, b in zip(a_arr, b_arr):
        k = max(1, int(math.ceil(float(np.linalg.norm(b - a)) / max_seg_len)))
        out += [a + (b - a) * (j / k) for j in range(k)]
    if not curve.closed:
        out.append(curve.points[-1])
    return np.array(out)


class TestPLCurveArray:
    @pytest.mark.parametrize("as_array", [False, True])
    def test_constructor_checks(self, as_array):
        def make(rows, closed=False):
            verts = tuple(Point3(*r) for r in rows)
            return PLCurve(np.array(rows, dtype=float) if as_array else verts, closed=closed)

        with pytest.raises(ValueError, match="at least 2"):
            make([(0, 0, 0)])
        with pytest.raises(ValueError, match="at least 3"):
            make([(0, 0, 0), (1, 0, 0)], closed=True)
        with pytest.raises(ValueError, match="distinct"):
            make([(0, 0, 0), (1, 0, 0), (1, 0, 0)])
        with pytest.raises(ValueError, match="repeat its first"):
            make([(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 0, 0)], closed=True)
        assert make([(0, 0, 0), (1, 0, 0), (1, 1, 0)], closed=True).n_segments == 3

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_array(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            PLCurve(np.array([[0.0, 0.0, 0.0], [1.0, bad, 0.0]]))

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match=r"\(n, 3\)"):
            PLCurve(np.zeros((4, 2)))

    def test_points_are_a_read_only_copy(self):
        rows = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        c = PLCurve(rows)
        rows[0, 0] = 5.0
        assert c.points[0, 0] == 0.0
        assert not c.points.flags.writeable
        with pytest.raises(ValueError):
            c.points[0, 0] = 1.0
        with pytest.raises(AttributeError):
            c.closed = True

    @pytest.mark.parametrize("bad", [float("nan"), 0.0, -0.1])
    def test_densified_rejects_bad_length(self, bad):
        c = PLCurve((Point3(0, 0, 0), Point3(1, 0, 0)))
        with pytest.raises(ValueError, match="max_seg_len must be positive"):
            c.densified(bad)

    @given(_polylines())
    @settings(max_examples=80, deadline=None)
    def test_vertices_round_trip(self, poly):
        verts, closed = poly
        c = PLCurve(tuple(verts), closed=closed)
        assert c.vertices == tuple(verts)
        assert c.points.shape == (len(verts), 3)
        assert PLCurve(c.points, closed=closed).vertices == c.vertices
        assert PLCurve(c.vertices, closed=closed) == c

    def test_densified_piece_count_matches_per_segment_norm(self):
        # sqrt of a row-wise sum of squares rounds this length one ulp away
        # from np.linalg.norm(b - a), which moves ceil(L / max_seg_len) from 2 to 3
        c = PLCurve((Point3(0.864, 0.226, -0.307), Point3(1.67, 1.424, -1.116)))
        max_seg_len = 0.8275447117829948
        np.testing.assert_array_equal(
            c.densified(max_seg_len).points, _densified_by_segment(c, max_seg_len)
        )

    @given(_polylines(), st.floats(0.05, 50.0))
    @settings(max_examples=80, deadline=None)
    def test_densified_matches_per_segment_formula(self, poly, max_seg_len):
        verts, closed = poly
        c = PLCurve(tuple(verts), closed=closed)
        d = c.densified(max_seg_len)
        assert d.closed == closed
        np.testing.assert_array_equal(d.points, _densified_by_segment(c, max_seg_len))


@st.composite
def _multiscale_segments(draw):
    """Midpoints and half lengths of segments spread over many scales,
    clustered so that pairs of very different sizes come close."""
    n = draw(st.integers(0, 60))
    dim = draw(st.sampled_from([2, 3]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    scale = 2.0 ** rng.integers(-30, 1, size=n)
    mids = rng.uniform(-1.0, 1.0, (n, dim)) * scale[:, None] * rng.uniform(1.0, 4.0)
    half = scale * rng.uniform(0.0, 2.0, n)
    margin = draw(st.sampled_from([0.0, 1e-9, 1e-3]))
    return mids, half, margin


class TestMultiscaleClosePairs:
    @given(_multiscale_segments())
    @settings(max_examples=120, deadline=None)
    def test_sorted_unique_superset_of_close_pairs(self, segs):
        mids, half, margin = segs
        ii, jj = multiscale_close_pairs(mids, half, margin)
        assert ii.dtype == jj.dtype == np.int64
        assert (ii < jj).all()
        key = ii * max(len(mids), 1) + jj
        assert (np.diff(key) > 0).all()  # sorted by (ii, jj), no duplicates
        bi, bj = np.triu_indices(len(mids), k=1)
        dist = np.sqrt(((mids[bi] - mids[bj]) ** 2).sum(-1))
        close = dist <= half[bi] + half[bj] + margin
        want = set(zip(bi[close].tolist(), bj[close].tolist()))
        assert want <= set(zip(ii.tolist(), jj.tolist()))
