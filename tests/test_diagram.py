import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotiso import diagram
from knotiso.diagram import count_crossings, find_crossings, render_svg
from knotiso.engine import glue_schedule, map_curve
from knotiso.geometry import Box, PLCurve, Point3


def _poly(rows, closed=False) -> PLCurve:
    return PLCurve(tuple(Point3(*r) for r in rows), closed=closed)


class TestFindCrossings:
    def test_no_crossings_on_flat_ring(self):
        t = np.linspace(0, 2 * np.pi, 64, endpoint=False)
        ring = _poly([(math.cos(x), math.sin(x), 0.0) for x in t], closed=True)
        assert find_crossings(ring) == []

    def test_single_overpass(self):
        c = _poly([(-1, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 1), (0, -1, 1)])
        cs = find_crossings(c)
        assert len(cs) == 1
        (x,) = cs
        assert x.z_over == pytest.approx(1.0)
        assert x.z_under == pytest.approx(0.0)
        assert x.xy == pytest.approx((0.0, 0.0))
        assert x.seg_over == 3 and x.seg_under == 0

    def test_adjacent_segments_not_counted(self):
        c = _poly([(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)], closed=True)
        assert find_crossings(c) == []

    def test_tangent_strands_resolved_by_perturbation(self):
        # two strands touching in projection but separated in z would be
        # degenerate; crossing exactly over a vertex triggers the fallback
        c = _poly([(-1, 0, 0), (0, 0, 0), (1, 0, 0), (1, 1, 1), (0, 1, 1), (0, -1, 1)])
        cs = find_crossings(c)
        assert len(cs) == 1

    def test_true_intersection_in_3_space_raises(self):
        c = _poly([(-1, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0), (0, -1, 0)])
        with pytest.raises(ValueError):
            find_crossings(c)

    def test_closed_wraparound_pair_excluded(self):
        t = np.linspace(0, 2 * np.pi, 17, endpoint=False)
        ring = _poly([(math.cos(x), math.sin(x), 0.0) for x in t], closed=True)
        assert count_crossings(ring) == 0


class TestCandidatePruning:
    def test_large_multiscale_curve_matches_brute_force(self):
        # crossing pattern repeated at shrinking scales; > 1200 segments
        # forces the KD-tree path, compare against the O(n^2) brute count
        rows = []
        x0 = 0.0
        for k in range(6):
            s = 2.0**-k
            rows += [
                (x0, 0.0, 0.0),
                (x0 + 0.4 * s, 0.0, 0.0),
                (x0 + 0.4 * s, 0.3 * s, 0.0),
                (x0 + 0.2 * s, 0.3 * s, 0.1 * s),
                (x0 + 0.2 * s, -0.3 * s, 0.1 * s),
                (x0 + 0.6 * s, -0.3 * s, 0.0),
            ]
            x0 += 0.7 * s
        rows.append((x0 + 0.5, 0.0, 0.0))
        curve = _poly(rows)
        dense = curve.densified(0.002)
        assert dense.n_segments > 1200
        sparse_count = count_crossings(curve)  # brute-force path
        dense_count = count_crossings(dense)  # pruned path
        assert sparse_count == dense_count == 6

    def test_region_restriction(self):
        rows = []
        x0 = 0.0
        for k in range(3):
            rows += [
                (x0, 0.0, 0.0),
                (x0 + 0.4, 0.0, 0.0),
                (x0 + 0.4, 0.3, 0.0),
                (x0 + 0.2, 0.3, 0.1),
                (x0 + 0.2, -0.3, 0.1),
                (x0 + 0.6, -0.3, 0.0),
            ]
            x0 += 0.7
        curve = _poly(rows)
        total = count_crossings(curve)
        first = count_crossings(curve, Box(Point3(0, -1, -1), Point3(0.65, 1, 1)))
        assert total == 3
        assert first == 1


class TestRenderSvg:
    def test_well_formed_and_gapped(self):
        c = _poly([(-1, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 1), (0, -1, 1)])
        svg = render_svg(c)
        assert svg.startswith("<svg")
        assert svg.rstrip().endswith("</svg>")
        # the under strand is split by the gap: more line elements than segments
        assert svg.count("<line") == c.n_segments + 1

    def test_no_crossings_no_gaps(self):
        c = _poly([(0, 0, 0), (1, 0, 0), (1, 1, 0)])
        svg = render_svg(c)
        assert svg.count("<line") == c.n_segments


def _multiscale_rows(levels: int):
    """One overpass per level at scales 1, 1/2, 1/4, ... along the x-axis."""
    rows = []
    x0 = 0.0
    for k in range(levels):
        s = 2.0**-k
        rows += [
            (x0, 0.0, 0.0),
            (x0 + 0.4 * s, 0.0, 0.0),
            (x0 + 0.4 * s, 0.3 * s, 0.0),
            (x0 + 0.2 * s, 0.3 * s, 0.1 * s),
            (x0 + 0.2 * s, -0.3 * s, 0.1 * s),
            (x0 + 0.6 * s, -0.3 * s, 0.0),
        ]
        x0 += 0.7 * s
    rows.append((x0 + 0.5, 0.0, 0.0))
    return rows


def _segments(curve):
    a, b = curve.segment_arrays()
    return a, b, curve.closed


class TestChunkedCrossingTest:
    """_find_crossings tests candidates in chunks of _PAIR_CHUNK pairs; the
    result must not depend on the chunk size."""

    @pytest.mark.parametrize(
        "curve",
        [
            _poly(_multiscale_rows(6)).densified(0.002),  # > 1200 segments: KD path
            _poly(_multiscale_rows(3)),
            # grazing at a vertex: the unperturbed view gives None, also
            # when the grazing pair comes after the first chunks
            _poly([(-1, 0, 0), (0, 0, 0), (1, 0, 0), (1, 1, 1), (0, 1, 1), (0, -1, 1)]),
            _poly(
                [(-2.0 - 0.1 * k, -3.0, 0.0) for k in range(12, 0, -1)]
                + [(-1, 0, 0), (0, 0, 0), (1, 0, 0), (1, 1, 1), (0, 1, 1), (0, -1, 1)]
            ),
            # strands meeting in 3-space at a crossing: None as well
            _poly([(-1, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0), (0, -1, 0)]),
        ],
    )
    def test_chunk_of_seven_agrees(self, curve):
        whole = diagram._find_crossings(*_segments(curve))
        with mock.patch.object(diagram, "_PAIR_CHUNK", 7):
            chunked = diagram._find_crossings(*_segments(curve))
        assert chunked == whole

    @given(st.integers(0, 2**32 - 1), st.integers(4, 40), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_random_polylines(self, seed, n, closed):
        rows = np.random.default_rng(seed).uniform(-1.0, 1.0, (n, 3))
        curve = PLCurve(rows, closed=closed)
        whole = diagram._find_crossings(*_segments(curve))
        with mock.patch.object(diagram, "_PAIR_CHUNK", 7):
            chunked = diagram._find_crossings(*_segments(curve))
        assert chunked == whole


def _kd_and_all_pairs(a, b, closed):
    """_find_crossings through the spatial candidate search and through
    every non-adjacent pair."""
    with mock.patch.object(diagram, "ALL_PAIRS_MAX_SEGMENTS", 0):
        kd = diagram._find_crossings(a, b, closed)
    with mock.patch.object(diagram, "ALL_PAIRS_MAX_SEGMENTS", 10**9):
        every = diagram._find_crossings(a, b, closed)
    return kd, every


def _multiscale_walk(rng, n: int) -> np.ndarray:
    """A random walk whose steps range over 30 binary orders of magnitude,
    starting at a random offset from the origin."""
    steps = rng.normal(size=(n, 3)) * (2.0 ** -rng.integers(0, 30, n))[:, None]
    start = rng.choice([0.0, 2.0, 100.0]) * rng.normal(size=3)
    return start + np.cumsum(steps, axis=0)


class TestLengthRelativeCandidates:
    """The spatial candidate search sizes its radius from the segments' own
    lengths; it must keep every pair the all-pairs test would flag."""

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(4, 120),
        st.booleans(),
        st.integers(0, 60),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_all_pairs_at_every_scale(self, seed, n, closed, j):
        curve = PLCurve(_multiscale_walk(np.random.default_rng(seed), n), closed=closed)
        for pts in (curve.points, curve.points * 2.0**-j):
            shrunk = PLCurve(pts, closed=closed)
            kd, every = _kd_and_all_pairs(*_segments(shrunk))
            assert kd == every

    @pytest.mark.parametrize("j", [0, 20, 60])
    def test_multiscale_overpasses_under_homothety(self, j):
        curve = _poly(_multiscale_rows(6)).densified(0.002)
        a, b, closed = _segments(curve)
        lam = 2.0**-j
        kd, every = _kd_and_all_pairs(a * lam, b * lam, closed)
        assert kd == every

    @pytest.mark.parametrize("x0", [0.0, 2.0, 8.0])
    def test_grazing_pairs_far_from_origin_are_kept(self, x0):
        # two nearly collinear segments meeting end to start, far shorter
        # than their distance to the origin and just short of a power of 2
        # in length: the midpoints' roundoff is what separates them, so a
        # purely length-relative radius drops some of these grazing pairs
        rng = np.random.default_rng(7)
        length = 2.0**-45 * 1.999995
        up = np.array([0.0, 0.0, 1.0])
        grazing = 0
        for _ in range(300):
            th = rng.uniform(0.0, 2.0 * np.pi)
            d0 = np.array([np.cos(th), np.sin(th), 0.0]) * length
            d1 = np.array([np.cos(th + 1e-4), np.sin(th + 1e-4), 0.0]) * length
            p = np.array([x0 + rng.uniform(-1e-3, 1e-3), rng.uniform(-1e-3, 1e-3), 0.0])
            a = np.array([p - d0, [x0 + 10.0, 10.0, 0.0], p + up])
            b = np.array([p, [x0 + 11.0, 10.0, 0.0], p + d1 + up])
            kd, every = _kd_and_all_pairs(a, b, False)
            assert kd == every
            grazing += every is None
        assert grazing > 250

    def test_fox_limit_frame_has_few_candidates(self, scenarios):
        # the depth-20 frame at t = 1: segments near the wild point are far
        # shorter than any absolute pad (1,012,165 pairs with a 1e-9 pad)
        s = scenarios["fox_remarkable"]
        glued = glue_schedule(s.moves, 20)
        frame = map_curve(glued.map_at(1.0), s.initial_curve.densified(0.01))
        a, b = frame.segment_arrays()
        assert len(a) > diagram.ALL_PAIRS_MAX_SEGMENTS
        ii, _ = diagram._candidate_pairs(a, b)
        assert len(ii) < 5000
