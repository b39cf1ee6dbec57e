import math
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from knotiso import diagram
from knotiso.diagram import find_crossings, render_svg
from knotiso.engine import glue_schedule, map_curve
from knotiso.geometry import _TEXT_BLOCK, Box, PLCurve, curve_texts, multiscale_close_pairs, write_curve

from oracles import count_crossings, drawn_pieces_by_splitting


def _poly(rows, closed=False) -> PLCurve:
    return PLCurve(np.array(rows, dtype=float), closed=closed)


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
        # crossing pattern repeated at shrinking scales, densified to over
        # 1200 segments; compare against the O(n^2) brute-force candidates
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
        assert len(dense.segment_arrays()[0]) > 1200
        sparse_count = count_crossings(curve)
        dense_count = count_crossings(dense)
        with mock.patch.object(diagram, "_candidate_pairs", _all_pairs):
            brute_count = count_crossings(dense)
        assert sparse_count == dense_count == brute_count == 6

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
        first = count_crossings(curve, Box((0, -1, -1), (0.65, 1, 1)))
        assert total == 3
        assert first == 1


_SVG = "{http://www.w3.org/2000/svg}"


def _polylines(svg: str) -> list[list[tuple[str, str]]]:
    """The points of each ``<polyline>`` of a drawing, as (x, y) texts,
    read with ElementTree: one group that flips y and holds nothing but
    polylines of two points or more."""
    root = ET.fromstring(svg)
    assert root.tag == _SVG + "svg"
    (group,) = root
    assert group.tag == _SVG + "g" and group.get("transform") == "scale(1 -1)"
    assert group.get("stroke-linecap") == group.get("stroke-linejoin") == "round"
    runs = []
    for line in group:
        assert line.tag == _SVG + "polyline" and not list(line)
        run = [tuple(point.split(",")) for point in line.get("points").split(" ")]
        assert len(run) >= 2 and all(len(point) == 2 for point in run)
        runs.append(run)
    return runs


def _drawn_pairs(svg: str) -> list[tuple[str, ...]]:
    """A drawing's polylines read as consecutive point pairs, in order:
    (x0, y0, x1, y1) texts, one per drawn piece."""
    return [p + q for run in _polylines(svg) for p, q in zip(run, run[1:])]


class TestRenderSvg:
    def test_well_formed_and_gapped(self):
        c = _poly([(-1, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 1), (0, -1, 1)])
        svg = render_svg(c)
        assert svg.startswith("<svg")
        assert svg.rstrip().endswith("</svg>")
        # the gap splits the under strand into two pieces and the drawing
        # into two runs: one more piece than segments, each vertex once
        runs = _polylines(svg)
        assert [len(run) for run in runs] == [2, 5]
        assert len(_drawn_pairs(svg)) == len(c.segment_arrays()[0]) + 1

    def test_no_crossings_no_gaps(self):
        c = _poly([(0, 0, 0), (1, 0, 0), (1, 1, 0)])
        svg = render_svg(c)
        assert svg.count("<polyline") == 1
        assert _polylines(svg) == [[("0", "0"), ("1", "0"), ("1", "1")]]


# gap ends drawn from a few shared values, so gaps often touch, nest or
# repeat, and from anywhere in [0, 1]
_gap_ends = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]) | st.floats(0.0, 1.0)
_gaps = st.lists(st.tuples(_gap_ends, _gap_ends).map(sorted).map(tuple), max_size=8)


class TestDrawnPieces:
    """_drawn_pieces cuts the gaps in one sweep with a running end; the
    oracle splits every piece gap by gap."""

    @given(_gaps)
    @example([(0.4, 0.6), (0.2, 0.5)])  # overlapping, unsorted
    @example([(0.2, 0.8), (0.3, 0.4)])  # nested
    @example([(0.2, 0.3), (0.3, 0.4)])  # touching
    @example([(0.5, 0.5), (0.0, 0.0), (1.0, 1.0)])  # zero width, at 0 and 1
    @example([(0.0, 0.2), (0.9, 1.0)])  # at 0 and 1
    @example([(0.3, 0.6), (0.3, 0.6), (0.5, 0.5)])  # repeated
    @example([(0.1, 0.9), (0.2, 0.3), (0.5, 0.6)])  # nested after a wide gap
    @example([])
    @settings(max_examples=400, deadline=None)
    def test_matches_splitting_gap_by_gap(self, gaps):
        assert diagram._drawn_pieces(gaps) == drawn_pieces_by_splitting(gaps)


def _pieces(curve: PLCurve, gap_radius: float) -> list[tuple[int, float, float]]:
    """(segment, lo, hi) of each drawn piece a + [lo, hi] (b - a), in
    segment order: a gap of gap_radius either side of each crossing is
    cut from its under segment."""
    a, b = curve.segment_arrays()
    gaps: dict[int, list[tuple[float, float]]] = {}
    for c in find_crossings(curve):
        i = c.seg_under
        seg_a, seg_b = a[i, :2], b[i, :2]
        d = seg_b - seg_a
        length = float(np.linalg.norm(d))
        if length == 0:
            continue
        t0 = float((np.array(c.xy) - seg_a) @ d) / (length * length)
        dt = gap_radius / length
        gaps.setdefault(i, []).append((max(0.0, t0 - dt), min(1.0, t0 + dt)))
    return [
        (i, lo, hi)
        for i in range(len(a))
        for lo, hi in (drawn_pieces_by_splitting(gaps[i]) if i in gaps else [(0.0, 1.0)])
    ]


def _render_svg_per_piece(curve: PLCurve, gap_radius: float) -> str:
    """render_svg one piece at a time, every end printed with %.17g from
    its float: the vertex where the piece reaches its segment's start or
    end, a + t (b - a) at a gap cut.  A piece that starts at its segment's
    start, right after a piece that reached the segment before's end,
    continues that piece's polyline."""
    pts = curve.points
    a, b = curve.segment_arrays()
    runs: list[list[str]] = []
    last = None
    for i, lo, hi in _pieces(curve, gap_radius):
        sa, sd = a[i, :2], b[i, :2] - a[i, :2]
        x0 = a[i, :2] if lo == 0.0 else sa + lo * sd
        x1 = b[i, :2] if hi == 1.0 else sa + hi * sd
        end = "%.17g,%.17g" % tuple(x1)
        if last is not None and last[1] == 1.0 and last[0] + 1 == i and lo == 0.0:
            runs[-1].append(end)
        else:
            runs.append(["%.17g,%.17g" % tuple(x0), end])
        last = (i, hi)
    lo_xy = pts[:, :2].min(axis=0)
    hi_xy = pts[:, :2].max(axis=0)
    pad = 0.05 * max(1e-9, float((hi_xy - lo_xy).max()))
    vb = (
        f"{lo_xy[0] - pad:.17g} {-(hi_xy[1] + pad):.17g} "
        f"{hi_xy[0] - lo_xy[0] + 2 * pad:.17g} {hi_xy[1] - lo_xy[1] + 2 * pad:.17g}"
    )
    body = "".join(f'<polyline points="{" ".join(run)}" />\n' for run in runs)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{vb}">\n'
        '<g transform="scale(1 -1)" stroke="black" stroke-width="0.01" fill="none" '
        'stroke-linecap="round" stroke-linejoin="round">\n'
        f"{body}</g>\n</svg>\n"
    )


def _assert_the_former_lines(curve: PLCurve, gap_radius: float, svg: str) -> None:
    """The drawing's point pairs against the former drawing, one <line>
    per piece from a + lo (b - a) to a + hi (b - a): bitwise at gap cuts,
    and within one ulp of the segment's larger coordinate at its ends,
    where a + 1 (b - a) may round off b."""
    a, b = curve.segment_arrays()
    seg, lo, hi = np.array(_pieces(curve, gap_radius)).reshape(-1, 3).T
    seg = seg.astype(np.int64)
    sa, sd = a[seg, :2], b[seg, :2] - a[seg, :2]
    old = np.column_stack([sa + lo[:, None] * sd, sa + hi[:, None] * sd])
    got = np.array(_drawn_pairs(svg), dtype=float).reshape(-1, 4)
    assert got.shape == old.shape
    cut = np.column_stack([lo != 0.0, lo != 0.0, hi != 1.0, hi != 1.0])
    assert np.array_equal(got[cut].view(np.int64), old[cut].view(np.int64))
    ulp = np.spacing(np.maximum(np.abs(a[seg, :2]), np.abs(b[seg, :2])))
    assert (np.abs(got - old) <= np.tile(ulp, 2)).all()


@st.composite
def _drawable_curves(draw):
    """Random polylines at one scale between 1e-12 and 1e3, with about a
    fifth of their coordinates set to +0.0 or -0.0 and a run of vertices
    on y = 0, and a gap radius relative to the scale."""
    n = draw(st.integers(5, 30))
    closed = draw(st.booleans())
    scale = 10.0 ** draw(st.integers(-12, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = rng.uniform(-1.0, 1.0, (n, 3)) * scale
    zero = rng.random((n, 3)) < 0.2
    pts[zero] = np.where(rng.random(zero.sum()) < 0.5, 0.0, -0.0)
    start = int(rng.integers(0, n - 2))
    run = slice(start, start + int(rng.integers(2, 5)))
    pts[run, 1] = np.where(rng.random(len(pts[run])) < 0.5, 0.0, -0.0)
    gap = scale * draw(st.sampled_from([1e-3, 0.05, 0.3]))
    return pts, closed, gap


class TestSvgDigitsFromCurveText:
    """render_svg prints every vertex as its row of the curve's point text
    (``curve_texts``), made from the cells its curve file is printed
    from, whole or spliced into the text of a curve before, and only the
    gap cuts itself; the drawing must be the one that printing every
    piece's ends with %.17g gives, and draw the pieces the former
    one-<line>-per-piece drawing drew."""

    @given(_drawable_curves(), st.sampled_from(("whole", "spliced")))
    @settings(max_examples=150, deadline=None)
    def test_matches_per_end_formatting(self, drawn, text):
        pts, closed, gap = drawn
        try:
            curve = PLCurve(pts, closed=closed)
            assume(len(find_crossings(curve)) > 0)
        except ValueError:  # repeated vertices, or a degenerate projection
            assume(False)
        want = _render_svg_per_piece(curve, gap)
        points = None
        if text == "spliced":
            # every other vertex moved since the curve before
            before = PLCurve(pts + np.arange(len(pts))[:, None] % 2, closed=closed)
            points = curve_texts(curve, before, curve_texts(before))[1]
        svg = render_svg(curve, gap, None, points)
        assert svg == want
        _assert_the_former_lines(curve, gap, svg)

    # a closed curve whose last run wraps to vertex 0; an under segment
    # with two gaps, whose middle piece is cut at both ends; and a run of
    # one whole segment, between two gaps that reach its ends
    @pytest.mark.parametrize(
        "rows,closed,runs",
        [
            (
                [(0, 0, 0), (2, 0, 0), (2, 2, 0), (1, 2, 1), (1, -1, 1), (-1, -1, 0)],
                True,
                [["0,0", "0.995,0"], ["1.0049999999999999,0", "2,0", "2,2", "1,2", "1,-1", "-1,-1", "0,0"]],
            ),
            (
                [(0, 0, 0), (4, 0, 0), (3, 2, 1), (3, -1, 1), (1, -1, 1), (1, 2, 1)],
                False,
                [["0,0", "0.995,0"], ["1.0049999999999999,0", "2.9950000000000001,0"],
                 ["3.0049999999999999,0", "4,0", "3,2", "3,-1", "1,-1", "1,2"]],
            ),
            (
                [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0), (0.998, 2, 1), (0.998, -1, 1)],
                False,
                [["0,0", "0.99299999999999988,0"], ["1,0", "1,1"],
                 ["0.99299999999999999,1", "0,1", "0.998,2", "0.998,-1"]],
            ),
        ],
        ids=["wraps to vertex 0", "two gaps", "one whole segment"],
    )
    def test_runs_from_a_spliced_point_text(self, rows, closed, runs):
        curve = _poly(rows, closed)
        # the curve before differs in every vertex but the second and the
        # sixth
        before = _poly(np.array(rows) + (np.arange(len(rows)) % 4 != 1)[:, None] * 0.25, closed)
        points = curve_texts(curve, before, curve_texts(before))[1]
        svg = render_svg(curve, 0.005, None, points)
        assert svg == _render_svg_per_piece(curve, 0.005)
        assert [[",".join(p) for p in run] for run in _polylines(svg)] == runs
        _assert_the_former_lines(curve, 0.005, svg)

    def test_signed_zeros_and_gap_cuts(self):
        # vertex (-0.0, -0.0) is printed as the curve prints it; the former
        # drawing printed that end as a + 0 * (b - a) = (+0.0, +0.0) with y
        # negated, "0" and "-0".  The under strand is cut at the crossing.
        c = _poly([(-0.0, -0.0, 0.0), (1.0, 0.0, 0.0), (1.0, 1.0, 0.0), (0.5, 1.0, 1.0), (0.5, -1.0, 1.0)])
        svg = render_svg(c)
        assert svg == _render_svg_per_piece(c, 0.005)
        assert '<polyline points="-0,-0 0.495' in svg
        assert _drawn_pairs(svg)[0][:2] == ("-0", "-0")
        _assert_the_former_lines(c, 0.005, svg)

    @pytest.mark.parametrize("name", ["countable_r1", "recursive_r1", "trefoil_chain", "fox_remarkable"])
    def test_film_frames_parse_and_draw_the_former_pieces(self, scenarios, name):
        s = scenarios[name]
        glued = glue_schedule(s.moves, 20)
        dense = s.initial_curve.densified(0.01)
        for t in (0.0, 0.8, 1.0):
            frame = map_curve(glued.map_at(t), dense)
            svg = render_svg(frame, gap_radius=0.005)
            assert svg == _render_svg_per_piece(frame, 0.005)
            # read back with ElementTree, against the former drawing
            _assert_the_former_lines(frame, 0.005, svg)

    @given(_drawable_curves())
    @settings(max_examples=60, deadline=None)
    def test_curve_file_body_is_the_decimal_text(self, drawn):
        pts, closed, _ = drawn
        try:
            curve = PLCurve(pts, closed=closed)
        except ValueError:
            assume(False)
        kind = "closed" if closed else "open"
        want = f"{kind} {len(pts)}\n" + "%.17g %.17g %.17g\n" * len(pts) % tuple(pts.ravel().tolist())
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "c.curve"
            write_curve(curve, path)
            assert path.read_bytes() == want.encode()

    @pytest.mark.parametrize("n", [_TEXT_BLOCK - 1, _TEXT_BLOCK, _TEXT_BLOCK + 1, 2 * _TEXT_BLOCK + 1])
    def test_curve_file_across_text_blocks(self, tmp_path, n):
        # every cell width from "0" to the 24 bytes of -1.2345678901234567e-308
        rng = np.random.default_rng(n)
        pts = rng.uniform(-1.0, 1.0, (n, 3)) * 10.0 ** rng.integers(-310, 300, (n, 3))
        pts[rng.random((n, 3)) < 0.1] = -0.0
        pts[0] = (-1.2345678901234567e-308, 0.0, 1.0)
        pts[-1] = (1e22, -1.5, 2.0)
        path = tmp_path / "c.curve"
        write_curve(PLCurve(pts), path)
        want = f"open {n}\n" + "%.17g %.17g %.17g\n" * n % tuple(pts.ravel().tolist())
        assert path.read_bytes() == want.encode()
        # a film's whole file text, as a frame writes it, is the same file
        assert curve_texts(PLCurve(pts))[0].text == path.read_bytes()

    def test_polyline_longer_than_a_text_block(self):
        curve = _poly([(-1, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 1), (0, -1, 1)]).densified(0.001)
        svg = render_svg(curve)
        assert max(len(run) for run in _polylines(svg)) > 2 * _TEXT_BLOCK
        assert svg == _render_svg_per_piece(curve, 0.005)


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


def _view_crossings(a, b, closed):
    """The crossings of the view of the segments a -> b, or None where it
    is degenerate."""
    return diagram._search(a, b, closed).crossings


class TestChunkedCrossingTest:
    """_crossing_test tests candidates in chunks of _PAIR_CHUNK pairs; the
    result must not depend on the chunk size."""

    @pytest.mark.parametrize(
        "curve",
        [
            _poly(_multiscale_rows(6)).densified(0.002),  # over 1200 segments
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
        whole = _view_crossings(*_segments(curve))
        with mock.patch.object(diagram, "_PAIR_CHUNK", 7):
            chunked = _view_crossings(*_segments(curve))
        assert chunked == whole

    @given(st.integers(0, 2**32 - 1), st.integers(4, 40), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_random_polylines(self, seed, n, closed):
        rows = np.random.default_rng(seed).uniform(-1.0, 1.0, (n, 3))
        curve = PLCurve(rows, closed=closed)
        whole = _view_crossings(*_segments(curve))
        with mock.patch.object(diagram, "_PAIR_CHUNK", 7):
            chunked = _view_crossings(*_segments(curve))
        assert chunked == whole


def _all_pairs(mids, half, pad, closed, hot=None):
    """Brute-force candidates: every pair of segments that share no vertex,
    given a mask hot of segments only those with a hot segment."""
    n = len(half)
    ii, jj = np.triu_indices(n, k=2)
    keep = ~(closed & (ii == 0) & (jj == n - 1))
    if hot is not None:
        keep &= hot[ii] | hot[jj]
    return ii[keep], jj[keep]


def _searched_and_all_pairs(a, b, closed):
    """A view's crossings through the multiscale candidate search and through
    the brute-force candidates."""
    searched = _view_crossings(a, b, closed)
    with mock.patch.object(diagram, "_candidate_pairs", _all_pairs):
        every = _view_crossings(a, b, closed)
    return searched, every


def _multiscale_walk(rng, n: int) -> np.ndarray:
    """A random walk whose steps range over 30 binary orders of magnitude,
    starting at a random offset from the origin."""
    steps = rng.normal(size=(n, 3)) * (2.0 ** -rng.integers(0, 30, n))[:, None]
    start = rng.choice([0.0, 2.0, 100.0]) * rng.normal(size=3)
    return start + np.cumsum(steps, axis=0)


class TestLengthRelativeCandidates:
    """The spatial candidate search sizes its radius from the segments' own
    lengths; it must keep every pair the brute-force candidates would flag."""

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
            searched, every = _searched_and_all_pairs(*_segments(shrunk))
            assert searched == every

    @pytest.mark.parametrize("j", [0, 20, 60])
    def test_multiscale_overpasses_under_homothety(self, j):
        curve = _poly(_multiscale_rows(6)).densified(0.002)
        a, b, closed = _segments(curve)
        lam = 2.0**-j
        searched, every = _searched_and_all_pairs(a * lam, b * lam, closed)
        assert searched == every

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
            searched, every = _searched_and_all_pairs(a, b, False)
            assert searched == every
            grazing += every is None
        assert grazing > 250

    def test_fox_limit_frame_has_few_candidates(self, scenarios):
        # the depth-20 frame at t = 1: segments near the stitch point are far
        # shorter than any absolute pad (1,012,165 pairs with a 1e-9 pad)
        s = scenarios["fox_remarkable"]
        glued = glue_schedule(s.moves, 20)
        frame = map_curve(glued.map_at(1.0), s.initial_curve.densified(0.01))
        a, b = frame.segment_arrays()
        ii, _ = diagram._candidate_pairs(*diagram._extents(a, b), frame.closed)
        assert len(ii) < 5000


def _crossings_or_degenerate(curve: PLCurve, search=None):
    try:
        return find_crossings(curve, search)
    except ValueError:
        return "degenerate"


def _assert_same_search(got, want) -> None:
    """Two xy searches, bitwise, degenerate or not."""
    assert got.pad == want.pad
    assert (got.hits is None) == (want.hits is None)
    if want.hits is not None:
        for name in ("hits", "t", "u"):
            g, w = getattr(got, name), getattr(want, name)
            assert g.dtype.itemsize == w.dtype.itemsize == 8
            np.testing.assert_array_equal(g.view(np.int64), w.view(np.int64))


def _assert_reuse_is_cold(base: PLCurve, old, rows: np.ndarray):
    """The xy search of the curve through rows given base, a curve drawn
    before it, and old, base's xy search, is the cold search bitwise, so
    the next curve searched against it reads the right one; and
    find_crossings given it equals the cold search's and the ``_all_pairs``
    oracle's, degenerate or not.  Returns that curve, its search and
    whether the search read old."""
    walks = []

    def spied(mids, half, margin, hot=None):
        walks.append(hot is not None)
        return multiscale_close_pairs(mids, half, margin, hot)

    image = PLCurve(rows, closed=base.closed)
    with mock.patch.object(diagram, "multiscale_close_pairs", spied):
        search = diagram.xy_search(image, base, old)
    got = _crossings_or_degenerate(image, search)
    cold = PLCurve(rows, closed=base.closed)
    want = _crossings_or_degenerate(cold)
    with mock.patch.object(diagram, "_candidate_pairs", _all_pairs):
        every = _crossings_or_degenerate(PLCurve(rows, closed=base.closed))
    assert got == want == every
    _assert_same_search(search, diagram.xy_search(cold))
    return image, search, walks[:1] == [True]


_EDITS = ("none", "few", "y only", "z only", "all", "farthest")


def _edited(rows: np.ndarray, edit: str, rng: np.random.Generator) -> np.ndarray:
    """rows with no vertex moved, a few moved, a few moved in y or in z
    alone, every vertex moved, or the vertex farthest from the z axis
    carried four times as far out, which changes the pad."""
    rows = rows.copy()
    n = len(rows)
    if edit in ("few", "y only", "z only"):
        at = rng.choice(n, min(n, 3), replace=False)
        noise = rng.normal(size=(len(at), 3)) * 2.0 ** -rng.integers(0, 30, (len(at), 1))
        if edit != "few":
            noise *= np.array([0.0, 1.0, 0.0] if edit == "y only" else [0.0, 0.0, 1.0])
        rows[at] += noise
    elif edit == "all":
        rows += rng.normal(size=rows.shape) * 2.0 ** -rng.integers(0, 30, (n, 1))
    elif edit == "farthest":
        rows[np.abs(rows[:, :2]).max(axis=1).argmax(), :2] *= 4.0
    return rows


class TestCrossingReuse:
    """A curve searched against the curve drawn before it and that one's
    xy search walks only the pairs with a segment whose xy ends moved and
    reads the rest off that search: the crossings, and the search the
    film keeps in turn, are the cold search's whatever moved."""

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(4, 80),
        st.booleans(),
        st.sampled_from(_EDITS),
        st.sampled_from(_EDITS),
    )
    @settings(max_examples=120, deadline=None)
    def test_random_walks_and_edits(self, seed, n, closed, edit, again):
        rng = np.random.default_rng(seed)
        base = PLCurve(_multiscale_walk(rng, n), closed=closed)
        old = diagram.xy_search(base)
        image, search, reused = _assert_reuse_is_cold(base, old, _edited(base.points, edit, rng))
        same_pad = old.pad == search.pad
        assert reused == (old.hits is not None and same_pad)
        if edit == "farthest":
            assume(not same_pad)
        # and a curve searched against that one
        _assert_reuse_is_cold(image, search, _edited(image.points, again, rng))

    @given(st.integers(0, 2**32 - 1), st.integers(4, 80), st.booleans(), st.sampled_from(_EDITS))
    @settings(max_examples=60, deadline=None)
    def test_reused_searches_match_the_all_pairs_oracle(self, seed, n, closed, edit):
        # the walk of the hot pairs goes through ``_candidate_pairs`` too,
        # so the brute-force candidates stand in for it there as well
        rng = np.random.default_rng(seed)
        last = PLCurve(_multiscale_walk(rng, n), closed=closed)
        old = diagram.xy_search(last)
        frame = PLCurve(_edited(last.points, edit, rng), closed=closed)
        searched = diagram.xy_search(frame, last, old)
        walks = []

        def every_pair(mids, half, pad, closed, hot=None):
            walks.append(hot is not None)
            return _all_pairs(mids, half, pad, closed, hot)

        with mock.patch.object(diagram, "_candidate_pairs", every_pair):
            every = diagram.xy_search(frame, last, old)
        _assert_same_search(searched, every)
        assert walks == [old.hits is not None and old.pad == searched.pad]

    @pytest.mark.parametrize("closed", [False, True])
    def test_an_unmoved_curve_walks_no_pair(self, closed):
        rows = _multiscale_walk(np.random.default_rng(6), 60)
        base = PLCurve(rows, closed=closed)
        old = diagram.xy_search(base)
        assert old.hits is not None and len(old.hits) > 10
        image = PLCurve(rows.copy(), closed=closed)
        with mock.patch.object(diagram, "_crossing_test", wraps=diagram._crossing_test) as tested:
            search = diagram.xy_search(image, base, old)
        assert len(tested.call_args_list[0].args[2]) == 0
        assert find_crossings(image, search) == find_crossings(PLCurve(rows, closed=closed))

    _GRAZING = [(-1, 0, 0), (0, 0, 0), (1, 0, 0), (1, 1, 1), (0, 1, 1), (0, -1, 1)]
    _CLEAR = [(-1, 0, 0), (0, 0, 0), (1, 0, 0), (1, 1, 1), (0, 1, 1), (0.3, -1, 1)]

    @pytest.mark.parametrize(
        "base_rows, rows",
        [
            # a base degenerate in the xy view, then a clear image
            (_GRAZING, _CLEAR),
            # a clear base, then an image grazing a vertex in xy
            (_CLEAR, _GRAZING),
            # a clear base whose over strand drops in z alone onto the
            # under strand: the xy search is read off the base, and the
            # strands touch in 3-space
            (
                [(-1, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 1), (0, -1, 1)],
                [(-1, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0), (0, -1, 0)],
            ),
        ],
    )
    def test_degenerate_bases_and_images(self, base_rows, rows):
        for closed in (False, True):
            base = _poly(base_rows, closed)
            _assert_reuse_is_cold(base, diagram.xy_search(base), np.array(rows, dtype=float))


# the gadget's middle vertex V, in units of its scale h about its center:
# clear of the segment s along x through the center, on s but 2^-14 h
# above it, crossing s at its height, or on s and h above it
_PLANTS = {
    "clear": (0.5, -0.5, 1.0),
    "grazing": (0.0, 0.0, 2.0**-14),
    "touching": (0.5, -0.5, 0.0),
    "resolved": (0.0, 0.0, 1.0),
}


def _planted(rng, n: int, plant: str) -> np.ndarray:
    """A multiscale walk of n vertices, then a gadget at one of its
    vertices, exact on a grid of its scale h, no finer than 2^-16 of the
    walk's coordinates: the segment s along x, then a strand through V,
    which lies at the height of V."""
    walk = _multiscale_walk(rng, n)
    c = walk[rng.integers(n)]
    h = 2.0 ** (math.floor(math.log2(max(float(np.abs(c).max()), 1.0))) - int(rng.integers(0, 17)))
    vx, vy, vz = _PLANTS[plant]
    gadget = [(-1, 0, 0), (1, 0, 0), (1, 2, vz), (0, 1, vz), (vx, vy, vz), (0, -1, vz)]
    return np.concatenate([walk, np.round(c / h) * h + h * np.array(gadget, dtype=float)])


class TestWitness:
    """A degenerate view's witness, the pairs that made it so, settles the
    next view where one of them is still degenerate, and the next is
    searched whole where none is: a vertex of one strand 2^-14 of the
    gadget's scale above the other, or two strands crossing at one
    height, stay degenerate after the 1e-7 rad turns, and a vertex a
    whole scale above the other strand does not."""

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(4, 80),
        st.booleans(),
        st.sampled_from(("grazing", "touching", "resolved")),
    )
    @settings(max_examples=60, deadline=None)
    def test_planted_views_match_the_all_pairs_oracle(self, seed, n, closed, plant):
        rng = np.random.default_rng(seed)
        base = PLCurve(_planted(rng, n, "clear"), closed=closed)
        rows = _planted(np.random.default_rng(seed), n, plant)
        old = diagram.xy_search(base)
        # a walk degenerate on its own, at a step far shorter than the
        # segment that closes it, is no planted case
        assume(old.crossings is not None)
        walks = []

        def spied(mids, half, margin, hot=None):
            walks.append(hot is not None)
            return multiscale_close_pairs(mids, half, margin, hot)

        with mock.patch.object(diagram, "_candidate_pairs", _all_pairs):
            every = _crossings_or_degenerate(PLCurve(rows, closed=closed))
        assert (every == "degenerate") == (plant != "resolved")
        # each view searched whole: the xy view, then a turned view only
        # where the xy view's witness is not degenerate in it
        searched = 1 if plant != "resolved" else 2
        with mock.patch.object(diagram, "multiscale_close_pairs", spied):
            cold = _crossings_or_degenerate(PLCurve(rows, closed=closed))
        assert cold == every and walks == [False] * searched
        # from a kept xy search, the xy view walks only the moved pairs
        frame = PLCurve(rows, closed=closed)
        kept = diagram.xy_search(frame, base, old)
        assert kept.crossings is None and len(kept.witness) > 0
        walks.clear()
        with mock.patch.object(diagram, "multiscale_close_pairs", spied):
            assert _crossings_or_degenerate(frame, kept) == every
        assert walks == [False] * (searched - 1)
        # given the witness too, a view it settles walks no pair
        walks.clear()
        with mock.patch.object(diagram, "multiscale_close_pairs", spied):
            settled = diagram.xy_search(frame, base, old, kept.witness)
        assert walks == []
        assert settled.crossings is None and _crossings_or_degenerate(frame, settled) == every
