import gc
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from knotiso import diagram, geometry
from knotiso.engine import glue_schedule, map_curve
from knotiso.geometry import (
    _G17_CHUNK,
    Box,
    PCG64Stream,
    PLCurve,
    _g17_cells,
    curve_is_simple,
    multiscale_close_pairs,
    _segment_pair_distances,
    farthest_corner_distances,
    read_curve,
    segment_ends,
    union_diameter,
    write_curve,
)
from knotiso.maps import AffineMap

coords = st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False)
points = st.tuples(coords, coords, coords)


class TestBox:
    def test_rejects_inverted_corners(self):
        with pytest.raises(ValueError):
            Box((1, 0, 0), (0, 1, 1))

    def test_rejects_non_finite(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="non-finite"):
                Box((bad, 0.0, 0.0), (1.0, 1.0, 1.0))
            with pytest.raises(ValueError, match="non-finite"):
                Box((0.0, 0.0, 0.0), (1.0, bad, 1.0))

    @pytest.mark.parametrize(
        "lo,hi", [((0, 0), (1, 1)), ((0, 0, 0, 0), (1, 1, 1, 1)), ((0, 0), (1, 1, 1)), (0, 1)]
    )
    def test_rejects_corners_that_are_not_rows(self, lo, hi):
        with pytest.raises(ValueError):
            Box(lo, hi)

    def test_corners_are_read_only_copies(self):
        lo = np.zeros(3)
        b = Box(lo, (1, 1, 1))
        lo[0] = -5.0
        assert b.lo[0] == 0.0 and b.lo.dtype == float
        assert not (b.lo.flags.writeable or b.hi.flags.writeable)
        with pytest.raises(ValueError):
            b.hi[0] = 2.0

    def test_compares_by_value(self):
        assert Box((0, 0, 0), (1, 1, 1)) == Box.cube((0.5, 0.5, 0.5), 1.0)
        assert Box((0, 0, 0), (1, 1, 1)) != Box((0, 0, 0), (1, 1, 2))

    def test_from_center_and_cube(self):
        b = Box.from_center((1, 2, 3), (0.5, 1.0, 1.5))
        assert b.lo.tolist() == [0.5, 1.0, 1.5]
        assert b.hi.tolist() == [1.5, 3.0, 4.5]
        c = Box.cube((0, 0, 0), 2.0)
        assert c.lo.tolist() == [-1, -1, -1]

    def test_contains_strict_vs_closed(self):
        b = Box.cube((0, 0, 0), 2.0)
        assert b.contains_array(np.array([1.0, 0, 0]))
        assert not b.contains_array(np.array([1.0, 0, 0]), strict=True)
        assert b.contains_array(np.array([0.999, 0, 0]), strict=True)
        rows = np.array([[1.0, 0, 0], [0.999, 0, 0], [2.0, 0, 0]])
        assert b.contains_array(rows).tolist() == [True, True, False]
        assert b.contains_array(rows, strict=True).tolist() == [False, True, False]

    @given(st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_contains_matches_the_all_reduction(self, seed, strict):
        # the oracle reduces the length-3 last axis with np.all; points on
        # every face and at every corner sit on the strict/closed edge
        rng = np.random.default_rng(seed)
        b = Box.from_center(rng.uniform(-4, 4, 3), rng.uniform(0.0, 2.0, 3))
        row = np.arange(12)
        face = b.sample(rng, 12)
        face[row, row % 3] = np.where(row[:, None] < 6, b.lo, b.hi)[row, row % 3]
        outside = b.scaled_about_center(3.0).sample(rng, 20)
        pts = np.concatenate([b.corners(), face, b.sample(rng, 20), outside, [b.center]])
        lo, hi = b.lo, b.hi
        if strict:
            want = np.all((pts > lo) & (pts < hi), axis=-1)
        else:
            want = np.all((pts >= lo) & (pts <= hi), axis=-1)
        assert np.array_equal(b.contains_array(pts, strict), want)
        for p, w in zip(pts, want):
            got = b.contains_array(p, strict)
            assert type(got) is np.bool_ and got == w

    def test_corners_are_x_major(self):
        b = Box((0, 1, 2), (3, 4, 5))
        expected = [[x, y, z] for x in (0, 3) for y in (1, 4) for z in (2, 5)]
        assert b.corners().shape == (8, 3)
        assert b.corners().tolist() == expected

    def test_wall_distance(self):
        b = Box.cube((0, 0, 0), 2.0)
        assert b.wall_distance(np.array([0.25, 0, 0])) == pytest.approx(0.75)

    def test_contains_box(self):
        a = Box.cube((0, 0, 0), 2.0)
        b = Box.cube((0.5, 0, 0), 1.0)
        c = Box.cube((5, 0, 0), 1.0)
        assert a.contains_box(b) and not a.contains_box(c)
        assert not a.contains_box(Box.cube((0, 0, 0), 2.0), strict=True)

    def test_sample_inside_and_deterministic(self):
        b = Box((-1, 0, 2), (1, 3, 5))
        s1 = b.sample(PCG64Stream(11), 200)
        s2 = b.sample(PCG64Stream(11), 200)
        assert np.array_equal(s1, s2)
        assert b.contains_array(s1).all()
        assert s1.tobytes() == b.sample(np.random.default_rng(11), 200).tobytes()


# seeds of one, two, three and five 32-bit entropy words; the last is the
# multiword seed the CI guard runs
_MULTIWORD_SEEDS = [2**32 - 1, 2**32, 2**40 + 7, 2**64 + 5, 2**130 + 3, 20261019, 99999999999999999999999]


class TestPCG64Stream:
    @given(
        st.integers(0, 2**32 - 1) | st.sampled_from(_MULTIWORD_SEEDS),
        st.lists(st.integers(0, 200), min_size=1, max_size=3),
    )
    @settings(max_examples=200, deadline=None)
    def test_draws_are_default_rngs_bitwise(self, seed, sizes):
        # numpy.random is the oracle; successive draws continue one stream
        ours, numpy_rng = PCG64Stream(seed), np.random.default_rng(seed)
        for n in sizes:
            assert ours.random((n, 3)).tobytes() == numpy_rng.random((n, 3)).tobytes()

    def test_shape_is_kept_in_c_order(self):
        want = np.random.default_rng(7).random((2, 3, 4))
        got = PCG64Stream(7).random((2, 3, 4))
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_negative_seed_raises(self):
        with pytest.raises(ValueError, match="seed"):
            PCG64Stream(-1)


def _diameter_boxes():
    """1 to 8 boxes, each of one scale 2^-40 .. 2^10 with a center of
    either sign and half extents that may be 0 on any axis."""
    unit = st.floats(-1.0, 1.0)
    extent = st.one_of(st.just(0.0), st.floats(0.0, 1.0))
    box = st.tuples(
        st.integers(-40, 10), st.tuples(unit, unit, unit), st.tuples(extent, extent, extent)
    ).map(lambda v: Box.from_center(np.multiply(v[1], 2.0 ** v[0]), np.multiply(v[2], 2.0 ** v[0])))
    return st.lists(box, min_size=1, max_size=8)


def _bits(x) -> np.ndarray:
    return np.ascontiguousarray(x, dtype=float).view(np.int64)


class TestUnionDiameter:
    @given(_diameter_boxes())
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force_corner_pairs(self, boxes):
        # the oracle: every one of the 64 corner pairs of every box pair
        corners = np.stack([b.corners() for b in boxes])  # (n, 8, 3)
        diff = corners[:, :, None, None, :] - corners[None, None, :, :, :]
        brute = np.sqrt((diff**2).sum(axis=-1)).max(axis=(1, 3))  # (n, n)
        lo = np.array([b.lo for b in boxes])
        hi = np.array([b.hi for b in boxes])
        assert np.array_equal(_bits(farthest_corner_distances(lo, hi)), _bits(brute))
        # rows of one stack against columns of another: that part of the table
        i, j = len(boxes) // 2, len(boxes) // 3
        part = farthest_corner_distances(lo[i:], hi[i:], (lo[j:], hi[j:]))
        assert np.array_equal(_bits(part), _bits(brute[i:, j:]))
        assert np.array_equal(_bits(union_diameter(boxes)), _bits(brute.max()))
        # and an independent, differently rounded distance
        flat = [c for b in boxes for c in b.corners().tolist()]
        exact = max(math.dist(p, q) for p in flat for q in flat)
        assert union_diameter(boxes) == pytest.approx(exact, rel=1e-15)

    def test_single_box_is_diameter(self):
        b = Box((0, 0, 0), (1, 1, 1))
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


def _assert_g17(values) -> None:
    x = np.asarray(values, dtype=float)
    cells = _g17_cells(x)
    assert cells.shape == x.shape
    got = [c.decode() for c in cells.ravel().tolist()]
    assert got == ["%.17g" % v for v in x.ravel().tolist()]


def _assert_g17_powers_of_ten() -> None:
    tens = np.array([float(f"1e{j}") for j in range(-323, 309)])
    for v in (tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf)):
        _assert_g17(v)
        _assert_g17(-v)


def _exact_ties() -> np.ndarray:
    """m / 2**j with m odd has j decimals, the last a 5; with 18
    significant digits the 17-digit rounding is an exact tie."""
    ties = [1.99993133544921875]
    for j in range(3, 26):
        m = -(-(10**17) // 5**j) | 1
        if m < 2**53 and m * 5**j < 10**18:
            ties += [m / 2**j, (m + 2) / 2**j]
    return np.array(ties)


# raw bit patterns, weighted toward subnormals, signed zeros and the extremes
_double_bits = st.one_of(
    st.integers(0, 2**64 - 1),
    st.integers(0, 2**52).map(lambda b: b | (1 << 63) * (b & 1)),
    st.sampled_from([0, 1 << 63, 1, 0x000FFFFFFFFFFFFF, 0x0010000000000000, 0x7FEFFFFFFFFFFFFF]),
)


class TestG17Cells:
    @given(st.lists(_double_bits, min_size=1, max_size=64))
    @settings(max_examples=300, deadline=None)
    def test_every_cell_is_the_17g_text(self, bits):
        _assert_g17(np.array(bits, dtype=np.uint64).view(np.float64))

    def test_powers_of_ten_and_their_neighbours(self):
        _assert_g17_powers_of_ten()

    def test_log10_one_ulp_off_still_gives_17g(self):
        # a low log10 puts the whole part of a power of ten at 10**17, and a
        # high one puts that of its lower neighbour below 10**16
        log10 = np.log10
        for side in (-np.inf, np.inf):
            with mock.patch.object(np, "log10", lambda a: np.nextafter(log10(a), side)):
                _assert_g17_powers_of_ten()

    def test_exact_ties_round_half_even(self):
        ties = _exact_ties()
        assert "%.17g" % ties[0] == "1.9999313354492188"
        _assert_g17(np.concatenate([ties, -ties, np.nextafter(ties, 0.0), np.nextafter(ties, 3.0)]))

    def test_extremes_zeros_and_non_finite(self):
        _assert_g17([5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308])
        _assert_g17([0.0, -0.0, np.inf, -np.inf, np.nan])
        # fixed notation runs from 1e-4 to below 1e17
        _assert_g17([1e-4, 9.9999999999999991e-5, 1e16, 99999999999999984.0, 1e17, 123456789.0, -0.5])

    def test_cells_across_chunks(self):
        # every chunk of the kernel sorts and scatters its own rows
        bits = np.random.default_rng(40).integers(0, 2**64, 3 * _G17_CHUNK + 5, np.uint64)
        x = bits.view(np.float64)
        x[:: _G17_CHUNK // 3] = 0.0
        x[1 :: _G17_CHUNK // 2] = np.nan
        _assert_g17(x)

    def test_keeps_the_shape(self):
        x = np.arange(24.0).reshape(2, 4, 3) / 7
        _assert_g17(x)
        assert _g17_cells(np.empty((0, 3))).shape == (0, 3)

    def test_power_of_ten_table_is_built_on_first_use(self):
        code = (
            "import numpy as np, knotiso.geometry as g\n"
            "assert g._pow10_pairs.cache_info().currsize == 0\n"
            "g._g17_cells(np.ones(1))\n"
            "assert g._pow10_pairs.cache_info().currsize == 1\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=120)


def _handed_to_17g() -> np.ndarray:
    """Doubles the kernel leaves to '%.17g': exact ties, and powers of ten
    and their neighbours, where log10 may round across the power."""
    tens = np.array([float(f"1e{j}") for j in range(-323, 309)])
    x = np.concatenate([_exact_ties(), tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf)])
    return np.concatenate([x, -x])


# finite bit patterns: the plain draws, subnormals, signed zeros, the
# extremes, and the values the kernel hands to '%.17g'
_finite_bits = st.one_of(
    _double_bits.filter(lambda b: (b >> 52) & 0x7FF != 0x7FF),
    st.sampled_from(_handed_to_17g().view(np.uint64).tolist()),
)


def _bits_curve(bits) -> PLCurve:
    """The open curve through the doubles of the bit patterns, three to a
    row; a draw with two equal rows in a row is not a curve."""
    try:
        return PLCurve(np.array(bits, np.uint64).view(np.float64).reshape(-1, 3))
    except ValueError:
        assume(False)


@st.composite
def _base_and_image(draw):
    """Bit patterns of a base curve and an image of it: each image
    coordinate keeps the base's bits, flips its sign (+0.0 to -0.0 on a
    zero) or takes new bits; or the image has another vertex count."""
    n = draw(st.integers(2, 10))
    base = draw(st.lists(_finite_bits, min_size=3 * n, max_size=3 * n))
    m = draw(st.one_of(st.just(n), st.integers(2, 10)))
    if m != n:
        return base, draw(st.lists(_finite_bits, min_size=3 * m, max_size=3 * m))
    edits = draw(st.lists(st.sampled_from(("keep", "sign", "new")), min_size=3 * n, max_size=3 * n))
    image = []
    for b, edit in zip(base, edits):
        if edit == "new":
            b = draw(_finite_bits)
        elif edit == "sign":
            b ^= 1 << 63
        image.append(b)
    return base, image


class TestCellReuse:
    """An image's decimal_cells(base) copies the base's cells and prints
    only the coordinates whose bits moved; the whole kernel is the
    oracle."""

    @given(_base_and_image(), st.booleans(), st.sampled_from((None, -np.inf, np.inf)))
    @settings(max_examples=300, deadline=None)
    def test_cells_are_the_whole_kernels(self, case, base_cells, log10_side):
        base_bits, image_bits = case
        base = _bits_curve(base_bits)
        image = _bits_curve(image_bits)
        log10 = np.log10
        nudged = log10 if log10_side is None else lambda a: np.nextafter(log10(a), log10_side)
        # a log10 one ulp off makes the kernel hand powers of ten to '%.17g'
        with mock.patch.object(np, "log10", nudged):
            if base_cells:
                base.decimal_cells()
            got = image.decimal_cells(base)
            want = _g17_cells(image.points)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert not got.flags.writeable

    def test_signed_zero_rows(self):
        base = PLCurve([[0.0, 0.0, 0.0], [1.0, -0.0, 0.0], [2.0, 0.0, -0.0]])
        base.decimal_cells()
        image = PLCurve(base.points * -1.0)
        got = image.decimal_cells(base)
        assert got.tobytes() == _g17_cells(image.points).tobytes()
        assert got[:, 1:].tolist() == [[b"-0", b"-0"], [b"0", b"-0"], [b"-0", b"0"]]

    def test_prints_only_what_moved(self):
        base = PLCurve(np.arange(30.0).reshape(10, 3) / 7)
        base.decimal_cells()
        pts = base.points.copy()
        pts[3:5, 1] += 1.0
        with mock.patch.object(geometry, "_g17_cells", wraps=_g17_cells) as kernel:
            PLCurve(pts).decimal_cells(base)
            PLCurve(pts).decimal_cells()
        assert [len(c.args[0].ravel()) for c in kernel.call_args_list] == [2, 30]

    @pytest.mark.parametrize("base_cells", [True, False])
    def test_an_image_lets_go_of_its_base(self, base_cells):
        # a curve holds its points, its closedness and its cells alone
        base = PLCurve(np.arange(12.0).reshape(4, 3))
        if base_cells:
            base.decimal_cells()
        image = map_curve(AffineMap(np.array([2.0, 1.0, 1.0]), np.zeros(3)), base)
        assert PLCurve.__slots__ == ("points", "closed", "_cells")
        assert not any(held is base for held in gc.get_referents(image))
        image.decimal_cells(base)
        assert not any(held is base for held in gc.get_referents(image))


class TestPLCurve:
    def test_vertex_count_validation(self):
        with pytest.raises(ValueError):
            PLCurve(((0, 0, 0),), closed=False)
        with pytest.raises(ValueError):
            PLCurve(((0, 0, 0), (1, 0, 0)), closed=True)
        with pytest.raises(ValueError):
            PLCurve(((0, 0, 0), (0, 0, 0)))

    @pytest.mark.parametrize("closed", [False, True])
    def test_segments_join_each_vertex_to_the_next(self, closed):
        # one rule for a curve and for a view of its points (find_crossings)
        c = PLCurve(((0, 0, 0), (1, 0, 0), (1, 1, 0)), closed=closed)
        a, b = c.segment_arrays()
        ends = [(1, 0, 0), (1, 1, 0)] + ([(0, 0, 0)] if closed else [])
        assert np.array_equal(b, ends) and np.array_equal(a, c.points[: len(ends)])
        view = c.points * 2.0
        for got, want in zip(segment_ends(view, closed), (a * 2.0, b * 2.0)):
            assert np.array_equal(got, want)

    def test_densified_preserves_trace_and_endpoints(self):
        c = PLCurve(((0, 0, 0), (1, 0, 0), (1, 1, 0)))
        d = c.densified(0.1)
        assert np.array_equal(d.points[0], c.points[0])
        assert np.array_equal(d.points[-1], c.points[-1])
        a, b = d.segment_arrays()
        assert np.sqrt(((b - a) ** 2).sum(-1)).max() <= 0.1 + 1e-12

    def test_densified_closed_keeps_closure(self):
        sq = PLCurve(((0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)), closed=True)
        d = sq.densified(0.25)
        assert d.closed and len(d.segment_arrays()[0]) == len(d.points)

    def test_square_is_simple_figure_eight_is_not(self):
        sq = PLCurve(((0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)), closed=True)
        assert curve_is_simple(sq, 1e-9)
        bow = PLCurve(((0, 0, 0), (1, 1, 0), (1, 0, 0), (0, 1, 0)), closed=True)
        assert not curve_is_simple(bow, 1e-9)

    def test_simple_large_curve_uses_prefilter(self):
        t = np.linspace(0, 2 * np.pi, 2000, endpoint=False)
        ring = PLCurve(np.column_stack([np.cos(t), np.sin(t), np.zeros_like(t)]), closed=True)
        assert curve_is_simple(ring, 1e-6)

    def test_file_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        c = PLCurve(rng.uniform(-3, 3, (40, 3)), closed=True)
        path = tmp_path / "c.curve"
        write_curve(c, path)
        back = read_curve(path)
        assert back.closed == c.closed
        assert np.array_equal(back.points, c.points)

    # signed zeros, subnormals, the extremes and 24-byte cells, which have
    # no NUL padding to drop, among any finite doubles
    @given(
        hnp.arrays(
            float,
            st.tuples(st.integers(2, 12), st.just(3)),
            elements=st.sampled_from(
                [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308,
                 -1.7976931348623157e308, -1.2345678901234567e-308, -2.2250738585072009e-308]
            )
            | st.floats(allow_nan=False, allow_infinity=False),
        ),
        st.booleans(),
    )
    @example(np.array([[-1.2345678901234567e-308] * 3, [-0.0, 5e-324, 1.7976931348623157e308]]), False)
    @settings(max_examples=300, deadline=None)
    def test_file_roundtrip_is_bitwise_for_any_finite_doubles(self, pts, closed):
        try:
            c = PLCurve(pts, closed=closed)
        except ValueError:  # repeated vertices
            assume(False)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "c.curve"
            write_curve(c, path)
            back = read_curve(path)
        assert back.closed == c.closed
        assert np.array_equal(back.points.view(np.int64), c.points.view(np.int64))

    def test_writing_a_long_curve_keeps_the_heap_small(self, tmp_path):
        # the text is joined _TEXT_BLOCK rows at a time: the whole curve's
        # laid-out bytes at once would take about 4.5 MB here
        rng = np.random.default_rng(8)
        c = PLCurve(rng.uniform(-1.0, 1.0, (20_000, 3)) * 1e-5)
        c.decimal_cells()
        tracemalloc.start()
        try:
            write_curve(c, tmp_path / "c.curve")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_reader_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.curve"
        path.write_text("weird 3\n0 0 0\n")
        with pytest.raises(ValueError):
            read_curve(path)
        path.write_text("")
        with pytest.raises(ValueError, match="bad curve file header"):
            read_curve(path)

    @pytest.mark.parametrize("text", ["open 3\n0 0 0\n1 0 0\n", "open 3\n0 0 0\n1 0 0"])
    def test_reader_counts_the_vertices_of_a_truncated_file(self, tmp_path, text):
        # write_curve ends every file in a newline; that newline must not
        # read as an empty vertex line
        path = tmp_path / "short.curve"
        path.write_text(text)
        with pytest.raises(ValueError, match="expected 3 vertices, found 2"):
            read_curve(path)

    @pytest.mark.parametrize(
        "text,found",
        [
            ("open 2\n0 0 0\n1 0 0\n5 5 5\nnot a number\n", 4),
            ("open 2\n0 0 0\n1 0 0\n5 5 5\n", 3),
            ("open 2\n0 0 0\n1 0 0\n\n", 3),
        ],
    )
    def test_reader_rejects_lines_past_the_declared_count(self, tmp_path, text, found):
        path = tmp_path / "long.curve"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"expected 2 vertices, found {found}"):
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
        x, y, z = verts[-1]
        verts = verts + [(x + 1.0, y, z)]
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
            return PLCurve(np.array(rows, dtype=float) if as_array else rows, closed=closed)

        with pytest.raises(ValueError, match="at least 2"):
            make([(0, 0, 0)])
        with pytest.raises(ValueError, match="at least 3"):
            make([(0, 0, 0), (1, 0, 0)], closed=True)
        with pytest.raises(ValueError, match="distinct"):
            make([(0, 0, 0), (1, 0, 0), (1, 0, 0)])
        with pytest.raises(ValueError, match="repeat its first"):
            make([(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 0, 0)], closed=True)
        assert len(make([(0, 0, 0), (1, 0, 0), (1, 1, 0)], closed=True).segment_arrays()[0]) == 3

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
        c = PLCurve(((0, 0, 0), (1, 0, 0)))
        with pytest.raises(ValueError, match="max_seg_len must be positive"):
            c.densified(bad)

    @given(_polylines())
    @settings(max_examples=80, deadline=None)
    def test_vertices_round_trip(self, poly):
        verts, closed = poly
        c = PLCurve(verts, closed=closed)
        assert c.vertices is c.points
        assert [tuple(r) for r in c.points.tolist()] == verts
        assert c.points.shape == (len(verts), 3)
        assert PLCurve(c.points, closed=closed) == c

    def test_densified_piece_count_matches_per_segment_norm(self):
        # sqrt of a row-wise sum of squares rounds this length one ulp away
        # from np.linalg.norm(b - a), which moves ceil(L / max_seg_len) from 2 to 3
        c = PLCurve(((0.864, 0.226, -0.307), (1.67, 1.424, -1.116)))
        max_seg_len = 0.8275447117829948
        np.testing.assert_array_equal(
            c.densified(max_seg_len).points, _densified_by_segment(c, max_seg_len)
        )

    @given(_polylines(), st.floats(0.05, 50.0))
    @settings(max_examples=80, deadline=None)
    def test_densified_matches_per_segment_formula(self, poly, max_seg_len):
        verts, closed = poly
        c = PLCurve(verts, closed=closed)
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


@st.composite
def _far_clusters(draw):
    """Clusters of segments whose half lengths lie 20 to 60 octaves apart,
    mostly around centres far apart in space, so that most pairs of
    clusters are ruled out high in the search tree; some clusters share a
    centre."""
    dim = draw(st.sampled_from([2, 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    octaves = draw(st.lists(st.integers(0, 3), min_size=2, max_size=5))
    centres = rng.uniform(-100.0, 100.0, (len(octaves), dim))
    mids, half = [], []
    for k in octaves:
        m = int(rng.integers(1, 15))
        scale = 2.0 ** (-20 * k - int(rng.integers(0, 4)))
        centre = centres[rng.integers(0, len(centres))]
        mids.append(centre + rng.uniform(-4.0, 4.0, (m, dim)) * scale)
        half.append(scale * rng.uniform(0.5, 2.0, m))
    margin = draw(st.sampled_from([0.0, 1e-9, 1e-3]))
    return np.concatenate(mids), np.concatenate(half), margin


def _close_pairs_by_all_pairs(mids, half, margin, rows=256):
    """multiscale_close_pairs's oracle: its predicate on every pair ii < jj,
    a block of rows at a time."""
    n = len(mids)
    first = [np.empty(0, dtype=np.int64)]
    second = [np.empty(0, dtype=np.int64)]
    for start in range(0, n, rows):
        # rows start.. against columns start.., the upper triangle kept;
        # the squares are added axis by axis, left to right, as .sum(-1)
        # adds a row this short, so the distances are bitwise the same
        block, later = slice(start, start + rows), slice(start, n)
        square = 0.0
        for k in range(mids.shape[1]):
            square = square + (mids[block, None, k] - mids[None, later, k]) ** 2
        close = np.sqrt(square) <= half[block, None] + half[None, later] + margin
        ii, jj = np.nonzero(np.triu(close, k=1))
        first.append(ii + start)
        second.append(jj + start)
    return np.concatenate(first), np.concatenate(second)


def _assert_all_pairs(mids, half, margin):
    ii, jj = multiscale_close_pairs(mids, half, margin)
    want_i, want_j = _close_pairs_by_all_pairs(mids, half, margin)
    assert ii.dtype == jj.dtype == np.int64
    np.testing.assert_array_equal(ii, want_i)
    np.testing.assert_array_equal(jj, want_j)
    return len(ii)


class TestMultiscaleClosePairs:
    @given(st.one_of(_multiscale_segments(), _far_clusters()))
    @settings(max_examples=200, deadline=None)
    def test_sorted_unique_superset_of_close_pairs(self, segs):
        # the pairs are exactly those within the radius, not only a superset
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
        assert set(zip(ii.tolist(), jj.tolist())) == want

    @pytest.mark.parametrize("margin", [0.0, 1e-9, 1e-3])
    @pytest.mark.parametrize("j", [0, 30, 60])
    def test_pair_exactly_at_the_radius(self, margin, j):
        # midpoints exactly half_0 + half_1 + margin apart are a pair, one
        # ulp farther apart (segment 2, as long as segment 1) are not
        h = np.array([0.25, 0.5, 0.5]) * 2.0**-j
        r = h[0] + h[1] + margin
        mids = np.array([[0.0, 0.0], [r, 0.0], [-np.nextafter(r, np.inf), 0.0]])
        ii, jj = multiscale_close_pairs(mids, h, margin)
        assert list(zip(ii.tolist(), jj.tolist())) == [(0, 1)]

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize(
        "n, shuffled, j",
        [(0, False, 0), (1, False, 0), (2, False, 0), (2, True, 0), (300, True, 0)]
        + [(3000, False, 0), (1000, False, 60), (1000, True, 30), (300, False, 540)]
        + [(n, False, 0) for n in (3, 31, 32, 33, 63, 64, 65, 129)],
    )
    def test_random_walks_match_all_pairs(self, n, shuffled, j, dim):
        # the segments of a random walk whose steps range over 30 octaves,
        # at scale 2^-j (at 2^-540 every square rounds to a subnormal or
        # to 0), in curve order or shuffled, which only makes the tree's
        # boxes larger.  The last sizes are the walk's boundaries: up to 32
        # segments every pair goes straight to the predicate and 33 walk
        # one level; 64 fill their leaves, 63 leave one to padding, and 33,
        # 65 and 129 pad all but the first leaf of the tree's second half
        rng = np.random.default_rng([n, dim, shuffled, j])
        steps = rng.normal(size=(n + 1, dim)) * (2.0 ** -rng.integers(0, 30, n + 1))[:, None]
        pts = np.cumsum(steps, axis=0) * 2.0**-j
        a, b = pts[:-1], pts[1:]
        if shuffled:
            order = rng.permutation(n)
            a, b = a[order], b[order]
        mids = (a + b) / 2.0
        half = np.sqrt(((b - a) ** 2).sum(-1)) / 2.0
        found = [_assert_all_pairs(mids, half, rel * 2.0**-j) for rel in (0.0, 1e-9, 1e-3)]
        assert found[0] >= n - 1  # consecutive segments share a vertex

    @pytest.mark.parametrize("name, t", [("countable_r1", 1.0), ("fox_remarkable", 0.9)])
    def test_frame_views_match_all_pairs(self, scenarios, name, t):
        # every view the crossing search takes of a depth-20 frame; the fox
        # frame at t = 0.9 is degenerate, and its xy view's witness rejects
        # both perturbed views unsearched, so they are searched whole here
        s = scenarios[name]
        frame = map_curve(glue_schedule(s.moves, 20).map_at(t), s.initial_curve.densified(0.01))
        found = []

        def checked(mids, half, margin, hot=None):
            found.append(_assert_all_pairs(mids, half, margin))
            return multiscale_close_pairs(mids, half, margin, hot)

        with mock.patch.object(diagram, "multiscale_close_pairs", checked):
            try:
                diagram.find_crossings(frame)
            except ValueError:
                assert name == "fox_remarkable" and len(found) == 1
                turn = diagram._rotation(0, diagram._PERTURB_RAD)
                for rot in (turn, turn @ diagram._rotation(1, diagram._PERTURB_RAD)):
                    ends = geometry.segment_ends(frame.points @ rot.T, frame.closed)
                    assert diagram._search(*ends, frame.closed).crossings is None
        assert len(found) == (3 if name == "fox_remarkable" else 1) and min(found) > 0


def _simple_by_all_pairs(curve: PLCurve, tol: float) -> bool:
    """curve_is_simple's oracle: the distance test on every pair of
    segments that share no vertex."""
    a, b = curve.segment_arrays()
    n = len(a)
    ii, jj = np.triu_indices(n, k=2)
    keep = ~(curve.closed & (ii == 0) & (jj == n - 1))
    return not (_segment_pair_distances(a, b, ii[keep], jj[keep]) < tol).any()


@st.composite
def _multiscale_curves(draw):
    """Open and closed random walks of 1 to 120 segments whose steps range
    over 30 octaves, at a scale 2^-60 to 2^20, with a tolerance of 0, 1e-9
    or 1e-3 times the scale.  Some have one vertex moved within 0 to 1e-2
    segment lengths of an earlier segment that shares no vertex with the
    two segments at that vertex.  Some open ones have their first segment
    moved to continue an inner segment end to end, 0, 1/2 or 2 tolerances
    past its end: a contact whose midpoints lie farther apart than the
    two half lengths."""
    closed = draw(st.booleans())
    n_seg = draw(st.one_of(st.sampled_from([1, 2, 3]), st.integers(1, 120)))
    assume(not closed or n_seg >= 3)
    n = n_seg if closed else n_seg + 1
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = np.cumsum(rng.normal(size=(n, 3)) * (2.0 ** -rng.integers(0, 30, n))[:, None], axis=0)
    rel_tol = draw(st.sampled_from([0.0, 1e-9, 1e-3]))
    contact = draw(st.sampled_from(["none", "side", "end"]))
    if contact == "side" and n >= 5:
        i = int(rng.integers(0, n - 4))
        k = int(rng.integers(i + 3, n - 1))
        seg = pts[i + 1] - pts[i]
        gap = draw(st.sampled_from([0.0, 1e-12, 1e-6, 1e-2])) * np.sqrt(seg @ seg)
        nudge = rng.normal(size=3)
        pts[k] = pts[i] + rng.uniform() * seg + gap * nudge / np.sqrt(nudge @ nudge)
    elif contact == "end" and not closed and n >= 4:
        i = int(rng.integers(2, n - 1))
        seg = pts[i + 1] - pts[i]
        u = seg / np.sqrt(seg @ seg)
        pts[0] = pts[i + 1] + draw(st.sampled_from([0.0, 0.5, 2.0])) * rel_tol * u
        pts[1] = pts[0] + rng.uniform(0.5, 2.0) * seg
    scale = 2.0 ** draw(st.integers(-60, 20))
    tol = rel_tol * scale
    try:
        curve = PLCurve(pts * scale, closed=closed)
    except ValueError:  # a repeated vertex
        assume(False)
    return curve, tol


class TestCurveIsSimple:
    @given(_multiscale_curves())
    @settings(max_examples=300, deadline=None)
    def test_matches_all_pairs(self, drawn):
        curve, tol = drawn
        assert curve_is_simple(curve, tol) == _simple_by_all_pairs(curve, tol)
