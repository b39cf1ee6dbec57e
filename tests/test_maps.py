import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from knotiso.canonical import (
    CANONICAL_BOX,
    KINK_STAGES,
    conjugated_insert,
    kink_isotopy,
    kink_map,
    loop_sub_boxes,
    multi_kink_isotopy,
)
from knotiso.engine import truncated_map
from knotiso.geometry import Box, bounding_box
from knotiso.maps import (
    AffineMap,
    CompositeMap,
    ConeMap,
    IdentityMap,
    LocalMap,
    PowerMap1D,
    UnsquishMap,
    UnsquishParams,
    conjugate,
    UNBOUNDED,
)
from knotiso.moves import (
    chained_isotopy,
    conjugated_isotopy,
    reversed_isotopy,
    staged_isotopy,
    unsquish_isotopy,
)
from knotiso.scenarios import SCENARIO_BUILDERS
from oracles import (
    box_radial_scale,
    cone_piece_singular_values,
    cone_tetrahedra,
    estimate_inverse_lipschitz,
    numpy_affine_frame,
    numpy_box_corners,
    part_by_part,
    row_major_cone,
    row_major_unsquish,
    twelve_tetrahedra_cone,
)

UNIT = Box.from_center((0, 0, 0), (1, 1, 1))


def _at(m, p: np.ndarray) -> np.ndarray:
    """m applied to one point."""
    return m.apply_array(p[None, :])[0]


def _roundtrip_error(m, pts: np.ndarray) -> float:
    back = m.apply_inverse_array(m.apply_array(pts))
    return float(np.sqrt(((back - pts) ** 2).sum(-1)).max())


class TestIdentityMap:
    def test_fixes_everything_exactly(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(-10, 10, (500, 3))
        m = IdentityMap(support=UNIT)
        assert np.array_equal(m.apply_array(pts), pts)
        assert m.inverse() is m


class TestAffineMap:
    def test_rejects_zero_or_non_finite_scale(self):
        # the error names the first bad axis; a tiny scale is a valid frame
        for bad, text in ((0.0, "0.0"), (-np.inf, "-inf"), (np.nan, "nan")):
            with pytest.raises(ValueError, match=rf"scale on axis y is {text}, not finite"):
                AffineMap(np.array([1.0, bad, 0.0]), np.zeros(3))

    @pytest.mark.parametrize("scale,shift", [(1e-310, 0.0), (1e-300, 1e10)])
    def test_rejects_frames_with_no_finite_inverse(self, scale, shift):
        # 1 / 1e-310 overflows, and so does -(1 / 1e-300) * 1e10; the frame
        # is refused without a RuntimeWarning, which the suite makes an error
        with pytest.raises(ValueError, match=rf"axis x has no finite inverse \(scale {scale}\)"):
            AffineMap(np.full(3, scale), np.full(3, shift))

    def test_rejects_a_scale_whose_inverse_frame_has_no_finite_inverse(self):
        # 1 / 1.7976931348623153e308 is the subnormal 5.56e-309, whose own
        # reciprocal overflows: the inverse frame could not be built
        text = r"axis x has no finite inverse \(scale 1.7976931348623153e\+308\)"
        with pytest.raises(ValueError, match=text):
            AffineMap(np.full(3, 1.7976931348623153e308), np.zeros(3))

    def test_accepts_the_largest_scale_whose_inverse_frame_builds(self):
        scale = 1.7976931348623151e308
        assert np.nextafter(scale, np.inf) == 1.7976931348623153e308
        m = AffineMap(np.full(3, scale), np.zeros(3))
        assert m.inverse().scale.tolist() == [5.56268464626801e-309] * 3
        # 1 / (1 / scale) is a few ulps below scale, and its inverse builds too
        assert m.inverse().inverse().scale.tolist() == [1.7976931348623143e308] * 3
        assert m.inverse().inverse().inverse().scale.tolist() == [5.56268464626801e-309] * 3

    def test_accepts_uniformly_tiny_frames(self):
        # depth-20 scenario frames: tiny but perfectly conditioned
        AffineMap(np.full(3, 2.0**-27), np.zeros(3))

    def test_accepts_anisotropic_frames_and_their_inverses(self):
        squashed = AffineMap(np.array([1.0, 1e-13, 1.0]), np.zeros(3))
        assert squashed.inverse().scale[1] == 1e13
        thin = Box.from_center((0, 0, 0), (1.0, 1.0, 2.0**-20))
        frame = AffineMap.box_to_box(UNIT, thin)
        assert (frame.inverse().scale == [1.0, 1.0, 2.0**20]).all()

    def test_box_to_box_rejects_degenerate_boxes(self):
        flat = Box((0, 0, 0), (1, 1, 0))
        with pytest.raises(ValueError, match="source box is degenerate"):
            AffineMap.box_to_box(flat, UNIT)
        with pytest.raises(ValueError, match="scale on axis z is 0.0"):
            AffineMap.box_to_box(UNIT, flat)

    def test_box_to_box_maps_corners(self):
        src = Box((-1, -1, -1), (1, 1, 1))
        dst = Box((2, 0, -3), (4, 1, -1))
        m = AffineMap.box_to_box(src, dst)
        assert math.dist(_at(m, src.lo), dst.lo) < 1e-12
        assert math.dist(_at(m, src.hi), dst.hi) < 1e-12
        assert math.dist(_at(m, src.center), dst.center) < 1e-12

    def test_inverse_roundtrip(self):
        rng = np.random.default_rng(1)
        scale = rng.uniform(0.25, 4.0, 3) * rng.choice([-1.0, 1.0], 3)
        m = AffineMap(scale, np.array([1.0, -2.0, 3.0]))
        pts = rng.uniform(-5, 5, (1000, 3))
        assert _roundtrip_error(m, pts) < 1e-12

    def test_support_is_unbounded_sentinel(self):
        m = AffineMap(np.full(3, 2.0), np.zeros(3))
        assert m.support == UNBOUNDED


def _matrix_frame(src: Box, dst: Box) -> tuple[np.ndarray, np.ndarray]:
    """box_to_box as the general map p -> M p + t it replaced."""
    m = np.diag(dst.half_extents / src.half_extents)
    return m, dst.center - m @ src.center


def _drawn_box(c, e, k, f) -> Box:
    """Half-extents f * 2^(e + k) relative to max(1, |c|) per axis, so no
    extent rounds away against its centre coordinate, and the axes of one
    box differ by up to 2^21 (over 10^6)."""
    c = np.array(c)
    half = np.array(f) * 2.0 ** (e + np.array(k)) * np.maximum(1.0, np.abs(c))
    return Box.from_center(c, half)


_box = st.builds(
    _drawn_box,
    st.tuples(*[st.floats(-50.0, 50.0)] * 3),
    st.integers(-48, -2),
    st.tuples(*[st.integers(0, 20)] * 3),
    st.tuples(*[st.floats(1.0, 2.0)] * 3),
)


def _frame_points(box: Box, seed: int) -> np.ndarray:
    """Points inside a box, on its faces and corners, outside it, and
    with signed-zero coordinates."""
    rng = np.random.default_rng(seed)
    c, h = box.center, box.half_extents
    inside = rng.uniform(-1.0, 1.0, (20, 3))
    faces = rng.uniform(-1.0, 1.0, (6, 3))
    faces[np.arange(6), np.arange(6) % 3] = np.repeat([-1.0, 1.0], 3)
    corners = np.array(np.meshgrid([-1.0, 1.0], [-1.0, 1.0], [-1.0, 1.0])).reshape(3, -1).T
    outside = rng.uniform(1.0, 3.0, (10, 3)) * rng.choice([-1.0, 1.0], (10, 3))
    pts = c + np.vstack([inside, faces, corners, outside]) * h
    zeros = np.array([[0.0, -0.0, 0.0], [-0.0, -0.0, -0.0], [c[0], 0.0, -0.0], [-0.0, c[1], 0.0]])
    return np.vstack([pts, zeros])


class TestAffineFrameOracle:
    @settings(max_examples=200, deadline=None)
    @given(_box, _box, st.integers(0, 2**32 - 1))
    def test_box_to_box_matches_the_matrix_formula(self, src, dst, seed):
        frame = AffineMap.box_to_box(src, dst)
        m, t = _matrix_frame(src, dst)
        pts = _frame_points(src, seed)
        assert (frame.apply_array(pts) == pts @ m.T + t).all()
        inv, twice = frame.inverse(), frame.inverse().inverse()
        m_inv = np.linalg.inv(m)
        m_twice = np.linalg.inv(m_inv)
        assert np.diag(m_inv).tobytes() == inv.scale.tobytes()
        assert np.diag(m_twice).tobytes() == twice.scale.tobytes()
        t_inv = -m_inv @ t
        assert (inv.shift == t_inv).all()
        assert (twice.shift == -m_twice @ t_inv).all()
        back = _frame_points(dst, seed)
        assert (inv.apply_array(back) == back @ m_inv.T + t_inv).all()


# one axis value: any double, and the values the checks turn on
_axis_value = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 1e-310, 5e-324, 1e-300, 1e10, 1e300]),
)
# a scale or shift as a Python number, a (3,) array or tuple, or of a
# shape a frame refuses
_axis_arg = st.one_of(
    _axis_value,
    st.tuples(_axis_value, _axis_value, _axis_value).map(np.array),
    st.tuples(_axis_value, _axis_value, _axis_value),
    st.lists(_axis_value, max_size=5).filter(lambda v: len(v) != 3).map(np.array),
    st.tuples(*[st.tuples(_axis_value, _axis_value, _axis_value)] * 3).map(np.array),
)


def _negative_zeros(x: np.ndarray) -> np.ndarray:
    return np.where(x == 0.0, -0.0, x)


class TestFloatValidationOracle:
    """``Box`` checks its corners as Python floats, and ``AffineMap`` its
    frame through ``maps.frame_refusals``, the check stacked frames share;
    ``oracles.numpy_box_corners`` and ``numpy_affine_frame`` write both
    checks out in numpy, the reference they must match to the message."""

    @settings(max_examples=400, deadline=None)
    @given(_axis_arg, _axis_arg)
    def test_affine_frame_matches_the_numpy_checks(self, scale, shift):
        try:
            want = numpy_affine_frame(scale, shift)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                AffineMap(scale, shift)
            assert str(got.value) == str(exc)
            return
        m = AffineMap(scale, shift)
        w_scale, w_shift, w_inv, w_inv_shift = want
        # a frame that builds has an inverse frame that builds
        inv = m.inverse()
        assert m.scale.tobytes() == w_scale.tobytes()
        assert inv.scale.tobytes() == w_inv.tobytes()
        # every zero shift is stored as -0.0
        assert m.shift.tobytes() == _negative_zeros(w_shift).tobytes()
        assert inv.shift.tobytes() == _negative_zeros(w_inv_shift).tobytes()

    @pytest.mark.parametrize(
        "scale,shift",
        [
            *(
                pytest.param(np.full(3, a), np.full(3, b), id=f"{a}-{b}")
                for a, b in (
                    (0.0, 1.0),
                    (np.inf, 0.0),
                    (-np.inf, 0.0),
                    (np.nan, 0.0),
                    (1e-310, 0.0),
                    (1e-300, 1e10),
                    (2.0, np.inf),
                    (2.0, np.nan),
                )
            ),
            pytest.param(np.array([1.0, 0.0, -0.0]), np.zeros(3), id="scale8-0.0"),
            # three numbers each, no fewer and no more
            pytest.param(np.array([1.0, 2.0]), np.zeros(3), id="scale9-0.0"),
            pytest.param(np.ones(3), np.zeros((3, 3)), id="1.0-shift10"),
            pytest.param(np.ones((3, 3)), np.zeros(3), id="scale11-0.0"),
            pytest.param(
                np.full(3, 1.7976931348623153e308), np.zeros(3), id="1.7976931348623153e+308-0.0"
            ),
            pytest.param(
                np.array([1.7976931348623153e308, 1e-310, 1.0]), np.zeros(3), id="scale13-0.0"
            ),
        ],
    )
    def test_affine_frame_refusals_match_the_numpy_checks(self, scale, shift):
        with pytest.raises(ValueError) as want:
            numpy_affine_frame(scale, shift)
        with pytest.raises(ValueError) as got:
            AffineMap(scale, shift)
        assert str(got.value) == str(want.value)

    def test_zero_shifts_keep_signed_zeros(self):
        frame = AffineMap.box_to_box(UNIT, Box.cube((0, 0, 0), 0.5))
        pts = np.array([[-0.0, 0.0, -0.0], [0.0, -0.0, 0.0]])
        for m in (frame, frame.inverse(), frame.inverse().inverse()):
            assert np.array_equal(np.signbit(m.apply_array(pts)), np.signbit(pts))

    @settings(max_examples=400, deadline=None)
    @given(
        st.one_of(
            st.tuples(_axis_arg, _axis_arg),
            # ordered corners, so most of these boxes are valid
            st.tuples(*[st.tuples(_axis_value, _axis_value, _axis_value)] * 2).map(
                lambda c: (np.fmin(*c), np.fmax(*c))
            ),
        )
    )
    def test_box_matches_the_numpy_checks(self, corners):
        lo, hi = corners
        try:
            want = numpy_box_corners(lo, hi)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                Box(lo, hi)
            assert str(got.value) == str(exc)
            return
        b = Box(lo, hi)
        assert b.lo.tobytes() == want[0].tobytes() and b.hi.tobytes() == want[1].tobytes()

    @pytest.mark.parametrize(
        "lo,hi",
        [
            ((1.0, 0.0, 0.0), (0.0, 1.0, 1.0)),
            ((0.0, 0.0, 2.5), (1.0, 1.0, -0.5)),
            ((np.nan, 0.0, 0.0), (1.0, 1.0, 1.0)),
            ((0.0, 0.0, 0.0), (1.0, np.inf, 1.0)),
            ((0.0, 0.0), (1.0, 1.0)),
            (0.0, 1.0),
            ((0.0, 0.0, 0.0, 0.0), (1.0, 1.0, 1.0, 1.0)),
        ],
    )
    def test_box_refusals_match_the_numpy_checks(self, lo, hi):
        with pytest.raises(ValueError) as want:
            numpy_box_corners(lo, hi)
        with pytest.raises(ValueError) as got:
            Box(lo, hi)
        assert str(got.value) == str(want.value)


class TestConeMap:
    def test_rejects_apex_outside_region(self):
        with pytest.raises(ValueError):
            ConeMap(UNIT, np.array([2.0, 0.0, 0.0]), np.zeros(3))
        with pytest.raises(ValueError):
            ConeMap(UNIT, np.zeros(3), np.array([0, 0, 1.0]))

    def test_moves_apex_to_target(self):
        m = ConeMap(UNIT, np.zeros(3), np.array([0.3, -0.2, 0.1]))
        assert math.dist(_at(m, np.zeros(3)), np.array([0.3, -0.2, 0.1])) < 1e-12

    def test_fixes_boundary_and_exterior(self):
        m = ConeMap(UNIT, np.zeros(3), np.array([0.3, -0.2, 0.1]))
        rng = np.random.default_rng(2)
        # boundary points: project random points to a random face
        pts = UNIT.sample(rng, 2000)
        axes = rng.integers(0, 3, 2000)
        sides = rng.integers(0, 2, 2000)
        pts[np.arange(2000), axes] = np.where(sides == 0, -1.0, 1.0)
        assert np.array_equal(m.apply_array(pts), pts)
        outside = rng.uniform(1.5, 3.0, (2000, 3)) * rng.choice([-1, 1], (2000, 3))
        assert np.array_equal(m.apply_array(outside), outside)

    def test_inverse_is_swapped_cone(self):
        m = ConeMap(UNIT, np.zeros(3), np.array([0.3, -0.2, 0.1]))
        inv = m.inverse()
        assert isinstance(inv, ConeMap)
        assert inv.p0 is m.p1 and inv.p1 is m.p0
        rng = np.random.default_rng(3)
        assert _roundtrip_error(m, UNIT.sample(rng, 2000)) < 1e-9

    def test_interior_stays_interior(self):
        m = ConeMap(UNIT, np.zeros(3), np.array([0.5, 0.3, -0.4]))
        rng = np.random.default_rng(4)
        pts = UNIT.scaled_about_center(0.999).sample(rng, 2000)
        assert UNIT.contains_array(m.apply_array(pts)).all()

    def test_equal_apexes_are_the_bitwise_identity(self):
        # the zero step keeps every coordinate, signed zeros and the apex
        # itself included, so a cone pull at local time 0 needs no identity
        # of its own
        p = np.array([0.1, 0.0, -0.0])
        m = ConeMap(UNIT, p, p)
        rng = np.random.default_rng(13)
        signed_zeros = [[-0.0, 0.0, -0.0], [0.1, -0.0, 0.0]]
        rows = np.concatenate([UNIT.sample(rng, 1000), UNIT.corners(), p[None, :], signed_zeros])
        bits = rows.view(np.uint64)
        for f in (m, m.inverse()):
            assert np.array_equal(f.apply_array(rows).view(np.uint64), bits)


def _params(c: float, apex: np.ndarray = np.zeros(3)) -> UnsquishParams:
    return UnsquishParams(
        outer=Box.from_center((0, 0, 0), (2, 2, 2)),
        inner=Box.from_center((0, 0, 0), (1, 1, 1)),
        apex=apex,
        c=c,
    )


class TestUnsquishParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            _params(1.5)
        with pytest.raises(ValueError):
            _params(0.5, apex=np.array([3.0, 0.0, 0.0]))
        with pytest.raises(ValueError):
            UnsquishParams(
                outer=Box.from_center((0, 0, 0), (2, 2, 2)),
                inner=Box.from_center((0.5, 0, 0), (1, 1, 1)),
                apex=np.array([0.5, 0, 0]),
                c=0.5,
            )
        with pytest.raises(ValueError):
            UnsquishParams(
                outer=Box.from_center((0, 0, 0), (2, 2, 3)),
                inner=Box.from_center((0, 0, 0), (1, 1, 1)),
                apex=np.zeros(3),
                c=0.5,
            )

    def test_breakpoints(self):
        p = _params(0.4)
        assert p.s_c0 == pytest.approx(0.2)
        assert p.s_c1 == 0.5
        assert p.scale_up == pytest.approx(2.0)


class TestUnsquishMap:
    @pytest.mark.parametrize("c", [0.3, 0.5, 0.9])
    def test_time_zero_is_identity(self, c):
        m = UnsquishMap(_params(c), 0.0)
        rng = np.random.default_rng(5)
        pts = m.params.outer.sample(rng, 1000)
        assert np.abs(m.apply_array(pts) - pts).max() < 1e-12

    @pytest.mark.parametrize("c", [0.3, 0.5, 0.9])
    def test_time_one_exact_expansion_near_apex(self, c):
        # points with path parameter <= c/2 move away from the apex by 1/c
        m = UnsquishMap(_params(c), 1.0)
        rng = np.random.default_rng(6)
        d = rng.normal(size=(1000, 3))
        d /= np.sqrt((d**2).sum(-1))[:, None]
        # radial fraction f in (0, c): inside the exactly-expanded zone
        f = rng.uniform(0.01, 0.99 * c, 1000)
        scale = np.abs(d).max(axis=-1)  # inner box radial scale along d
        pts = f[:, None] * d / scale[:, None]
        img = m.apply_array(pts)
        r0 = np.sqrt((pts**2).sum(-1))
        r1 = np.sqrt((img**2).sum(-1))
        assert np.abs(r1 - r0 / c).max() < 1e-9

    def test_fixes_outer_boundary_and_exterior(self):
        m = UnsquishMap(_params(0.5), 0.7)
        rng = np.random.default_rng(7)
        outside = rng.uniform(2.5, 5.0, (1000, 3)) * rng.choice([-1, 1], (1000, 3))
        assert np.array_equal(m.apply_array(outside), outside)
        face = rng.uniform(-2, 2, (1000, 3))
        face[:, 0] = 2.0
        assert np.abs(m.apply_array(face) - face).max() < 1e-9

    @pytest.mark.parametrize("c", [0.3, 0.5, 0.9])
    @pytest.mark.parametrize("t", [0.25, 0.5, 1.0])
    def test_roundtrip(self, c, t):
        m = UnsquishMap(_params(c, apex=np.array([0.2, -0.1, 0.3])), t)
        rng = np.random.default_rng(8)
        pts = m.params.outer.sample(rng, 2000)
        assert _roundtrip_error(m, pts) < 1e-9

    def test_off_center_apex_exact_expansion(self):
        apex = np.array([0.3, -0.2, 0.1])
        m = UnsquishMap(_params(0.5, apex=apex), 1.0)
        rng = np.random.default_rng(9)
        a = apex
        # short steps from the apex stay inside the protected zone
        pts = a + rng.normal(size=(500, 3)) * 0.01
        img = m.apply_array(pts)
        r0 = np.sqrt(((pts - a) ** 2).sum(-1))
        r1 = np.sqrt(((img - a) ** 2).sum(-1))
        assert np.abs(r1 - 2.0 * r0).max() < 1e-9


# -- the split-branch unsquish, the oracle of the one-pass kernels ---------------


def _split_radial_scale(box: Box, origin: np.ndarray, direction: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t_lo = (box.lo - origin) / direction
        t_hi = (box.hi - origin) / direction
    t_max = np.maximum(t_lo, t_hi)
    t_max[~np.isfinite(t_max)] = np.inf
    return t_max.min(axis=-1)


def _split_contains(box: Box, pts: np.ndarray) -> np.ndarray:
    return np.all((pts >= box.lo) & (pts <= box.hi), axis=-1)


class _SplitBranchUnsquish(UnsquishMap):
    """The unsquish kernels in their split-branch form: the rows are split
    by leg into masked subsets, each leg's formula runs on its own rows,
    and the results are scattered back."""

    def __init__(self, params, t):
        super().__init__(params, t)
        # the apex and center as (3,) rows, not the kernels' columns
        self._apex, self._center = params.apex, params.outer.center

    def _path_coords(self, pts):
        par = self.params
        in_inner = _split_contains(par.inner, pts)
        s = np.empty(pts.shape[0])
        v_in = np.empty_like(pts)
        if in_inner.any():
            q = pts[in_inner]
            d = q - self._apex
            r = _split_radial_scale(par.inner, np.broadcast_to(self._apex, q.shape), d)
            at_apex = ~np.isfinite(r) | (np.abs(d).max(axis=-1) == 0.0)
            r = np.where(at_apex, 1.0, r)
            v = self._apex + r[:, None] * d
            s_raw = np.where(at_apex, 0.0, 1.0 / r)
            s[in_inner] = s_raw / 2.0
            v_in[in_inner] = np.where(at_apex[:, None], self._apex + 0.0, v)
        out_mask = ~in_inner
        if out_mask.any():
            q = pts[out_mask]
            d = q - self._center
            lam = par.scale_up
            r = _split_radial_scale(par.inner, np.broadcast_to(self._center, q.shape), d)
            mult = 1.0 / r
            v = self._center + r[:, None] * d
            s[out_mask] = 0.5 + 0.5 * np.clip((mult - 1.0) / (lam - 1.0), 0.0, 1.0)
            v_in[out_mask] = v
        return s, v_in

    def _path_point(self, s, v_in):
        lam = self.params.scale_up
        inner_leg = s <= 0.5
        out = np.empty_like(v_in)
        sr = np.clip(2.0 * s, 0.0, 1.0)
        out[inner_leg] = self._apex + sr[inner_leg, None] * (v_in[inner_leg] - self._apex)
        if (~inner_leg).any():
            mult = 1.0 + (2.0 * s[~inner_leg] - 1.0) * (lam - 1.0)
            out[~inner_leg] = self._center + mult[:, None] * (v_in[~inner_leg] - self._center)
        return out

    def _s_prime(self, s):
        par = self.params
        s0 = par.s_c0
        sc_t = self.t * par.s_c1 + (1.0 - self.t) * s0
        low = s <= s0
        out = np.empty_like(s)
        out[low] = (s[low] / s0) * sc_t
        out[~low] = ((s[~low] - s0) / (1.0 - s0)) * 1.0 + (1.0 - (s[~low] - s0) / (1.0 - s0)) * sc_t
        return out

    def _s_prime_inverse(self, sp):
        par = self.params
        s0 = par.s_c0
        sc_t = self.t * par.s_c1 + (1.0 - self.t) * s0
        low = sp <= sc_t
        out = np.empty_like(sp)
        out[low] = (sp[low] / sc_t) * s0
        out[~low] = s0 + (sp[~low] - sc_t) / (1.0 - sc_t) * (1.0 - s0)
        return out

    def _slide(self, pts, reparam):
        pts = np.asarray(pts, dtype=float)
        out = pts.copy()
        inside = _split_contains(self.params.outer, pts)
        if not inside.any():
            return out
        s, v_in = self._path_coords(pts[inside])
        out[inside] = self._path_point(reparam(s), v_in)
        return out


def _unsquish_params():
    """An outer box of scale 2^-8 .. 4 around a center within +-50, a
    concentric inner box 1/lam of its size, and an apex inside the inner
    box, drawn as a fraction of its half extents."""
    coord = st.floats(-50.0, 50.0)
    frac = st.floats(-0.95, 0.95)
    return st.tuples(
        st.tuples(coord, coord, coord),
        st.floats(2.0**-8, 4.0),
        st.tuples(*[st.floats(0.25, 1.0)] * 3),
        st.floats(1.25, 4.0),
        st.tuples(frac, frac, frac),
        st.floats(0.05, 0.95),
    ).map(_build_unsquish_params)


def _build_unsquish_params(v) -> UnsquishParams:
    center, scale, aspect, lam, frac, c = v
    half = np.multiply(aspect, scale)
    inner = Box.from_center(center, half)
    outer = Box.from_center(center, half * lam)
    return UnsquishParams(outer=outer, inner=inner, apex=inner.center + np.multiply(frac, half), c=c)


def _unsquish_probe_points(par: UnsquishParams, rng: np.random.Generator) -> np.ndarray:
    """Rows inside and around the outer box, plus the apex, the center, and
    the corners and points on every face of both boxes."""
    pool = [par.outer.sample(rng, 200), par.inner.sample(rng, 100), par.outer.scaled_about_center(1.5).sample(rng, 60)]
    pool += [par.apex[None, :], par.outer.center[None, :]]
    for b in (par.inner, par.outer):
        row = np.arange(24)
        face = b.sample(rng, 24)
        face[row, row % 3] = np.where(row[:, None] % 6 < 3, b.lo, b.hi)[row, row % 3]
        pool += [b.corners(), face]
    return np.concatenate(pool)


def _same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    """Equal as int64 views, so -0.0 and 0.0 differ."""
    return np.array_equal(np.ascontiguousarray(got).view(np.int64), np.ascontiguousarray(want).view(np.int64))


def _one_leg_batches(par: UnsquishParams, ref: _SplitBranchUnsquish, pts: np.ndarray) -> list[np.ndarray]:
    """The rows of the outer box among pts split by each leg a kernel can
    take: in the inner box or in the shell, and with s at most c/2 or
    s_c(t), where the forward and the inverse reparameterization break,
    or above it.  A batch of one leg may be empty."""
    rows = pts[_split_contains(par.outer, pts)]
    s, _ = ref._path_coords(rows)
    inner = _split_contains(par.inner, rows)
    legs = [inner, ~inner]
    for brk in (par.s_c0, ref._sc_t):
        legs += [s <= brk, s > brk]
    return [rows[leg] for leg in legs]


@given(st.one_of(st.just(None), _unsquish_params()), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_one_pass_unsquish_matches_split_branches(params, seed):
    """Mixed batches, batches whose rows all take one leg of each kernel
    (``_one_leg_batches``), and single rows, the apex among them: forward
    and inverse, bitwise the split-branch kernels'."""
    par = _params(0.5, apex=np.array([0.2, -0.1, 0.3])) if params is None else params
    rng = np.random.default_rng(seed)
    pts = _unsquish_probe_points(par, rng)
    for t in (0.0, 0.4, 1.0):
        m, ref = UnsquishMap(par, t), _SplitBranchUnsquish(par, t)
        batches = [pts, *_one_leg_batches(par, ref, pts)]
        # one row at a time: the apex, the center and random rows
        batches += [par.apex[None, :], par.outer.center[None, :]]
        batches += [pts[k][None, :] for k in rng.integers(len(pts), size=8)]
        for batch in batches:
            assert _same_bits(m.apply_array(batch), ref.apply_array(batch))
            assert _same_bits(m.apply_inverse_array(batch), ref.apply_inverse_array(batch))


class TestCompositeAndConjugate:
    def test_left_to_right_order(self):
        shift = AffineMap(np.ones(3), np.array([1.0, 0.0, 0.0]))
        double = AffineMap(np.full(3, 2.0), np.zeros(3))
        m = CompositeMap([shift, double], support=UNBOUNDED)
        # shift first, then scale: (0,0,0) -> (1,0,0) -> (2,0,0)
        assert _at(m, np.zeros(3)).tolist() == [2.0, 0.0, 0.0]

    def test_inverse_roundtrip(self):
        cone = ConeMap(UNIT, np.zeros(3), np.array([0.3, 0.2, -0.1]))
        unsquish = UnsquishMap(_params(0.5), 1.0)
        m = CompositeMap([cone, unsquish], support=bounding_box([cone.support, unsquish.support]))
        rng = np.random.default_rng(10)
        pts = rng.uniform(-3, 3, (2000, 3))
        assert _roundtrip_error(m, pts) < 1e-9

    def test_conjugate_identity_outside_target(self):
        target = Box.from_center((5, 5, 5), (0.5, 0.5, 0.5))
        frame = AffineMap.box_to_box(UNIT, target)
        cone = ConeMap(UNIT, np.zeros(3), np.array([0.3, 0, 0]))
        m = conjugate(frame, cone, target)
        assert m.support == target
        rng = np.random.default_rng(11)
        pts = rng.uniform(-2, 2, (1000, 3))  # far from the target box
        assert np.abs(m.apply_array(pts) - pts).max() < 1e-12

    def test_conjugate_keeps_its_frame_and_inverts_once(self):
        target = Box.from_center((5, 5, 5), (0.5, 0.25, 0.5))
        frame = AffineMap.box_to_box(UNIT, target)
        m = conjugate(frame, kink_map(), target)
        assert isinstance(m, CompositeMap)
        assert m.parts == (frame.inverse(), kink_map(), frame)
        inv = m.inverse()
        assert inv is m.inverse()
        # the parts CompositeMap.inverse would build, double-inverted frame included
        assert inv.parts == (frame.inverse(), kink_map().inverse(), frame.inverse().inverse())
        assert inv.support == target

    def test_conjugate_moves_target_center(self):
        target = Box.from_center((5, 5, 5), (0.5, 0.5, 0.5))
        frame = AffineMap.box_to_box(UNIT, target)
        cone = ConeMap(UNIT, np.zeros(3), np.array([0.4, 0, 0]))
        m = conjugate(frame, cone, target)
        img = _at(m, np.array([5.0, 5.0, 5.0]))
        assert math.dist(img, np.array([5.2, 5, 5])) < 1e-12


class TestInverseLipschitz:
    def test_identity_gives_one(self):
        est = estimate_inverse_lipschitz(IdentityMap(support=UNIT), UNIT, 500, seed=0)
        assert est == pytest.approx(1.0)

    def test_a_cone_that_moves_nothing_gives_exactly_one(self):
        p = np.array([0.3, -0.2, 0.1])
        assert ConeMap(UNIT, p, p.copy()).inverse_lipschitz() == 1.0

    def test_deterministic_given_seed(self):
        cone = ConeMap(UNIT, np.zeros(3), np.array([0.3, 0.2, -0.1]))
        a = estimate_inverse_lipschitz(cone, UNIT, 1000, seed=7)
        b = estimate_inverse_lipschitz(cone, UNIT, 1000, seed=7)
        assert a == b
        assert 0.0 < a < 1.0

    def test_rejects_tiny_sample(self):
        with pytest.raises(ValueError):
            estimate_inverse_lipschitz(IdentityMap(support=UNIT), UNIT, 1, seed=0)


def _random_cones():
    """Cone pulls over a box of half-extents 2^-3 .. 4 around a center
    within +-10, both apexes at most 0.95 half-extents from the center."""
    coord = st.floats(-10.0, 10.0)
    half = st.floats(-3.0, 2.0).map(lambda e: 2.0**e)
    frac = st.tuples(*[st.floats(-0.95, 0.95)] * 3)

    def build(v) -> ConeMap:
        center, halves, f0, f1 = v
        region = Box.from_center(np.array(center), np.array(halves))
        p0, p1 = (region.center + np.array(f) * region.half_extents for f in (f0, f1))
        return ConeMap(region, p0, p1)

    return st.tuples(
        st.tuples(coord, coord, coord), st.tuples(half, half, half), frac, frac
    ).map(build)


@given(_random_cones(), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_sampled_inverse_lipschitz_never_reads_below_the_exact_constant(m, seed):
    exact = m.inverse_lipschitz()
    sigma = cone_piece_singular_values(m)
    assert exact == min(1.0, sigma.min())
    # up to the rounding of the sampled images
    assert estimate_inverse_lipschitz(m, m.region, 500, seed) >= exact * (1.0 - 1e-9)
    # the constant is attained: a short step along the worst piece's
    # weakest direction, from halfway between p0 and that piece's face
    f = int(sigma.argmin())
    axis, side = divmod(f, 2)
    face_center = m.region.center.copy()
    face_center[axis] = (m.region.lo, m.region.hi)[side][axis]
    x = m.p0 + 0.5 * (face_center - m.p0)
    w = np.zeros(3)
    w[axis] = 1.0 / (face_center[axis] - m.p0[axis])
    v = np.linalg.svd(np.eye(3) - np.outer(m.p1 - m.p0, w))[2][-1]
    step = 1e-6 * m.region.half_extents.min()
    y = m.apply_array(np.array([x, x + step * v]))
    assert np.linalg.norm(y[1] - y[0]) / step == pytest.approx(exact, rel=1e-5)


@given(st.floats(0.05, 0.95), st.floats(0.0, 1.0))
@settings(max_examples=50, deadline=None)
def test_unsquish_parameter_maps_invert(c, t):
    m = UnsquishMap(_params(c), t)
    s = np.linspace(0.0, 1.0, 101)
    back = m._s_prime_inverse(m._s_prime(s))
    assert np.abs(back - s).max() < 1e-12


@given(st.floats(-0.8, 0.8), st.floats(-0.8, 0.8), st.floats(-0.8, 0.8))
@settings(max_examples=50, deadline=None)
def test_cone_map_bijective_on_random_targets(x, y, z):
    m = ConeMap(UNIT, np.zeros(3), np.array([x, y, z]))
    rng = np.random.default_rng(12)
    pts = UNIT.sample(rng, 200)
    assert _roundtrip_error(m, pts) < 1e-9


# -- support culling ----------------------------------------------------------


def _target_boxes():
    coord = st.floats(-50.0, 50.0)
    aspect = st.floats(0.25, 1.0)
    return st.tuples(coord, coord, coord, st.floats(2.0**-12, 4.0), aspect, aspect, aspect).map(
        lambda v: Box.from_center(v[:3], np.multiply(v[4:], v[3]))
    )


def _around(box: Box, rng: np.random.Generator, n: int = 400) -> np.ndarray:
    """Points in and near a box, plus its corners and far-away points."""
    near = box.scaled_about_center(3.0).sample(rng, n)
    far = rng.uniform(-100.0, 100.0, (n // 4, 3))
    return np.concatenate([near, far, box.corners()])


# interval-map exponents: the scenario's (k + t) / k lie in [1, 2]
_exponents = st.floats(0.25, 4.0)


def _assert_culled(m: LocalMap, pts: np.ndarray) -> None:
    """Rows outside the declared support come back bitwise unchanged, and
    a composite's support is honest: its parts themselves move those rows
    by no more than conjugation roundoff."""
    outside = ~m.support.contains_array(pts)
    assert outside.any()
    img = m.apply_array(pts)
    assert np.array_equal(img[outside], pts[outside])
    assert np.array_equal(m.apply_inverse_array(pts)[outside], pts[outside])
    if not isinstance(m, CompositeMap):
        return
    raw = pts[outside]
    for part in m.parts:
        raw = part.apply_array(raw)
    assert np.abs(raw - pts[outside]).max() < 1e-12


@given(_target_boxes(), st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_move_time_one_maps_fix_rows_off_support(target, seed):
    rng = np.random.default_rng(seed)
    pts = _around(target, rng)
    frame = AffineMap.box_to_box(CANONICAL_BOX, target)
    squish = unsquish_isotopy(
        UnsquishParams(
            outer=target,
            inner=target.scaled_about_center(0.5),
            apex=target.center,
            c=0.5,
        )
    )
    insert = conjugated_insert(target)
    maps = [
        conjugate(frame, kink_map(), target),
        staged_isotopy(list(KINK_STAGES), CANONICAL_BOX).map_at(1.0),
        chained_isotopy([insert, squish], target).map_at(1.0),
        reversed_isotopy(insert).map_at(1.0),
    ]
    for m in maps:
        box_pts = pts if m.support == target else _around(m.support, rng)
        _assert_culled(m, box_pts)


CULLED_SCENARIOS = sorted(SCENARIO_BUILDERS)


@given(st.sampled_from(CULLED_SCENARIOS), st.integers(1, 10), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_scenario_stage_maps_fix_rows_off_support(scenarios, name, k, seed):
    # a stage is a composite, or one map (the 1d_counterexample powers)
    m = scenarios[name].moves.time_one_map(k)
    _assert_culled(m, _around(m.support, np.random.default_rng(seed)))


@given(
    _target_boxes(),
    st.tuples(*[st.floats(-0.95, 0.95)] * 3),
    _unsquish_params(),
    st.floats(0.0, 1.0),
    _exponents,
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_every_map_kind_fixes_rows_off_support_and_keeps_one_inverse(box, u, par, t, e, seed):
    rng = np.random.default_rng(seed)
    cone = ConeMap(box, box.center, box.center + np.array(u) * box.half_extents)
    unsquish = UnsquishMap(par, t)
    composite = CompositeMap([cone, unsquish], support=bounding_box([cone.support, unsquish.support]))
    conj = conjugate(AffineMap.box_to_box(CANONICAL_BOX, box), kink_map(), box)
    assert cone.inverse().inverse() is cone
    for m in (IdentityMap(support=box), cone, unsquish, PowerMap1D(e), composite, conj):
        for f in (m, m.inverse()):
            assert f.inverse() is f.inverse()
            pts = _around(f.support, rng)
            outside = ~f.support.contains_array(pts)
            assert outside.any()
            bits = pts[outside].view(np.uint64)
            assert np.array_equal(f.apply_array(pts)[outside].view(np.uint64), bits)
            assert np.array_equal(f.apply_inverse_array(pts)[outside].view(np.uint64), bits)


def test_every_map_kind_returns_a_fresh_image():
    # rows at the origin and inside the unit box: all inside UNIT, so a
    # composite declared on it hands back its last part's image
    inner = UNIT.scaled_about_center(0.5).sample(np.random.default_rng(8), 20)
    rows = np.concatenate([np.zeros((3, 3)), inner])
    cone = ConeMap(UNIT, np.zeros(3), np.array([0.3, -0.2, 0.1]))
    maps = [
        IdentityMap(support=UNIT),
        AffineMap(np.full(3, 2.0), np.ones(3)),
        cone,
        UnsquishMap(_params(0.5), 0.5),
        CompositeMap([cone], support=UNIT),
        conjugate(AffineMap.box_to_box(CANONICAL_BOX, UNIT), kink_map(), UNIT),
        PowerMap1D(2.0),
        PowerMap1D(2.0).inverse(),
    ]
    for m in maps:
        for apply in (m.apply_array, m.apply_inverse_array):
            pts = rows.copy()
            img = apply(pts)
            img[:] = 7.0
            assert np.array_equal(pts, rows), m


# -- batches against one row at a time -------------------------------------------


def _mixed_batch(support: Box, pool: np.ndarray, rng, inside: str, order: str) -> np.ndarray:
    """Rows of pool in a shuffled batch with none, one or all of them inside
    the support, or some of each, each class with some rows repeated, in C
    or Fortran order; a class the pool lacks is left out, so a batch may be
    empty."""
    held = support.contains_array(pool)
    sizes = {"none": (0, 12), "one": (1, 12), "all": (12, 0), "mixed": (8, 8)}[inside]
    parts = []
    for rows, size in zip((pool[held], pool[~held]), sizes):
        if size and len(rows):
            part = rows[rng.integers(len(rows), size=size)]
            # the first rows again, so the batch repeats rows in every class
            # with more than one
            parts += [part, part[: size // 4]]
    batch = np.concatenate([np.empty((0, 3))] + parts)
    batch = batch[rng.permutation(len(batch))]
    return np.asfortranarray(batch) if order == "F" else np.ascontiguousarray(batch)


def _assert_rows_agree(apply, batch: np.ndarray) -> None:
    """The batch image is bitwise the stack of the one-row images."""
    rows = np.concatenate([np.empty((0, 3))] + [apply(batch[i : i + 1]) for i in range(len(batch))])
    assert _same_bits(apply(batch), rows)


_BATCH_CASES = st.tuples(st.sampled_from(["none", "one", "all", "mixed"]), st.sampled_from("CF"))


@given(
    _target_boxes(),
    st.tuples(*[st.floats(-0.95, 0.95)] * 3),
    _unsquish_params(),
    st.floats(0.0, 1.0),
    _exponents,
    _BATCH_CASES,
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=30, deadline=None)
def test_every_map_kind_maps_a_batch_as_its_rows(box, u, par, t, e, case, seed):
    rng = np.random.default_rng(seed)
    cone = ConeMap(box, box.center, box.center + np.array(u) * box.half_extents)
    unsquish = UnsquishMap(par, t)
    composite = CompositeMap([cone, unsquish], support=bounding_box([cone.support, unsquish.support]))
    maps = [
        IdentityMap(support=box),
        AffineMap.box_to_box(CANONICAL_BOX, box),
        cone,
        unsquish,
        unsquish.inverse(),
        PowerMap1D(e),
        composite,
        conjugate(AffineMap.box_to_box(CANONICAL_BOX, box), kink_map(), box),
    ]
    for m in maps:
        pool = _around(m.support if m.support != UNBOUNDED else box, rng, 40)
        batch = _mixed_batch(m.support, pool, rng, *case)
        for apply in (m.apply_array, m.apply_inverse_array):
            _assert_rows_agree(apply, batch)


_DECLARED = [n for n, build in sorted(SCENARIO_BUILDERS.items()) if build().moves.similarity is not None]


@given(
    st.sampled_from(_DECLARED),
    st.sampled_from([1, 5, 20]),
    _BATCH_CASES,
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_a_truncation_maps_a_batch_as_its_rows(scenarios, name, n, case, seed):
    # the level loop of a declared stream, on rows of its stage supports,
    # its curve and its census, and around them
    rng = np.random.default_rng(seed)
    s = scenarios[name]
    m = truncated_map(s.moves, n)
    boxes = [s.moves.stage(k).support for k in (1, max(1, n // 2), n)]
    pool = np.concatenate(
        [_around(b, rng, 12) for b in boxes]
        + [s.initial_curve.points[rng.integers(len(s.initial_curve.points), size=40)]]
        + [s.census_samples, s.moves.similarity.p[None, :]]
    )
    _assert_rows_agree(m.apply_array, _mixed_batch(m.support, pool, rng, *case))


# -- interval power map ----------------------------------------------------------


@given(_exponents, st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_power_map_fixes_its_faces_and_is_the_power_on_its_axis(e, seed):
    rng = np.random.default_rng(seed)
    m = PowerMap1D(e)
    box = m.support
    # all six faces of the box, and the x = 0 face at -0.0 too
    sides = [(axis, v) for axis in range(3) for v in (box.lo[axis], box.hi[axis])]
    faces = [box.corners()]
    for axis, v in sides + [(0, -0.0)]:
        rows = box.sample(rng, 50)
        rows[:, axis] = v
        faces.append(rows)
    faces = np.concatenate(faces)
    bits = faces.view(np.uint64)
    for apply in (m.apply_array, m.apply_inverse_array):
        assert np.array_equal(apply(faces).view(np.uint64), bits)
    # on the axis, numpy's own x ** e and x ** (1 / e), bit for bit
    xs = np.concatenate([rng.uniform(0.0, 1.0, 200), [0.0, 1.0]])
    axis = np.column_stack([xs, np.zeros((len(xs), 2))])
    for apply, power in ((m.apply_array, e), (m.apply_inverse_array, 1.0 / e)):
        img = apply(axis)
        assert np.array_equal(img[:, 0].view(np.uint64), (xs**power).view(np.uint64))
        assert np.array_equal(img[:, 1:].view(np.uint64), axis[:, 1:].view(np.uint64))
    # round trips keep y and z.  The two exponents multiply to 1 + d with
    # |d| <= eps, and x^(1 + d) is x (1 + d ln x), off by at most 14 ulps
    # of x for x >= 2^-10; each power's own rounding grows by up to the
    # inverse exponent, at most 4.  32 ulps of x bound the sum.
    inside = box.sample(rng, 400)
    inside[:, 0] = 2.0 ** -rng.uniform(0.0, 10.0, 400)
    inside[:100, 1:] = 0.0
    for there, back in ((m.apply_array, m.apply_inverse_array), (m.apply_inverse_array, m.apply_array)):
        trip = back(there(inside))
        assert np.array_equal(trip[:, 1:], inside[:, 1:])
        assert (np.abs(trip[:, 0] - inside[:, 0]) <= 32 * np.spacing(inside[:, 0])).all()


# -- cone kernel: the gauge formula --------------------------------------------


def _tetrahedron_ties(box: Box, apex: np.ndarray, rng: np.random.Generator, n: int = 24) -> np.ndarray:
    """Points where tetrahedra of the star-triangulated cone meet, plus
    points inside and around the box: the apex, axis lines through it, face
    diagonals through the min corner, rays from the apex to those diagonals
    and to box edges and corners, and the box boundary."""
    lo, hi = box.lo, box.hi
    rows = np.arange(n)
    t = rng.uniform(0.0, 1.0, (n, 1))
    s = rng.uniform(0.0, 1.0, (n, 1))
    axis = rng.integers(0, 3, n)
    face = rng.integers(0, 2, n).astype(bool)
    on_axis = np.zeros((n, 3))
    on_axis[rows, axis] = rng.uniform(-1.5, 1.5, n) * (hi - lo)[axis]
    diagonal = lo + t * (hi - lo)
    diagonal[rows, axis] = np.where(face, hi[axis], lo[axis])
    edge = np.where(rng.integers(0, 2, (n, 3)).astype(bool), hi, lo)
    edge[rows, axis] = (lo + t[:, 0, None] * (hi - lo))[rows, axis]
    return np.concatenate(
        [
            apex[None, :],
            apex + on_axis,
            diagonal,
            apex + s * (diagonal - apex),
            apex + s * (edge - apex),
            apex + s * (box.corners()[rng.integers(0, 8, n)] - apex),
            _boundary_rows(box, rng, n),
            box.scaled_about_center(1.5).sample(rng, 4 * n),
        ]
    )


def _boundary_rows(box: Box, rng: np.random.Generator, n: int) -> np.ndarray:
    """n points on the faces of a box, then its 8 corners."""
    pts = box.sample(rng, n)
    axis = rng.integers(0, 3, n)
    pts[np.arange(n), axis] = np.where(rng.random(n) < 0.5, box.lo[axis], box.hi[axis])
    return np.concatenate([pts, box.corners()])


def _apexes(box: Box, u0, u1) -> tuple[np.ndarray, np.ndarray]:
    half = box.half_extents
    return box.center + np.array(u0) * half, box.center + np.array(u1) * half


_unit_offsets = st.tuples(*[st.floats(-0.95, 0.95)] * 3)


@given(_target_boxes(), _unit_offsets, _unit_offsets, st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_cone_kernel_matches_twelve_tetrahedra(box, u0, u1, seed):
    a0, a1 = _apexes(box, u0, u1)
    m = ConeMap(box, a0, a1)
    pts = _tetrahedron_ties(box, a0, np.random.default_rng(seed))
    img = m.apply_array(pts)
    old = twelve_tetrahedra_cone(m, pts)
    outside = ~box.contains_array(pts)
    assert np.array_equal(img[outside], pts[outside])
    # the same map in exact arithmetic; the barycentric solve of the
    # simplicial form rounds by up to eps * cond(tetrahedron) * coordinate
    # scale, and the gauge formula by a few eps * scale (cond >= 1)
    kappa = np.linalg.cond(cone_tetrahedra(m) - a0).max()
    scale = max(np.abs(box.corners()).max(), np.abs(a1).max())
    dev = np.abs(img - old).max(axis=1)
    assert (dev <= 4.0 * np.finfo(float).eps * kappa * scale).all()


def test_cone_kernel_matches_twelve_tetrahedra_on_the_canonical_strand_move():
    # the x-axis strand runs through the first kink stage's apex, along
    # tetrahedron boundaries; pushed through the kink's cones (or their
    # inverses) by each kernel, it ends up within 16 eps of the row scale
    # (12.3 at most): each kernel rounds a few times per cone, and two
    # cones chain
    xs = np.linspace(-1.0, 1.0, 4001)
    strand = np.stack([xs, np.zeros_like(xs), np.zeros_like(xs)], axis=1)
    cones = [ConeMap(s.region, s.p0, s.p1) for s in KINK_STAGES]
    for chain in (cones, [c.inverse() for c in reversed(cones)]):
        img, old = strand, strand
        for cone in chain:
            img = cone.apply_array(img)
            old = twelve_tetrahedra_cone(cone, old)
        row_scale = np.abs(old).max(axis=1)
        assert (np.abs(img - old).max(axis=1) <= 16.0 * np.finfo(float).eps * row_scale).all()


@given(_target_boxes(), _unit_offsets, _unit_offsets, st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_cone_fixes_its_boundary_bitwise(box, u0, u1, seed):
    a0, a1 = _apexes(box, u0, u1)
    m = ConeMap(box, a0, a1)
    rows = _boundary_rows(box, np.random.default_rng(seed), 200)
    bits = rows.view(np.uint64)
    for f in (m, m.inverse()):
        assert np.array_equal(f.apply_array(rows).view(np.uint64), bits)


@given(
    _target_boxes(),
    _unit_offsets,
    _unit_offsets,
    st.lists(st.booleans(), min_size=3, max_size=3).filter(any),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=100, deadline=None)
def test_cone_keeps_the_coordinates_its_apexes_share(box, u0, u1, shared, seed):
    a0, a1 = _apexes(box, u0, u1)
    a1 = np.where(shared, a0, a1)
    rng = np.random.default_rng(seed)
    rows = np.concatenate([_tetrahedron_ties(box, a0, rng), box.sample(rng, 200)])
    for f in (ConeMap(box, a0, a1), ConeMap(box, a1, a0)):
        img = f.apply_array(rows)
        assert np.array_equal(img[:, shared].view(np.uint64), rows[:, shared].view(np.uint64))


def test_cone_keeps_signed_zeros_it_does_not_move():
    # y is shared by the apexes, and the last two rows lie on the boundary
    m = ConeMap(UNIT, np.array([0.1, 0.0, 0.2]), np.array([0.3, 0.0, -0.1]))
    rows = np.array([[0.5, -0.0, 0.5], [-0.0, -0.0, -0.0], [1.0, -0.0, -0.0], [-0.0, -1.0, -0.0]])
    for f in (m, m.inverse()):
        img = f.apply_array(rows)
        assert np.array_equal(np.signbit(img[:, 1]), np.signbit(rows[:, 1]))
        assert np.array_equal(img[2:].view(np.uint64), rows[2:].view(np.uint64))


def test_radial_reach_of_a_zero_direction_component_is_infinite():
    # from an origin strictly inside the box, a 0.0 or -0.0 component
    # divides one face offset of each sign: the reach on that axis is +inf
    box = Box((-1.0, -2.0, -0.5), (3.0, 1.0, 0.25))
    origin = np.array([0.5, -0.25, 0.0])
    d = np.array([
        [0.0, -0.0, 0.0],
        [-0.0, 0.0, -0.0],
        [0.0, 1.0, -0.0],
        [-0.0, -0.0, -2.0],
        [1.0, -0.0, 0.0],
    ])
    reach = box_radial_scale(box, np.broadcast_to(origin, d.shape), d)
    assert reach.tolist() == [np.inf, np.inf, 1.25, 0.25, 2.5]
    # so the cone sends its apex, with either zero sign, to its target,
    # and the unsquish keeps its apex where it is
    p0, p1 = np.array([0.5, 0.0, -0.0]), np.array([-0.25, 0.5, 0.125])
    apex_rows = np.array([[0.5, 0.0, -0.0], [0.5, -0.0, 0.0], [0.5, -0.0, -0.0]])
    cone = ConeMap(box, p0, p1)
    assert np.array_equal(cone.apply_array(apex_rows), np.tile(p1, (3, 1)))
    assert np.array_equal(cone.inverse().apply_array(np.tile(p1, (3, 1))), np.tile(p0, (3, 1)))
    apex = np.array([0.25, 0.0, -0.0])
    rows = apex + np.array([[0.0, -0.0, 0.0], [-0.0, 0.0, -0.0]])
    for t in (0.5, 1.0):
        m = UnsquishMap(_params(0.5, apex=apex), t)
        for f in (m, m.inverse()):
            assert np.array_equal(f.apply_array(rows), np.tile(apex, (2, 1)))


def _exact_pull(m: ConeMap, q: np.ndarray) -> list[list[Fraction]]:
    """q + (1 - rho(q)) * (p1 - p0) in exact rational arithmetic, rho the
    box gauge from p0: max over axes of (q - p0) / (face - p0), with the
    face the exit face of that axis."""
    vectors = (m.region.lo, m.region.hi, m.p0, m.p1)
    lo, hi, p0, p1 = ([Fraction(float(x)) for x in v] for v in vectors)
    out = []
    for row in q:
        x = [Fraction(float(v)) for v in row]
        d = [xi - ai for xi, ai in zip(x, p0)]
        rho = max(
            [di / ((h if di > 0 else l) - ai) for di, h, l, ai in zip(d, hi, lo, p0) if di],
            default=Fraction(0),
        )
        out.append([xi + (1 - rho) * (b - a) for xi, a, b in zip(x, p0, p1)])
    return out


@given(_target_boxes(), _unit_offsets, _unit_offsets, st.integers(0, 2**32 - 1))
@example(Box(np.full(3, -1.0), np.ones(3)), (0.0, 0.0, 0.0), (0.0, 0.0, 2.225073858507203e-309), 0)
@settings(max_examples=60, deadline=None)
def test_cone_kernel_is_the_gauge_formula_to_a_few_ulps(box, u0, u1, seed):
    # with u = eps / 2: r = min over axes of fl(fl(face - p0) / fl(q - p0))
    # is within 3u of the exact reach, so k = fl(1 - fl(1 / r)) is within
    # u * (4 - 3k) of 1 - rho; the product with fl(p1 - p0) is then within
    # 4u |p1 - p0| of the exact shift and the final sum adds u |image|,
    # eps * (2 |p1 - p0| + |image| / 2) per coordinate to first order
    # (measured up to 0.99 of it).  The test allows eps * (2 |p1 - p0| +
    # |image|) for the second-order terms; with |p1 - p0| <= 2S and
    # |image| <= 3S that is at most 7 eps * S, S = max(|q|, |p0|, |p1|).
    # Those bounds are relative, and below 2^-1022 rounding is not: a step
    # fl(p1 - p0) that is subnormal (the pinned example's, 2.2e-309) makes
    # the product k * step round to the subnormal grid, off by up to half
    # its spacing, 2^-1075, where u |k * step| is far smaller.  Differences
    # and sums that land on that grid are exact, so this product is the
    # one absolute term; the test adds 2^-1074 for it (on the pinned
    # example the error exceeds the relative bound by up to 0.23 * 2^-1074)
    a0, a1 = _apexes(box, u0, u1)
    rng = np.random.default_rng(seed)
    q = np.concatenate([_tetrahedron_ties(box, a0, rng, n=8), box.sample(rng, 40)])
    q = q[box.contains_array(q)]
    eps = Fraction(np.finfo(float).eps)
    tiny = Fraction(2) ** -1074
    for m in (ConeMap(box, a0, a1), ConeMap(box, a0, a1).inverse()):
        step = [Fraction(float(b)) - Fraction(float(a)) for a, b in zip(m.p0, m.p1)]
        for got_row, want_row in zip(m.apply_array(q), _exact_pull(m, q)):
            for g, w, e in zip(got_row, want_row, step):
                assert abs(Fraction(float(g)) - w) <= eps * (2 * abs(e) + abs(w)) + tiny


# -- the multi-kink insert -------------------------------------------------------


def _assert_bitwise(got: np.ndarray, want: np.ndarray) -> None:
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def _probe_points(boxes: list[Box], rng: np.random.Generator, n: int) -> np.ndarray:
    """n rows drawn from points inside the boxes, on their faces and
    corners, just around them and far away."""
    pool = [rng.uniform(-100.0, 100.0, (8, 3))]
    for b in boxes:
        lo, hi = b.lo, b.hi
        face = b.sample(rng, 24)
        axis = rng.integers(0, 3, 24)
        face[np.arange(24), axis] = np.where(rng.random(24) < 0.5, lo[axis], hi[axis])
        pool += [b.sample(rng, 60), face, b.corners(), b.scaled_about_center(1.5).sample(rng, 16)]
    pool = np.concatenate(pool)
    return pool[rng.choice(len(pool), n, replace=n > len(pool))]


def _with_signed_zeros(pts: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """The rows, then copies of them with random coordinates set to 0.0
    or -0.0."""
    zeroed = pts.copy()
    hit = rng.random(zeroed.shape) < 0.4
    zeroed[hit] = np.where(rng.random(hit.sum()) < 0.5, 0.0, -0.0)
    return np.concatenate([pts, zeroed])


@pytest.mark.parametrize("m", [2, 3])
def test_a_multi_kink_end_is_its_inserts(m):
    subs = loop_sub_boxes(m)
    end = multi_kink_isotopy(m).time_one()
    inserts = CompositeMap(
        [conjugated_isotopy(kink_isotopy(), b).time_one() for b in subs], support=CANONICAL_BOX
    )
    rng = np.random.default_rng(m)
    pts = _with_signed_zeros(_probe_points(subs + [CANONICAL_BOX], rng, 2000), rng)
    _assert_bitwise(end.apply_array(pts), part_by_part(inserts, pts))
    # the inverse reads the conjugates' inverse frames and their inverses,
    # 1 / (1 / s), not the frames themselves
    _assert_bitwise(end.inverse().apply_array(pts), part_by_part(inserts.inverse(), pts))


# -- coordinate-major batches ----------------------------------------------------


def _layout_rows(box: Box, apex: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """4,001 rows: inside, on the faces and corners of and around a box,
    the apex and rows a subnormal or a tiny normal offset off it, and rows
    with coordinates set to 0.0 or -0.0."""
    # offsets whose reach overflows to inf, and normal ones whose reach is
    # finite but beyond 1e300
    tiny = rng.choice([5e-324, -(2.0**-1060), 3e-306, -3e-306, 0.0, -0.0], (40, 3))
    pool = np.concatenate(
        [
            box.sample(rng, 400),
            _boundary_rows(box, rng, 200),
            box.scaled_about_center(1.5).sample(rng, 300),
            np.repeat(apex[None, :], 8, axis=0),
            apex + tiny,
            rng.uniform(-100.0, 100.0, (40, 3)),
        ]
    )
    pool = _with_signed_zeros(pool, rng)
    return pool[rng.choice(len(pool), 4001)]


def _assert_layout_free(m: LocalMap, rows: np.ndarray, want: np.ndarray) -> None:
    """m gives want, bitwise, on the rows in C and in Fortran order, in a
    fresh array that is Fortran-ordered when m culls, and leaves its input
    alone."""
    for pts in (np.ascontiguousarray(rows), np.asfortranarray(rows)):
        kept = pts.copy()
        img = m.apply_array(pts)
        _assert_bitwise(img, want)
        assert not np.shares_memory(img, pts)
        assert _same_bits(pts, kept)
        if not isinstance(m, (IdentityMap, AffineMap)):
            assert img.flags.f_contiguous


@given(
    _target_boxes(),
    _unit_offsets,
    _unit_offsets,
    st.floats(0.05, 0.95),
    _exponents,
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=20, deadline=None)
def test_every_map_kind_reads_c_and_fortran_batches_alike(box, u0, u1, c, e, seed):
    rng = np.random.default_rng(seed)
    a0, a1 = _apexes(box, u0, u1)
    cone = ConeMap(box, a0, a1)
    # an apex strictly inside the inner box, half the outer one
    par = UnsquishParams(box, box.scaled_about_center(0.5), box.center + (a0 - box.center) * 0.5, c)
    rows = _layout_rows(box, a0, rng)
    for n in (0, 1, 7, 4001):
        pts = rows[:n]
        for t in (0.0, 0.4, 1.0):
            m = UnsquishMap(par, t)
            _assert_layout_free(m, pts, row_major_unsquish(m, pts))
            _assert_layout_free(m.inverse(), pts, row_major_unsquish(m, pts, inverse=True))
        for f in (cone, cone.inverse()):
            _assert_layout_free(f, pts, row_major_cone(f, pts))
        frame = AffineMap.box_to_box(CANONICAL_BOX, box)
        others = [
            IdentityMap(support=box),
            # every row is inside the support: the image is the frame's
            CompositeMap([frame], support=UNBOUNDED),
            frame,
            PowerMap1D(e),
            CompositeMap([cone, UnsquishMap(par, 1.0)], support=box),
            conjugate(frame, kink_map(), box),
        ]
        for m in others:
            for f in (m, m.inverse()):
                _assert_layout_free(f, pts, f.apply_array(np.ascontiguousarray(pts)))
