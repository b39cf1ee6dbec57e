import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotiso.canonical import (
    CANONICAL_BOX,
    KINK_STAGES,
    conjugated_insert,
    kink_map,
    multi_kink_isotopy,
)
from knotiso.geometry import Box
from knotiso.maps import (
    AffineMap,
    CompositeMap,
    ConeMap,
    ConjugateMap,
    IdentityMap,
    UnsquishMap,
    UnsquishParams,
    conjugate,
    estimate_inverse_lipschitz,
    make_cone_map,
    UNBOUNDED,
)
from knotiso.moves import chained_isotopy, reversed_isotopy, staged_isotopy, unsquish_isotopy
from knotiso.scenarios import SCENARIO_BUILDERS

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
        m = IdentityMap()
        assert np.array_equal(m.apply_array(pts), pts)
        assert m.inverse() is m


class TestAffineMap:
    def test_rejects_singular_matrix(self):
        # a zero or non-finite axis scale; a tiny one is a valid frame
        for bad, det in ((0.0, "0.0"), (np.inf, "inf"), (np.nan, "nan")):
            with pytest.raises(ValueError, match=rf"singular \(det={det}\)"):
                AffineMap(np.array([1.0, bad, 2.0]), np.zeros(3))

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
        with pytest.raises(ValueError, match="singular"):
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
        assert np.abs(m.apply_array(pts) - pts).max() < 1e-12
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

    def test_make_cone_map_degenerate_is_identity(self):
        m = make_cone_map(UNIT, np.array([0.1, 0, 0]), np.array([0.1, 0, 0]))
        assert isinstance(m, IdentityMap)
        assert m.support == UNIT


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

    def test_unsquish_isotopy_slices(self):
        iso = unsquish_isotopy(_params(0.5))
        assert iso.map_at(0.3).t == 0.3
        with pytest.raises(ValueError):
            iso.map_at(1.5)


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


@given(st.one_of(st.just(None), _unsquish_params()), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_one_pass_unsquish_matches_split_branches(params, seed):
    par = _params(0.5, apex=np.array([0.2, -0.1, 0.3])) if params is None else params
    rng = np.random.default_rng(seed)
    pts = _unsquish_probe_points(par, rng)
    for t in (0.0, 0.4, 1.0):
        m, ref = UnsquishMap(par, t), _SplitBranchUnsquish(par, t)
        assert _same_bits(m.apply_array(pts), ref.apply_array(pts))
        assert _same_bits(m.apply_inverse_array(pts), ref.apply_inverse_array(pts))
        # one row at a time: the apex and a random row
        for p in (par.apex[None, :], pts[rng.integers(len(pts))][None, :]):
            assert _same_bits(m.apply_array(p), ref.apply_array(p))
            assert _same_bits(m.apply_inverse_array(p), ref.apply_inverse_array(p))


class TestCompositeAndConjugate:
    def test_left_to_right_order(self):
        shift = AffineMap(np.ones(3), np.array([1.0, 0.0, 0.0]))
        double = AffineMap(np.full(3, 2.0), np.zeros(3))
        m = CompositeMap([shift, double])
        # shift first, then scale: (0,0,0) -> (1,0,0) -> (2,0,0)
        assert _at(m, np.zeros(3)).tolist() == [2.0, 0.0, 0.0]

    def test_inverse_roundtrip(self):
        cone = ConeMap(UNIT, np.zeros(3), np.array([0.3, 0.2, -0.1]))
        m = CompositeMap([cone, UnsquishMap(_params(0.5), 1.0)])
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
        assert isinstance(m, ConjugateMap)
        assert m.parts == (m.enter, m.inner, m.leave) == (frame.inverse(), kink_map(), frame)
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
        est = estimate_inverse_lipschitz(IdentityMap(), UNIT, 500, seed=0)
        assert est == pytest.approx(1.0)

    def test_deterministic_given_seed(self):
        cone = ConeMap(UNIT, np.zeros(3), np.array([0.3, 0.2, -0.1]))
        a = estimate_inverse_lipschitz(cone, UNIT, 1000, seed=7)
        b = estimate_inverse_lipschitz(cone, UNIT, 1000, seed=7)
        assert a == b
        assert 0.0 < a < 1.0

    def test_rejects_tiny_sample(self):
        with pytest.raises(ValueError):
            estimate_inverse_lipschitz(IdentityMap(), UNIT, 1, seed=0)


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
    m = make_cone_map(UNIT, np.zeros(3), np.array([x, y, z]))
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


def _assert_culled(m: CompositeMap, pts: np.ndarray) -> None:
    """Rows outside the declared support come back bitwise unchanged, and
    the support is honest: the parts themselves move those rows by no more
    than conjugation roundoff."""
    outside = ~m.support.contains_array(pts)
    assert outside.any()
    img = m.apply_array(pts)
    assert np.array_equal(img[outside], pts[outside])
    assert np.array_equal(m.apply_inverse_array(pts)[outside], pts[outside])
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


# 1d_counterexample is left out: its PowerMap1D moves points off its
# degenerate declared support on purpose
CULLED_SCENARIOS = sorted(set(SCENARIO_BUILDERS) - {"1d_counterexample"})


@given(st.sampled_from(CULLED_SCENARIOS), st.integers(1, 10), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_scenario_stage_maps_fix_rows_off_support(scenarios, name, k, seed):
    m = scenarios[name].moves.time_one_map(k)
    assert isinstance(m, CompositeMap)
    _assert_culled(m, _around(m.support, np.random.default_rng(seed)))


# -- cone kernel: one tetrahedron per point ------------------------------------


def _twelve_tetrahedra_kernel(m: ConeMap, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The former ConeMap kernel, as an oracle: barycentric weights in all
    12 tetrahedra, evaluated in the one where the point is most inside.
    Returns the images and each row's best score (inf outside the region)."""
    out = pts.copy()
    score = np.full(len(pts), np.inf)
    inside = m.region.contains_array(pts)
    if not inside.any():
        return out, score
    q = pts[inside]
    rel = q - m.p0
    lam = np.einsum("kij,mj->kmi", m._inv_basis, rel)
    b0 = 1.0 - lam.sum(axis=-1)
    tet_score = np.minimum(lam.min(axis=-1), b0)
    best = tet_score.argmax(axis=0)
    m_idx = np.arange(q.shape[0])
    out[inside] = b0[best, m_idx][:, None] * m.p1 + np.einsum(
        "mi,mij->mj", lam[best, m_idx, :], m._tris[best]
    )
    score[inside] = tet_score[best, m_idx]
    return out, score


def _tetrahedron_ties(box: Box, apex: np.ndarray, rng: np.random.Generator, n: int = 24) -> np.ndarray:
    """Points where tetrahedra of the cone meet, plus points inside and
    around the box: the apex, axis lines through it, face diagonals through
    the min corner, rays from the apex to those diagonals and to box edges
    and corners, and the box boundary."""
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
    corners = box.corners()
    boundary = box.sample(rng, n)
    boundary[rows, axis] = np.where(face, hi[axis], lo[axis])
    return np.concatenate(
        [
            apex[None, :],
            apex + on_axis,
            diagonal,
            apex + s * (diagonal - apex),
            apex + s * (edge - apex),
            apex + s * (corners[rng.integers(0, 8, n)] - apex),
            corners,
            boundary,
            box.scaled_about_center(1.5).sample(rng, 4 * n),
        ]
    )


@given(
    _target_boxes(),
    st.tuples(*[st.floats(-0.95, 0.95)] * 3),
    st.tuples(*[st.floats(-0.95, 0.95)] * 3),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_cone_kernel_matches_twelve_tetrahedra(box, u0, u1, seed):
    half = box.half_extents
    a0 = box.center + np.array(u0) * half
    a1 = box.center + np.array(u1) * half
    m = ConeMap(box, a0, a1)
    pts = _tetrahedron_ties(box, a0, np.random.default_rng(seed))
    img = m.apply_array(pts)
    old, score = _twelve_tetrahedra_kernel(m, pts)
    outside = ~box.contains_array(pts)
    assert np.array_equal(img[outside], pts[outside])
    # inside one tetrahedron by a margin, both kernels pick it: same bits
    sure = score > 1e-9
    assert np.array_equal(img[sure], old[sure])
    # on a tie both tetrahedra give the same affine image in exact
    # arithmetic; the two float images differ by the roundoff of the
    # barycentric solve, eps * cond(tetrahedron) * coordinate scale
    tie = ~sure
    assert tie.any()
    kappa = np.linalg.cond(m._tris - a0).max()
    scale = max(np.abs(box.corners()).max(), np.abs(a1).max())
    dev = np.abs(img[tie] - old[tie]).max(axis=1)
    assert (dev <= 4.0 * np.finfo(float).eps * kappa * scale).all()


def test_cone_kernel_ties_on_the_canonical_strand_move_under_one_ulp():
    # the x-axis strand runs through the first kink stage's apex, along
    # tetrahedron boundaries; pushed through the kink's cones (or their
    # inverses) by each kernel, it ends up less than 1 ulp apart
    xs = np.linspace(-1.0, 1.0, 4001)
    strand = np.stack([xs, np.zeros_like(xs), np.zeros_like(xs)], axis=1)
    cones = [ConeMap(s.region, s.p0, s.p1) for s in KINK_STAGES]
    for chain in (cones, [c.inverse() for c in reversed(cones)]):
        img, old = strand, strand
        for cone in chain:
            img = cone.apply_array(img)
            old = _twelve_tetrahedra_kernel(cone, old)[0]
        assert (np.abs(img - old).max(axis=1) < np.spacing(np.abs(old).max(axis=1))).all()


# -- routed runs of conjugates -------------------------------------------------

INNERS = {
    "kink": kink_map,
    "kink^-1": lambda: kink_map().inverse(),
    "multi2": lambda: multi_kink_isotopy(2).time_one(),
    "multi2^-1": lambda: multi_kink_isotopy(2).time_one().inverse(),
    "multi3": lambda: multi_kink_isotopy(3).time_one(),
    "multi3^-1": lambda: multi_kink_isotopy(3).time_one().inverse(),
}


def _part_by_part(m, pts: np.ndarray) -> np.ndarray:
    """The oracle: a composite culled to its support, then its parts one
    after another, at every level of nesting; never routed."""
    if not isinstance(m, CompositeMap):
        return m.apply_array(pts)
    out = pts.copy()
    inside = m.support.contains_array(pts)
    if inside.any():
        x = pts[inside]
        for part in m.parts:
            x = _part_by_part(part, x)
        out[inside] = x
    return out


def _assert_bitwise(got: np.ndarray, want: np.ndarray) -> None:
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def _disjoint_boxes():
    """2 to 6 boxes of one scale 2^-40 .. 4 around a center within +-50, on
    distinct cells of a grid of pitch 3 scales: no half-extent exceeds the
    scale, so any two boxes are at least one scale apart."""
    coord = st.floats(-50.0, 50.0)
    cells = st.lists(st.tuples(*[st.integers(-2, 2)] * 3), min_size=2, max_size=6, unique=True)
    aspects = st.lists(st.tuples(*[st.floats(0.25, 1.0)] * 3), min_size=6, max_size=6)

    def build(v) -> list[Box]:
        center, scale, cells, aspects = v
        c = np.array(center)
        return [
            Box.from_center(
                c + 3.0 * scale * np.array(cell),
                scale * np.array(aspect),
            )
            for cell, aspect in zip(cells, aspects)
        ]

    scale = st.floats(-40.0, 2.0).map(lambda e: 2.0**e)
    return st.tuples(st.tuples(coord, coord, coord), scale, cells, aspects).map(build)


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


def _conjugates(boxes: list[Box], inner) -> list[ConjugateMap]:
    return [conjugate(AffineMap.box_to_box(CANONICAL_BOX, b), inner, b) for b in boxes]


@given(
    _disjoint_boxes(),
    st.sampled_from(sorted(INNERS)),
    st.sampled_from([1, 7, 333, 1201]),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_routed_run_matches_part_by_part(boxes, inner, n, seed):
    m = CompositeMap(_conjugates(boxes, INNERS[inner]()))
    pts = _probe_points(boxes, np.random.default_rng(seed), n)
    for mm in (m, m.inverse()):
        _assert_bitwise(mm.apply_array(pts), _part_by_part(mm, pts))
    # the whole composite is one routed run
    assert len(m._steps) == 1 and len(m.inverse()._steps) == 1


def _touching_boxes(scale: float) -> list[Box]:
    """Boxes laid along x, each sharing a face with the next, and one that
    meets the last at a single corner."""
    half = np.array([scale, scale, scale])
    boxes = [Box.from_center((3.0 + 2.0 * i * scale, 1.0, -2.0), half) for i in range(3)]
    corner = boxes[-1].hi
    return boxes + [Box(corner, corner + half * 2.0)]


@pytest.mark.parametrize("scale", [2.0**-30, 0.25, 2.0])
@pytest.mark.parametrize("inner", sorted(INNERS))
def test_boxes_that_touch_are_not_routed_together(scale, inner):
    boxes = _touching_boxes(scale)
    m = CompositeMap(_conjugates(boxes, INNERS[inner]()))
    pts = _probe_points(boxes, np.random.default_rng(3), 1201)
    _assert_bitwise(m.apply_array(pts), _part_by_part(m, pts))
    assert m._steps == list(m.parts)


def test_different_inner_objects_are_not_routed_together():
    boxes = [Box.cube((2.0 * i, 0.0, 0.0), 1.0) for i in range(4)]
    # equal to kink_map() part for part, but another object
    twin = CompositeMap(kink_map().parts, support=kink_map().support)
    inners = [kink_map(), twin, kink_map().inverse(), kink_map()]
    parts = [
        conjugate(AffineMap.box_to_box(CANONICAL_BOX, b), inner, b)
        for b, inner in zip(boxes, inners)
    ]
    m = CompositeMap(parts)
    pts = _probe_points(boxes, np.random.default_rng(4), 1201)
    _assert_bitwise(m.apply_array(pts), _part_by_part(m, pts))
    assert m._steps == parts


def test_a_part_that_is_not_a_conjugate_breaks_the_run():
    boxes = [Box.cube((2.0 * i, 0.0, 0.0), 1.0) for i in range(5)]
    conj = _conjugates(boxes[:2] + boxes[3:], kink_map())
    cone = ConeMap(boxes[2], boxes[2].center, np.array([4.2, 0.1, -0.2]))
    m = CompositeMap(conj[:2] + [cone] + conj[2:])
    pts = _probe_points(boxes, np.random.default_rng(5), 1201)
    _assert_bitwise(m.apply_array(pts), _part_by_part(m, pts))
    assert len(m._steps) == 3 and m._steps[1] is cone
