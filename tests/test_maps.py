import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotiso.canonical import CANONICAL_BOX, KINK_STAGES, conjugated_insert, kink_map
from knotiso.geometry import Box, Point3, distance
from knotiso.maps import (
    AffineMap,
    CompositeMap,
    ConeMap,
    IdentityMap,
    UnsquishMap,
    UnsquishParams,
    conjugate,
    estimate_inverse_lipschitz,
    make_cone_map,
    roundtrip_error,
    unbounded_box,
)
from knotiso.moves import chained_isotopy, reversed_isotopy, staged_isotopy, unsquish_isotopy
from knotiso.scenarios import SCENARIO_BUILDERS

UNIT = Box.from_center(Point3(0, 0, 0), Point3(1, 1, 1))


class TestIdentityMap:
    def test_fixes_everything_exactly(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(-10, 10, (500, 3))
        m = IdentityMap()
        assert np.array_equal(m.apply_array(pts), pts)
        assert m.inverse() is m


class TestAffineMap:
    def test_rejects_singular_matrix(self):
        with pytest.raises(ValueError):
            AffineMap(np.zeros((3, 3)), Point3(0, 0, 0))

    def test_accepts_uniformly_tiny_frames(self):
        # depth-20 scenario frames: tiny but perfectly conditioned
        AffineMap(np.eye(3) * 2.0**-27, Point3(0, 0, 0))

    def test_box_to_box_maps_corners(self):
        src = Box(Point3(-1, -1, -1), Point3(1, 1, 1))
        dst = Box(Point3(2, 0, -3), Point3(4, 1, -1))
        m = AffineMap.box_to_box(src, dst)
        assert distance(m.apply(src.lo), dst.lo) < 1e-12
        assert distance(m.apply(src.hi), dst.hi) < 1e-12
        assert distance(m.apply(src.center), dst.center) < 1e-12

    def test_inverse_roundtrip(self):
        rng = np.random.default_rng(1)
        m = AffineMap(rng.uniform(-1, 1, (3, 3)) + 2 * np.eye(3), Point3(1, -2, 3))
        pts = rng.uniform(-5, 5, (1000, 3))
        assert roundtrip_error(m, pts) < 1e-12

    def test_similarity(self):
        m = AffineMap.similarity(2.0, Point3(1, 0, 0))
        assert m.apply(Point3(1, 1, 1)) == Point3(3, 2, 2)

    def test_support_is_unbounded_sentinel(self):
        m = AffineMap.similarity(2.0, Point3(0, 0, 0))
        assert m.support == unbounded_box()


class TestConeMap:
    def test_rejects_apex_outside_region(self):
        with pytest.raises(ValueError):
            ConeMap(UNIT, Point3(2, 0, 0), Point3(0, 0, 0))
        with pytest.raises(ValueError):
            ConeMap(UNIT, Point3(0, 0, 0), Point3(0, 0, 1.0))

    def test_moves_apex_to_target(self):
        m = ConeMap(UNIT, Point3(0, 0, 0), Point3(0.3, -0.2, 0.1))
        assert distance(m.apply(Point3(0, 0, 0)), Point3(0.3, -0.2, 0.1)) < 1e-12

    def test_fixes_boundary_and_exterior(self):
        m = ConeMap(UNIT, Point3(0, 0, 0), Point3(0.3, -0.2, 0.1))
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
        m = ConeMap(UNIT, Point3(0, 0, 0), Point3(0.3, -0.2, 0.1))
        inv = m.inverse()
        assert isinstance(inv, ConeMap)
        assert inv.p0 == m.p1 and inv.p1 == m.p0
        rng = np.random.default_rng(3)
        assert roundtrip_error(m, UNIT.sample(rng, 2000)) < 1e-9

    def test_interior_stays_interior(self):
        m = ConeMap(UNIT, Point3(0, 0, 0), Point3(0.5, 0.3, -0.4))
        rng = np.random.default_rng(4)
        pts = UNIT.scaled_about_center(0.999).sample(rng, 2000)
        assert UNIT.contains_array(m.apply_array(pts)).all()

    def test_make_cone_map_degenerate_is_identity(self):
        m = make_cone_map(UNIT, Point3(0.1, 0, 0), Point3(0.1, 0, 0))
        assert isinstance(m, IdentityMap)
        assert m.support == UNIT


def _params(c: float, apex: Point3 = Point3(0, 0, 0)) -> UnsquishParams:
    return UnsquishParams(
        outer=Box.from_center(Point3(0, 0, 0), Point3(2, 2, 2)),
        inner=Box.from_center(Point3(0, 0, 0), Point3(1, 1, 1)),
        apex=apex,
        c=c,
    )


class TestUnsquishParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            _params(1.5)
        with pytest.raises(ValueError):
            _params(0.5, apex=Point3(3, 0, 0))
        with pytest.raises(ValueError):
            UnsquishParams(
                outer=Box.from_center(Point3(0, 0, 0), Point3(2, 2, 2)),
                inner=Box.from_center(Point3(0.5, 0, 0), Point3(1, 1, 1)),
                apex=Point3(0.5, 0, 0),
                c=0.5,
            )
        with pytest.raises(ValueError):
            UnsquishParams(
                outer=Box.from_center(Point3(0, 0, 0), Point3(2, 2, 3)),
                inner=Box.from_center(Point3(0, 0, 0), Point3(1, 1, 1)),
                apex=Point3(0, 0, 0),
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
        m = UnsquishMap(_params(c, apex=Point3(0.2, -0.1, 0.3)), t)
        rng = np.random.default_rng(8)
        pts = m.params.outer.sample(rng, 2000)
        assert roundtrip_error(m, pts) < 1e-9

    def test_off_center_apex_exact_expansion(self):
        apex = Point3(0.3, -0.2, 0.1)
        m = UnsquishMap(_params(0.5, apex=apex), 1.0)
        rng = np.random.default_rng(9)
        a = apex.as_array()
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


class TestCompositeAndConjugate:
    def test_left_to_right_order(self):
        shift = AffineMap.similarity(1.0, Point3(1, 0, 0))
        double = AffineMap.similarity(2.0, Point3(0, 0, 0))
        m = CompositeMap([shift, double])
        # shift first, then scale: (0,0,0) -> (1,0,0) -> (2,0,0)
        assert m.apply(Point3(0, 0, 0)) == Point3(2, 0, 0)

    def test_inverse_roundtrip(self):
        cone = ConeMap(UNIT, Point3(0, 0, 0), Point3(0.3, 0.2, -0.1))
        m = CompositeMap([cone, UnsquishMap(_params(0.5), 1.0)])
        rng = np.random.default_rng(10)
        pts = rng.uniform(-3, 3, (2000, 3))
        assert roundtrip_error(m, pts) < 1e-9

    def test_conjugate_identity_outside_target(self):
        target = Box.from_center(Point3(5, 5, 5), Point3(0.5, 0.5, 0.5))
        frame = AffineMap.box_to_box(UNIT, target)
        cone = ConeMap(UNIT, Point3(0, 0, 0), Point3(0.3, 0, 0))
        m = conjugate(frame, cone, target)
        assert m.support == target
        rng = np.random.default_rng(11)
        pts = rng.uniform(-2, 2, (1000, 3))  # far from the target box
        assert np.abs(m.apply_array(pts) - pts).max() < 1e-12

    def test_conjugate_moves_target_center(self):
        target = Box.from_center(Point3(5, 5, 5), Point3(0.5, 0.5, 0.5))
        frame = AffineMap.box_to_box(UNIT, target)
        cone = ConeMap(UNIT, Point3(0, 0, 0), Point3(0.4, 0, 0))
        m = conjugate(frame, cone, target)
        img = m.apply(Point3(5, 5, 5))
        assert distance(img, Point3(5.2, 5, 5)) < 1e-12


class TestInverseLipschitz:
    def test_identity_gives_one(self):
        est = estimate_inverse_lipschitz(IdentityMap(), UNIT, 500, seed=0)
        assert est == pytest.approx(1.0)

    def test_deterministic_given_seed(self):
        cone = ConeMap(UNIT, Point3(0, 0, 0), Point3(0.3, 0.2, -0.1))
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
    m = make_cone_map(UNIT, Point3(0, 0, 0), Point3(x, y, z))
    rng = np.random.default_rng(12)
    pts = UNIT.sample(rng, 200)
    assert roundtrip_error(m, pts) < 1e-9


# -- support culling ----------------------------------------------------------


def _target_boxes():
    coord = st.floats(-50.0, 50.0)
    aspect = st.floats(0.25, 1.0)
    return st.tuples(coord, coord, coord, st.floats(2.0**-12, 4.0), aspect, aspect, aspect).map(
        lambda v: Box.from_center(Point3(*v[:3]), Point3(*v[4:]).scaled(v[3]))
    )


def _around(box: Box, rng: np.random.Generator, n: int = 400) -> np.ndarray:
    """Points in and near a box, plus its corners and far-away points."""
    near = box.scaled_about_center(3.0).sample(rng, n)
    far = rng.uniform(-100.0, 100.0, (n // 4, 3))
    return np.concatenate([near, far, box.corner_array()])


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
    rel = q - m._a0
    lam = np.einsum("kij,mj->kmi", m._inv_basis, rel)
    b0 = 1.0 - lam.sum(axis=-1)
    tet_score = np.minimum(lam.min(axis=-1), b0)
    best = tet_score.argmax(axis=0)
    m_idx = np.arange(q.shape[0])
    out[inside] = b0[best, m_idx][:, None] * m._a1 + np.einsum(
        "mi,mij->mj", lam[best, m_idx, :], m._tris[best]
    )
    score[inside] = tet_score[best, m_idx]
    return out, score


def _tetrahedron_ties(box: Box, apex: np.ndarray, rng: np.random.Generator, n: int = 24) -> np.ndarray:
    """Points where tetrahedra of the cone meet, plus points inside and
    around the box: the apex, axis lines through it, face diagonals through
    the min corner, rays from the apex to those diagonals and to box edges
    and corners, and the box boundary."""
    lo, hi = box.lo.as_array(), box.hi.as_array()
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
    corners = box.corner_array()
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
    half = box.half_extents.as_array()
    a0 = box.center.as_array() + np.array(u0) * half
    a1 = box.center.as_array() + np.array(u1) * half
    m = ConeMap(box, Point3.from_array(a0), Point3.from_array(a1))
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
    scale = max(np.abs(box.corner_array()).max(), np.abs(a1).max())
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
