import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
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
from knotiso.diagram import count_crossings
from knotiso.engine import Isotopy
from knotiso.geometry import Box, PLCurve, curve_is_simple
from knotiso.maps import (
    AffineMap,
    CompositeMap,
    ConeMap,
    ConjugateMap,
    IdentityMap,
    UnsquishParams,
    conjugate,
    make_cone_map,
)
from knotiso.moves import (
    ConeStage,
    chained_isotopy,
    cone_isotopy,
    conjugated_isotopy,
    reversed_isotopy,
    staged_isotopy,
    unsquish_isotopy,
)
from knotiso.scenarios import SCENARIO_BUILDERS

UNIT = CANONICAL_BOX
# projected crossings one canonical kink insert adds
KINK_CROSSINGS = 1


def _strand(n: int = 400) -> PLCurve:
    xs = np.linspace(-1.0, 1.0, n)
    return PLCurve(np.column_stack([xs, np.zeros(n), np.zeros(n)]))


def _at(m, p: np.ndarray) -> np.ndarray:
    """m applied to one point."""
    return m.apply_array(p[None, :])[0]


def _image(iso, t: float, curve: PLCurve) -> PLCurve:
    pts = iso.map_at(t).apply_array(curve.points)
    return PLCurve(pts, closed=curve.closed)


class TestConeIsotopy:
    def test_endpoints(self):
        iso = cone_isotopy(UNIT, np.zeros(3), np.array([0.4, 0.2, 0.0]))
        assert math.dist(_at(iso.map_at(0.0), np.zeros(3)), np.zeros(3)) < 1e-12
        assert math.dist(_at(iso.map_at(1.0), np.zeros(3)), np.array([0.4, 0.2, 0.0])) < 1e-12

    def test_apex_moves_linearly(self):
        iso = cone_isotopy(UNIT, np.zeros(3), np.array([0.4, 0.2, 0.0]))
        mid = _at(iso.map_at(0.5), np.zeros(3))
        assert math.dist(mid, np.array([0.2, 0.1, 0.0])) < 1e-12

    def test_validates_targets(self):
        with pytest.raises(ValueError):
            cone_isotopy(UNIT, np.zeros(3), np.array([2.0, 0.0, 0.0]))


class TestStagedAndChained:
    def test_staged_runs_stages_in_sequence(self):
        stages = [
            ConeStage(UNIT, np.zeros(3), np.array([0.3, 0, 0])),
            ConeStage(UNIT, np.array([0.3, 0, 0]), np.array([0.3, 0.3, 0])),
        ]
        iso = staged_isotopy(stages, UNIT)
        # at t = 0.5 exactly the first stage has finished
        assert math.dist(_at(iso.map_at(0.5), np.zeros(3)), np.array([0.3, 0, 0])) < 1e-12
        assert math.dist(_at(iso.map_at(1.0), np.zeros(3)), np.array([0.3, 0.3, 0])) < 1e-12

    def test_empty_stages_rejected(self):
        with pytest.raises(ValueError):
            staged_isotopy([], UNIT)
        with pytest.raises(ValueError):
            chained_isotopy([], UNIT)

    def test_chained_matches_parts(self):
        a = cone_isotopy(UNIT, np.zeros(3), np.array([0.3, 0, 0]))
        b = unsquish_isotopy(
            UnsquishParams(
                outer=UNIT,
                inner=UNIT.scaled_about_center(0.5),
                apex=np.array([0.1, 0, 0]),
                c=0.5,
            )
        )
        chain = chained_isotopy([a, b], UNIT)
        rng = np.random.default_rng(0)
        pts = UNIT.sample(rng, 500)
        end = b.time_one().apply_array(a.time_one().apply_array(pts))
        assert np.abs(chain.time_one().apply_array(pts) - end).max() < 1e-12
        # halfway through: first part done, second not started
        assert np.abs(chain.map_at(0.5).apply_array(pts) - a.time_one().apply_array(pts)).max() < 1e-12

    def test_chained_identity_at_zero(self):
        a = cone_isotopy(UNIT, np.zeros(3), np.array([0.3, 0, 0]))
        chain = chained_isotopy([a], UNIT)
        assert isinstance(chain.map_at(0.0), IdentityMap)


class TestConjugatedIsotopy:
    def test_exact_identity_at_zero(self):
        target = Box.cube((3, 0, 0), 0.5)
        frame = AffineMap.box_to_box(UNIT, target)
        iso = conjugated_isotopy(frame, kink_isotopy(), target)
        assert isinstance(iso.map_at(0.0), IdentityMap)

    def test_supported_in_target(self):
        target = Box.cube((3, 0, 0), 0.5)
        frame = AffineMap.box_to_box(UNIT, target)
        iso = conjugated_isotopy(frame, kink_isotopy(), target)
        rng = np.random.default_rng(1)
        pts = Box.cube((0, 0, 0), 2.0).sample(rng, 500)  # far from target
        for t in (0.25, 0.6, 1.0):
            assert np.abs(iso.map_at(t).apply_array(pts) - pts).max() < 1e-12


class TestReversedIsotopy:
    def test_undoes_exactly(self):
        fwd = kink_isotopy()
        rev = reversed_isotopy(fwd)
        rng = np.random.default_rng(2)
        pts = UNIT.sample(rng, 500)
        tied = fwd.time_one().apply_array(pts)
        untied = rev.time_one().apply_array(tied)
        assert np.abs(untied - pts).max() < 1e-9

    def test_identity_at_zero(self):
        rev = reversed_isotopy(kink_isotopy())
        assert isinstance(rev.map_at(0.0), IdentityMap)

    def test_midway_is_partial_rewind(self):
        fwd = cone_isotopy(UNIT, np.zeros(3), np.array([0.4, 0, 0]))
        rev = reversed_isotopy(fwd)
        # rev at time t maps fwd-at-1 state to fwd-at-(1-t) state
        tied = _at(fwd.time_one(), np.zeros(3))
        half = _at(rev.map_at(0.5), tied)
        assert math.dist(half, _at(fwd.map_at(0.5), np.zeros(3))) < 1e-12


class TestUnsquishIsotopy:
    def test_identity_at_zero_and_invertible(self):
        params = UnsquishParams(
            outer=UNIT,
            inner=UNIT.scaled_about_center(0.5),
            apex=np.zeros(3),
            c=0.4,
        )
        iso = unsquish_isotopy(params)
        rng = np.random.default_rng(3)
        pts = UNIT.sample(rng, 500)
        assert np.abs(iso.map_at(0.0).apply_array(pts) - pts).max() < 1e-12
        m = iso.time_one()
        back = m.apply_inverse_array(m.apply_array(pts))
        assert np.sqrt(((back - pts) ** 2).sum(-1)).max() < 1e-9


class TestCanonicalKink:
    def test_single_kink_one_crossing(self):
        curve = _image(kink_isotopy(), 1.0, _strand())
        assert count_crossings(curve) == KINK_CROSSINGS
        assert curve_is_simple(curve, 1e-9)

    def test_kink_crossing_margin(self):
        from knotiso.diagram import find_crossings

        curve = _image(kink_isotopy(), 1.0, _strand())
        (c,) = find_crossings(curve)
        assert c.z_over - c.z_under > 0.25

    def test_kink_map_matches_isotopy_end(self):
        rng = np.random.default_rng(4)
        pts = UNIT.sample(rng, 500)
        a = kink_map().apply_array(pts)
        b = kink_isotopy().time_one().apply_array(pts)
        assert np.array_equal(a, b)

    def test_kink_fixes_box_exterior(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(1.5, 4.0, (500, 3)) * rng.choice([-1, 1], (500, 3))
        assert np.array_equal(kink_map().apply_array(pts), pts)

    def test_intermediate_times_stay_simple(self):
        iso = kink_isotopy()
        for t in (0.2, 0.5, 0.8):
            assert curve_is_simple(_image(iso, t, _strand()), 1e-9)


class TestMultiKink:
    def test_sub_boxes_disjoint_and_inside(self):
        for m in (2, 3, 5):
            subs = loop_sub_boxes(m)
            assert len(subs) == m
            for b in subs:
                assert CANONICAL_BOX.contains_box(b)
            for i in range(m):
                for j in range(i + 1, m):
                    assert subs[i].hi[0] < subs[j].lo[0]
        with pytest.raises(ValueError):
            loop_sub_boxes(0)

    @pytest.mark.parametrize("m", [2, 3])
    def test_m_kinks_m_crossings(self, m):
        curve = _image(multi_kink_isotopy(m), 1.0, _strand(900))
        assert count_crossings(curve) == m * KINK_CROSSINGS
        assert curve_is_simple(curve, 1e-9)


class TestConjugatedInsert:
    def test_crossing_transfers_to_target_box(self):
        target = Box.from_center((2, 0, 0), (0.1, 0.05, 0.05))
        iso = conjugated_insert(target)
        xs = np.linspace(target.lo[0], target.hi[0], 400)
        strand = PLCurve(np.column_stack([xs, np.zeros_like(xs), np.zeros_like(xs)]))
        curve = _image(iso, 1.0, strand)
        assert count_crossings(curve) == 1
        assert curve_is_simple(curve, 1e-9)

    def test_pair_insert_two_crossings(self):
        target = Box.from_center((2, 0, 0), (0.1, 0.05, 0.05))
        iso = conjugated_insert(target, m=2)
        xs = np.linspace(target.lo[0], target.hi[0], 800)
        strand = PLCurve(np.column_stack([xs, np.zeros_like(xs), np.zeros_like(xs)]))
        assert count_crossings(_image(iso, 1.0, strand)) == 2


# -- bitwise references for the derived isotopies -----------------------------
#
# The oracles below are the hand-sliced formulas staged_isotopy and
# multi_kink_isotopy had before both were derived from chained_isotopy.
# Off the slice boundaries (t * n not an integer) and at t = 1 the derived
# maps must agree with them bit for bit.


def _sliced_staged(stages, support: Box, t: float) -> CompositeMap:
    n = len(stages)
    finished = [make_cone_map(s.region, s.p0, s.p1) for s in stages]
    if t >= 1.0:
        return CompositeMap(finished, support=support)
    i = min(n - 1, int(t * n))
    s = stages[i]
    pulled = make_cone_map(s.region, s.p0, s.p0 + (s.p1 - s.p0) * (t * n - i))
    return CompositeMap(finished[:i] + [pulled], support=support)


def _sliced_multi_kink(m: int, t: float) -> CompositeMap:
    subs = loop_sub_boxes(m)
    frames = [AffineMap.box_to_box(CANONICAL_BOX, sub) for sub in subs]
    end = _sliced_staged(KINK_STAGES, CANONICAL_BOX, 1.0)
    finished = [conjugate(fr, end, sub) for fr, sub in zip(frames, subs)]
    if t >= 1.0:
        return CompositeMap(finished, support=CANONICAL_BOX)
    i = min(m - 1, int(t * m))
    inner = _sliced_staged(KINK_STAGES, CANONICAL_BOX, t * m - i)
    return CompositeMap(
        finished[:i] + [conjugate(frames[i], inner, subs[i])], support=CANONICAL_BOX
    )


THREE_STAGES = (
    ConeStage(UNIT, np.zeros(3), np.array([0.3, 0.1, 0])),
    ConeStage(UNIT, np.array([0.3, 0.1, 0]), np.array([0.3, 0.3, -0.2])),
    ConeStage(UNIT.scaled_about_center(0.7), np.array([0.1, 0, 0]), np.array([-0.35, 0.2, 0.1])),
)

slice_times = st.one_of(st.just(1.0), st.floats(0.0, 1.0, exclude_max=True))
seeds = st.integers(0, 2**32 - 1)


def _points_around_unit(seed: int) -> np.ndarray:
    return UNIT.scaled_about_center(1.2).sample(np.random.default_rng(seed), 300)


@given(st.sampled_from([KINK_STAGES, THREE_STAGES]), slice_times, seeds)
@settings(max_examples=60, deadline=None)
def test_staged_isotopy_matches_sliced_formula(stages, t, seed):
    assume(t == 1.0 or not float(t * len(stages)).is_integer())
    pts = _points_around_unit(seed)
    got = staged_isotopy(stages, UNIT).map_at(t).apply_array(pts)
    assert np.array_equal(got, _sliced_staged(stages, UNIT, t).apply_array(pts))


@given(st.integers(2, 4), slice_times, seeds)
@settings(max_examples=40, deadline=None)
def test_multi_kink_isotopy_matches_sliced_formula(m, t, seed):
    assume(t == 1.0 or not float(t * m).is_integer())
    pts = _points_around_unit(seed)
    got = multi_kink_isotopy(m).map_at(t).apply_array(pts)
    assert np.array_equal(got, _sliced_multi_kink(m, t).apply_array(pts))


interior = st.floats(-0.9, 0.9, allow_nan=False)
interior_points = st.tuples(interior, interior, interior).map(np.array)


@given(interior_points, interior_points)
@settings(max_examples=60, deadline=None)
def test_cone_isotopy_ends_exactly_at_target(p0, p1):
    assume(not np.array_equal(p0, p1))
    end = cone_isotopy(UNIT, p0, p1).map_at(1.0)
    assert np.array_equal(end.p1, p1)


def test_cone_isotopy_pulls_an_apex_whose_squared_step_underflows():
    # the squared distance 1.3e-493 rounds to 0, the points still differ
    p1 = np.array([0.0, 0.0, 3.6e-247])
    end = cone_isotopy(CANONICAL_BOX, np.zeros(3), p1).map_at(1.0)
    assert isinstance(end, ConeMap)
    assert np.array_equal(end.apply_array(np.zeros((1, 3)))[0], p1)


def test_kink_map_is_the_two_cone_composite():
    explicit = CompositeMap(
        [ConeMap(s.region, s.p0, s.p1) for s in KINK_STAGES], support=CANONICAL_BOX
    )
    pts = _points_around_unit(7)
    assert np.array_equal(kink_map().apply_array(pts), explicit.apply_array(pts))


# -- build once -----------------------------------------------------------------


class TestBuildOnce:
    def test_canonical_moves_are_module_constants(self):
        assert kink_isotopy() is kink_isotopy()
        assert multi_kink_isotopy(3) is multi_kink_isotopy(3)
        assert kink_map().parts[0] is kink_map().parts[0]
        assert kink_map() is kink_map()
        inv = multi_kink_isotopy(3).time_one().inverse()
        assert multi_kink_isotopy(3).time_one().inverse() is inv

    def test_reversed_inserts_share_one_inner_map(self, scenarios):
        seq = scenarios["countable_r1"].moves
        maps = [seq.time_one_map(k) for k in (1, 2, 3)]
        assert all(isinstance(m, ConjugateMap) for m in maps)
        assert maps[0].inner is maps[1].inner is maps[2].inner is kink_map().inverse()

    def test_cone_inverse_is_built_once_and_links_back(self):
        m = ConeMap(UNIT, np.zeros(3), np.array([0.3, -0.2, 0.1]))
        assert m.inverse() is m.inverse()
        assert m.inverse().inverse() is m

    def test_affine_inverse_is_built_once_without_link_back(self):
        m = AffineMap(np.array([2.0, 3.0, 49.0]), np.array([1.0, 2.0, 3.0]))
        inv = m.inverse()
        assert m.inverse() is inv
        # 1 / (1 / 49) is not bitwise 49, so the double inverse is its own map
        twice = inv.inverse()
        assert twice is not m
        assert np.array_equal(twice.scale, 1.0 / (1.0 / m.scale))
        assert not np.array_equal(twice.scale, m.scale)

    def test_conjugated_isotopy_inverts_its_frame_once(self, monkeypatch):
        inner = kink_isotopy()
        target = Box.cube((3, 0, 0), 0.5)
        frame = AffineMap.box_to_box(UNIT, target)
        built = []
        init = AffineMap.__init__
        monkeypatch.setattr(AffineMap, "__init__", lambda self, *a: built.append(1) or init(self, *a))
        iso = conjugated_isotopy(frame, inner, target)
        assert len(built) == 1
        for t in (0.25, 0.6, 1.0, 1.0):
            assert iso.map_at(t).enter is frame.inverse()
        assert len(built) == 1

    def test_reversed_isotopy_inverts_on_first_use(self):
        inner = kink_isotopy()
        calls = []

        def map_at(t: float):
            calls.append(t)
            return inner.map_at(t)

        rev = reversed_isotopy(Isotopy(support=inner.support, map_at=map_at))
        assert calls == []
        assert isinstance(rev.map_at(0.0), IdentityMap)
        assert calls == []
        end = rev.map_at(1.0)
        assert calls == [1.0]
        assert rev.map_at(1.0).parts == end.parts
        rev.map_at(0.25)
        assert calls == [1.0, 0.75]

    def test_building_every_scenario_builds_few_cone_maps(self, monkeypatch):
        kink_isotopy.cache_clear()
        multi_kink_isotopy.cache_clear()
        built = []
        init = ConeMap.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(ConeMap, "__init__", counting_init)
        for build in SCENARIO_BUILDERS.values():
            build()
        assert 0 < len(built) <= 10
