import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotiso.ball_factoring import find_ball_factoring
from knotiso.canonical import conjugated_insert
from knotiso.diagram import count_crossings
from knotiso.engine import (
    apply_truncated,
    check_hypotheses,
    eval_limit_isotopy,
    infinite_motion_census,
    injectivity_probe,
    map_curve,
    truncated_map,
)
from knotiso.geometry import Box, Point3, curve_is_simple, distance
from knotiso.scenarios import (
    INJECTIVITY_THRESHOLD,
    SCENARIO_BUILDERS,
    ExpectedVerdicts,
    _axis_points,
    _insert_loops,
    _shrinking_boxes,
    build_1d_counterexample,
    build_snowflake,
    fox_outer,
    fox_pair_box_initial,
    rec_apex,
    rec_settle_bound,
    rec_squish_constant,
    snowflake_sup_deviation,
    trefoil_work_box,
)

HORIZON = 20
DEPTH = 20
TOL = 1e-6

# multi-loop curves at nesting level 20 have genuine strand clearances
# around 2e-10; simplicity is asserted at 1e-10 (snowflake iterates, at
# unit scale, are asserted at 1e-6 separately)
CURVE_SIMPLE_TOL = 1e-10

INITIAL_CROSSINGS = {
    "countable_r1": 20,  # 20 single loops
    "countable_r2_stage1": 80,  # 20 pairs per pass, both passes tied
    "countable_r2_stage2": 40,  # only the second pass's pairs remain
    "trefoil_chain": 60,  # 20 three-crossing summands
    "trefoil_chain_extended": 60,
    "fox_remarkable": 40,  # 20 loop pairs
}

CROSSINGS_PER_STAGE = {
    "countable_r1": 1,
    "countable_r2_stage1": 2,
    "countable_r2_stage2": 2,
    "trefoil_chain": 3,
    "fox_remarkable": 2,
}


class TestRegistry:
    def test_all_names_registered(self):
        assert set(SCENARIO_BUILDERS) == {
            "countable_r1",
            "countable_r2_stage1",
            "countable_r2_stage2",
            "recursive_r1",
            "trefoil_chain",
            "trefoil_chain_extended",
            "fox_remarkable",
            "1d_counterexample",
        }

    def test_get_scenario_unknown(self):
        with pytest.raises(KeyError):
            SCENARIO_BUILDERS["no_such_scenario"]()

    def test_names_match_keys(self, scenarios):
        for key, s in scenarios.items():
            assert s.name == key


class TestExpectedVerdicts:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExpectedVerdicts("maybe", None, "pass")
        with pytest.raises(ValueError):
            ExpectedVerdicts("fail", None, "pass")
        with pytest.raises(ValueError):
            ExpectedVerdicts("pass", 1, "pass")


class TestInitialCurves:
    def test_all_simple(self, scenarios):
        for s in scenarios.values():
            assert curve_is_simple(s.initial_curve, CURVE_SIMPLE_TOL), s.name

    def test_crossing_counts(self, scenarios):
        for name, want in INITIAL_CROSSINGS.items():
            assert count_crossings(scenarios[name].initial_curve) == want, name

    def test_contained_in_container(self, scenarios):
        for s in scenarios.values():
            box = s.moves.container
            assert all(box.contains(v) for v in s.initial_curve.vertices), s.name


class TestUntying:
    @pytest.mark.parametrize(
        "name", ["countable_r1", "countable_r2_stage1", "trefoil_chain"]
    )
    def test_each_stage_removes_its_crossings(self, scenarios, name):
        s = scenarios[name]
        per = CROSSINGS_PER_STAGE[name]
        start = INITIAL_CROSSINGS[name]
        for n in (1, 2, 3):
            img = map_curve(truncated_map(s.moves, n), s.initial_curve)
            assert count_crossings(img) == start - per * n

    def test_full_truncation_unties_everything(self, scenarios):
        s = scenarios["countable_r1"]
        img = map_curve(truncated_map(s.moves, DEPTH), s.initial_curve)
        assert count_crossings(img) == 0
        assert curve_is_simple(img, CURVE_SIMPLE_TOL)

    def test_truncations_stay_simple(self, scenarios):
        # injectivity-pass scenarios keep embedded curves at every depth
        for name, s in scenarios.items():
            if s.expected.injectivity != "pass":
                continue
            for n in (1, 5, DEPTH):
                img = map_curve(truncated_map(s.moves, n), s.initial_curve)
                assert curve_is_simple(img, CURVE_SIMPLE_TOL), (name, n)


class TestVerdictRegression:
    def test_hypothesis_verdicts(self, scenarios):
        for name, s in scenarios.items():
            rep = check_hypotheses(s.moves, HORIZON, TOL)
            assert rep.verdict == s.expected.hypotheses, name
            assert rep.first_violation == s.expected.failing_condition, name

    def test_injectivity_verdicts(self, scenarios):
        for name, s in scenarios.items():
            sep = injectivity_probe(s.moves, DEPTH, s.probe_pairs)
            verdict = "fail" if sep < INJECTIVITY_THRESHOLD else "pass"
            assert verdict == s.expected.injectivity, (name, sep)


class TestInvariants:
    def test_moves_respect_supports(self, scenarios):
        rng = np.random.default_rng(17)
        for name, s in scenarios.items():
            for k in (1, 2, 5):
                iso, box = s.moves.stage(k)
                pts = s.moves.container.sample(rng, 200)
                if name == "1d_counterexample":
                    # the 1-D stand-in's support is the x-interval: points
                    # with x outside [0, 1] are the fixed ones
                    outside = pts[(pts[:, 0] < 0.0) | (pts[:, 0] > 1.0)]
                else:
                    outside = pts[~box.contains_array(pts)]
                for t in (0.0, 0.3, 0.7, 1.0):
                    img = iso.map_at(t).apply_array(outside)
                    assert np.abs(img - outside).max() < 1e-12, (name, k, t)

    def test_stage_supported_inside_declared_box(self, scenarios):
        rng = np.random.default_rng(18)
        for name, s in scenarios.items():
            iso, box = s.moves.stage(1)
            inside = box.scaled_about_center(0.999) if box.half_extents.y > 0 else box
            pts = inside.sample(rng, 500)
            img = iso.map_at(1.0).apply_array(pts)
            # images of support points stay in the support box
            assert box.contains_array(img).all() or name == "1d_counterexample", name

    def test_decay_ratio_band(self, scenarios):
        # tail diameters are computed past the probed range so the finite
        # cutoff does not distort the last few ratios
        for name, s in scenarios.items():
            r = s.declared_decay_ratio
            if r is None:
                continue
            rep = check_hypotheses(s.moves, HORIZON + 10, TOL)
            diams = dict(rep.tail_diameters)
            ratios = [diams[n + 1] / diams[n] for n in range(2, HORIZON)]
            assert all(r - 0.05 <= q <= r + 0.05 for q in ratios), (name, ratios)

    def test_probe_pairs_and_census_inside_container(self, scenarios):
        for name, s in scenarios.items():
            box = s.moves.container
            for a, b in s.probe_pairs:
                assert box.contains(a) and box.contains(b), name
            for p in s.census_samples:
                assert box.contains(p), name


class TestRecursive:
    def test_squish_constant_frozen(self):
        c = rec_squish_constant()
        assert c == pytest.approx(0.09820705788809841, abs=0.0)
        assert 0.0 < c < 0.95

    def test_apexes_halve_toward_vertex(self):
        for k in range(1, 10):
            assert rec_apex(k).norm() == pytest.approx(rec_apex(k - 1).norm() / 2.0)

    def test_protection_contrast(self, scenarios, recursive_ablated):
        protected = scenarios["recursive_r1"]
        witness = protected.probe_pairs[:1]
        sep_ok = injectivity_probe(protected.moves, DEPTH, witness)
        sep_ablated = injectivity_probe(recursive_ablated.moves, DEPTH, witness)
        assert sep_ok > INJECTIVITY_THRESHOLD
        assert sep_ablated < INJECTIVITY_THRESHOLD
        assert sep_ok / sep_ablated > 1e3

    def test_limits_of_witness_pair_separate(self, scenarios):
        # the unsquish kicks the wedge vertex clear of the shrinking boxes
        # while the grab point converges into them; their limits stay apart
        s = scenarios["recursive_r1"]
        lv_vertex = eval_limit_isotopy(s.moves, Point3(0, 0, 0), tol=TOL, k_budget=40)
        lv_grab = eval_limit_isotopy(s.moves, rec_apex(0), tol=TOL, k_budget=40)
        assert lv_vertex.status == "settled"
        assert distance(lv_vertex.point, lv_grab.point) > INJECTIVITY_THRESHOLD

    def test_grab_point_converges_to_vertex(self, scenarios):
        s = scenarios["recursive_r1"]
        lv = eval_limit_isotopy(s.moves, rec_apex(0), tol=TOL, k_budget=40)
        assert lv.status == "tol-converged"
        assert distance(lv.point, Point3(0, 0, 0)) < 1e-6

    def test_settle_bound(self, scenarios):
        s = scenarios["recursive_r1"]
        for d in (0.2, 0.05, 0.01):
            p = Point3(-d, 0.0, 0.0)
            lv = eval_limit_isotopy(s.moves, p, tol=TOL, k_budget=40)
            assert lv.status == "settled"
            # support-escape settling is conservative by at most 2 stages
            assert lv.steps <= rec_settle_bound(d) + 2

    def test_settle_bound_validates(self):
        with pytest.raises(ValueError):
            rec_settle_bound(0.0)

    def test_nested_family_factoring(self, scenarios):
        fam = scenarios["recursive_r1"].nested_family
        assert fam is not None
        eps, n0 = find_ball_factoring(fam, HORIZON)
        assert eps > 0 and 1 <= n0 <= HORIZON


class TestTrefoilExtended:
    def test_tail_diameter_floor(self, scenarios):
        rep = check_hypotheses(scenarios["trefoil_chain_extended"].moves, HORIZON, TOL)
        assert rep.first_violation == 1
        assert all(d >= 1.0 for _, d in rep.tail_diameters)
        assert not rep.disjoint_supports

    def test_plain_variant_passes(self, scenarios):
        rep = check_hypotheses(scenarios["trefoil_chain"].moves, HORIZON, TOL)
        assert rep.verdict == "pass"
        assert rep.disjoint_supports


class TestFox:
    def test_min_separation_below_threshold(self, scenarios):
        s = scenarios["fox_remarkable"]
        sep = injectivity_probe(s.moves, DEPTH, s.probe_pairs)
        assert sep < INJECTIVITY_THRESHOLD
        assert sep > 0.0  # finite truncations are still injective

    def test_census_traps_the_stitch_point(self, scenarios):
        s = scenarios["fox_remarkable"]
        n = infinite_motion_census(s.moves, 25, s.census_samples, horizon=40)
        assert n == 1

    def test_tracked_points_contract_toward_origin(self, scenarios):
        s = scenarios["fox_remarkable"]
        pts = np.array([p.as_array() for p in s.census_samples])
        img = apply_truncated(s.moves, DEPTH, pts)
        # points strictly inside the first support are dragged inward
        inner = fox_outer(1).contains_array(pts, strict=True)
        r0 = np.sqrt((pts[inner] ** 2).sum(-1)).max()
        r1 = np.sqrt((img[inner] ** 2).sum(-1)).max()
        assert r1 < r0
        # points outside every support are never moved
        outer = ~fox_outer(1).contains_array(pts)
        assert outer.sum() == 20
        assert np.array_equal(img[outer], pts[outer])

    def test_nested_family_factoring(self, scenarios):
        fam = scenarios["fox_remarkable"].nested_family
        eps, n0 = find_ball_factoring(fam, HORIZON)
        assert eps == pytest.approx(0.2)
        assert n0 == 2


class TestOneDimensional:
    def test_composite_is_pure_power(self):
        seq = build_1d_counterexample().moves
        xs = np.linspace(0.0, 1.0, 101)
        pts = np.stack([xs, np.zeros_like(xs), np.zeros_like(xs)], axis=1)
        for n in (1, 5, 20):
            img = apply_truncated(seq, n, pts)[:, 0]
            # independent oracle: the composite exponent telescopes to n+1
            assert np.abs(img - xs ** (n + 1)).max() < 1e-12

    def test_deep_composite_collapses_interval(self):
        seq = build_1d_counterexample().moves
        pts = np.array([[0.5, 0.0, 0.0], [0.9, 0.0, 0.0]])
        img = apply_truncated(seq, 300, pts)[:, 0]
        assert img[0] < 1e-6 and img[1] < 1e-6
        assert img[0] == pytest.approx(0.5**301)
        assert img[1] == pytest.approx(0.9**301)

    def test_hypotheses_fail_condition_1(self, scenarios):
        rep = check_hypotheses(scenarios["1d_counterexample"].moves, HORIZON, TOL)
        assert rep.first_violation == 1
        assert all(d == pytest.approx(1.0) for _, d in rep.tail_diameters)

    def test_endpoints_fixed(self, scenarios):
        seq = scenarios["1d_counterexample"].moves
        pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        assert np.array_equal(apply_truncated(seq, 50, pts), pts)

    def test_exponent_schedule(self, scenarios):
        seq = scenarios["1d_counterexample"].moves
        for k in (1, 4):
            assert seq.time_one_map(k).exponent == (k + 1) / k


class TestSnowflake:
    def test_depth_one_is_base_square(self):
        (base,) = build_snowflake(0.25, 1)
        assert len(base.vertices) == 4
        assert base.closed
        assert curve_is_simple(base, 1e-9)

    def test_vertex_counts_multiply(self):
        iterates = build_snowflake(0.25, 6)
        assert [len(c.vertices) for c in iterates] == [4, 20, 100, 500, 2500, 12500]

    def test_all_iterates_simple(self):
        for c in build_snowflake(0.25, 6):
            assert curve_is_simple(c, 1e-6)

    def test_deviation_ratio_exact_quarter(self):
        iterates = build_snowflake(0.25, 6)
        devs = [
            snowflake_sup_deviation(a, b) for a, b in zip(iterates, iterates[1:])
        ]
        ratios = [b / a for a, b in zip(devs, devs[1:])]
        assert all(0.2 <= r <= 0.3 for r in ratios)
        assert all(r == pytest.approx(0.25, abs=1e-9) for r in ratios)

    def test_contraction_inequality(self):
        iterates = build_snowflake(0.25, 6)
        d45 = snowflake_sup_deviation(iterates[3], iterates[4])
        d56 = snowflake_sup_deviation(iterates[4], iterates[5])
        assert d56 <= 0.25 * d45 * (1.0 + 1e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            build_snowflake(0.0, 3)
        with pytest.raises(ValueError):
            build_snowflake(0.25, 0)

    @given(st.floats(0.15, 0.4))
    @settings(max_examples=20, deadline=None)
    def test_ratio_tracks_piece_count(self, shrink):
        iterates = build_snowflake(shrink, 3)
        d12 = snowflake_sup_deviation(iterates[0], iterates[1])
        d23 = snowflake_sup_deviation(iterates[1], iterates[2])
        # the ratio equals the longest refined piece: the flat piece or the
        # slanted edge flanking the tooth apex, whichever is longer
        n_f = int(np.ceil(1.0 / shrink - 1e-12))
        slant = float(np.hypot(0.5 / n_f, 0.75 * shrink))
        expect = max(1.0 / n_f, slant)
        assert d23 / d12 == pytest.approx(expect, rel=1e-9)


def _insert_one_by_one(boxes, m, pts):
    for b in boxes:
        pts = conjugated_insert(b, m).time_one().apply_array(pts)
    return pts


def _assert_bitwise(got, want):
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def _probe_points(boxes, rng) -> np.ndarray:
    """Points on each box's strand, inside it, on its faces, and around it."""
    rows = []
    for b in boxes:
        lo, hi = b.bound_arrays()
        c = b.center
        xs = np.linspace(lo[0], hi[0], 40)
        rows.append(np.column_stack([xs, np.full(40, c.y), np.full(40, c.z)]))
        rows.append(b.sample(rng, 40))
        # six points on each of the six faces
        face = b.sample(rng, 36)
        for i, row in enumerate(face):
            axis, bound = (i // 2) % 3, (lo, hi)[i % 2]
            row[axis] = bound[axis]
        rows.append(face)
        rows.append(b.scaled_about_center(3.0).sample(rng, 40))
    return np.concatenate(rows)


@st.composite
def _disjoint_boxes(draw):
    """Boxes in distinct x cells of width 2^-e, at mixed sizes, in any order."""
    k = draw(st.integers(1, 6))
    cell = 2.0 ** -draw(st.integers(0, 40))
    order = draw(st.permutations(range(k)))
    fracs = st.floats(1e-6, 0.45)
    boxes = []
    for i in order:
        center = Point3(
            (i + draw(st.floats(0.46, 0.54))) * cell,
            draw(st.floats(-1.0, 1.0)) * cell,
            draw(st.floats(-1.0, 1.0)) * cell,
        )
        half = Point3(draw(fracs) * cell, draw(fracs) * cell, draw(fracs) * cell)
        boxes.append(Box.from_center(center, half))
    return boxes


def _builder_boxes():
    r1 = _shrinking_boxes(2.0)
    r2 = _shrinking_boxes(4.0)
    return {
        "countable_r1": [r1(k) for k in range(1, 21)],
        "countable_r2": [r1(k) for k in range(1, 21)] + [r2(k) for k in range(1, 21)],
        "trefoil_chain": [trefoil_work_box(k) for k in range(1, 21)],
        "fox_remarkable": [fox_pair_box_initial(k) for k in range(1, 21)],
    }


class TestInsertLoops:
    """One canonical pass over disjoint boxes is bitwise the inserts run
    box by box."""

    @given(_disjoint_boxes(), st.sampled_from([1, 2, 3]), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_random_disjoint_boxes(self, boxes, m, seed):
        pts = _probe_points(boxes, np.random.default_rng(seed))
        _assert_bitwise(_insert_loops(boxes, m, pts), _insert_one_by_one(boxes, m, pts))

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("name", sorted(_builder_boxes()))
    def test_builder_boxes(self, name, m):
        boxes = _builder_boxes()[name]
        strand = _axis_points(-0.5, 4.5, boxes, pts_per_box=m * 100)
        pts = np.concatenate([strand, _probe_points(boxes, np.random.default_rng(m))])
        _assert_bitwise(_insert_loops(boxes, m, pts), _insert_one_by_one(boxes, m, pts))

    def test_points_outside_every_box_come_back_unchanged(self):
        pts = np.array([[-1.0, 0.0, 0.0], [5.0, -0.0, 0.0]])
        _assert_bitwise(_insert_loops(_builder_boxes()["countable_r1"], 1, pts), pts)

    @pytest.mark.parametrize(
        "pts",
        [
            np.array([[1.5, 0.0, 0.0]]),  # in the overlap
            np.array([[0.5, 0.0, 0.0], [2.5, 0.0, 0.0]]),  # none in the overlap
            np.empty((0, 3)),
        ],
    )
    def test_overlapping_boxes_raise(self, pts):
        a = Box(Point3(0, -1, -1), Point3(2, 1, 1))
        b = Box(Point3(1, -1, -1), Point3(3, 1, 1))
        with pytest.raises(ValueError, match="overlap"):
            _insert_loops([a, b], 1, pts)

    def test_boxes_sharing_a_corner_raise(self):
        a = Box(Point3(0, 0, 0), Point3(1, 1, 1))
        b = Box(Point3(1, 1, 1), Point3(2, 2, 2))
        c = Box(Point3(5, 5, 5), Point3(6, 6, 6))
        with pytest.raises(ValueError, match="overlap"):
            _insert_loops([c, a, b], 1, np.array([[5.5, 5.5, 5.5]]))
