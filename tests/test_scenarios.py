import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotiso.canonical import CANONICAL_BOX, conjugated_insert, tied_strand
from knotiso import scenarios as scenarios_module
from knotiso.cli import RunConfig, probe_scenario
from knotiso.engine import (
    HYPOTHESES,
    UNIFORM_CONVERGENCE,
    Isotopy,
    MoveSequence,
    ProbeReport,
    apply_truncated,
    check_hypotheses,
    eval_limit_isotopy,
    find_ball_factoring,
    glue_schedule,
    injectivity_probe,
    map_curve,
    truncated_map,
)
from knotiso.diagram import find_crossings
from knotiso.geometry import Box, bounding_box, curve_is_simple
from knotiso.maps import AffineMap, CompositeMap, ConeMap, LocalMap
from knotiso.scenarios import (
    SCENARIO_BUILDERS,
    _LOOPS,
    _PTS_PER_BOX,
    _REC_EPS,
    _REC_SCALE,
    ExpectedVerdicts,
    _loop_chain,
    build_1d_counterexample,
    build_fox_remarkable,
    build_recursive_r1,
    fox_untying,
    rec_apex,
    rec_insert,
    rec_insert_region,
    rec_squish_constant,
)

from oracles import (
    STREAM_BOXES,
    axis_points,
    build_snowflake,
    cone_piece_singular_values,
    count_crossings,
    estimate_inverse_lipschitz,
    fox_outer,
    fox_pair_box_initial,
    fox_stage_per_level,
    framed_stage,
    infinite_motion_census,
    inserted_loop_chain,
    nested_ball_factoring,
    part_by_part,
    rec_box,
    rec_stage_per_level,
    shrinking_boxes,
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

# ratio of consecutive tail-union diameters, to within 0.05
DECAY_RATIO = {
    "countable_r1": 0.5,
    "countable_r2_stage1": 0.5,
    "countable_r2_stage2": 0.5,
    "recursive_r1": 0.5,
    "trefoil_chain": 0.5,
    "fox_remarkable": 0.25,
}


def _injectivity(separation: float) -> str:
    """The engine's injectivity verdict on a least image separation."""
    return ProbeReport(0.0, separation, 0, False).injectivity


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


class TestExpectedVerdicts:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExpectedVerdicts(None, "maybe")
        # a scenario can fail only a hypothesis the conditions serve: a
        # condition's number or name would never match a computed verdict
        for failing in (1, 2, 3, "tails", "containment", "injectivity", ""):
            with pytest.raises(ValueError, match="no hypothesis is named"):
                ExpectedVerdicts(failing, "pass")
        for failing in (None, *HYPOTHESES):
            assert ExpectedVerdicts(failing, "fail").failing == failing


class TestInitialCurves:
    def test_all_simple(self, scenarios):
        for name, s in scenarios.items():
            assert curve_is_simple(s.initial_curve, CURVE_SIMPLE_TOL), name

    def test_crossing_counts(self, scenarios):
        for name, want in INITIAL_CROSSINGS.items():
            assert count_crossings(scenarios[name].initial_curve) == want, name

    def test_contained_in_container(self, scenarios):
        for name, s in scenarios.items():
            box = s.moves.container
            assert box.contains_array(s.initial_curve.points).all(), name


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
            assert rep.failing == s.expected.failing, name
            assert rep.verdict == ("pass" if s.expected.failing is None else "fail"), name

    def test_injectivity_verdicts(self, scenarios):
        for name, s in scenarios.items():
            probe = probe_scenario(s, RunConfig(name, depth=DEPTH))
            assert probe.injectivity == s.expected.injectivity, (name, probe)


class TestInvariants:
    def test_moves_respect_supports(self, scenarios):
        rng = np.random.default_rng(17)
        for name, s in scenarios.items():
            for k in (1, 2, 5):
                iso = s.moves.stage(k)
                assert isinstance(iso, Isotopy), name
                box = iso.support
                pts = s.moves.container.sample(rng, 200)
                outside = pts[~box.contains_array(pts)]
                for t in (0.0, 0.3, 0.7, 1.0):
                    img = iso.map_at(t).apply_array(outside).view(np.uint64)
                    assert np.array_equal(img, outside.view(np.uint64)), (name, k, t)

    def test_stage_supported_inside_declared_box(self, scenarios):
        rng = np.random.default_rng(18)
        for name, s in scenarios.items():
            iso = s.moves.stage(1)
            box = iso.support
            pts = box.scaled_about_center(0.999).sample(rng, 500)
            img = iso.map_at(1.0).apply_array(pts)
            # images of support points stay in the support box
            assert box.contains_array(img).all(), name

    def test_decay_ratio_band(self, scenarios):
        # tail diameters are computed past the probed range so the finite
        # cutoff does not distort the last few ratios
        for name, r in DECAY_RATIO.items():
            s = scenarios[name]
            rep = check_hypotheses(s.moves, HORIZON + 10, TOL)
            diams = dict(rep.tail_diameters)
            ratios = [diams[n + 1] / diams[n] for n in range(2, HORIZON)]
            assert all(r - 0.05 <= q <= r + 0.05 for q in ratios), (name, ratios)

    def test_probe_pairs_and_census_inside_container(self, scenarios):
        for name, s in scenarios.items():
            box = s.moves.container
            assert s.probe_pairs.shape[1:] == (2, 3), name
            assert s.census_samples.shape[1:] == (3,), name
            assert box.contains_array(s.probe_pairs).all(), name
            assert box.contains_array(s.census_samples).all(), name


class TestRecursive:
    def test_squish_constant_frozen(self):
        c = rec_squish_constant()
        assert c == pytest.approx(0.09377870594138392, abs=0.0)
        assert 0.0 < c < 0.95

    def test_squish_constant_sits_under_the_exact_cone_bound(self):
        insert = rec_insert(2).time_one()
        pieces = cone_piece_singular_values(insert)
        assert pieces.round(3).tolist() == [0.973, 0.104, 0.148, 0.391, 0.187, 0.187]
        exact = insert.inverse_lipschitz()
        assert exact == min(1.0, pieces.min())
        assert round(exact, 6) == 0.104199
        # a 4,000-pair sample reads the minimum 4.7% high
        sample = estimate_inverse_lipschitz(
            insert, rec_insert_region(2), n_samples=4000, seed=20260823
        )
        assert round(sample, 6) == 0.109119
        # the constant is 0.9 of the exact bound: protection holds
        assert rec_squish_constant() == min(0.95, 0.9 * exact)

    def test_apexes_halve_toward_vertex(self):
        vertex = np.zeros(3)
        for k in range(1, 10):
            assert math.dist(rec_apex(k), vertex) == pytest.approx(
                math.dist(rec_apex(k - 1), vertex) / 2.0
            )

    def test_protection_contrast(self, scenarios, recursive_ablated):
        protected = scenarios["recursive_r1"]
        witness = protected.probe_pairs[:1]
        sep_ok = injectivity_probe(protected.moves, DEPTH, witness)
        sep_ablated = injectivity_probe(recursive_ablated.moves, DEPTH, witness)
        assert _injectivity(sep_ok) == "pass"
        assert _injectivity(sep_ablated) == "fail"
        assert sep_ok / sep_ablated > 1e3

    def test_limits_of_witness_pair_separate(self, scenarios):
        # the unsquish kicks the wedge vertex clear of the shrinking boxes
        # while the grab point converges into them; their limits stay apart
        s = scenarios["recursive_r1"]
        lv_vertex = eval_limit_isotopy(s.moves, np.zeros(3), tol=TOL, k_budget=40)
        lv_grab = eval_limit_isotopy(s.moves, rec_apex(0), tol=TOL, k_budget=40)
        assert lv_vertex.status == "settled"
        assert _injectivity(math.dist(lv_vertex.point, lv_grab.point)) == "pass"

    def test_grab_point_converges_to_vertex(self, scenarios):
        s = scenarios["recursive_r1"]
        lv = eval_limit_isotopy(s.moves, rec_apex(0), tol=TOL, k_budget=40)
        assert lv.status == "tol-converged"
        assert math.dist(lv.point, np.zeros(3)) < 1e-6

    def test_settle_bound(self, scenarios):
        s = scenarios["recursive_r1"]
        for d in (0.2, 0.05, 0.01):
            p = np.array([-d, 0.0, 0.0])
            lv = eval_limit_isotopy(s.moves, p, tol=TOL, k_budget=40)
            assert lv.status == "settled"
            # the settle-index bound: the smallest n0 with
            # (6 + 2 eps) l / 2^n0 < d, for a point at distance d from the
            # wedge vertex; support-escape settling is conservative by at
            # most 2 stages
            n0 = 1
            while (6.0 + 2.0 * _REC_EPS) * _REC_SCALE / 2.0**n0 >= d:
                n0 += 1
            assert lv.steps <= n0 + 2

    def test_squish_starts_exactly_where_the_insert_ends(self, scenarios):
        # glued t = 0.25 is stage 1 at local time 1/2: the insert has run
        # and the squish sits at its own time 0, the identity
        s = scenarios["recursive_r1"]
        rng = np.random.default_rng(17)
        pts = np.concatenate([rec_box(1).sample(rng, 2000), s.moves.container.sample(rng, 500)])
        got = glue_schedule(s.moves, DEPTH).map_at(0.25).apply_array(pts)
        want = rec_insert(1).time_one().apply_array(pts)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("ablated", [False, True])
    def test_supports_are_the_nested_boxes(self, scenarios, recursive_ablated, ablated):
        s = recursive_ablated if ablated else scenarios["recursive_r1"]
        assert s.moves.boxes(1, 60) == [rec_box(k) for k in range(1, 61)]
        assert np.array_equal(s.moves.ball_center, np.zeros(3))

    def test_nested_family_factoring(self, scenarios):
        s = scenarios["recursive_r1"]
        eps, n0 = find_ball_factoring(s.moves, HORIZON)
        assert eps > 0 and 1 <= n0 <= HORIZON
        assert (eps, n0) == nested_ball_factoring(s.moves.ball_center, s.moves.boxes(1, HORIZON))


@pytest.mark.parametrize("name", sorted(STREAM_BOXES))
def test_each_stream_is_its_first_stage_and_a_similarity(scenarios, name):
    # the declared V_1, similarity and fixed box give each family's level-k
    # supports bit for bit, and every stage runs the one stage-1 end map:
    # stage 1 framed into V_k, bitwise where V_1 is dyadic and within 5
    # ulps of each row's largest coordinate for the trefoil chains
    seq = scenarios[name].moves
    got = seq.boxes(1, 47)
    want = [STREAM_BOXES[name](k) for k in range(1, 48)]
    assert [(b.lo.tobytes(), b.hi.tobytes()) for b in got] == [
        (b.lo.tobytes(), b.hi.tobytes()) for b in want
    ]
    first = seq.similarity.first.time_one()
    ulps = 5 if name.startswith("trefoil") else 0
    rng = np.random.default_rng(26)
    for k in range(1, 6):
        m = seq.time_one_map(k)
        assert m.h_last is first
        pts = seq.similarity.box(k).scaled_about_center(1.2).sample(rng, 300)
        framed = part_by_part(framed_stage(seq, k).time_one(), pts)
        bound = ulps * np.spacing(np.abs(framed).max(axis=1))
        assert (np.abs(m.apply_array(pts) - framed).max(axis=1) <= bound).all(), k


# each self-similar stream: its builder, its stage k built level by level,
# and the apexes stage k moves or moves toward
SELF_SIMILAR = {
    "recursive_r1": (
        build_recursive_r1,
        rec_stage_per_level,
        lambda k: [rec_apex(k - 1), rec_apex(k)],
    ),
    "recursive_r1_ablated": (
        lambda: build_recursive_r1(ablated=True),
        lambda k: rec_stage_per_level(k, ablated=True),
        lambda k: [rec_apex(k - 1), rec_apex(k)],
    ),
    "fox_remarkable": (build_fox_remarkable, fox_stage_per_level, lambda k: [np.zeros(3)]),
}


@pytest.mark.parametrize("name", SELF_SIMILAR)
def test_framed_stage_is_the_level_k_stage_bitwise(name):
    # V_k is V_1 scaled about the origin by a power of two, and so is every
    # level-k coordinate: stage 1 framed into V_k is the stage built from
    # level k's own closed forms, bit for bit
    build, per_level, apexes = SELF_SIMILAR[name]
    seq = build().moves
    rng = np.random.default_rng(24)
    for k in range(1, 41):
        box = seq.stage(k).support
        pts = np.concatenate([box.sample(rng, 200), box.corners(), apexes(k)])
        want = per_level(k)
        assert want.support == box
        for t in (0.25, 0.5, 0.75, 1.0):
            got = seq.stage(k).map_at(t).apply_array(pts)
            assert np.array_equal(
                got.view(np.uint64), want.map_at(t).apply_array(pts).view(np.uint64)
            ), (k, t)


@pytest.mark.parametrize("name", ["recursive_r1", "fox_remarkable"])
def test_framed_stage_keeps_the_signed_zeros_of_the_level_k_stage(name):
    # V_k is centred on the origin, so the zero shifts of the frame into it
    # are -0.0 and a -0.0 coordinate the stage leaves in place stays -0.0
    build, per_level, _ = SELF_SIMILAR[name]
    seq = build().moves
    rng = np.random.default_rng(25)
    for k in range(2, 41):
        box = seq.stage(k).support
        pts = box.sample(rng, 60)
        pts[rng.random(pts.shape) < 0.5] = -0.0
        signed = np.array([[-0.0, -0.0, -0.0], [0.0, -0.0, 0.0], [-0.0, 0.0, -0.0]])
        pts = np.concatenate([pts, signed, box.corners() * [1.0, -0.0, 0.0]])
        want = per_level(k)
        for t in (0.25, 0.5, 0.75, 1.0):
            got = seq.stage(k).map_at(t).apply_array(pts)
            assert np.array_equal(
                got.view(np.uint64), want.map_at(t).apply_array(pts).view(np.uint64)
            ), (k, t)


class TestTrefoilExtended:
    def test_tail_diameter_floor(self, scenarios):
        rep = check_hypotheses(scenarios["trefoil_chain_extended"].moves, HORIZON, TOL)
        assert rep.failing == UNIFORM_CONVERGENCE
        assert all(d >= 1.0 for _, d in rep.tail_diameters)
        assert not rep.disjoint_supports

    def test_plain_variant_passes(self, scenarios):
        rep = check_hypotheses(scenarios["trefoil_chain"].moves, HORIZON, TOL)
        assert rep.verdict == "pass"
        assert rep.disjoint_supports

    def test_the_fixed_box_moves_no_point(self, scenarios):
        # the extended stream's truncations are the plain chain's, bitwise,
        # on every vertex of its curve: the limit is the same, so failing
        # condition 1 shows the condition is sufficient, not necessary
        plain = scenarios["trefoil_chain"]
        pts = plain.initial_curve.points
        assert len(pts) == 6004
        for n in (1, 5, 20, 40, 100):
            want = apply_truncated(plain.moves, n, pts)
            got = apply_truncated(scenarios["trefoil_chain_extended"].moves, n, pts)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), n


class TestFox:
    def test_min_separation_below_threshold(self, scenarios):
        s = scenarios["fox_remarkable"]
        sep = injectivity_probe(s.moves, DEPTH, s.probe_pairs)
        assert _injectivity(sep) == "fail"
        assert sep > 0.0  # finite truncations are still injective

    def test_census_traps_the_stitch_point(self, scenarios):
        s = scenarios["fox_remarkable"]
        n = infinite_motion_census(s.moves, 25, s.census_samples, horizon=40)
        assert n == 1

    def test_tracked_points_contract_toward_origin(self, scenarios):
        s = scenarios["fox_remarkable"]
        pts = s.census_samples
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

    def test_supports_are_the_nested_boxes(self, scenarios):
        s = scenarios["fox_remarkable"]
        assert s.moves.boxes(1, 60) == [fox_outer(k) for k in range(1, 61)]
        assert np.array_equal(s.moves.ball_center, np.zeros(3))

    def test_nested_family_factoring(self, scenarios):
        s = scenarios["fox_remarkable"]
        eps, n0 = find_ball_factoring(s.moves, HORIZON)
        assert eps == pytest.approx(0.2)
        assert n0 == 2
        assert (eps, n0) == nested_ball_factoring(s.moves.ball_center, s.moves.boxes(1, HORIZON))


class TestFoxCurveIsTame:
    """Fox's curve ties its loop pairs in the supports of a disjoint
    stream that unties them (``fox_untying``): a stream that passes every
    check unties the curve to a segment, so the curve is tame, and the
    injectivity that fails is the squish stream's."""

    @pytest.fixture(scope="class")
    def untying(self):
        return MoveSequence(build_fox_remarkable().moves.container, similarity=fox_untying())

    def test_its_supports_are_the_curve_pair_boxes(self, untying):
        pair_boxes = _stacked([fox_pair_box_initial(k) for k in range(1, _LOOPS + 1)])
        for got, want in zip(untying.similarity.corners(1, _LOOPS), pair_boxes):
            _assert_bitwise(got, want)

    def test_it_passes_the_hypotheses_and_the_injectivity_probe(self, scenarios, untying):
        report = check_hypotheses(untying, HORIZON, TOL)
        assert report.verdict == "pass" and report.disjoint_supports
        # 0.009693683206310628 on fox's probe pairs
        sep = injectivity_probe(untying, DEPTH, scenarios["fox_remarkable"].probe_pairs)
        assert _injectivity(sep) == "pass"
        assert sep == pytest.approx(0.0097, abs=1e-4)

    def test_it_unties_every_crossing(self, scenarios, untying):
        curve = scenarios["fox_remarkable"].initial_curve
        assert len(find_crossings(curve)) == 40
        untied = map_curve(truncated_map(untying, DEPTH), curve)
        assert find_crossings(untied) == []
        # a segment on the x-axis, up to 1.94e-17
        assert np.abs(untied.points[:, 1:]).max() < 2e-17


class TestOneDimensional:
    def test_composite_is_pure_power(self):
        seq = build_1d_counterexample().moves
        xs = np.linspace(0.0, 1.0, 101)
        pts = np.stack([xs, np.zeros_like(xs), np.zeros_like(xs)], axis=1)
        for n in (1, 5, 20):
            img = apply_truncated(seq, n, pts)[:, 0]
            # independent oracle: the composite exponent telescopes to n+1
            assert np.abs(img - xs ** (n + 1)).max() < 1e-12

    def test_the_stages_do_not_converge_uniformly(self):
        # on the axis H_n(x) = x^(n+1), whose pointwise limit is 0 on [0, 1)
        # and 1 at x = 1: the Cauchy deviation max |H_n - H_2n| tends to 1/4
        seq = build_1d_counterexample().moves
        xs = np.linspace(0.0, 1.0, 20001)
        pts = np.stack([xs, np.zeros_like(xs), np.zeros_like(xs)], axis=1)
        deviations = []
        for n in (5, 10, 20, 40):
            h_n, h_2n = (apply_truncated(seq, m, pts)[:, 0] for m in (n, 2 * n))
            assert np.abs(h_n - xs ** (n + 1)).max() < 1e-14
            assert np.abs(h_2n - xs ** (2 * n + 1)).max() < 1e-14
            deviations.append(round(float(np.abs(h_n - h_2n).max()), 4))
        assert deviations == [0.2196, 0.2338, 0.2416, 0.2457]

    def test_deep_composite_collapses_interval(self):
        seq = build_1d_counterexample().moves
        pts = np.array([[0.5, 0.0, 0.0], [0.9, 0.0, 0.0]])
        img = apply_truncated(seq, 300, pts)[:, 0]
        assert img[0] < 1e-6 and img[1] < 1e-6
        assert img[0] == pytest.approx(0.5**301)
        assert img[1] == pytest.approx(0.9**301)

    def test_hypotheses_fail_condition_1(self, scenarios):
        rep = check_hypotheses(scenarios["1d_counterexample"].moves, HORIZON, TOL)
        assert rep.failing == UNIFORM_CONVERGENCE
        # every stage has the one support [0, 1] x [-1/4, 1/4]^2, of
        # diameter sqrt(1 + 1/4 + 1/4)
        assert all(d == math.sqrt(1.5) for _, d in rep.tail_diameters)

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


def _inserts(boxes, m):
    """Every box's insert at time 1 as one composite, which routes runs."""
    return CompositeMap(
        [conjugated_insert(b, m).time_one() for b in boxes], support=bounding_box(boxes)
    )


def _assert_bitwise(got, want):
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def _probe_points(boxes, rng) -> np.ndarray:
    """Points on each box's strand, inside it, on its faces, and around it."""
    rows = []
    for b in boxes:
        lo, hi = b.lo, b.hi
        c = b.center
        xs = np.linspace(lo[0], hi[0], 40)
        rows.append(np.column_stack([xs, np.full(40, c[1]), np.full(40, c[2])]))
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
        center = (
            (i + draw(st.floats(0.46, 0.54))) * cell,
            draw(st.floats(-1.0, 1.0)) * cell,
            draw(st.floats(-1.0, 1.0)) * cell,
        )
        half = (draw(fracs) * cell, draw(fracs) * cell, draw(fracs) * cell)
        boxes.append(Box.from_center(center, half))
    return boxes


def _stacked(boxes):
    """Boxes as the stacked (n, 3) corners lo and hi a loop chain takes."""
    return np.array([b.lo for b in boxes]), np.array([b.hi for b in boxes])


def _boxes(lo, hi):
    """Stacked corners as one Box per row."""
    return [Box(a, b) for a, b in zip(lo, hi)]


def _builder_boxes():
    """The stacked corners each chain builder ties loops in, from the
    reference box families."""
    loops = range(1, _LOOPS + 1)
    r1 = [shrinking_boxes(2.0, k) for k in loops]
    return {
        "countable_r1": _stacked(r1),
        "countable_r2": _stacked(r1 + [shrinking_boxes(4.0, k) for k in loops]),
        "trefoil_chain": _stacked([trefoil_work_box(k) for k in loops]),
        "fox_remarkable": _stacked([fox_pair_box_initial(k) for k in loops]),
    }


class TestInsertLoops:
    """A composite of inserts of one canonical move over disjoint boxes
    routes them in one pass, bitwise the inserts run box by box; the stage
    truncations of every chain are such composites."""

    @given(_disjoint_boxes(), st.sampled_from([1, 2, 3]), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_random_disjoint_boxes(self, boxes, m, seed):
        pts = _probe_points(boxes, np.random.default_rng(seed))
        _assert_bitwise(_inserts(boxes, m).apply_array(pts), _insert_one_by_one(boxes, m, pts))

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("name", sorted(_builder_boxes()))
    def test_builder_boxes(self, name, m):
        boxes = _boxes(*_builder_boxes()[name])
        strand = axis_points(-0.5, 4.5, boxes, m)
        pts = np.concatenate([strand, _probe_points(boxes, np.random.default_rng(m))])
        _assert_bitwise(_inserts(boxes, m).apply_array(pts), _insert_one_by_one(boxes, m, pts))

    def test_points_outside_every_box_come_back_unchanged(self):
        pts = np.array([[-1.0, 0.0, 0.0], [5.0, -0.0, 0.0]])
        boxes = _boxes(*_builder_boxes()["countable_r1"])
        _assert_bitwise(_inserts(boxes, 1).apply_array(pts), pts)

    @pytest.mark.parametrize(
        "pts",
        [
            np.array([[1.5, 0.0, 0.0]]),  # in the overlap
            np.array([[0.5, 0.0, 0.0], [2.5, 0.0, 0.0]]),  # none in the overlap
            np.empty((0, 3)),
        ],
    )
    def test_overlapping_boxes_raise(self, pts):
        a = Box((0, -1, -1), (2, 1, 1))
        b = Box((1, -1, -1), (3, 1, 1))
        with pytest.raises(ValueError, match="overlap"):
            _loop_chain(-1.0, 4.0, *_stacked([a, b]), 1)
        # a composite does not route boxes that meet: it runs them one by one
        _assert_bitwise(_inserts([a, b], 1).apply_array(pts), _insert_one_by_one([a, b], 1, pts))

    def test_boxes_sharing_a_corner_raise(self):
        a = Box((0, 0, 0), (1, 1, 1))
        b = Box((1, 1, 1), (2, 2, 2))
        c = Box((5, 5, 5), (6, 6, 6))
        with pytest.raises(ValueError, match="overlap"):
            _loop_chain(-1.0, 10.0, *_stacked([c, a, b]), 1)


CHAINS = (
    "countable_r1",
    "countable_r2_stage1",
    "countable_r2_stage2",
    "trefoil_chain",
    "trefoil_chain_extended",
    "fox_remarkable",
)

# crossings of the filmed frames at the seams t = 1 - 2^-k, k = 0..8, at
# depth 20; None is a frame whose projection stays degenerate
SEAM_CROSSINGS = {
    "countable_r1": [20, 19, 18, 17, 16, 15, 14, 13, 12],
    "recursive_r1": [0] * 9,
    "trefoil_chain": [60, 57, 54, 51, 48, 45, 42, 39, 36],
    "fox_remarkable": [40, 38, 36] + [None] * 6,
}


def _framed_box_by_box(x_start, x_end, lo, hi, m, untied=False):
    """The loop chain with one ``AffineMap.box_to_box`` frame per box."""
    n = m * _PTS_PER_BOX
    xs = np.linspace(-1.0, 1.0, n)
    straight = np.column_stack([xs, np.zeros(n), np.zeros(n)])
    pieces = sorted(
        [
            (b, straight if skip else tied_strand(m, n))
            for b, skip in zip(_boxes(lo, hi), np.broadcast_to(untied, len(lo)))
        ],
        key=lambda p: p[0].lo[0],
    )
    framed = [AffineMap.box_to_box(CANONICAL_BOX, b).apply_array(strand) for b, strand in pieces]
    return np.concatenate([[[x_start, 0.0, 0.0]], *framed, [[x_end, 0.0, 0.0]]])


def _map_kinds(kind=LocalMap):
    """Every map class, the base included."""
    yield kind
    for sub in kind.__subclasses__():
        yield from _map_kinds(sub)


def test_a_second_build_runs_no_map(monkeypatch):
    """Once the canonical strands and constants exist, building every
    scenario again applies no map of any kind and frames no box."""
    for build in SCENARIO_BUILDERS.values():
        build()
    calls = []

    def counted(name, fn):
        return lambda self, *a, **kw: calls.append(name) or fn(self, *a, **kw)

    for kind in set(_map_kinds()):
        if "apply_array" in vars(kind):
            monkeypatch.setattr(kind, "apply_array", counted(kind.__name__, vars(kind)["apply_array"]))
    monkeypatch.setattr(AffineMap, "__init__", counted("AffineMap()", AffineMap.__init__))
    for build in SCENARIO_BUILDERS.values():
        build()
    assert calls == []


def test_a_second_build_builds_few_boxes(monkeypatch):
    """A chain reads its boxes as stacked corners, so building every
    scenario again constructs no Box per support row: 45 in all, where
    one Box per chain box made 222."""
    for build in SCENARIO_BUILDERS.values():
        build()
    built = []
    check = Box.__post_init__
    monkeypatch.setattr(Box, "__post_init__", lambda self: built.append(1) or check(self))
    for build in SCENARIO_BUILDERS.values():
        build()
    assert 0 < len(built) <= 50


def test_the_box_by_box_chain_takes_the_loop_chain_arguments():
    # the inserted_chains fixture swaps one in for the other
    assert inspect.signature(inserted_loop_chain) == inspect.signature(_loop_chain)


@pytest.fixture(scope="module")
def inserted_chains():
    """Every scenario with its chains built as inserts into a refined axis."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scenarios_module, "_loop_chain", inserted_loop_chain)
        return {name: build() for name, build in SCENARIO_BUILDERS.items()}


def _seam_crossings(s) -> list:
    glued = glue_schedule(s.moves, DEPTH)
    dense = s.initial_curve.densified(0.01)
    counts = []
    for k in range(9):
        try:
            counts.append(len(find_crossings(map_curve(glued.map_at(1.0 - 2.0**-k), dense))))
        except ValueError:
            counts.append(None)
    return counts


class TestLoopChain:
    """Framing one tied canonical strand into every box builds the chain
    the box-by-box inserts into a refined axis build, to the last bits."""

    @pytest.mark.parametrize("name", CHAINS)
    def test_matches_the_inserts_box_by_box(self, scenarios, inserted_chains, name):
        got = scenarios[name].initial_curve.points
        want = inserted_chains[name].initial_curve.points
        assert got.shape == want.shape
        ulp = np.spacing(np.abs(want).max(axis=1))[:, None]
        assert (np.abs(got - want) <= 16 * ulp).all()
        # the straight runs lie on the x-axis exactly
        on_axis = (want[:, 1:] == 0).all(axis=1)
        assert on_axis.sum() > len(want) // 4
        assert np.array_equal((got[:, 1:] == 0).all(axis=1), on_axis)

    @pytest.mark.parametrize("name", sorted(SEAM_CROSSINGS))
    def test_seam_crossings_match_the_inserts_box_by_box(self, scenarios, inserted_chains, name):
        assert _seam_crossings(scenarios[name]) == SEAM_CROSSINGS[name]
        assert _seam_crossings(inserted_chains[name]) == SEAM_CROSSINGS[name]

    def test_one_canonical_pass_per_distinct_strand(self, monkeypatch):
        # the tied strand is a module constant: building the six chains
        # evaluates it once per distinct (m, n), three canonical passes,
        # where one pass per chain pushed 2,360 rows through the cones and
        # the inserts box by box 54,400
        rows = []
        apply = ConeMap.apply_array

        def counting_apply(self, pts):
            rows.append(len(pts))
            return apply(self, pts)

        monkeypatch.setattr(ConeMap, "apply_array", counting_apply)
        tied_strand.cache_clear()
        for name in CHAINS:
            SCENARIO_BUILDERS[name]()
        assert tied_strand.cache_info().misses == 3
        built = sum(rows)
        rows.clear()
        tied_strand.cache_clear()
        for m in (1, 2, 3):
            tied_strand(m, m * _PTS_PER_BOX)
        assert 0 < built <= sum(rows)

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("name", sorted(_builder_boxes()))
    def test_frames_each_box_as_its_affine_frame(self, name, m):
        # bitwise AffineMap.box_to_box of the canonical box onto each box,
        # applied to the tied strand, or to the straight one for the boxes
        # left untied (here every other box, in registry order)
        lo, hi = _builder_boxes()[name]
        for untied in (False, np.arange(len(lo)) % 2 == 0):
            want = _framed_box_by_box(-0.5, 4.5, lo, hi, m, untied)
            _assert_bitwise(_loop_chain(-0.5, 4.5, lo, hi, m, untied), want)

    @pytest.mark.parametrize(
        "box",
        [
            Box((0.9, 0.0, -0.1), (1.1, 0.0, 0.1)),  # flat in y
            Box((1.0, -0.1, -0.1), (1.0, 0.1, 0.1)),  # flat in x
            Box.from_center((1.0, 0.0, 0.0), (0.1, 1e-310, 0.1)),  # 1 / scale overflows
            Box((-1e308, -0.1, -0.1), (1e308, 0.1, 0.1)),  # the scale overflows
        ],
    )
    def test_a_box_with_no_finite_frame_raises(self, box):
        with pytest.raises(ValueError):
            AffineMap.box_to_box(CANONICAL_BOX, box)
        with pytest.raises(ValueError, match="no finite invertible frame"):
            _loop_chain(-1.7e308, 1.7e308, *_stacked([box]), 1)
        # untied, the box is refused alike
        with pytest.raises(ValueError, match="no finite invertible frame"):
            _loop_chain(-1.7e308, 1.7e308, *_stacked([box]), 1, untied=True)

    @given(st.tuples(*[st.floats(0.0, 0.5)] * 3))
    @settings(max_examples=200, deadline=None)
    def test_refuses_exactly_the_boxes_an_affine_frame_refuses(self, half):
        box = Box.from_center((1.0, 0.0, 0.0), half)
        try:
            AffineMap.box_to_box(CANONICAL_BOX, box)
        except ValueError:
            with pytest.raises(ValueError, match="no finite invertible frame"):
                _loop_chain(0.0, 2.0, *_stacked([box]), 1)
        else:
            corners = _stacked([box])
            _assert_bitwise(
                _loop_chain(0.0, 2.0, *corners, 1), _framed_box_by_box(0.0, 2.0, *corners, 1)
            )

    def test_untied_boxes_are_refined_straight(self):
        tied, untied = (Box.from_center((x, 0.0, 0.0), (0.25, 0.25, 0.25)) for x in (2.0, 1.0))
        strand = _loop_chain(0.0, 3.0, *_stacked([tied, untied]), 2, untied=[False, True])
        # the pieces in x order: the untied box's 200 vertices, then the tied box's
        assert len(strand) == 2 + 2 * 200
        straight, loops = strand[1:201], strand[201:401]
        assert not straight[:, 1:].any() and (np.diff(straight[:, 0]) > 0).all()
        assert loops[:, 1:].any()

    def test_tied_and_untied_boxes_that_meet_raise(self):
        a = Box.from_center((1.0, 0.0, 0.0), (0.5, 0.25, 0.25))
        b = Box.from_center((2.0, 0.0, 0.0), (0.5, 0.1, 0.1))
        with pytest.raises(ValueError, match="overlap"):
            _loop_chain(0.0, 3.0, *_stacked([a, b]), 1, untied=[False, True])

    @pytest.mark.parametrize("center", [(1.0, 0.01, 0.0), (1.0, 0.0, -0.125)])
    def test_box_off_the_axis_raises(self, center):
        box = Box.from_center(center, (0.25, 0.25, 0.25))
        with pytest.raises(ValueError, match="not centred on the x-axis"):
            _loop_chain(0.0, 3.0, *_stacked([box]), 1)

    @pytest.mark.parametrize("x_start,x_end", [(0.8, 3.0), (0.75, 3.0), (0.0, 1.2)])
    def test_box_outside_the_span_raises(self, x_start, x_end):
        box = Box.from_center((1.0, 0.0, 0.0), (0.25, 0.25, 0.25))
        with pytest.raises(ValueError, match="escapes the arc span"):
            _loop_chain(x_start, x_end, *_stacked([box]), 1)
