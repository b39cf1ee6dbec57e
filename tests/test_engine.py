import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotiso.engine import (
    Isotopy,
    MoveSequence,
    TailTable,
    apply_truncated,
    check_hypotheses,
    eval_limit_isotopy,
    glue_schedule,
    infinite_motion_census,
    injectivity_probe,
    map_curve,
    seam_values,
    stage_of,
    stage_time,
    tail_boxes,
    truncated_map,
    uniform_convergence_probe,
)
from knotiso.geometry import Box, PLCurve, Point3, union_diameter
from knotiso.maps import IdentityMap
from knotiso.moves import cone_isotopy

CONTAINER = Box(Point3(-1, -1, -1), Point3(3, 1, 1))


def _shrinking_stage(k: int) -> tuple[Isotopy, Box]:
    """Cone pull in a box of scale 2^-k accumulating at x = 2."""
    s = 2.0**-k
    b = Box.from_center(Point3(2.0 - 0.75 * s, 0.0, 0.0), Point3(0.2 * s, 0.2 * s, 0.2 * s))
    return cone_isotopy(b, b.center, Point3(b.center.x, 0.1 * s, 0.0)), b


def _stream() -> MoveSequence:
    return MoveSequence(stage_fn=_shrinking_stage, container=CONTAINER)


class TestSchedule:
    def test_default_times(self):
        assert stage_time(0) == 0.0
        assert stage_time(1) == 0.5
        assert stage_time(3) == 0.875

    def test_stage_of(self):
        assert stage_of(0.0, 10) == 1
        assert stage_of(0.49, 10) == 1
        assert stage_of(0.5, 10) == 2
        assert stage_of(0.9, 10) == 4

    def test_stage_of_rejects_limit_time(self):
        with pytest.raises(ValueError):
            stage_of(1.0, 10)

    def test_bad_schedule_rejected(self):
        # 1 - 2^-54 rounds to 1.0: stage 54 has no slot below the limit time
        assert stage_time(53) < 1.0
        with pytest.raises(ValueError, match="not below 1"):
            stage_time(54)
        with pytest.raises(ValueError):
            glue_schedule(_stream(), 54)


class TestMoveSequence:
    def test_stage_memoized(self):
        calls = []

        def stage(k):
            calls.append(k)
            return _shrinking_stage(k)

        seq = MoveSequence(stage_fn=stage, container=CONTAINER)
        seq.stage(3)
        seq.stage(3)
        assert calls == [3]

    def test_stage_index_validated(self):
        with pytest.raises(ValueError):
            _stream().stage(0)


class TestTruncations:
    def test_zero_truncation_is_identity(self):
        m = truncated_map(_stream(), 0)
        assert isinstance(m, IdentityMap)
        assert m.support == CONTAINER

    def test_truncated_matches_apply_truncated(self):
        seq = _stream()
        rng = np.random.default_rng(0)
        pts = CONTAINER.sample(rng, 300)
        for n in (1, 3, 7):
            a = truncated_map(seq, n).apply_array(pts)
            b = apply_truncated(seq, n, pts)
            assert np.array_equal(a, b)

    def test_map_curve_densifies(self):
        seq = _stream()
        arc = PLCurve((Point3(0, 0, 0), Point3(2.5, 0, 0)))
        dense = arc.densified(0.05)
        img = map_curve(truncated_map(seq, 2), dense)
        assert len(img.vertices) == len(dense.vertices) >= 50
        assert np.array_equal(img.points, apply_truncated(seq, 2, dense.points))


class TestHypotheses:
    def test_shrinking_stream_passes(self):
        rep = check_hypotheses(_stream(), horizon=15, threshold=1e-3)
        assert rep.verdict == "pass"
        assert rep.first_violation is None
        assert rep.containment_ok
        assert rep.disjoint_supports
        ns = [n for n, _ in rep.tail_diameters]
        assert ns == list(range(1, 16))
        diams = [d for _, d in rep.tail_diameters]
        assert all(a > b for a, b in zip(diams, diams[1:]))

    def test_tail_diameter_matches_oracle(self):
        seq = _stream()
        rep = check_hypotheses(seq, horizon=10, threshold=1e-6)
        # independent oracle: recompute from the boxes directly
        boxes = [_shrinking_stage(k)[1] for k in range(1, 11)]
        for n, d in rep.tail_diameters:
            assert d == pytest.approx(union_diameter(boxes[n - 1 :]), abs=0.0)

    def test_containment_failure_is_condition_2(self):
        big = Box(Point3(-5, -5, -5), Point3(5, 5, 5))

        def stage(k):
            s = 2.0**-k
            b = Box.cube(Point3(2.0 - s, 0, 0), 0.1 * s) if k > 1 else big
            return cone_isotopy(b, b.center, Point3(b.center.x, 0.01 * s, 0)), b

        seq = MoveSequence(stage_fn=stage, container=CONTAINER)
        rep = check_hypotheses(seq, horizon=25, threshold=1e-6)
        assert rep.verdict == "fail"
        assert rep.first_violation == 2

    def test_support_outside_container_still_moves_points(self):
        # stage 3 sticks out past the container's x = 3 face; composites
        # must not cull on the container, whose containment is on trial
        def stage(k):
            if k == 3:
                b = Box(Point3(2.6, -0.3, -0.3), Point3(3.6, 0.3, 0.3))
                return cone_isotopy(b, b.center, Point3(3.1, 0.2, 0.0)), b
            return _shrinking_stage(k)

        seq = MoveSequence(stage_fn=stage, container=CONTAINER)
        rep = check_hypotheses(seq, horizon=25, threshold=1e-6)
        assert rep.to_lines()[-1] == "verdict: fail (condition 2)"
        p = np.array([[3.2, 0.05, 0.0]])
        assert not CONTAINER.contains_array(p)[0]
        glued = glue_schedule(seq, 5)
        stage_3_late = stage_time(2) + 0.9 * (stage_time(3) - stage_time(2))
        for m in (truncated_map(seq, 5), glued.map_at(1.0), glued.map_at(stage_3_late)):
            assert not np.array_equal(m.apply_array(p), p)

    def test_constant_supports_fail_condition_1(self):
        b = Box.cube(Point3(0, 0, 0), 1.0)

        def stage(k):
            return cone_isotopy(b, b.center, Point3(0.1, 0, 0)), b

        seq = MoveSequence(stage_fn=stage, container=CONTAINER)
        rep = check_hypotheses(seq, horizon=10, threshold=1e-6)
        assert rep.verdict == "fail"
        assert rep.first_violation == 1
        assert not rep.disjoint_supports

    def test_horizon_validated(self):
        with pytest.raises(ValueError):
            check_hypotheses(_stream(), horizon=1, threshold=1e-6)

    def test_report_lines_shape(self):
        rep = check_hypotheses(_stream(), horizon=20, threshold=1e-6)
        lines = rep.to_lines()
        assert lines[0].startswith("tail_diameters: 1:")
        assert lines[1] == "containment_ok: true"
        assert lines[2] == "disjoint_supports: true"
        assert lines[3] == "verdict: pass"


def _box_family(min_size=1):
    coord = st.floats(-10.0, 10.0, allow_nan=False)
    extent = st.floats(0.0, 5.0, allow_nan=False)
    box = st.tuples(coord, coord, coord, extent, extent, extent).map(
        lambda v: Box.from_center(Point3(*v[:3]), Point3(*v[3:]))
    )
    return st.lists(box, min_size=min_size, max_size=12)


def _fixed_stream(boxes):
    def stage(k):
        b = boxes[k - 1]
        return Isotopy(support=b, map_at=lambda t: IdentityMap(support=b)), b

    return MoveSequence(stage_fn=stage, container=CONTAINER)


class TestTailTable:
    @given(_box_family())
    @settings(max_examples=60, deadline=None)
    def test_entries_equal_union_diameter(self, boxes):
        table = _fixed_stream(boxes).tail_table(len(boxes))
        for n in range(1, len(boxes) + 1):
            assert table.diam[n - 1] == pytest.approx(union_diameter(boxes[n - 1 :]), abs=0.0)
        assert all(a >= b for a, b in zip(table.diam, table.diam[1:]))

    @given(_box_family(), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_later_support_matches_box_containment(self, boxes, seed):
        table = TailTable.build(boxes)
        # random points plus every box's corners, which sit on the boundary
        rng = np.random.default_rng(seed)
        pts = np.concatenate([rng.uniform(-16.0, 16.0, (50, 3)), table.lo, table.hi])
        for k in range(len(boxes) + 1):
            want = np.zeros(len(pts), dtype=bool)
            for b in boxes[k:]:
                want |= b.contains_array(pts)
            assert np.array_equal(table.in_later_support(pts, k), want)

    @given(_box_family(min_size=2))
    @settings(max_examples=40, deadline=None)
    def test_containment_and_disjointness_match_box_predicates(self, boxes):
        rep = check_hypotheses(_fixed_stream(boxes), horizon=len(boxes), threshold=1e-6)
        assert rep.containment_ok == all(CONTAINER.contains_box(b, strict=True) for b in boxes)
        assert rep.disjoint_supports == all(
            not a.intersects(b) for i, a in enumerate(boxes) for b in boxes[i + 1 :]
        )

    def test_memoized_per_last_stage(self):
        seq = _stream()
        assert seq.tail_table(8) is seq.tail_table(8)
        assert len(seq.tail_table(5).diam) == 5


class TestTailBoxes:
    def test_clipping(self):
        seq = _stream()
        assert tail_boxes(seq, 0, 10) == seq.boxes(1, 10)
        assert tail_boxes(seq, 2, 10) == seq.boxes(3, 10)
        assert tail_boxes(seq, 10, 10) == []


class TestLimitEvaluation:
    def test_limit_settles_outside_all_supports(self):
        seq = _stream()
        lv = eval_limit_isotopy(seq, Point3(0.0, 0.5, 0.0), tol=1e-6, k_budget=30)
        assert lv.status == "settled"
        assert lv.steps == 0

    def test_limit_tol_converges_at_accumulation_point(self):
        seq = _stream()
        lv = eval_limit_isotopy(
            seq, Point3(2.0 - 2.0**-5 * 0.75, 0.0, 0.0), tol=1e-6, k_budget=40
        )
        assert lv.status in ("settled", "tol-converged")

    def test_unbounded_stream_exhausts_budget_at_tight_tol(self):
        seq = _stream()
        # a point inside the horizon stage's box, tolerance far below what
        # 10 stages can certify: the stream just runs out of budget
        p = Point3(2.0 - 0.75 * 2.0**-10, 0.0, 0.0)
        lv = eval_limit_isotopy(seq, p, tol=1e-30, k_budget=10)
        assert lv.status == "budget-exhausted"
        assert lv.steps == 10

    def test_validates_inputs(self):
        seq = _stream()
        for tol in (0.0, -1.0):
            with pytest.raises(ValueError, match="tol must be positive"):
                eval_limit_isotopy(seq, Point3(0, 0, 0), tol=tol)


class TestProbes:
    def test_uniform_convergence_bounded_by_tail_diameter(self):
        seq = _stream()
        rng = np.random.default_rng(1)
        grid = [Point3.from_array(p) for p in CONTAINER.sample(rng, 200)]
        dev = uniform_convergence_probe(seq, 5, 12, grid)
        bound = union_diameter([_shrinking_stage(k)[1] for k in range(6, 13)])
        assert 0.0 <= dev <= bound + 1e-12

    def test_uniform_convergence_validates(self):
        seq = _stream()
        with pytest.raises(ValueError):
            uniform_convergence_probe(seq, 5, 3, [Point3(0, 0, 0)])
        with pytest.raises(ValueError):
            uniform_convergence_probe(seq, 1, 2, [])

    def test_injectivity_probe_identity_pairs(self):
        seq = _stream()
        pairs = [(Point3(0, 0.5, 0), Point3(0, 0.6, 0))]
        assert injectivity_probe(seq, 5, pairs) == pytest.approx(0.1)

    def test_census_counts_trapped_points(self):
        seq = _stream()
        trapped = Point3(2.0 - 0.75 * 2.0**-12, 0.0, 0.0)
        free = Point3(0.0, 0.5, 0.0)
        assert infinite_motion_census(seq, 10, [trapped, free], horizon=20) >= 1
        assert infinite_motion_census(seq, 10, [free], horizon=20) == 0
        assert infinite_motion_census(seq, 10, [], horizon=20) == 0


class TestGlueSchedule:
    def test_time_zero_is_identity(self):
        seq = _stream()
        glued = glue_schedule(seq, 6)
        rng = np.random.default_rng(2)
        pts = CONTAINER.sample(rng, 200)
        assert np.array_equal(glued.map_at(0.0).apply_array(pts), pts)

    def test_frozen_past_t_n(self):
        seq = _stream()
        glued = glue_schedule(seq, 4)
        rng = np.random.default_rng(3)
        pts = CONTAINER.sample(rng, 200)
        a = glued.map_at(stage_time(4)).apply_array(pts)
        b = glued.map_at(1.0).apply_array(pts)
        c = truncated_map(seq, 4).apply_array(pts)
        assert np.array_equal(a, b)
        assert np.array_equal(a, c)

    def test_seam_values_agree(self):
        seq = _stream()
        rng = np.random.default_rng(4)
        pts = CONTAINER.sample(rng, 300)
        for k in (1, 2, 5):
            left, right = seam_values(seq, k, pts)
            assert np.abs(left - right).max() < 1e-9

    def test_n_validated(self):
        with pytest.raises(ValueError):
            glue_schedule(_stream(), 0)


# -- the stage composer against the per-stage formula ------------------------

COMPOSER_STREAMS = ("countable_r1", "recursive_r1", "fox_remarkable")


def _per_stage(seq, n, pts):
    """Stages 1..n at time 1, pushed one after another."""
    out = np.asarray(pts, dtype=float)
    for k in range(1, n + 1):
        out = seq.time_one_map(k).apply_array(out)
    return out


def _per_stage_at(seq, t, pts, max_k):
    """Stages 1..k-1 at time 1, then stage k at its local time, for the
    stage k with t in [t_{k-1}, t_k)."""
    k = stage_of(t, max_k=max_k)
    t0, t1 = stage_time(k - 1), stage_time(k)
    local = (t - t0) / (t1 - t0)
    return seq.stage(k)[0].map_at(local).apply_array(_per_stage(seq, k - 1, pts))


def _composer_points(s):
    """Container samples, points along the curve (which the stages move)
    and points outside the container, hence outside every support."""
    box = s.moves.container
    lo, hi = box.lo.as_array(), box.hi.as_array()
    outside = np.array([hi + 0.5, lo - 0.5, [hi[0] + 1.0, 0.5 * (lo[1] + hi[1]), lo[2]]])
    inside = box.sample(np.random.default_rng(5), 100)
    return np.vstack([inside, s.initial_curve.densified(0.05).points, outside])


@pytest.mark.parametrize("name", COMPOSER_STREAMS)
class TestStageComposer:
    def test_apply_truncated(self, scenarios, name):
        s = scenarios[name]
        pts = _composer_points(s)
        for n in (0, 1, 4, 8):
            assert np.array_equal(apply_truncated(s.moves, n, pts), _per_stage(s.moves, n, pts))
        assert np.array_equal(apply_truncated(s.moves, 8, pts[-3:]), pts[-3:])

    def test_glued_map_inside_stage(self, scenarios, name):
        s = scenarios[name]
        pts = _composer_points(s)
        glued = glue_schedule(s.moves, 8)
        for k in (1, 3, 6, 8):
            t0, t1 = stage_time(k - 1), stage_time(k)
            for u in (0.0, 0.37, 0.9):
                t = t0 + u * (t1 - t0)
                ref = _per_stage_at(s.moves, t, pts, 8)
                assert np.array_equal(glued.map_at(t).apply_array(pts), ref)

    def test_seam_values(self, scenarios, name):
        s = scenarios[name]
        pts = _composer_points(s)
        for k in (1, 4, 7):
            left, right = seam_values(s.moves, k, pts)
            base = _per_stage(s.moves, k - 1, pts)
            ref_left = s.moves.stage(k)[0].map_at(1.0).apply_array(base)
            ref_right = s.moves.stage(k + 1)[0].map_at(0.0).apply_array(
                s.moves.time_one_map(k).apply_array(base)
            )
            assert np.array_equal(left, ref_left)
            assert np.array_equal(right, ref_right)


def test_apply_truncated_is_truncated_map_for_1d_stream(scenarios):
    seq = scenarios["1d_counterexample"].moves
    pts = np.vstack([
        seq.container.sample(np.random.default_rng(6), 100),
        [[0.3, 0.0, 0.0], [0.5, 2.0, 0.0]],  # on the interval; off it, outside the container
    ])
    for n in (1, 5, 20):
        img = apply_truncated(seq, n, pts)
        assert np.array_equal(img, truncated_map(seq, n).apply_array(pts))
        assert img[-2, 0] != 0.3
        assert np.array_equal(img[-1], pts[-1])
