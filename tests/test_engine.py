import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from knotiso import cli, engine
from knotiso.engine import (
    COMPACTNESS,
    HYPOTHESES,
    UNIFORM_CONVERGENCE,
    Condition,
    HypothesisReport,
    Isotopy,
    MoveSequence,
    ProbeReport,
    Similarity,
    TailTable,
    apply_truncated,
    check_hypotheses,
    eval_limit_isotopy,
    find_ball_factoring,
    glue_schedule,
    injectivity_probe,
    map_curve,
    stage_of,
    tail_boxes,
    truncated_map,
    uniform_convergence_probe,
)
from knotiso.geometry import Box, PLCurve, union_diameter
from knotiso.maps import IdentityMap
from knotiso.canonical import conjugated_insert, kink_isotopy, multi_kink_isotopy
from knotiso.moves import cone_isotopy, conjugated_isotopy, reversed_isotopy

from knotiso.scenarios import SCENARIO_BUILDERS

from oracles import (
    framed_stage,
    full_matrix_tails,
    infinite_motion_census,
    nested_ball_factoring,
    part_by_part,
    seam_values,
    stagewise_limit,
)

CONTAINER = Box((-1, -1, -1), (3, 1, 1))


def _shrinking_stage(k: int) -> Isotopy:
    """Cone pull in a box of scale 2^-k accumulating at x = 2."""
    s = 2.0**-k
    b = Box.from_center((2.0 - 0.75 * s, 0.0, 0.0), (0.2 * s, 0.2 * s, 0.2 * s))
    return cone_isotopy(b, b.center, np.array([b.center[0], 0.1 * s, 0.0]))


def _stream() -> MoveSequence:
    return MoveSequence(stage_fn=_shrinking_stage, container=CONTAINER)


def _t(k: int) -> float:
    """The schedule time t_k = 1 - 2^-k."""
    return 1.0 - 2.0**-k


class TestSchedule:
    def test_stage_of(self):
        assert stage_of(0.0, 10) == 1
        assert stage_of(0.49, 10) == 1
        assert stage_of(0.5, 10) == 2
        assert stage_of(0.9, 10) == 4

    def test_stage_of_rejects_limit_time(self):
        with pytest.raises(ValueError):
            stage_of(1.0, 10)

    def test_stage_of_past_the_last_representable_slot(self):
        # the slot of stage 54 ends at 1 - 2^-54, which rounds to 1.0, so
        # it holds the one double 1 - 2^-53 that stage 53 leaves
        assert stage_of(1.0 - 2.0**-53, 60) == 54
        assert stage_of(np.nextafter(1.0 - 2.0**-53, 0.0), 60) == 53

    def test_bad_schedule_rejected(self):
        # the 54-stage gluing exists: t_54 rounds to 1, so it freezes
        # only at t = 1, and below that it is the gluing of fewer stages
        glued = glue_schedule(_stream(), 54)
        pts = np.array([[2.0 - 0.75 * 2.0**-k, 0.05 * 2.0**-k, 0.0] for k in range(1, 8)])
        for t in (0.3, 0.8, 0.99):
            want = glue_schedule(_stream(), 10).map_at(t).apply_array(pts)
            assert np.array_equal(glued.map_at(t).apply_array(pts), want)
        # at t = 1 it needs stage 54, whose box collapses in double precision
        with pytest.raises(ValueError):
            glued.map_at(1.0)


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

    def test_a_stream_takes_a_stage_function_or_a_similarity(self):
        sim = SCENARIO_BUILDERS["countable_r1"]().moves.similarity
        for kwargs in ({}, dict(stage_fn=_shrinking_stage, similarity=sim)):
            with pytest.raises(ValueError, match="exactly one"):
                MoveSequence(CONTAINER, **kwargs)
        assert MoveSequence(CONTAINER, similarity=sim).stage(2).support == sim.box(2)

    def test_a_declaration_cannot_change_under_its_memoized_stages(self):
        sim = SCENARIO_BUILDERS["countable_r1"]().moves.similarity
        for name, value in (("r", 0.25), ("p", np.ones(3)), ("fixed", None)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(sim, name, value)


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
        arc = PLCurve(((0, 0, 0), (2.5, 0, 0)))
        dense = arc.densified(0.05)
        img = map_curve(truncated_map(seq, 2), dense)
        assert len(img.vertices) == len(dense.vertices) >= 50
        assert np.array_equal(img.points, apply_truncated(seq, 2, dense.points))


def _holds(rep: HypothesisReport) -> dict[str, bool]:
    """Each condition row's verdict, by the row's name."""
    return {c.name: c.holds for c in rep.conditions}


class TestHypotheses:
    def test_shrinking_stream_passes(self):
        rep = check_hypotheses(_stream(), horizon=15, threshold=1e-3)
        assert rep.verdict == "pass"
        assert rep.failing is None
        assert _holds(rep) == {"tails": True, "containment": True}
        assert rep.disjoint_supports
        ns = [n for n, _ in rep.tail_diameters]
        assert ns == list(range(1, 16))
        diams = [d for _, d in rep.tail_diameters]
        assert all(a > b for a, b in zip(diams, diams[1:]))

    def test_tail_diameter_matches_oracle(self):
        seq = _stream()
        rep = check_hypotheses(seq, horizon=10, threshold=1e-6)
        # independent oracle: recompute from the boxes directly
        boxes = [_shrinking_stage(k).support for k in range(1, 11)]
        for n, d in rep.tail_diameters:
            assert d == pytest.approx(union_diameter(boxes[n - 1 :]), abs=0.0)

    def test_containment_failure_is_condition_2(self):
        big = Box((-5, -5, -5), (5, 5, 5))

        def stage(k):
            s = 2.0**-k
            b = Box.cube((2.0 - s, 0, 0), 0.1 * s) if k > 1 else big
            return cone_isotopy(b, b.center, np.array([b.center[0], 0.01 * s, 0]))

        seq = MoveSequence(stage_fn=stage, container=CONTAINER)
        rep = check_hypotheses(seq, horizon=25, threshold=1e-6)
        assert rep.verdict == "fail"
        assert rep.failing == COMPACTNESS
        assert _holds(rep) == {"tails": True, "containment": False}

    def test_support_outside_container_still_moves_points(self):
        # stage 3 sticks out past the container's x = 3 face; composites
        # must not cull on the container, whose containment is on trial
        def stage(k):
            if k == 3:
                b = Box((2.6, -0.3, -0.3), (3.6, 0.3, 0.3))
                return cone_isotopy(b, b.center, np.array([3.1, 0.2, 0.0]))
            return _shrinking_stage(k)

        seq = MoveSequence(stage_fn=stage, container=CONTAINER)
        rep = check_hypotheses(seq, horizon=25, threshold=1e-6)
        assert rep.to_lines()[-1] == "verdict: fail (condition 2)"
        p = np.array([[3.2, 0.05, 0.0]])
        assert not CONTAINER.contains_array(p)[0]
        glued = glue_schedule(seq, 5)
        stage_3_late = _t(2) + 0.9 * (_t(3) - _t(2))
        for m in (truncated_map(seq, 5), glued.map_at(1.0), glued.map_at(stage_3_late)):
            assert not np.array_equal(m.apply_array(p), p)

    def test_constant_supports_fail_condition_1(self):
        b = Box.cube((0, 0, 0), 1.0)

        def stage(k):
            return cone_isotopy(b, b.center, np.array([0.1, 0, 0]))

        seq = MoveSequence(stage_fn=stage, container=CONTAINER)
        rep = check_hypotheses(seq, horizon=10, threshold=1e-6)
        assert rep.verdict == "fail"
        assert rep.failing == UNIFORM_CONVERGENCE
        assert not _holds(rep)["tails"]
        assert not rep.disjoint_supports

    def test_horizon_validated(self):
        with pytest.raises(ValueError):
            check_hypotheses(_stream(), horizon=1, threshold=1e-6)

    def test_threshold_validated(self):
        # an infinite or nan threshold would pass any stream on condition 1
        for threshold in (0.0, -1.0, float("inf"), float("nan")):
            with pytest.raises(ValueError, match="threshold must be positive and finite"):
                check_hypotheses(_stream(), horizon=10, threshold=threshold)

    def test_report_lines_shape(self):
        rep = check_hypotheses(_stream(), horizon=20, threshold=1e-6)
        lines = rep.to_lines()
        assert lines[0].startswith("tail_diameters: 1:")
        assert lines[1] == "containment_ok: true"
        assert lines[2] == "disjoint_supports: true"
        assert lines[3] == "verdict: pass"


# every table with 0 to 2 rows per hypothesis: uniform convergence's rows
# and compactness's, each "+" where it holds and "-" where it fails; the
# failing hypothesis; and the verdict line with uniform convergence's rows
# listed first, then with compactness's first.  A hypothesis fails when
# no holding row serves it, whether its rows fail or it has none (and
# then no row number), and uniform convergence is named before
# compactness in either order.
_VERDICT_RULE = [
    ("", "", "uniform_convergence", "fail", "fail"),
    ("", "+", "uniform_convergence", "fail", "fail"),
    ("", "-", "uniform_convergence", "fail", "fail"),
    ("", "++", "uniform_convergence", "fail", "fail"),
    ("", "+-", "uniform_convergence", "fail", "fail"),
    ("", "-+", "uniform_convergence", "fail", "fail"),
    ("", "--", "uniform_convergence", "fail", "fail"),
    ("+", "", "compactness", "fail", "fail"),
    ("+", "+", None, "pass", "pass"),
    ("+", "-", "compactness", "fail (condition 2)", "fail (condition 1)"),
    ("+", "++", None, "pass", "pass"),
    ("+", "+-", None, "pass", "pass"),
    ("+", "-+", None, "pass", "pass"),
    ("+", "--", "compactness", "fail (condition 2)", "fail (condition 1)"),
    ("-", "", "uniform_convergence", "fail (condition 1)", "fail (condition 1)"),
    ("-", "+", "uniform_convergence", "fail (condition 1)", "fail (condition 2)"),
    ("-", "-", "uniform_convergence", "fail (condition 1)", "fail (condition 2)"),
    ("-", "++", "uniform_convergence", "fail (condition 1)", "fail (condition 3)"),
    ("-", "+-", "uniform_convergence", "fail (condition 1)", "fail (condition 3)"),
    ("-", "-+", "uniform_convergence", "fail (condition 1)", "fail (condition 3)"),
    ("-", "--", "uniform_convergence", "fail (condition 1)", "fail (condition 3)"),
    ("++", "", "compactness", "fail", "fail"),
    ("++", "+", None, "pass", "pass"),
    ("++", "-", "compactness", "fail (condition 3)", "fail (condition 1)"),
    ("++", "++", None, "pass", "pass"),
    ("++", "+-", None, "pass", "pass"),
    ("++", "-+", None, "pass", "pass"),
    ("++", "--", "compactness", "fail (condition 3)", "fail (condition 1)"),
    ("+-", "", "compactness", "fail", "fail"),
    ("+-", "+", None, "pass", "pass"),
    ("+-", "-", "compactness", "fail (condition 3)", "fail (condition 1)"),
    ("+-", "++", None, "pass", "pass"),
    ("+-", "+-", None, "pass", "pass"),
    ("+-", "-+", None, "pass", "pass"),
    ("+-", "--", "compactness", "fail (condition 3)", "fail (condition 1)"),
    ("-+", "", "compactness", "fail", "fail"),
    ("-+", "+", None, "pass", "pass"),
    ("-+", "-", "compactness", "fail (condition 3)", "fail (condition 1)"),
    ("-+", "++", None, "pass", "pass"),
    ("-+", "+-", None, "pass", "pass"),
    ("-+", "-+", None, "pass", "pass"),
    ("-+", "--", "compactness", "fail (condition 3)", "fail (condition 1)"),
    ("--", "", "uniform_convergence", "fail (condition 1)", "fail (condition 1)"),
    ("--", "+", "uniform_convergence", "fail (condition 1)", "fail (condition 2)"),
    ("--", "-", "uniform_convergence", "fail (condition 1)", "fail (condition 2)"),
    ("--", "++", "uniform_convergence", "fail (condition 1)", "fail (condition 3)"),
    ("--", "+-", "uniform_convergence", "fail (condition 1)", "fail (condition 3)"),
    ("--", "-+", "uniform_convergence", "fail (condition 1)", "fail (condition 3)"),
    ("--", "--", "uniform_convergence", "fail (condition 1)", "fail (condition 3)"),
]


def test_the_verdict_rule_on_every_table_of_up_to_two_rows_per_hypothesis():
    assert len({(u, c) for u, c, *_ in _VERDICT_RULE}) == 49
    for uniform, compact, failing, uniform_first, compact_first in _VERDICT_RULE:
        rows = {
            hyp: [Condition(f"{hyp}_{i}", hyp, mark == "+") for i, mark in enumerate(marks)]
            for hyp, marks in ((UNIFORM_CONVERGENCE, uniform), (COMPACTNESS, compact))
        }
        for order, line in ((HYPOTHESES, uniform_first), (HYPOTHESES[::-1], compact_first)):
            table = tuple(row for hyp in order for row in rows[hyp])
            rep = HypothesisReport(((1, 1.0),), True, table)
            assert rep.failing == failing, (uniform, compact, order)
            assert rep.verdict == line.partition(" ")[0], (uniform, compact, order)
            assert rep.to_lines()[-1] == f"verdict: {line}", (uniform, compact, order)


def _box_family(min_size=1):
    coord = st.floats(-10.0, 10.0, allow_nan=False)
    extent = st.floats(0.0, 5.0, allow_nan=False)
    box = st.tuples(coord, coord, coord, extent, extent, extent).map(
        lambda v: Box.from_center(v[:3], v[3:])
    )
    return st.lists(box, min_size=min_size, max_size=12)


def _fixed_stream(boxes):
    def stage(k):
        b = boxes[k - 1]
        return Isotopy(support=b, map_at=lambda t: IdentityMap(support=b))

    return MoveSequence(stage_fn=stage, container=CONTAINER)


def _meet(a: Box, b: Box) -> bool:
    """Closed boxes a and b share a point."""
    return all(
        lo_a <= hi_b and lo_b <= hi_a
        for lo_a, hi_a, lo_b, hi_b in zip(
            a.lo, a.hi, b.lo, b.hi
        )
    )


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
        inside = all(CONTAINER.contains_box(b, strict=True) for b in boxes)
        assert _holds(rep)["containment"] == inside
        assert rep.disjoint_supports == all(
            not _meet(a, b) for i, a in enumerate(boxes) for b in boxes[i + 1 :]
        )

    def test_a_long_horizon_is_read_in_blocks_of_rows(self):
        # formed whole, the 4096 x 4096 tables peak at about 640 MB; read in
        # blocks of rows they give the same maxima, so the same bits
        seq = SCENARIO_BUILDERS["countable_r1"]().moves
        tracemalloc.start()
        try:
            rep = check_hypotheses(seq, 4096, 1e-6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        diam, disjoint = full_matrix_tails(seq.boxes(1, 4096))
        got = np.array([d for _, d in rep.tail_diameters])
        assert np.array_equal(got.view(np.int64), diam.view(np.int64))
        assert rep.disjoint_supports == disjoint

    @pytest.mark.parametrize("pair", [None, (0, 1), (49, 50), (549, 599)])
    def test_disjointness_is_read_in_every_block(self, pair, monkeypatch):
        # 600 unit cubes spaced along x, 50 rows to a block: all apart, or
        # with box j moved onto box i, whose row lies in the first block,
        # across a block boundary or in the last block
        monkeypatch.setattr(engine, "_PAIR_BLOCK", 50 * 600)
        boxes = [Box.cube((2.0 * k, 0.0, 0.0), 1.0) for k in range(600)]
        if pair is not None:
            i, j = pair
            boxes[j] = Box.cube((2.0 * i, 0.0, 0.5), 1.0)
        rep = check_hypotheses(_fixed_stream(boxes), len(boxes), 1e-6)
        diam, disjoint = full_matrix_tails(boxes)
        assert rep.disjoint_supports == disjoint == (pair is None)
        got = np.array([d for _, d in rep.tail_diameters])
        assert np.array_equal(got.view(np.int64), diam.view(np.int64))

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
        lv = eval_limit_isotopy(seq, np.array([0.0, 0.5, 0.0]), tol=1e-6, k_budget=30)
        assert lv.status == "settled"
        assert lv.steps == 0

    def test_limit_tol_converges_at_accumulation_point(self):
        seq = _stream()
        lv = eval_limit_isotopy(
            seq, np.array([2.0 - 2.0**-5 * 0.75, 0.0, 0.0]), tol=1e-6, k_budget=40
        )
        assert lv.status in ("settled", "tol-converged")

    def test_unbounded_stream_exhausts_budget_at_tight_tol(self):
        seq = _stream()
        # a point inside the horizon stage's box, tolerance far below what
        # 10 stages can certify: the stream just runs out of budget
        p = np.array([2.0 - 0.75 * 2.0**-10, 0.0, 0.0])
        lv = eval_limit_isotopy(seq, p, tol=1e-30, k_budget=10)
        assert lv.status == "budget-exhausted"
        assert lv.steps == 10

    def test_validates_inputs(self):
        seq = _stream()
        for tol in (0.0, -1.0, float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError, match="tol must be positive and finite"):
                eval_limit_isotopy(seq, np.zeros(3), tol=tol, k_budget=10)


class TestProbes:
    def test_uniform_convergence_bounded_by_tail_diameter(self):
        seq = _stream()
        rng = np.random.default_rng(1)
        grid = CONTAINER.sample(rng, 200)
        dev = uniform_convergence_probe(seq, 5, 12, grid)
        bound = union_diameter([_shrinking_stage(k).support for k in range(6, 13)])
        assert 0.0 <= dev <= bound + 1e-12

    def test_uniform_convergence_validates(self):
        seq = _stream()
        with pytest.raises(ValueError):
            uniform_convergence_probe(seq, 5, 3, np.zeros((1, 3)))
        with pytest.raises(ValueError):
            uniform_convergence_probe(seq, 1, 2, [])

    def test_the_injectivity_verdict_fails_below_a_separation_of_1e_3(self):
        below = np.nextafter(1e-3, 0.0)
        verdicts = [ProbeReport(0.0, sep, 0, False).injectivity for sep in (1e-3, below)]
        assert verdicts == ["pass", "fail"]

    def test_injectivity_probe_identity_pairs(self):
        seq = _stream()
        pairs = np.array([((0, 0.5, 0), (0, 0.6, 0))])
        assert injectivity_probe(seq, 5, pairs) == pytest.approx(0.1)

    def test_injectivity_probe_pushes_both_ends_in_one_pass(self, monkeypatch):
        from knotiso import cli, engine

        seq = _stream()
        rng = np.random.default_rng(4)
        pairs = seq.container.sample(rng, 14).reshape(7, 2, 3)
        ia = engine.apply_truncated(seq, 9, pairs[:, 0])
        ib = engine.apply_truncated(seq, 9, pairs[:, 1])
        want = float(np.sqrt(((ia - ib) ** 2).sum(-1)).min())
        calls = []
        apply_truncated = engine.apply_truncated

        def counted(seq, n, pts):
            calls.append(len(pts))
            return apply_truncated(seq, n, pts)

        monkeypatch.setattr(engine, "apply_truncated", counted)
        assert injectivity_probe(seq, 9, pairs) == want
        assert calls == [14]

    def test_census_counts_trapped_points(self):
        seq = _stream()
        trapped = np.array([2.0 - 0.75 * 2.0**-12, 0.0, 0.0])
        free = np.array([0.0, 0.5, 0.0])
        assert infinite_motion_census(seq, 10, np.array([trapped, free]), horizon=20) >= 1
        assert infinite_motion_census(seq, 10, free[None, :], horizon=20) == 0
        assert infinite_motion_census(seq, 10, np.empty((0, 3)), horizon=20) == 0


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
        a = glued.map_at(_t(4)).apply_array(pts)
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
    t0, t1 = _t(k - 1), _t(k)
    local = (t - t0) / (t1 - t0)
    return seq.stage(k).map_at(local).apply_array(_per_stage(seq, k - 1, pts))


def _composer_points(s):
    """Container samples, points along the curve (which the stages move)
    and points outside the container, hence outside every support."""
    box = s.moves.container
    lo, hi = box.lo, box.hi
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
            t0, t1 = _t(k - 1), _t(k)
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
            ref_left = s.moves.stage(k).map_at(1.0).apply_array(base)
            ref_right = s.moves.stage(k + 1).map_at(0.0).apply_array(
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


@pytest.mark.parametrize("name", COMPOSER_STREAMS + ("1d_counterexample",))
def test_uniform_probe_reads_per_stage_images(scenarios, name):
    """Bitwise the deviation of two per-stage loops, also for the 1-D
    stream, whose stages move points off their own supports."""
    s = scenarios[name]
    pts = _composer_points(s)
    dev = np.sqrt(((_per_stage(s.moves, 4, pts) - _per_stage(s.moves, 9, pts)) ** 2).sum(-1))
    assert dev.max() > 0.0
    assert uniform_convergence_probe(s.moves, 4, 9, pts) == float(dev.max())


DECLARED_STREAMS = (
    "countable_r1",
    "countable_r2_stage1",
    "countable_r2_stage2",
    "recursive_r1",
    "trefoil_chain",
    "trefoil_chain_extended",
    "fox_remarkable",
)


# the chains' V_1 and p, and the balls' p = 0, keep every power of S exact;
# trefoil's V_1 is not dyadic, so its stage frames round and the level
# loop's powers of S do not
_STAGE_LOOP_ULPS = {"trefoil_chain": 5, "trefoil_chain_extended": 5}


@pytest.mark.parametrize("name", DECLARED_STREAMS)
def test_a_declared_stream_truncates_to_its_stage_loop_at_every_depth(name):
    """Depths 2..60, at time 1 and inside the last stage, against stage 1
    framed into each V_k (``framed_stage``), part by part, one stage after
    another, until a stage's frame is refused in floats, as the chains'
    are from depth 48 to 50 on: bitwise, or for trefoil within 5 ulps of
    each row's largest coordinate.  Past the refusal the truncation still
    runs."""
    s = SCENARIO_BUILDERS[name]()
    seq = s.moves
    pts = np.vstack([_composer_points(s)[::3], s.probe_pairs.reshape(-1, 3), s.census_samples])
    done, refused = part_by_part(seq.similarity.first.time_one(), pts), None
    for n in range(2, 61):
        if refused is None:
            try:
                stage = framed_stage(seq, n)
                inside = part_by_part(stage.map_at(0.4), done)
                done = part_by_part(stage.time_one(), done)
            except ValueError:
                refused = n
        got = truncated_map(seq, n).apply_array(pts), truncated_map(seq, n, 0.4).apply_array(pts)
        if refused is not None:
            assert all(np.isfinite(g).all() for g in got)
            continue
        for g, want in zip(got, (done, inside)):
            _assert_within_ulps(g, want, _STAGE_LOOP_ULPS.get(name, 0))
    assert (refused is not None) == (name not in ("recursive_r1", "fox_remarkable"))


def _assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    assert np.array_equal(got.view(np.int64), np.ascontiguousarray(want).view(np.int64))


def _assert_within_ulps(got: np.ndarray, want: np.ndarray, ulps: int) -> None:
    """Bitwise for 0 ulps; else each row within ulps of its largest
    coordinate."""
    if not ulps:
        _assert_same_bits(got, want)
        return
    scale = np.spacing(np.abs(want).max(axis=1))
    assert (np.abs(got - want).max(axis=1) <= ulps * scale).all()


def _stage_loop(seq, n: int, local: float, pts: np.ndarray) -> np.ndarray:
    """Stages 1..n-1 at time 1, then stage n at its local time, each stage
    1 framed into V_k (``framed_stage``) and applied part by part."""
    for k in range(1, n):
        pts = part_by_part(framed_stage(seq, k).time_one(), pts)
    return part_by_part(framed_stage(seq, n).map_at(local), pts)


def _level_points(seq, n: int, rng: np.random.Generator) -> np.ndarray:
    """Rows in and around every V_k, k <= n, and in the hull of V_1 and p,
    with p itself, then copies with coordinates set to 0.0 or -0.0."""
    p = seq.similarity.p
    v1 = seq.stage(1).support
    pool = [p[None, :], rng.uniform(-3.0, 3.0, (20, 3))]
    pool.append(Box(np.minimum(v1.lo, p), np.maximum(v1.hi, p)).sample(rng, 100))
    for k in range(1, n + 1):
        box = seq.stage(k).support
        pool += [box.sample(rng, 30), box.scaled_about_center(1.3).sample(rng, 10), box.corners()]
    pts = np.concatenate(pool)
    zeroed = pts.copy()
    hit = rng.random(zeroed.shape) < 0.3
    zeroed[hit] = np.where(rng.random(hit.sum()) < 0.5, 0.0, -0.0)
    return np.concatenate([pts, zeroed])


# a dyadic declaration, V_1's centre and half extents, stage 1's kind and
# r = 2^-j, and a depth n
_DYADIC_STREAMS = (
    st.tuples(*[st.floats(-1.0, 1.0)] * 3),
    st.tuples(*[st.floats(0.05, 0.5)] * 3),
    st.sampled_from(["cone", "insert"]),
    st.integers(1, 3),
    st.integers(1, 12),
)


def _dyadic_stream(center, half, kind: str, j: int) -> MoveSequence:
    """p = 0, r = 2^-j, and stage 1 a cone pull or a kink insert in V_1."""
    v1 = Box.from_center(center, half)
    if kind == "cone":
        c, h = v1.center, v1.half_extents
        first = cone_isotopy(v1, c - 0.3 * h, c + np.array([0.5, -0.2, 0.4]) * h)
    else:
        first = conjugated_insert(v1)
    return MoveSequence(Box.cube((0, 0, 0), 8.0), similarity=Similarity(first, (0, 0, 0), 2.0**-j))


@given(*_DYADIC_STREAMS, st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_the_level_loop_is_the_stage_loop_on_dyadic_streams(center, half, kind, j, n, local, seed):
    """With p = 0 and r = 2^-j every power of S and every stage frame is
    exact, so the truncations are the stage loop bitwise, signed zeros
    included, whether p lies in V_1 (nested supports) or not (supports
    that may overlap, and levels skipped by distance)."""
    seq = _dyadic_stream(center, half, kind, j)
    pts = _level_points(seq, n, np.random.default_rng(seed))
    for t in (1.0, local):
        _assert_same_bits(truncated_map(seq, n, t).apply_array(pts), _stage_loop(seq, n, t, pts))


def _assert_same_limit(got, want, ulps: int = 0) -> None:
    """The same status and steps, and the point bitwise, or for ulps > 0
    within ulps of its largest coordinate."""
    assert (got.status, got.steps) == (want.status, want.steps)
    _assert_within_ulps(got.point[None, :], want.point[None, :], ulps)


@pytest.mark.parametrize("name", sorted(SCENARIO_BUILDERS))
def test_the_census_is_the_stage_loop_on_every_scenario(scenarios, name):
    """Every census point and 200 random container points, at the run's
    budget of 40 stages and tol 1e-6: the level-coordinate census gives
    the stage-by-stage census's status, steps and point, bitwise."""
    s = scenarios[name]
    pts = np.vstack([s.census_samples, s.moves.container.sample(np.random.default_rng(7), 200)])
    for x in pts:
        _assert_same_limit(
            eval_limit_isotopy(s.moves, x, 1e-6, 40), stagewise_limit(s.moves, x, 1e-6, 40)
        )


@given(*_DYADIC_STREAMS, st.floats(1e-6, 1.0), st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_the_census_is_the_stage_loop_on_dyadic_streams(center, half, kind, j, n, tol, seed):
    """With every power of S exact, the census at budget n is the
    stage-by-stage census bitwise, whatever its status."""
    seq = _dyadic_stream(center, half, kind, j)
    for x in _level_points(seq, n, np.random.default_rng(seed))[::5]:
        _assert_same_limit(eval_limit_isotopy(seq, x, tol, n), stagewise_limit(seq, x, tol, n))


def _box_bits(b: Box) -> tuple[bytes, bytes]:
    return b.lo.tobytes(), b.hi.tobytes()


def _assert_rows_are_the_supports(seq, first: int, last: int) -> None:
    """Row k - first of the declaration's stacked corners is stage k's
    support, bitwise."""
    lo, hi = seq.similarity.corners(first, last)
    assert lo.shape == hi.shape == (last - first + 1, 3)
    for k, row_lo, row_hi in zip(range(first, last + 1), lo, hi):
        assert (row_lo.tobytes(), row_hi.tobytes()) == _box_bits(seq.stage(k).support), k


def _assert_same_table(got: TailTable, want: TailTable) -> None:
    for a, b in ((got.lo, want.lo), (got.hi, want.hi), (got.diam, want.diam)):
        assert a.shape == b.shape
        _assert_same_bits(a, b)


@pytest.mark.parametrize("last", [20, 40, 1100])
@pytest.mark.parametrize("name", DECLARED_STREAMS)
def test_a_declarations_corners_are_its_stage_supports(name, last):
    """V_1 itself, the hull with the segment for ``trefoil_chain_extended``,
    and past the depth where V_k collapses onto p in floats; a window
    that starts past stage 1 reads the same rows."""
    seq = SCENARIO_BUILDERS[name]().moves
    _assert_rows_are_the_supports(seq, 1, last)
    _assert_rows_are_the_supports(seq, last // 2, last)


@pytest.mark.parametrize("name", DECLARED_STREAMS)
def test_a_declared_tail_table_is_the_table_of_its_stage_supports(name):
    """Read off the declaration, bitwise the table of the supports the
    stages build."""
    seq = SCENARIO_BUILDERS[name]().moves
    for h in (1, 2, 20, 40):
        _assert_same_table(seq.tail_table(h), TailTable.build(seq.boxes(1, h)))


@given(
    st.tuples(*[st.floats(-1.0, 1.0)] * 3),
    st.tuples(*[st.floats(0.05, 0.5)] * 3),
    st.tuples(*[st.floats(-2.0, 2.0)] * 3),
    st.floats(0.3, 0.7),
    st.none() | st.tuples(st.tuples(*[st.floats(-2.0, 2.0)] * 3), st.tuples(*[st.floats(0.0, 1.0)] * 3)),
)
@settings(max_examples=60, deadline=None)
def test_a_generated_declarations_corners_are_its_stage_supports(center, half, p, r, fixed):
    """On generated streams, p inside V_1 or not, with or without a fixed
    box F: the stacked corners are the stage supports and the tail table
    read off them is the supports' table, bitwise."""
    box = None if fixed is None else Box(fixed[0], np.add(*fixed))
    sim = Similarity(conjugated_insert(Box.from_center(center, half)), p, r, box)
    seq = MoveSequence(Box.cube((0, 0, 0), 16.0), similarity=sim)
    _assert_rows_are_the_supports(seq, 1, 30)
    _assert_rows_are_the_supports(seq, 7, 12)
    _assert_same_table(seq.tail_table(30), TailTable.build(seq.boxes(1, 30)))


def _assert_monotone_tails(seq: MoveSequence, horizon: int) -> None:
    """Tail diameters d_n = diam(V_n u ... u V_horizon), n = 1..horizon,
    never increase in n: each tail is a subset of the one before."""
    rep = check_hypotheses(seq, horizon, 1e-6)
    assert [n for n, _ in rep.tail_diameters] == list(range(1, horizon + 1))
    diams = [d for _, d in rep.tail_diameters]
    assert all(a >= b for a, b in zip(diams, diams[1:])), diams


@pytest.mark.parametrize("horizon", [20, 40, 200])
@pytest.mark.parametrize("name", sorted(SCENARIO_BUILDERS))
def test_tail_diameters_never_increase_on_the_scenarios(name, horizon):
    _assert_monotone_tails(SCENARIO_BUILDERS[name]().moves, horizon)


@given(
    st.tuples(*[st.floats(-1.0, 1.0)] * 3),
    st.tuples(*[st.floats(0.05, 0.5)] * 3),
    st.tuples(*[st.floats(-2.0, 2.0)] * 3),
    st.floats(0.3, 0.7),
    st.none() | st.tuples(st.tuples(*[st.floats(-2.0, 2.0)] * 3), st.tuples(*[st.floats(0.0, 1.0)] * 3)),
    st.integers(2, 60),
)
@settings(max_examples=60, deadline=None)
def test_tail_diameters_never_increase_on_generated_streams(center, half, p, r, fixed, horizon):
    """p inside V_1 or not, with or without a fixed box F."""
    box = None if fixed is None else Box(fixed[0], np.add(*fixed))
    sim = Similarity(conjugated_insert(Box.from_center(center, half)), p, r, box)
    _assert_monotone_tails(MoveSequence(Box.cube((0, 0, 0), 16.0), similarity=sim), horizon)


@given(
    st.tuples(*[st.floats(-1.0, 1.0)] * 3),
    st.tuples(*[st.floats(0.05, 0.5)] * 3),
    st.tuples(*[st.floats(-2.0, 2.0)] * 3),
    st.tuples(*[st.floats(0.0, 1.0)] * 3),
    st.integers(1, 3),
    st.integers(1, 8),
    st.floats(0.0, 1.0),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=30, deadline=None)
def test_a_fixed_box_widens_every_support_and_moves_no_point(
    center, half, f_lo, f_size, j, n, local, seed
):
    """On a dyadic stream declared with a fixed box F, stage k's support
    is hull(V_k u F) bitwise, and its stage maps and truncations are the
    F-free stream's bitwise."""
    v1 = Box.from_center(center, half)
    fixed = Box(f_lo, np.add(f_lo, f_size))
    first = conjugated_insert(v1)
    container = Box.cube((0, 0, 0), 8.0)
    bare = MoveSequence(container, similarity=Similarity(first, (0, 0, 0), 2.0**-j))
    widened = MoveSequence(container, similarity=Similarity(first, (0, 0, 0), 2.0**-j, fixed))
    rng = np.random.default_rng(seed)
    pts = np.concatenate([_level_points(bare, n, rng), fixed.sample(rng, 50)])
    for k in range(1, n + 1):
        v = bare.stage(k).support
        hull = Box(np.minimum(v.lo, fixed.lo), np.maximum(v.hi, fixed.hi))
        assert _box_bits(widened.stage(k).support) == _box_bits(hull)
        _assert_same_bits(
            widened.time_one_map(k).apply_array(pts), bare.time_one_map(k).apply_array(pts)
        )
    for t in (1.0, local):
        _assert_same_bits(
            truncated_map(widened, n, t).apply_array(pts), truncated_map(bare, n, t).apply_array(pts)
        )


# a chain's p and r, and V_1 at distance d from p along x, of x
# half-width width * d (1 - r) / (1 + r) and the given y and z half-widths
_TAME_CHAINS = (
    st.tuples(*[st.floats(-1.0, 1.0)] * 3),
    st.floats(0.3, 0.7),
    st.floats(0.25, 1.0),
    st.floats(0.1, 0.9),
    st.tuples(st.floats(0.05, 1.0), st.floats(0.05, 1.0)),
)


def _chain_first(p: np.ndarray, r: float, d: float, width: float, yz) -> Isotopy:
    """Stage 1 of a generated chain, a kink untied in V_1."""
    v1 = Box.from_center(p + (d, 0.0, 0.0), (width * d * (1.0 - r) / (1.0 + r), *yz))
    return reversed_isotopy(conjugated_insert(v1))


def _generated_chain(p, r: float, d: float, width: float, yz) -> MoveSequence:
    """A generated chain, in a container 1 wider on every side than the
    hull of V_1 and p."""
    p = np.array(p)
    first = _chain_first(p, r, d, width, yz)
    v1 = first.support
    container = Box(np.minimum(v1.lo, p) - 1.0, np.maximum(v1.hi, p) + 1.0)
    return MoveSequence(container, similarity=Similarity(first, p, r))


def _off_faces(pts: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The rows of pts 1e-9 relative off every face of the stacked boxes,
    where no support test can read the rounding of the powers of S."""
    faces = np.concatenate([lo, hi])[None, :, :]
    gap = np.abs(pts[:, None, :] - faces)
    return pts[(gap > 1e-9 * np.maximum(np.abs(pts[:, None, :]), np.abs(faces))).all(axis=(1, 2))]


# where r is not dyadic, the powers of S the level loop takes round, and
# h_1 magnifies that by its Lipschitz constant: over 82,926 points of 300
# generated chains the census point reads up to 127 ulps off the stage
# loop's, and over 69,000 points of 150 chains with p = 0, r = 0.7 and a
# V_1 227 times as wide in y as in x up to 606 (920 when the skip stopped
# one level short of the first level that could hold a point)
_CENSUS_ULPS = 1024


@given(*_TAME_CHAINS, st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_the_census_is_the_stage_loop_to_roundoff_on_generated_chains(p, r, d, width, yz, seed):
    """On chains whose powers of S round, the census at budget 40 gives
    the stage-by-stage census's status and steps, and its point to within
    ``_CENSUS_ULPS`` of the point's largest coordinate, for points kept
    1e-9 relative off every face of V_1..V_40, where no support test can
    read the rounding."""
    seq = _generated_chain(p, r, d, width, yz)
    rng = np.random.default_rng(seed)
    lo, hi = seq.similarity.corners(1, 40)
    inside = [Box(lo[k], hi[k]).sample(rng, 2) for k in rng.choice(40, 8, replace=False)]
    pts = np.concatenate([seq.container.sample(rng, 10), *inside])
    for x in _off_faces(pts, lo, hi):
        got, want = eval_limit_isotopy(seq, x, 1e-6, 40), stagewise_limit(seq, x, 1e-6, 40)
        _assert_same_limit(got, want, _CENSUS_ULPS)


# depth-12 truncations round where r is not dyadic, as the census does:
# over the 116,993 rows the test below draws, its 200 generated chains
# read up to 166 ulps off the one-level stage loop and its 100 chains of
# the wide shape (p = 0, r = 0.7, d = 0.25, V_1 half-widths 0.0044 x 1.0 x
# 0.05, 227 times as wide in y as in x) up to 2,636; the bound lies under
# twice that, so a change that doubled the drift fails
_TRUNCATION_ULPS = 4096


def test_a_truncation_is_the_stage_loop_to_roundoff_on_generated_chains():
    """On 200 chains drawn as ``_TAME_CHAINS`` draws them and 100 of the
    wide shape whose distance skip stops levels short of V_1, from one
    seed: stages 1..12 as one level loop give the one-level stage loop's
    image to within ``_TRUNCATION_ULPS`` of each row's largest coordinate,
    for rows in the container and in each V_1..V_12, kept 1e-9 relative
    off every face."""
    rng = np.random.default_rng(111)
    for i in range(300):
        if i < 200:
            p, r, d, width = rng.uniform(-1.0, 1.0, 3), *rng.uniform((0.3, 0.25, 0.1), (0.7, 1.0, 0.9))
            seq = _generated_chain(p, r, d, width, rng.uniform(0.05, 1.0, 2))
        else:
            seq = _generated_chain(np.zeros(3), 0.7, 0.25, 0.1, (1.0, 0.05))
        lo, hi = seq.similarity.corners(1, 12)
        boxes = [seq.container] + [Box(a, b) for a, b in zip(lo, hi)]
        pts = _off_faces(np.concatenate([b.sample(rng, 30) for b in boxes]), lo, hi)
        got, want = truncated_map(seq, 12).apply_array(pts), _stage_loop(seq, 12, 1.0, pts)
        _assert_within_ulps(got, want, _TRUNCATION_ULPS)


def _skip_rows(sim: Similarity, lo: np.ndarray, hi: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Rows in and around each V_k of the stacked corners, rows on each
    V_k's near face and one ulp either side of it, and p with rows 2^-52
    to 2^-41 of p's largest coordinate (or of dmin) off it."""
    scale = max(np.abs(sim.p).max(), sim._dmin)
    tiny = rng.choice([-1.0, 1.0], (30, 1)) * 2.0 ** rng.integers(-52, -40, (30, 1)) * scale
    pool = [sim.p[None, :], sim.p + tiny]
    for box in (Box(a, b) for a, b in zip(lo, hi)):
        pool += [box.sample(rng, 6), box.scaled_about_center(1.5).sample(rng, 4)]
        # V_1 lies beyond p along x, so the x face nearer p is lo
        face = box.sample(rng, 3)
        face[:, 0] = box.lo[0]
        step = [[np.spacing(box.lo[0]), 0.0, 0.0]]
        pool += [face, face + step, face - step]
    return np.concatenate(pool)


# a declared chain for the distance skip: r dyadic or not, and V_1 as in
# _TAME_CHAINS, up to 227 times as wide in y as in x
_SKIP_CHAINS = (
    st.tuples(*[st.floats(-1.0, 1.0)] * 3),
    st.sampled_from([0.5, 0.25]) | st.floats(0.3, 0.9),
    *_TAME_CHAINS[2:],
)


@given(*_SKIP_CHAINS, st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_the_skip_carries_no_row_past_a_support_that_holds_it(p, r, d, width, yz, seed):
    """No row the distance skip carries s levels lies in any of V_1..V_s,
    as ``corners`` gives them, at every level k <= 40 whose near face lies
    apart from p in floats: (1 - r) r^(k-1) dmin above 64 ulps of p's
    largest coordinate.  (Deeper, V_k rounds onto p, and the corners hold
    rows near p that no level's V_1 holds.)  A row inside such a V_k, off
    its near face by more than 1e-9 of the face's distance from p, and as
    far from p along x as along any axis, skips exactly k - 1 levels, to
    the first level that can hold it."""
    p = np.array(p)
    sim = Similarity(_chain_first(p, r, d, width, yz), p, r)
    lo, hi = sim.corners(1, 40)
    rows = _skip_rows(sim, lo, hi, np.random.default_rng(seed))
    _, skip = sim._skip(rows.T, 60)
    apart = (1.0 - r) * sim._dmin * r ** np.arange(40) > 64 * np.finfo(float).eps * np.abs(p).max()
    inside = ((rows[:, None, :] >= lo) & (rows[:, None, :] <= hi)).all(axis=-1) & apart
    passed = np.arange(1, 41) <= skip[:, None]
    assert not (inside & passed).any()
    # the first level that can hold each row, read off the corners: V_k
    # holds it, it lies off V_k's near face, and its distance from p is
    # the distance along x, which the near face bounds
    clear = inside & (np.abs(rows[:, None, 0] - lo[:, 0]) > 1e-9 * np.abs(lo[:, 0] - p[0]))
    off = np.abs(rows - p)
    held = clear.any(axis=1) & (off[:, 0] == off.max(axis=1))
    assert held.any()
    np.testing.assert_array_equal(skip[held], clear.argmax(axis=1)[held])


@pytest.mark.parametrize("name", [n for n in DECLARED_STREAMS if n.startswith(("countable", "trefoil"))])
def test_a_chain_snapshot_takes_one_round_of_g(name, monkeypatch):
    """Each row of a registered chain's curve that the depth-20 loop holds
    skips straight to the first level whose V can hold it: V_1 holds it
    in its first round, or for the trefoil chains, whose V_1 is not
    dyadic, it lies on the boundary of V_(skip+1) as ``corners`` gives it
    (20 rows, on far faces of V_2, V_3, V_6, V_7, ..., V_19), where no
    stage moves it and its level coordinates round off V_1.  So the
    snapshot takes one round of g, then h_last."""
    s = SCENARIO_BUILDERS[name]()
    seq, pts = s.moves, s.initial_curve.points
    sim = seq.similarity
    m = truncated_map(seq, 20)
    q = pts[m.support.contains_array(pts)]
    y, skip = sim._skip(q.T, 19)
    go = skip < 19
    held = sim.first.support.contains_array(y.T)
    # V_k itself, without trefoil_chain_extended's fixed box
    lo, hi = Similarity(sim.first, sim.p, sim.r).corners(1, 20)
    k = skip.clip(max=19)
    on_boundary = ((q >= lo[k]) & (q <= hi[k])).all(axis=1) & ((q == lo[k]) | (q == hi[k])).any(axis=1)
    assert go.sum() > 1000 and (held | on_boundary)[go].all()
    if name.startswith("countable"):
        assert held[go].all()
    through, calls = Similarity._through, []

    def counted(self, h, y):
        calls.append(y.shape[1])
        return through(self, h, y)

    monkeypatch.setattr(Similarity, "_through", counted)
    map_curve(m, PLCurve(pts))
    assert calls == [go.sum(), len(q) - go.sum()]


@given(*_TAME_CHAINS, st.tuples(*[st.floats(0.01, 0.5)] * 3), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_a_generated_tame_chain_passes_and_a_fixed_box_fails_condition_1(
    p, r, d, width, yz, f_half, seed
):
    """A chain declared with V_1 at distance d from p along x, of x
    half-width under d (1 - r) / (1 + r), has pairwise disjoint V_k, each
    moved by its stage alone, shrinking to p: tame by construction.  At
    the least horizon h with r^(h-1) diam V_1 < tol / 10 the hypotheses
    pass with disjoint supports, and the census at budget 40 leaves
    neither p nor the centre of any V_k, k < 40, budget-exhausted (stage
    40 spends the budget on a point V_40 holds, unless diam V_40 < tol
    stops it first).  A fixed box F of
    positive diameter fails condition 1 and moves no point, at depths up
    to 1000, where the truncation is still finite.  The 40 examples take
    under 5 s."""
    p = np.array(p)
    first = _chain_first(p, r, d, width, yz)
    v1 = first.support
    fixed = Box.from_center(p - (d, 0.0, 0.0), f_half)
    container = Box(np.minimum(v1.lo, fixed.lo) - 1.0, np.maximum(v1.hi, fixed.hi) + 1.0)
    tame = MoveSequence(container, similarity=Similarity(first, p, r))
    walled = MoveSequence(container, similarity=Similarity(first, p, r, fixed))
    tol, diam = 1e-6, union_diameter([v1])
    h = next(h for h in range(2, 200) if r ** (h - 1) * diam < tol / 10)
    rep = check_hypotheses(tame, h, tol)
    assert rep.verdict == "pass" and rep.disjoint_supports
    assert check_hypotheses(walled, h, tol).failing == UNIFORM_CONVERGENCE
    lo, hi = tame.similarity.corners(1, 39)
    for x in np.vstack([p, 0.5 * (lo + hi)]):
        assert eval_limit_isotopy(tame, x, tol, 40).status != "budget-exhausted"
    pts = _level_points(tame, 5, np.random.default_rng(seed))
    for n in (1, 5, 20, 1000):
        image = apply_truncated(tame, n, pts)
        _assert_same_bits(apply_truncated(walled, n, pts), image)
    assert np.isfinite(image).all()


@given(
    st.tuples(*[st.floats(-1.0, 1.0)] * 3),
    st.tuples(*[st.floats(0.05, 1.0)] * 3),
    st.floats(0.3, 0.7),
    st.tuples(*[st.floats(0.05, 0.95)] * 3),
    st.sampled_from([None, *range(6)]),
    st.floats(0.05, 1.0),
    st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_the_ball_center_is_p_exactly_where_the_supports_factor(
    center, half, r, u, beyond, reach, fixed
):
    """A declared stream's ``ball_center`` is p exactly when the box-by-box
    scan of V_1..V_5 (``nested_ball_factoring``) accepts them around p,
    and None otherwise: p inside V_1 and no fixed box, which would hold
    every support out past V_1.  ``find_ball_factoring`` reads the
    scan's answer off the declaration, and None where it refuses."""
    v1 = Box.from_center(center, half)
    u = np.array(u)
    if beyond is not None:
        # p outside V_1, by reach of its side on one axis
        u[beyond % 3] = -reach if beyond < 3 else 1.0 + reach
    p = v1.lo + u * (v1.hi - v1.lo)
    far = v1.hi + reach
    box = Box(np.minimum(p, far), np.maximum(p, far)) if fixed else None
    sim = Similarity(conjugated_insert(v1), p, r, box)
    seq = MoveSequence(Box.cube((0, 0, 0), 16.0), similarity=sim)
    try:
        scanned = nested_ball_factoring(p, seq.boxes(1, 5))
    except ValueError:
        scanned = None
    assert (scanned is not None) == (beyond is None and not fixed)
    assert seq.ball_center is (None if scanned is None else sim.p)
    assert find_ball_factoring(seq, 5) == scanned


def test_a_declaration_keeps_its_own_p():
    """Similarity holds a read-only copy of p: writing into the caller's
    array moves neither p, V_2 nor a truncation's image, and the
    ``ball_center`` it hands out cannot be written into."""

    def declared(p):
        sim = Similarity(conjugated_insert(Box.cube((0, 0, 0), 1.0)), p, 0.5)
        return sim, MoveSequence(Box.cube((0, 0, 0), 4.0), similarity=sim)

    pts = Box.cube((0, 0, 0), 1.0).sample(np.random.default_rng(5), 500)
    _, fresh = declared(np.zeros(3))
    want = truncated_map(fresh, 3).apply_array(pts)
    p = np.zeros(3)
    sim, seq = declared(p)
    p[0] = 0.3
    assert sim.p.tolist() == [0.0, 0.0, 0.0]
    assert sim.box(2) == Box.cube((0, 0, 0), 0.5)
    _assert_same_bits(truncated_map(seq, 3).apply_array(pts), want)
    center = seq.ball_center
    assert center is not None
    with pytest.raises(ValueError):
        center[0] = 0.3


@pytest.mark.parametrize("name", DECLARED_STREAMS)
def test_a_declared_stage_inverts_as_the_one_level_loop_over_the_inverse(name):
    """Stage k's inverse is built once, runs stage 1's inverse end map at
    level k and undoes the stage to roundoff; a truncation over several
    levels has no inverse."""
    seq = SCENARIO_BUILDERS[name]().moves
    sim = seq.similarity
    rng = np.random.default_rng(13)
    for k in (1, 3, 9):
        m = seq.time_one_map(k)
        inv = m.inverse()
        assert inv is m.inverse() and inv.h_last is sim.first.time_one().inverse()
        box = sim.box(k)
        pts = box.scaled_about_center(1.2).sample(rng, 300)
        back = inv.apply_array(m.apply_array(pts))
        assert np.abs(back - pts).max() <= 1e-9 * box.half_extents.max()
    with pytest.raises(NotImplementedError):
        truncated_map(seq, 3).inverse()


@pytest.mark.parametrize("name", DECLARED_STREAMS)
def test_a_level_loop_reads_c_and_fortran_batches_alike(name):
    """The same bits from a batch in C and in Fortran order, in a fresh
    Fortran-ordered array, with the input left alone."""
    seq = SCENARIO_BUILDERS[name]().moves
    rows = _level_points(seq, 8, np.random.default_rng(8))
    for t in (1.0, 0.3):
        m = truncated_map(seq, 8, t)
        images = []
        for pts in (np.ascontiguousarray(rows), np.asfortranarray(rows)):
            kept = pts.copy()
            images.append(m.apply_array(pts))
            assert images[-1].flags.f_contiguous and not np.shares_memory(images[-1], pts)
            _assert_same_bits(pts, kept)
        _assert_same_bits(*images)


_INSERTS = {
    "kink": kink_isotopy,
    "kink^-1": lambda: reversed_isotopy(kink_isotopy()),
    "multi2": lambda: multi_kink_isotopy(2),
    "multi2^-1": lambda: reversed_isotopy(multi_kink_isotopy(2)),
    "multi3": lambda: multi_kink_isotopy(3),
    "multi3^-1": lambda: reversed_isotopy(multi_kink_isotopy(3)),
}


@pytest.mark.parametrize("inner", sorted(_INSERTS))
def test_a_40_stage_half_scaling_chain_is_its_stage_loop(inner):
    """40 cubes on the x-axis accumulating at p = (2, 0, 0), cube k of side
    2^-(k+1), each carrying a canonical insert.  V_1 and p are dyadic and
    V_1 lies within a factor of two of p, so x - p is exact, every power
    of S is, and the level loop, skipping levels by distance, is the
    stage loop bitwise, signed zeros included."""
    v1 = Box.from_center((1.5, 0.0, 0.0), np.full(3, 0.125))
    first = conjugated_isotopy(_INSERTS[inner](), v1)
    seq = MoveSequence(Box.cube((1.0, 0.0, 0.0), 4.0), similarity=Similarity(first, (2, 0, 0), 0.5))
    pts = _level_points(seq, 40, np.random.default_rng(40))
    for t in (1.0, 0.4):
        _assert_same_bits(truncated_map(seq, 40, t).apply_array(pts), _stage_loop(seq, 40, t, pts))


def _in_no_stage_support(seq, n: int, pts: np.ndarray) -> np.ndarray:
    lo, hi = seq.tail_table(n).lo, seq.tail_table(n).hi
    inside = (pts[:, None, :] >= lo) & (pts[:, None, :] <= hi)
    return pts[~inside.all(axis=-1).any(axis=-1)]


@pytest.mark.parametrize(
    "name", ["countable_r1", "countable_r2_stage1", "countable_r2_stage2", "trefoil_chain", "non_dyadic"]
)
def test_a_row_in_no_stage_support_comes_back_bitwise(name):
    """Rows of the hull of V_1 and p that no V_k holds, and p itself, come
    back bitwise, also where S does not round-trip exactly: a row that no
    level's V_1 held is returned as it came.  (Where p lies in V_1, as in
    the ball streams, that hull is V_1.)"""
    if name == "non_dyadic":
        v1 = Box.from_center((0.61, 0.13, -0.07), (0.05, 0.07, 0.03))
        sim = Similarity(conjugated_insert(v1), (0.3, 0.1, 0.0), 0.3)
        seq = MoveSequence(Box.cube((0, 0, 0), 4.0), similarity=sim)
    else:
        seq = SCENARIO_BUILDERS[name]().moves
    p = seq.similarity.p
    rng = np.random.default_rng(11)
    v1 = seq.similarity.first.support
    hull = Box(np.minimum(v1.lo, p), np.maximum(v1.hi, p))
    for n in (1, 2, 7, 30):
        pts = _in_no_stage_support(seq, n, np.concatenate([hull.sample(rng, 2000), [p]]))
        assert len(pts) > 100
        _assert_same_bits(truncated_map(seq, n).apply_array(pts), pts)
        _assert_same_bits(truncated_map(seq, n, 0.6).apply_array(pts), pts)


@pytest.mark.parametrize("name", DECLARED_STREAMS)
def test_a_declared_stream_runs_at_any_depth(name):
    """The powers of S are applied in factors that stay finite, so stages
    2501..5000 run with no overflow (S^(1-2500) alone is 2^2499 or 4^2499)
    and keep p at p; their supports have shrunk onto p, so they move no
    other row of the container."""
    seq = SCENARIO_BUILDERS[name]().moves
    p = seq.similarity.p
    grid = np.vstack([p, seq.container.sample(np.random.default_rng(12), 50)])
    assert uniform_convergence_probe(seq, 2500, 5000, grid) == 0.0
    assert np.isfinite(truncated_map(seq, 5000).apply_array(grid)).all()


def _assert_resumes(seq: MoveSequence, pts: np.ndarray, calls) -> None:
    """A film's truncations of its curve to the depths and local times of
    calls, in turn, resume the film's rounds and give the bits of the same
    truncation given no rounds, which starts afresh; rows outside each
    call's support come back as they went in.  The film's rounds hold
    every row of the curve, by position: on the rows of each call's
    support they are the rounds a fresh start takes
    (``_assert_same_rounds``), and a row no call's support held is still
    fresh.  Between calls, a one-level stage loop and stages n + 1..n + 3
    leave them alone."""
    # a curve through the rows: no two equal rows in a row
    distinct = np.concatenate([[True], (pts[1:] != pts[:-1]).any(axis=1)])
    film = engine.Film(seq, PLCurve(pts[distinct]))
    batch, rounds, sim = film.curve.points, film.rounds, seq.similarity
    held = np.zeros(len(batch), dtype=bool)
    for n, local in calls:
        m = truncated_map(seq, n, local, rounds)
        got = m.apply_array(batch)
        _assert_same_bits(got, truncated_map(seq, n, local).apply_array(batch))
        inside = m.support.contains_array(batch)
        _assert_same_bits(got[~inside], batch[~inside])
        held |= inside
        assert rounds.todo == n - 1 and (rounds.steps[~held] == engine._FRESH).all()
        _assert_same_rounds(rounds, sim, batch, np.flatnonzero(inside), n - 1)
        state = [a.copy() for a in (rounds.steps, rounds.moved, rounds.y)]
        for other in (seq.stage(n + 1).map_at(local), engine._stages(seq, n + 1, n + 3, local)):
            other.apply_array(batch)
        for was, now in zip(state, (rounds.steps, rounds.moved, rounds.y)):
            np.testing.assert_array_equal(was.view(np.uint8), now.view(np.uint8))


def _assert_same_rounds(got, sim: Similarity, batch: np.ndarray, at: np.ndarray, todo: int) -> None:
    """On the rows at of the batch, the rounds got are bitwise the ones a
    fresh start takes from level 1 to todo: the same steps, the same level
    coordinates or images, and where a row is not done the same V_1 flag."""
    want, x = engine._Rounds(len(got.steps)), batch.take(at, axis=0).T
    want.advance(sim, x, at, todo, x.copy())
    steps = want.steps.take(at)
    np.testing.assert_array_equal(got.steps.take(at), steps)
    waits = at[steps != engine._DONE]
    np.testing.assert_array_equal(got.moved.take(waits), want.moved.take(waits))
    _assert_same_bits(got.y.take(at, axis=1), want.y.take(at, axis=1))


# depths and local times of a film's truncations, shallow and past the
# depths where V_n rounds onto p and the distance skip is capped; the draw
# is followed by its first call and its last, so each sequence also falls
# back to where it began and repeats its end
_RESUMED_CALLS = st.lists(
    st.tuples(st.one_of(st.integers(1, 24), st.integers(40, 90)), st.floats(0.0, 1.0)),
    min_size=1,
    max_size=6,
).map(lambda calls: calls + calls[:1] + calls[-1:])


@given(st.sampled_from(DECLARED_STREAMS), _RESUMED_CALLS, st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_a_level_loop_resumes_its_rounds_on_the_declared_streams(scenarios, name, calls, seed):
    seq = scenarios[name].moves
    _assert_resumes(seq, _level_points(seq, 8, np.random.default_rng(seed)), calls)


@given(*_TAME_CHAINS, _RESUMED_CALLS, st.integers(0, 2**32 - 1))
# a row 1.8e-224 off p, far past the cap, where V_39's near face rounds
# onto p: its skip must carry it to the cap and leave it fresh, not stop
# a level short and step it to the last level, since the two more steps
# of g it would then take at depth 42 round otherwise than a fresh skip
@example(
    p=(1.0, 0.0, 1.8237625428039037e-224), r=0.375, d=1.0, width=0.5, yz=(1.0, 1.0),
    calls=[(40, 0.0), (42, 0.0), (40, 0.0), (42, 0.0)], seed=25,
)
@settings(max_examples=40, deadline=None)
def test_a_level_loop_resumes_its_rounds_on_generated_chains(p, r, d, width, yz, calls, seed):
    """On chains whose powers of S round, where a row the skip capped at
    an earlier depth must skip afresh, not step, at a later one."""
    seq = _generated_chain(p, r, d, width, yz)
    _assert_resumes(seq, _level_points(seq, 8, np.random.default_rng(seed)), calls)


@pytest.mark.parametrize("name", DECLARED_STREAMS)
def test_no_truncation_census_or_verb_changes_a_declaration(name, tmp_path, monkeypatch):
    """A declaration is frozen: truncations of writable and read-only
    batches, the census, and run, check and frames on its scenario leave
    every attribute the same object with the same bits, and assigning a
    field raises."""
    s = SCENARIO_BUILDERS[name]()
    sim = s.moves.similarity
    before = dict(vars(sim))
    bits = {k: v.tobytes() for k, v in before.items() if isinstance(v, np.ndarray)}
    pts = _level_points(s.moves, 6, np.random.default_rng(6))
    read_only = pts.copy()
    read_only.flags.writeable = False
    for batch in (pts, read_only, read_only):
        for n, local in ((6, 1.0), (3, 0.4), (1, 0.7)):
            truncated_map(s.moves, n, local).apply_array(batch)
    for p in s.census_samples[:5]:
        eval_limit_isotopy(s.moves, p, 1e-6, 40)
    monkeypatch.setitem(cli.SCENARIO_BUILDERS, name, lambda: s)
    monkeypatch.setattr(cli, "_film", None)
    for argv in (["run", "--depth", "6"], ["check"], ["frames", "--depth", "6", "--times", "0,0.6,1"]):
        cli.main(argv + ["--scenario", name] + (["--out", str(tmp_path)] if argv[0] != "check" else []))
    assert vars(sim).keys() == before.keys()
    assert all(vars(sim)[k] is v for k, v in before.items())
    assert {k: before[k].tobytes() for k in bits} == bits
    for field in dataclasses.fields(sim):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(sim, field.name, getattr(sim, field.name))
