import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotiso.ball_factoring import find_ball_factoring
from knotiso.geometry import Box

from oracles import dyadic_cubes


class TestNestedFamily:
    """find_ball_factoring checks, up to n0, that its boxes strictly
    decrease around the point."""

    def test_validate_accepts_dyadic_cubes(self):
        p = np.array([1.0, -2.0, 3.0])
        assert find_ball_factoring(p, dyadic_cubes(p, 10))[1] == 3

    def test_validate_accepts_cubes_too_small_to_square(self):
        # below side ~1e-154 a squared half-extent underflows to zero, so
        # a diameter comparison would call these cubes equal; strict
        # nesting alone orders them
        p = np.zeros(3)
        cubes = dyadic_cubes(p, 601)
        assert cubes[-1].hi[0] - cubes[-1].lo[0] == 2.0**-600
        assert find_ball_factoring(p, cubes) == (0.25, 3)

    def test_boxes_past_n0_are_not_read(self):
        # a family that rounds onto p past float resolution still factors:
        # only V_1..V_n0 are checked
        p = np.zeros(3)
        boxes = dyadic_cubes(p, 3) + [Box(p, p), Box.cube((5, 0, 0), 1.0)]
        assert find_ball_factoring(p, boxes) == (0.25, 3)
        with pytest.raises(ValueError, match="p not interior to region 3"):
            find_ball_factoring(p, boxes[:2] + boxes[3:])

    def test_validate_rejects_non_nesting(self):
        with pytest.raises(ValueError, match="region 2 not strictly inside region 1"):
            find_ball_factoring(np.zeros(3), [Box.cube((0, 0, 0), 1.0)] * 2)

    def test_validate_rejects_exterior_point(self):
        boxes = [Box.cube((0, 0, 0), 2.0**-n) for n in range(1, 4)]
        with pytest.raises(ValueError, match="p not interior to region 1"):
            find_ball_factoring(np.array([5.0, 0.0, 0.0]), boxes)

    def test_validate_rejects_a_point_a_subnormal_from_the_wall(self):
        # p is interior, but half its wall distance rounds to 0
        p = np.array([5e-324, 0.5, 0.5])
        with pytest.raises(ValueError, match="no ball about p fits"):
            find_ball_factoring(p, [Box((0, 0, 0), (1, 1, 1))])


class TestFindBallFactoring:
    def test_centered_dyadic_cubes(self):
        eps, n0 = find_ball_factoring(np.zeros(3), dyadic_cubes(np.zeros(3), 10))
        assert eps == pytest.approx(0.25)
        # independent oracle: smallest n with half-diagonal of side 2^(1-n)
        # strictly inside the eps-ball
        oracle = next(
            n for n in range(1, 11) if math.sqrt(3) / 2 * 2.0 ** (1 - n) < 0.25
        )
        assert n0 == oracle == 3

    def test_certified_exactly(self):
        p = np.array([0.3, -0.1, 0.2])
        boxes = dyadic_cubes(p, 10)
        eps, n0 = find_ball_factoring(p, boxes)
        assert boxes[0].wall_distance(p) > eps
        assert all(math.dist(c, p) < eps for c in boxes[n0 - 1].corners())
        assert any(math.dist(c, p) >= eps for c in boxes[n0 - 2].corners())

    def test_family_too_short_has_no_n0(self):
        # a lone first box never fits in the ball inside it; epsilon is
        # still certified
        box = Box.cube((0, 0, 0), 0.5)
        eps, n0 = find_ball_factoring(np.zeros(3), [box])
        assert n0 is None
        assert eps == 0.5 * box.wall_distance(np.zeros(3))

    def test_off_center_point_shrinks_epsilon(self):
        # p near a face of the first region: epsilon follows the wall distance
        p = np.array([0.9, 0.0, 0.0])
        rest = [Box.cube(p, 0.05 * 2.0 ** (2 - n)) for n in range(2, 13)]
        boxes = [Box.cube((0, 0, 0), 2.0)] + rest
        eps, n0 = find_ball_factoring(p, boxes)
        assert eps == pytest.approx(0.05)  # half the 0.1 wall distance
        assert n0 == 2

    def test_a_box_too_small_to_square_is_measured_at_its_scale(self):
        # V_2's corners lie sqrt(3) 2^-599 from p, outside the 2^-599 ball,
        # though their squared distances underflow to 0
        p = np.zeros(3)
        boxes = [Box((-1, -1, -1), (1, 1, 2.0**-598)), Box.cube(p, 2.0**-598)]
        assert find_ball_factoring(p, boxes) == (2.0**-599, None)

    @given(
        st.tuples(*[st.integers(-64, 64)] * 3),
        st.lists(st.tuples(*[st.floats(0.05, 0.95)] * 6), min_size=1, max_size=8),
        st.integers(0, 900),
    )
    @settings(max_examples=60, deadline=None)
    def test_n0_is_unchanged_by_a_power_of_two_scale(self, p, shrink, j):
        # boxes strictly decreasing around p, each face a fraction of the
        # way in from the last's; scaling by 2^-j, j <= 900, keeps every
        # coordinate and offset normal, so it is exact, and the squared
        # offsets underflow from j ~ 500 on
        p = np.array(p) / 64.0
        boxes = [Box(p - 1.0, p + 1.0)]
        for f in shrink:
            lo, hi = boxes[-1].lo, boxes[-1].hi
            boxes.append(Box(p - (p - lo) * f[:3], p + (hi - p) * f[3:]))
        eps, n0 = find_ball_factoring(p, boxes)
        scaled = [Box(b.lo * 2.0**-j, b.hi * 2.0**-j) for b in boxes]
        assert find_ball_factoring(p * 2.0**-j, scaled) == (eps * 2.0**-j, n0)

    def test_monotone_in_first_region(self):
        # enlarging V_1 never increases n0
        p = np.zeros(3)

        def boxes_with(first_side: float) -> list[Box]:
            rest = [Box.cube(p, min(first_side, 2.0) * 2.0**-n) for n in range(2, 16)]
            return [Box.cube(p, first_side)] + rest

        _, n_small = find_ball_factoring(p, boxes_with(2.0))
        _, n_big = find_ball_factoring(p, boxes_with(4.0))
        assert n_big <= n_small
