import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotiso.canonical import conjugated_insert
from knotiso.engine import MoveSequence, Similarity, find_ball_factoring
from knotiso.geometry import Box

from oracles import closed_form_ball_factoring, dyadic_cubes, nested_ball_factoring


def _ball_stream(v1: Box, p, r: float) -> MoveSequence:
    """The stream declared on V_1 about p with ratio r, in a container one
    unit wider than V_1."""
    sim = Similarity(conjugated_insert(v1), p, r)
    return MoveSequence(Box(v1.lo - 1.0, v1.hi + 1.0), similarity=sim)


class TestNestedFamily:
    """A ball stream's supports nest by construction, V_(k+1) = S(V_k)
    inside V_k, so find_ball_factoring forms V_1..V_n0 alone."""

    def test_validate_accepts_dyadic_cubes(self):
        p = np.array([1.0, -2.0, 3.0])
        seq = _ball_stream(Box.cube(p, 1.0), p, 0.5)
        assert seq.boxes(1, 10) == dyadic_cubes(p, 10)
        assert find_ball_factoring(seq, 10)[1] == 3

    def test_validate_accepts_cubes_too_small_to_square(self):
        # below side ~1e-154 a squared half-extent underflows to zero; the
        # factoring is read at V_3 and never reaches those cubes
        p = np.zeros(3)
        seq = _ball_stream(Box.cube(p, 1.0), p, 0.5)
        last = seq.boxes(601, 601)[0]
        assert last.hi[0] - last.lo[0] == 2.0**-600
        assert find_ball_factoring(seq, 601) == (0.25, 3)

    def test_boxes_past_n0_are_not_read(self, monkeypatch):
        # however far the horizon, only V_1..V_n0 are formed
        p = np.zeros(3)
        seq = _ball_stream(Box.cube(p, 1.0), p, 0.5)
        read = []
        box = Similarity.box
        monkeypatch.setattr(Similarity, "box", lambda self, k: read.append(k) or box(self, k))
        assert find_ball_factoring(seq, 10**6) == (0.25, 3)
        assert read == [1, 2, 3]


class TestFindBallFactoring:
    def test_centered_dyadic_cubes(self):
        p = np.zeros(3)
        eps, n0 = find_ball_factoring(_ball_stream(Box.cube(p, 1.0), p, 0.5), 10)
        assert eps == pytest.approx(0.25)
        # independent oracle: smallest n with half-diagonal of side 2^(1-n)
        # strictly inside the eps-ball
        oracle = next(
            n for n in range(1, 11) if math.sqrt(3) / 2 * 2.0 ** (1 - n) < 0.25
        )
        assert n0 == oracle == 3

    def test_certified_exactly(self):
        p = np.array([0.3, -0.1, 0.2])
        seq = _ball_stream(Box.cube(p, 1.0), p, 0.5)
        boxes = seq.boxes(1, 10)
        eps, n0 = find_ball_factoring(seq, 10)
        assert boxes[0].wall_distance(p) > eps
        assert all(math.dist(c, p) < eps for c in boxes[n0 - 1].corners())
        assert any(math.dist(c, p) >= eps for c in boxes[n0 - 2].corners())

    def test_family_too_short_has_no_n0(self):
        # V_1 alone never fits in the ball inside it; epsilon is still read
        box = Box.cube((0, 0, 0), 0.5)
        eps, n0 = find_ball_factoring(_ball_stream(box, np.zeros(3), 0.5), 1)
        assert n0 is None
        assert eps == 0.5 * box.wall_distance(np.zeros(3))

    def test_off_center_point_shrinks_epsilon(self):
        # p near a face of V_1: epsilon follows the wall distance, and V_k's
        # farthest corner, r^(k-1) |(1.9, 1, 1)|, fits from k = 7 on
        p = np.array([0.9, 0.0, 0.0])
        v1 = Box.cube((0, 0, 0), 2.0)
        eps, n0 = find_ball_factoring(_ball_stream(v1, p, 0.5), 12)
        assert eps == pytest.approx(0.05)  # half the 0.1 wall distance
        assert n0 == 7

    def test_a_box_too_small_to_square_is_measured_at_its_scale(self):
        # V_2's corners lie sqrt(3) 2^-599 from p, outside the 2^-599 ball,
        # though their squared distances underflow to 0
        p = np.zeros(3)
        v1 = Box((-1, -1, -1), (1, 1, 2.0**-598))
        assert find_ball_factoring(_ball_stream(v1, p, 2.0**-598), 2) == (2.0**-599, None)

    @given(
        st.tuples(*[st.integers(-64, 64)] * 3),
        st.tuples(*[st.integers(1, 128)] * 6),
        st.sampled_from([0.5, 0.25]),
        st.integers(0, 900),
        st.integers(1, 12),
    )
    @settings(max_examples=60, deadline=None)
    def test_n0_is_unchanged_by_a_power_of_two_scale(self, p, faces, r, j, horizon):
        # p and V_1's faces on the grid 2^-6, scaled by 2^-j, j <= 900: every
        # corner of V_1..V_12 and every offset from p stays exact and normal,
        # while the squared offsets underflow from j ~ 500 on
        def factoring(scale: float):
            q = np.array(p) / 64.0 * scale
            v1 = Box(q - np.array(faces[:3]) / 64.0 * scale, q + np.array(faces[3:]) / 64.0 * scale)
            got = find_ball_factoring(_ball_stream(v1, q, r), horizon)
            assert got == closed_form_ball_factoring(v1, q, r, horizon)
            return got

        eps, n0 = factoring(1.0)
        assert factoring(2.0**-j) == (eps * 2.0**-j, n0)

    def test_monotone_in_first_region(self):
        # widening V_1's near faces about p, its far corner fixed, never
        # increases n0
        p = np.zeros(3)
        _, n_small = find_ball_factoring(_ball_stream(Box((-1, -1, -1), (2, 2, 2)), p, 0.5), 16)
        _, n_big = find_ball_factoring(_ball_stream(Box((-2, -2, -2), (2, 2, 2)), p, 0.5), 16)
        assert n_big <= n_small


def test_a_stream_that_is_not_a_ball_stream_has_no_factoring():
    # p outside V_1, a fixed box, or a stream with no declaration
    v1 = Box.cube((0, 0, 0), 1.0)
    outside = _ball_stream(v1, (5.0, 0.0, 0.0), 0.5)
    fixed = MoveSequence(
        Box.cube((0, 0, 0), 4.0), similarity=Similarity(conjugated_insert(v1), np.zeros(3), 0.5, v1)
    )
    undeclared = MoveSequence(v1, stage_fn=lambda k: conjugated_insert(v1))
    for seq in (outside, fixed, undeclared):
        assert find_ball_factoring(seq, 10) is None


def test_a_point_a_subnormal_from_the_wall_has_no_ball():
    # p is interior to V_1, but half its wall distance rounds to 0: an empty
    # ball is refused, as the box-by-box scan refuses it
    p = np.array([5e-324, 0.5, 0.5])
    seq = _ball_stream(Box((0, 0, 0), (1, 1, 1)), p, 0.5)
    message = "no ball about p fits strictly inside the first region"
    with pytest.raises(ValueError, match=message):
        nested_ball_factoring(p, seq.boxes(1, 50))
    with pytest.raises(ValueError, match=message):
        find_ball_factoring(seq, 50)
    # the least normal double keeps a ball, with no V_k inside it yet
    seq = _ball_stream(Box((0, 0, 0), (1, 1, 1)), np.array([2.0**-1022, 0.5, 0.5]), 0.5)
    assert find_ball_factoring(seq, 50) == (2.0**-1023, None)
