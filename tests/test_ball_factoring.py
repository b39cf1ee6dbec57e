import math

import pytest

from knotiso.ball_factoring import (
    NestedFamily,
    dyadic_cubes,
    find_ball_factoring,
)
from knotiso.geometry import Box, Point3, distance


class TestNestedFamily:
    def test_validate_accepts_dyadic_cubes(self):
        dyadic_cubes(Point3(1, -2, 3)).validate(10)

    def test_validate_rejects_non_nesting(self):
        fam = NestedFamily(p=Point3(0, 0, 0), region=lambda n: Box.cube(Point3(0, 0, 0), 1.0))
        with pytest.raises(ValueError):
            fam.validate(2)

    def test_validate_rejects_exterior_point(self):
        fam = NestedFamily(
            p=Point3(5, 0, 0), region=lambda n: Box.cube(Point3(0, 0, 0), 2.0**-n)
        )
        with pytest.raises(ValueError):
            fam.validate(1)


class TestFindBallFactoring:
    def test_centered_dyadic_cubes(self):
        eps, n0 = find_ball_factoring(dyadic_cubes(Point3(0, 0, 0)), horizon=10)
        assert eps == pytest.approx(0.25)
        # independent oracle: smallest n with half-diagonal of side 2^(1-n)
        # strictly inside the eps-ball
        oracle = next(
            n for n in range(1, 11) if math.sqrt(3) / 2 * 2.0 ** (1 - n) < 0.25
        )
        assert n0 == oracle == 3

    def test_certified_exactly(self):
        p = Point3(0.3, -0.1, 0.2)
        fam = dyadic_cubes(p)
        eps, n0 = find_ball_factoring(fam, horizon=10)
        b1 = fam.region(1)
        bn = fam.region(n0)
        assert b1.wall_distance(p) > eps
        assert all(distance(c, p) < eps for c in bn.corners())
        assert any(distance(c, p) >= eps for c in fam.region(n0 - 1).corners())

    def test_single_region_family_errors(self):
        fam = NestedFamily(p=Point3(0, 0, 0), region=lambda n: Box.cube(Point3(0, 0, 0), 2.0**-n))
        with pytest.raises(ValueError):
            find_ball_factoring(fam, horizon=1)

    def test_off_center_point_shrinks_epsilon(self):
        # p near a face of the first region: epsilon follows the wall distance
        p = Point3(0.9, 0.0, 0.0)

        def region(n):
            if n == 1:
                return Box.cube(Point3(0, 0, 0), 2.0)
            return Box.cube(p, 0.05 * 2.0 ** (2 - n))

        fam = NestedFamily(p=p, region=region)
        eps, n0 = find_ball_factoring(fam, horizon=12)
        assert eps == pytest.approx(0.05)  # half the 0.1 wall distance
        assert n0 == 2

    def test_monotone_in_first_region(self):
        # enlarging V_1 never increases n0
        p = Point3(0, 0, 0)

        def fam_with(first_side: float) -> NestedFamily:
            def region(n):
                if n == 1:
                    return Box.cube(p, first_side)
                return Box.cube(p, min(first_side, 2.0) * 2.0**-n)

            return NestedFamily(p=p, region=region)

        _, n_small = find_ball_factoring(fam_with(2.0), horizon=15)
        _, n_big = find_ball_factoring(fam_with(4.0), horizon=15)
        assert n_big <= n_small
