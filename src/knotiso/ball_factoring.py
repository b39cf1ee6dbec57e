"""Locate the ball factoring of a nested box family around a point: an
epsilon with B_eps(p) inside the first region and an index n0 whose region
fits inside the ball, certifying V_n0 c B_eps(p) c V_1 exactly.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .geometry import Box, Point3, distance


@dataclass(frozen=True)
class NestedFamily:
    """Strictly decreasing boxes around an interior point p.

    ``region`` is 1-based; nesting and interiority are verified lazily up
    to whatever horizon a query uses.
    """

    p: Point3
    region: Callable[[int], Box]

    def validate(self, horizon: int) -> None:
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        prev: Box | None = None
        for n in range(1, horizon + 1):
            b = self.region(n)
            if not b.contains(self.p, strict=True):
                raise ValueError(f"p not interior to region {n}")
            if prev is not None:
                if not prev.contains_box(b, strict=True):
                    raise ValueError(f"region {n} not strictly inside region {n - 1}")
                if b.diameter() >= prev.diameter():
                    raise ValueError(f"region {n} diameter does not decrease")
            prev = b


def _box_in_ball(b: Box, center: Point3, radius: float) -> bool:
    """Exact corner test: every corner strictly inside the ball."""
    return all(distance(c, center) < radius for c in b.corners())


def _ball_in_box(b: Box, center: Point3, radius: float) -> bool:
    """Exact wall-distance test: the ball strictly inside the box."""
    return b.wall_distance(center) > radius


def find_ball_factoring(fam: NestedFamily, horizon: int) -> tuple[float, int]:
    """(epsilon, n0) with V_n0 c B_epsilon(p) c V_1, both certified.

    epsilon is half the wall distance from p to the first region's
    boundary; n0 is the smallest index <= horizon whose region fits in the
    ball.  Raises ValueError when no region is small enough by the horizon.
    """
    fam.validate(horizon)
    eps = 0.5 * fam.region(1).wall_distance(fam.p)
    if eps <= 0:
        raise ValueError("p is not interior to the first region")
    if not _ball_in_box(fam.region(1), fam.p, eps):
        raise ValueError("ball is not strictly inside the first region")
    for n in range(1, horizon + 1):
        if _box_in_ball(fam.region(n), fam.p, eps):
            return eps, n
    raise ValueError(f"no n0 within horizon {horizon}: regions not yet inside the ball")


def dyadic_cubes(p: Point3) -> NestedFamily:
    """Reference family: cubes centered at p with side 2^(1-n)."""

    def region(n: int) -> Box:
        return Box.cube(p, 2.0 ** (1 - n))

    return NestedFamily(p=p, region=region)
