"""Locate the ball factoring of a nested box family around a point: an
epsilon with B_eps(p) inside the first box and an index n0 whose box fits
inside the ball, certifying V_n0 c B_eps(p) c V_1 exactly; a family
too short to reach inside the ball has no n0 yet.
"""
from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .geometry import Box


def _box_in_ball(b: Box, center: np.ndarray, radius: float) -> bool:
    """Exact corner test: every corner strictly inside the ball, each
    distance taken by ``math.hypot``, which no scale underflows."""
    return all(math.hypot(*d) < radius for d in (b.corners() - center).tolist())


def find_ball_factoring(p: np.ndarray, boxes: Sequence[Box]) -> tuple[float, int | None]:
    """(epsilon, n0) with V_n0 c B_epsilon(p) c V_1, both certified, for
    boxes V_1, V_2, ... strictly decreasing around the (3,) row p.

    epsilon is half the wall distance from p to the first box's boundary;
    n0 is the smallest 1-based index whose box fits in the ball, or None
    when no box given is small enough yet: a longer family may still
    factor.  The factoring reads V_1..V_n0 alone, so the boxes are checked
    in the same pass, up to n0: past it a family may shrink onto p in
    floats.  Raises ValueError when those boxes do not decrease around p.
    """
    if not boxes:
        raise ValueError("need at least one box")
    # half the wall distance: once p is interior to V_1, positive unless
    # that distance is the least subnormal
    eps = 0.5 * boxes[0].wall_distance(p)
    for n, b in enumerate(boxes, start=1):
        if not b.contains_array(p, strict=True):
            raise ValueError(f"p not interior to region {n}")
        # strictly inside the box before it, so of smaller diameter too
        if n > 1 and not boxes[n - 2].contains_box(b, strict=True):
            raise ValueError(f"region {n} not strictly inside region {n - 1}")
        if eps <= 0:
            raise ValueError("no ball about p fits strictly inside the first region")
        if _box_in_ball(b, p, eps):
            return eps, n
    return eps, None
