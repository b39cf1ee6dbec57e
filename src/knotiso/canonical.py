"""The canonical tuned loop-insert move in the unit box [-1,1]^3.

A two-stage cone-map chain acting on the straight x-axis strand: lift a
tent with its tip offset in z, then swing the tip past the left run inside
a z-elevated box so the swung top crosses over the strand exactly once.
Constants were tuned by grid search over pull targets (see
scripts/tune_moves.py); the projected crossing count is 1 at every tested
densification with z-separation margin 0.29 at the crossing.

Conjugating by an axis-aligned positive-scale affine frame preserves the
projected crossing structure, so the move is tuned once here and reused in
every scenario box.  Every move here is built from the primitives in
``moves``: the single insert chains its cone stages, the m-loop insert
chains m conjugated copies of it, and each time-1 map is the end map of
its isotopy.

``kink_isotopy()`` and ``multi_kink_isotopy(m)`` are module constants:
each is built once, on first call, and every later call returns the same
object, so every conjugated insert shares one set of canonical maps and
their inverses.  Callers must not mutate them.
"""
from __future__ import annotations

import functools

from .engine import Isotopy
from .geometry import Box, Point3
from .maps import AffineMap, LocalMap
from .moves import ConeStage, chained_isotopy, conjugated_isotopy, staged_isotopy

CANONICAL_BOX = Box.from_center(Point3(0, 0, 0), Point3(1, 1, 1))

# loop count contributed by one insert
KINK_CROSSINGS = 1

_TENT_TIP = Point3(0.1, 0.35, 0.12)
_SWING_TARGET = Point3(-0.75, 0.0, 0.35)

KINK_STAGES = (
    ConeStage(
        region=Box.from_center(Point3(0, 0, 0), Point3(0.6, 0.45, 0.45)),
        p0=Point3(0, 0, 0),
        p1=_TENT_TIP,
    ),
    ConeStage(
        region=Box(Point3(-0.9, -0.3, 0.05), Point3(0.6, 0.55, 0.55)),
        p0=_TENT_TIP,
        p1=_SWING_TARGET,
    ),
)


@functools.cache
def kink_isotopy() -> Isotopy:
    """The canonical single-loop insert, staged over [0, 1]."""
    return staged_isotopy(KINK_STAGES, CANONICAL_BOX)


def kink_map() -> LocalMap:
    """Time-1 map of the canonical single-loop insert."""
    return kink_isotopy().time_one()


def loop_sub_boxes(m: int) -> list[Box]:
    """m disjoint sub-boxes splitting the canonical box along the strand."""
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    w = 2.0 / m
    return [
        Box.from_center(
            Point3(-1.0 + (i + 0.5) * w, 0.0, 0.0), Point3(0.45 * w, 0.4, 0.4)
        )
        for i in range(m)
    ]


@functools.cache
def multi_kink_isotopy(m: int) -> Isotopy:
    """m loop inserts run one after another over equal time slices."""
    kink = kink_isotopy()
    return chained_isotopy(
        [
            conjugated_isotopy(AffineMap.box_to_box(CANONICAL_BOX, sub), kink, sub)
            for sub in loop_sub_boxes(m)
        ],
        CANONICAL_BOX,
    )


def multi_kink_map(m: int) -> LocalMap:
    """Time-1 map inserting m loops along the strand (m crossings)."""
    return multi_kink_isotopy(m).time_one()


def conjugated_insert(target: Box, m: int = 1) -> Isotopy:
    """Insert m loops on the x-axis strand through a target box."""
    frame = AffineMap.box_to_box(CANONICAL_BOX, target)
    inner = multi_kink_isotopy(m) if m > 1 else kink_isotopy()
    return conjugated_isotopy(frame, inner, target)
