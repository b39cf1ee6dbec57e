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
``moves``: the single insert chains its cone stages, and the m-loop insert
chains m copies of it conjugated into its sub-boxes.  ``tied_strand(m, n)``
is the straight strand of the box with those m loops tied in: a loop chain
frames that one strand into each of its boxes, and ``conjugated_insert``
frames the same move there, given only the target box.

``kink_isotopy()``, ``multi_kink_isotopy(m)`` and ``tied_strand(m, n)`` are
module constants: each is built once, on first call, and every later call
returns the same object, the strand as a read-only array.  Under the one
end rule of ``Isotopy.from_motion`` each isotopy holds one time-1 map,
built on first use, so every conjugated insert shares one set of
canonical maps and their inverses.  Callers must not mutate them.
"""
from __future__ import annotations

import functools

import numpy as np

from .engine import Isotopy
from .geometry import Box
from .maps import LocalMap
from .moves import ConeStage, chained_isotopy, conjugated_isotopy, staged_isotopy

CANONICAL_BOX = Box.from_center((0, 0, 0), (1, 1, 1))

_TENT_TIP = np.array([0.1, 0.35, 0.12])
_SWING_TARGET = np.array([-0.75, 0.0, 0.35])

KINK_STAGES = (
    ConeStage(
        region=Box.from_center((0, 0, 0), (0.6, 0.45, 0.45)),
        p0=np.zeros(3),
        p1=_TENT_TIP,
    ),
    ConeStage(
        region=Box((-0.9, -0.3, 0.05), (0.6, 0.55, 0.55)),
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
        Box.from_center((-1.0 + (i + 0.5) * w, 0.0, 0.0), (0.45 * w, 0.4, 0.4))
        for i in range(m)
    ]


@functools.cache
def multi_kink_isotopy(m: int) -> Isotopy:
    """m loop inserts run one after another over equal time slices, the
    kink conjugated into each sub-box."""
    subs = loop_sub_boxes(m)
    return chained_isotopy([conjugated_isotopy(kink_isotopy(), sub) for sub in subs], CANONICAL_BOX)


def _insert_move(m: int) -> Isotopy:
    """The canonical move that ties m loops: the kink itself for m = 1."""
    return multi_kink_isotopy(m) if m > 1 else kink_isotopy()


@functools.cache
def tied_strand(m: int, n: int) -> np.ndarray:
    """The x-axis strand across the canonical box, from x = -1 to x = 1 at
    n evenly spaced vertices, with m loops tied in: a read-only (n, 3)
    array."""
    xs = np.linspace(-1.0, 1.0, n)
    zeros = np.zeros_like(xs)
    strand = _insert_move(m).time_one().apply_array(np.column_stack([xs, zeros, zeros]))
    strand.flags.writeable = False
    return strand


def conjugated_insert(target: Box, m: int = 1) -> Isotopy:
    """Insert m loops on the x-axis strand through a target box."""
    return conjugated_isotopy(_insert_move(m), target)
