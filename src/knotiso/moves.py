"""Isotopy constructors: one chaining primitive (``chained_isotopy``) that
runs pieces one after another over equal time slices, plus the pieces it
chains -- the linear cone pull, conjugation into a target box, time
reversal and the unsquish.

Reidemeister-style moves are synthesized as short chains of cone pulls;
each chain is tuned once in a canonical box and conjugated into the box it
has to act in.  Every kind states only its motion and its end map and runs
under the one end rule ``Isotopy.from_motion``: the identity at t = 0, the
end at t = 1, built on first use and shared by every later call.  So a
stage builds no map until it is evaluated -- a conjugation's frame and
its inverse included -- and callers must not mutate the maps they get.
Because an end is one object, every insert of one canonical move, and
every reversed insert, holds the same inner map object, so the canonical
maps and their inverses are built once.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .engine import Isotopy
from .geometry import Box
from .maps import AffineMap, CompositeMap, ConeMap, LocalMap, UnsquishMap, UnsquishParams, conjugate


def cone_isotopy(region: Box, p0: np.ndarray, p1: np.ndarray) -> Isotopy:
    """Pull the apex from row p0 to row p1, linearly in time."""
    # built here, so a bad apex is refused when the isotopy is built
    end = ConeMap(region, p0, p1)
    return Isotopy.from_motion(
        region, lambda t: ConeMap(region, p0, p0 + (p1 - p0) * t), lambda: end
    )


@dataclass(frozen=True, eq=False)
class ConeStage:
    region: Box
    p0: np.ndarray
    p1: np.ndarray


def staged_isotopy(stages: Sequence[ConeStage], support: Box) -> Isotopy:
    """Run cone stages one after another over equal time slices."""
    return chained_isotopy([cone_isotopy(s.region, s.p0, s.p1) for s in stages], support)


def chained_isotopy(parts: Sequence[Isotopy], support: Box) -> Isotopy:
    """Run whole isotopies one after another over equal time slices."""
    if not parts:
        raise ValueError("need at least one isotopy")
    n = len(parts)

    def motion(t: float) -> LocalMap:
        i = min(n - 1, int(t * n))
        done = [p.time_one() for p in parts[:i]]
        return CompositeMap(done + [parts[i].map_at(t * n - i)], support=support)

    return Isotopy.from_motion(
        support, motion, lambda: CompositeMap([p.time_one() for p in parts], support=support)
    )


def conjugated_isotopy(inner: Isotopy, support: Box) -> Isotopy:
    """frame o inner(t) o frame^-1, supported in the given box, where the
    frame, built on the first evaluation past t = 0, carries inner's
    support onto that box."""
    frame = functools.cache(lambda: AffineMap.box_to_box(inner.support, support))

    def motion(t: float) -> LocalMap:
        return conjugate(frame(), inner.map_at(t), support)

    return Isotopy.from_motion(support, motion, lambda: motion(1.0))


def reversed_isotopy(inner: Isotopy) -> Isotopy:
    """The isotopy running from identity to the inverse of inner's end map."""

    def end() -> LocalMap:
        # one object: inner's end is built once, and so is its inverse
        return inner.time_one().inverse()

    def motion(t: float) -> LocalMap:
        return CompositeMap([inner.map_at(1.0 - t), end()], support=inner.support)

    return Isotopy.from_motion(inner.support, motion, end)


def unsquish_isotopy(params: UnsquishParams) -> Isotopy:
    return Isotopy.from_motion(
        params.outer, lambda t: UnsquishMap(params, t), lambda: UnsquishMap(params, 1.0)
    )
