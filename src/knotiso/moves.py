"""Isotopy constructors: one chaining primitive (``chained_isotopy``) that
runs pieces one after another over equal time slices, plus the pieces it
chains -- the linear cone pull, conjugation into a target box, time
reversal and the unsquish.

Reidemeister-style moves are synthesized as short chains of cone pulls;
each chain is tuned once in a canonical box and conjugated into the box it
has to act in.  The end maps these isotopies hold, a conjugating frame's
inverse and a reversed move's inverted end are each built once per
isotopy and shared by every ``map_at`` call, so callers must not mutate
the maps they get.  A chain's time-1 composite is built once too, so every
insert of one canonical move, and every reversed insert, holds the same
inner map object -- which is what lets a composite route their runs in one
pass (see ``maps``).
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .engine import Isotopy
from .geometry import Box
from .maps import (
    AffineMap,
    CompositeMap,
    IdentityMap,
    LocalMap,
    UnsquishMap,
    UnsquishParams,
    conjugate,
    make_cone_map,
)


def cone_isotopy(region: Box, p0: np.ndarray, p1: np.ndarray) -> Isotopy:
    """Pull the apex from row p0 to row p1, linearly in time."""
    # built once: validates at construction time and is the map at t >= 1
    end = make_cone_map(region, p0, p1)

    def map_at(t: float) -> LocalMap:
        if t >= 1.0:
            return end
        return make_cone_map(region, p0, p0 + (p1 - p0) * t)

    return Isotopy(support=region, map_at=map_at)


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
    finished = [p.map_at(1.0) for p in parts]
    end = CompositeMap(finished, support=support)

    def map_at(t: float) -> LocalMap:
        if t <= 0.0:
            return IdentityMap(support=support)
        if t >= 1.0:
            return end
        i = min(n - 1, int(t * n))
        local = t * n - i
        maps: list[LocalMap] = list(finished[:i])
        maps.append(parts[i].map_at(local))
        return CompositeMap(maps, support=support)

    return Isotopy(support=support, map_at=map_at)


def conjugated_isotopy(frame: AffineMap, inner: Isotopy, support: Box) -> Isotopy:
    """frame o inner(t) o frame^-1, supported in the given box."""
    frame.inverse()  # inverted once, here; conjugate() reuses the memoized inverse

    def map_at(t: float) -> LocalMap:
        if t <= 0.0:
            return IdentityMap(support=support)
        return conjugate(frame, inner.map_at(t), support)

    return Isotopy(support=support, map_at=map_at)


def reversed_isotopy(inner: Isotopy) -> Isotopy:
    """The isotopy running from identity to the inverse of inner's end map."""

    # built on first use: a move sequence builds many stages only to read
    # their supports
    @functools.cache
    def end_inv() -> LocalMap:
        return inner.map_at(1.0).inverse()

    def map_at(t: float) -> LocalMap:
        if t <= 0.0:
            return IdentityMap(support=inner.support)
        if t >= 1.0:
            return end_inv()
        return CompositeMap([inner.map_at(1.0 - t), end_inv()], support=inner.support)

    return Isotopy(support=inner.support, map_at=map_at)


def unsquish_isotopy(params: UnsquishParams) -> Isotopy:
    def map_at(t: float) -> LocalMap:
        return UnsquishMap(params, t)

    return Isotopy(support=params.outer, map_at=map_at)
