"""Time-parameterized isotopies, the countable-composition scheduler, and
the convergence / injectivity probes.

A ``MoveSequence`` is an unbounded stream of stages: stage k is an
isotopy H_k whose ``support`` is the box V_k.  It runs over the slot
[t_{k-1}, t_k] of the dyadic schedule t_k = 1 - 2^{-k}, which accumulates
at t = 1.  Every isotopy kind runs under one end rule,
``Isotopy.from_motion``: the identity at t = 0, its end map at t = 1,
built on first use, so a stage builds no map until it is evaluated and
the hypothesis check, which reads only the supports, builds none.
``truncated_map`` is the one stage composer: stages 1..n-1 run to the end,
then stage n at a local time, as one support-culled composite.  A
self-similar stream declares its ``Similarity`` -- stage 1 and S(x) =
p + r (x - p), stage k being stage 1 framed into V_k = S^(k-1)(V_1) --
and its stages 2, 3, ... are built straight from that declaration as
framed runs (``maps.framed_runs``), without building each stage's map.
``apply_truncated`` and ``glue_schedule`` (the one place that slices the
time grid into stages) are read off it.
``eval_limit_isotopy`` evaluates the countable composition at the limit
time t = 1 via the settled / tolerance-converged / budget trichotomy.

Both t = 1 questions -- do the tail unions V_n u ... u V_last shrink, and
has a point left every later support -- read one memoized ``TailTable``
per stream and last stage: the stacked supports and their suffix-union
diameters, the suffix maxima of one matrix of farthest-corner distances
between every pair of supports.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .geometry import Box, PLCurve, boxes_meet, bounding_box, union_diameter
from .geometry import farthest_corner_distances
from .maps import CompositeMap, IdentityMap, LocalMap, framed_runs


@dataclass(frozen=True)
class Isotopy:
    """A time-parameterized family of maps, identity at t = 0, supported
    in a fixed box at every time."""

    support: Box
    map_at: Callable[[float], LocalMap]

    def time_one(self) -> LocalMap:
        return self.map_at(1.0)

    @staticmethod
    def from_motion(
        support: Box, motion: Callable[[float], LocalMap], end: Callable[[], LocalMap]
    ) -> "Isotopy":
        """The one end rule every isotopy kind runs under: the identity on
        the support at t = 0, ``motion(t)`` for 0 < t < 1 and ``end()`` at
        t = 1, built on first use and shared by every later call.  So an
        isotopy builds no map until it is evaluated, and reading its
        support builds none.  A time outside [0, 1] raises ValueError."""
        built: list[LocalMap] = []

        def map_at(t: float) -> LocalMap:
            if not (0.0 <= t <= 1.0):
                raise ValueError(f"t={t} outside [0,1]")
            if t == 0.0:
                return IdentityMap(support=support)
            if t < 1.0:
                return motion(t)
            if not built:
                built.append(end())
            return built[0]

        return Isotopy(support=support, map_at=map_at)


def _slot_end(k: int) -> float:
    """t_k = 1 - 2^{-k} as double arithmetic rounds it: 1.0 from k = 54 on."""
    return 1.0 - 2.0 ** (-k)


def stage_of(t: float, max_k: int) -> int:
    """The stage k with t in [t_{k-1}, t_k), searching up to max_k; slot
    ends are taken as rounded, so 1 - 2^-53 falls in stage 54."""
    if not (0.0 <= t < 1.0):
        raise ValueError(f"t={t} has no finite stage")
    for k in range(1, max_k + 1):
        if t < _slot_end(k):
            return k
    raise ValueError(f"t={t} beyond stage horizon {max_k}")


@dataclass(frozen=True)
class TailTable:
    """The corners of the supports V_1..V_last stacked as (last, 3)
    arrays ``lo`` and ``hi``, and ``diam[n - 1]`` = diam(V_n u ... u V_last).

    Each entry is the value ``union_diameter(boxes[n - 1:])`` would give,
    bitwise: both take the max of ``farthest_corner_distances``, here as
    the suffix maxima of the row maxima of its upper triangle, so
    diam[n] = max(diam[n + 1], farthest corner distance from V_n to
    V_n..V_last).
    """

    lo: np.ndarray
    hi: np.ndarray
    diam: np.ndarray

    @staticmethod
    def build(boxes: Sequence[Box]) -> "TailTable":
        if not boxes:
            empty = np.empty((0, 3))
            return TailTable(lo=empty, hi=empty, diam=np.empty(0))
        lo = np.array([b.lo for b in boxes])
        hi = np.array([b.hi for b in boxes])
        # every distance is >= 0, so the zeros below the diagonal lose
        far = np.triu(farthest_corner_distances(lo, hi)).max(axis=1)
        # the base case diam(V_last) = union_diameter([V_last]), bitwise the
        # entry it replaces; perfbench counts these calls
        far[-1] = union_diameter(boxes[-1:])
        diam = np.maximum.accumulate(far[::-1])[::-1]
        return TailTable(lo=lo, hi=hi, diam=diam)

    def in_later_support(self, pts: np.ndarray, k: int) -> np.ndarray:
        """Per row of pts, whether it lies in some V_j with j > k."""
        inside = (pts[:, None, :] >= self.lo[k:]) & (pts[:, None, :] <= self.hi[k:])
        # the three columns ANDed, as in Box.contains_array
        return (inside[..., 0] & inside[..., 1] & inside[..., 2]).any(axis=-1)


def similar_corners(v1: Box, p: np.ndarray, scale) -> tuple[np.ndarray, np.ndarray]:
    """V_k = S^(k-1)(V_1), S(x) = p + r (x - p), as its corners
    p + s (corner - p) for s = r^(k-1) a Python float power: rows for a
    float s, (m, 3) stacks for an (m, 1) column."""
    return p + scale * (v1.lo - p), p + scale * (v1.hi - p)


@dataclass(frozen=True, eq=False)
class Similarity:
    """A self-similar stream's declaration: its first stage ``first``,
    supported in V_1, and the similarity S(x) = p + r (x - p).  Stage k's
    map at time 1 is ``first``'s framed into V_k = S^(k-1)(V_1):
    ``conjugate(AffineMap.box_to_box(V_1, V_k), first.time_one(), V_k)``."""

    first: Isotopy
    p: np.ndarray
    r: float

    def corners(self, first: int, last: int) -> tuple[np.ndarray, np.ndarray]:
        """V_first..V_last as stacked (m, 3) corner rows lo and hi."""
        scale = np.array([self.r ** (k - 1) for k in range(first, last + 1)])[:, None]
        return similar_corners(self.first.support, self.p, scale)


@dataclass
class MoveSequence:
    """A replayable unbounded stream of stages inside a compact container:
    stage k is an isotopy H_k supported in V_k = ``stage(k).support``.

    ``stage_fn`` is 1-based and must be pure; stages, tail tables and the
    truncations at time 1 are memoized.  A self-similar stream declares
    its ``similarity``: its stages' maps at time 1 are then the declared
    stage 1 framed into the declared boxes, whatever supports its stage
    isotopies declare.
    """

    stage_fn: Callable[[int], Isotopy]
    container: Box
    similarity: Similarity | None = None
    _cache: dict = field(default_factory=dict, repr=False)
    _tails: dict = field(default_factory=dict, repr=False)
    _truncations: dict = field(default_factory=dict, repr=False)

    def stage(self, k: int) -> Isotopy:
        if k < 1:
            raise ValueError(f"stage index must be >= 1, got {k}")
        if k not in self._cache:
            self._cache[k] = self.stage_fn(k)
        return self._cache[k]

    def boxes(self, first: int, last: int) -> list[Box]:
        return [self.stage(k).support for k in range(first, last + 1)]

    def time_one_map(self, k: int) -> LocalMap:
        return self.stage(k).time_one()

    def tail_table(self, last: int) -> TailTable:
        """The tail table of V_1..V_last, built once per last stage."""
        if last not in self._tails:
            self._tails[last] = TailTable.build(self.boxes(1, last))
        return self._tails[last]


@dataclass(frozen=True)
class HypothesisReport:
    """Verdict on the support-shrinking and containment conditions."""

    tail_diameters: tuple[tuple[int, float], ...]
    containment_ok: bool
    disjoint_supports: bool
    verdict: str  # "pass" | "fail"
    first_violation: int | None  # 1 = tail diameters, 2 = containment

    def to_lines(self) -> list[str]:
        tails = "; ".join(f"{n}:{d:.17g}" for n, d in self.tail_diameters)
        return [
            f"tail_diameters: {tails}",
            f"containment_ok: {str(self.containment_ok).lower()}",
            f"disjoint_supports: {str(self.disjoint_supports).lower()}",
            f"verdict: {self.verdict}"
            + (f" (condition {self.first_violation})" if self.first_violation else ""),
        ]


@dataclass(frozen=True)
class ProbeReport:
    """Numerical evidence from the convergence and injectivity probes."""

    sup_deviation: float
    min_image_separation: float
    unsettled_points: int
    budget_exhausted: bool

    def __post_init__(self) -> None:
        if self.sup_deviation < 0 or self.min_image_separation < 0 or self.unsettled_points < 0:
            raise ValueError("probe report fields must be nonnegative")

    def to_lines(self) -> list[str]:
        return [
            f"sup_deviation: {self.sup_deviation:.17g}",
            f"min_image_separation: {self.min_image_separation:.17g}",
            f"unsettled_points: {self.unsettled_points}",
            f"budget_exhausted: {str(self.budget_exhausted).lower()}",
        ]


# -- finite truncations ------------------------------------------------------


def truncated_map(seq: MoveSequence, n: int, local: float = 1.0) -> LocalMap:
    """Stages 1..n-1 at time 1, then stage n at its local time, applied in
    stage order as one composite.  Its support boxes the container with
    the parts' own supports, so it holds whether or not the stages stay
    inside the container.  The truncation at time 1 is built once per
    stream and depth."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n == 0:
        return IdentityMap(support=seq.container)
    if local != 1.0:
        return _stage_composite(seq, _stages(seq, 1, n - 1) + [seq.stage(n).map_at(local)])
    if n not in seq._truncations:
        seq._truncations[n] = _stage_composite(seq, _stages(seq, 1, n))
    return seq._truncations[n]


def _stages(seq: MoveSequence, first: int, last: int) -> list[LocalMap]:
    """The maps of stages first..last at time 1, in stage order: a
    declared stream's stages from 2 on as framed runs over their boxes."""
    sim = seq.similarity
    if sim is None:
        return [seq.time_one_map(k) for k in range(first, last + 1)]
    head = [seq.time_one_map(1)] if first <= 1 <= last else []
    lo, hi = sim.corners(max(first, 2), last)
    return head + framed_runs(sim.first.time_one(), sim.first.support, lo, hi)


def _stage_composite(seq: MoveSequence, parts: list[LocalMap]) -> CompositeMap:
    """Stage maps as one composite whose support boxes the container with
    the parts' own supports."""
    support = bounding_box([seq.container] + [m.support for m in parts])
    return CompositeMap(parts, support=support)


def apply_truncated(seq: MoveSequence, n: int, pts: np.ndarray) -> np.ndarray:
    return truncated_map(seq, n).apply_array(pts)


def map_curve(m: LocalMap, curve: PLCurve) -> PLCurve:
    """Image of a curve's vertices under a map."""
    return PLCurve(m.apply_array(curve.points), closed=curve.closed)


# -- hypothesis checking -----------------------------------------------------


def tail_boxes(seq: MoveSequence, after: int, horizon: int) -> list[Box]:
    """Supports V_k for k in (after, horizon]."""
    return seq.boxes(after + 1, horizon)


def check_hypotheses(seq: MoveSequence, horizon: int, threshold: float) -> HypothesisReport:
    """Tail-union diameters, containment in the compact container, and the
    pairwise-disjointness witness, all read off the stream's tail table
    for V_1..V_horizon."""
    if horizon < 2:
        raise ValueError(f"horizon must be >= 2, got {horizon}")
    if not (math.isfinite(threshold) and threshold > 0):
        raise ValueError(f"threshold must be positive and finite, got {threshold}")
    tails = seq.tail_table(horizon)
    diameters = tuple(enumerate(tails.diam.tolist(), start=1))
    container = seq.container
    containment_ok = bool(
        container.contains_array(tails.lo, strict=True).all()
        and container.contains_array(tails.hi, strict=True).all()
    )
    disjoint = not np.triu(boxes_meet(tails.lo, tails.hi), k=1).any()
    first_violation: int | None = None
    if diameters[-1][1] >= threshold:
        first_violation = 1
    elif not containment_ok:
        first_violation = 2
    verdict = "pass" if first_violation is None else "fail"
    return HypothesisReport(
        tail_diameters=diameters,
        containment_ok=containment_ok,
        disjoint_supports=disjoint,
        verdict=verdict,
        first_violation=first_violation,
    )


# -- limit evaluation --------------------------------------------------------


@dataclass(frozen=True, eq=False)
class LimitValue:
    point: np.ndarray  # (3,)
    status: str  # settled | tol-converged | budget-exhausted
    steps: int


def eval_limit_isotopy(seq: MoveSequence, p: np.ndarray, tol: float, k_budget: int) -> LimitValue:
    """Value of the countably-composed isotopy at (1, p).

    The composition is iterated until the running image escapes all later
    supports (settled, exact) or the remaining tail union has diameter
    below tol (tol-converged), up to k_budget stages.  Both tests read the
    stream's tail table: the image after k stages is settled when it lies
    in none of V_{k+1}..V_{k_budget}, and tol-converged when
    diam(V_{k+1} u ... u V_{k_budget}) < tol.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be positive and finite, got {tol}")
    tails = seq.tail_table(k_budget)
    x = np.array(p, dtype=float)[None, :]
    # one point, one stage at a time, reading the tail table after each
    # stage; running all census points as one array is ROADMAP item 6
    for k in range(k_budget):
        if not tails.in_later_support(x, k)[0]:
            return LimitValue(x[0], "settled", k)
        if tails.diam[k] < tol:
            return LimitValue(x[0], "tol-converged", k)
        x = seq.time_one_map(k + 1).apply_array(x)
    return LimitValue(x[0], "budget-exhausted", k_budget)


# -- probes ------------------------------------------------------------------


def uniform_convergence_probe(seq: MoveSequence, n: int, m: int, grid: np.ndarray) -> float:
    """Max over the (k, 3) grid of d(composite_n(y), composite_m(y))."""
    if not len(grid):
        raise ValueError("grid must be non-empty")
    if m < n:
        raise ValueError("need m >= n")
    xn = apply_truncated(seq, n, grid)
    # on from stage n, so the first n stages run once, not twice
    later = _stage_composite(seq, _stages(seq, n + 1, m))
    xm = later.apply_array(xn)
    return float(np.sqrt(((xn - xm) ** 2).sum(-1)).max())


def injectivity_probe(seq: MoveSequence, n: int, pairs: np.ndarray) -> float:
    """Min over the (k, 2, 3) point pairs of the image separation under
    the n-stage composite."""
    if not len(pairs):
        raise ValueError("pairs must be non-empty")
    # both ends of every pair in one pass; the maps act row by row
    ia, ib = np.split(apply_truncated(seq, n, np.concatenate([pairs[:, 0], pairs[:, 1]])), 2)
    return float(np.sqrt(((ia - ib) ** 2).sum(-1)).min())


# -- schedule gluing ---------------------------------------------------------


def glue_schedule(seq: MoveSequence, n: int) -> Isotopy:
    """The n-stage time-compressed gluing: stage k runs over
    [t_{k-1}, t_k], and the map freezes at t >= t_n (from n = 54 on, t_n
    rounds to 1 and the map freezes only at t = 1)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    t_n = _slot_end(n)

    def motion(t: float) -> LocalMap:
        if t >= t_n:
            return truncated_map(seq, n)
        k = stage_of(t, max_k=n)
        t0, t1 = _slot_end(k - 1), _slot_end(k)
        return truncated_map(seq, k, (t - t0) / (t1 - t0))

    return Isotopy.from_motion(seq.container, motion, lambda: truncated_map(seq, n))
