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
then stage n at a local time, as one support-culled map.  A self-similar
stream declares its ``Similarity`` -- stage 1 and S(x) = p + r (x - p),
stage k being stage 1 framed into V_k = S^(k-1)(V_1) -- and its
truncations read that declaration alone, as one loop over levels: with
h_1 stage 1's end map and g = S^-1 h_1, stages j..n are
S^n g^(n-j+1) S^(1-j), so no V_k is formed in floats and a truncation
runs at any depth.  ``apply_truncated`` and ``glue_schedule`` (the one
place that slices the time grid into stages) are read off it.
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
from .maps import CompositeMap, IdentityMap, LocalMap


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
    supported in V_1, and the similarity S(x) = p + r (x - p), 0 < r < 1.
    Stage k's map at time t is S^(k-1) o first.map_at(t) o S^(1-k), stage
    1 framed into V_k = S^(k-1)(V_1)."""

    first: Isotopy
    p: np.ndarray
    r: float

    def __post_init__(self) -> None:
        if not (0.0 < self.r < 1.0):
            raise ValueError(f"a similarity's ratio must lie in (0, 1), got {self.r}")


@dataclass
class MoveSequence:
    """A replayable unbounded stream of stages inside a compact container:
    stage k is an isotopy H_k supported in V_k = ``stage(k).support``.

    ``stage_fn`` is 1-based and must be pure; stages, tail tables and the
    truncations at time 1 are memoized.  A self-similar stream declares
    its ``similarity``: its truncations then read the declared stage 1 and
    similarity, whatever supports its stage isotopies declare.
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
    stage order as one map (``_stages``).  The truncation at time 1 is
    built once per stream and depth."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n == 0:
        return IdentityMap(support=seq.container)
    if local != 1.0:
        return _stages(seq, 1, n, local)
    if n not in seq._truncations:
        seq._truncations[n] = _stages(seq, 1, n)
    return seq._truncations[n]


def _stages(seq: MoveSequence, first: int, last: int, local: float = 1.0) -> LocalMap:
    """Stages first..last, the last at its local time, applied in stage
    order: a declared stream's as its level loop, any other's as one
    composite of the stage maps whose support boxes the container with
    the parts' own supports, so it holds whether or not the stages stay
    inside the container."""
    if seq.similarity is not None:
        return _LevelLoop(seq.similarity, first, last, local)
    parts = [seq.time_one_map(k) for k in range(first, last)] + [seq.stage(last).map_at(local)]
    return CompositeMap(parts, support=bounding_box([seq.container] + [m.support for m in parts]))


class _LevelLoop(LocalMap):
    """Stages first..last of a declared stream, the last at local time t,
    as one loop over levels.  Stage k is S^(k-1) h_1 S^(1-k), h_1 being
    stage 1's map at time 1, so with g = S^-1 h_1 the stages are
    S^(last-1) h_1(t) g^(last-first) S^(1-first).  No box and no frame is
    built for a level, so none rounds to a zero scale or overflows at any
    depth, and the powers of S are applied in factors that stay finite.

    A row is carried to level 1 by S^(1-first) and then takes one step of
    g per round, the rows V_1 holds going through one h_1 call.  S maps
    hull(V_1 u {p}) into itself and h_1 is the identity outside V_1, so a
    row that g carries out of that hull never comes back: it is done, at
    S^(first-1+s) of its h_1 image after s steps, or where it started if
    V_1 never held it.  A row that a step leaves bitwise in place stays
    there at every level.  Where p lies outside V_1, at sup-norm distance
    dmin from it, a row at distance d from p can lie in V_k only if
    r^(k-1) dmin <= d, so it first skips the levels before that in one
    multiply.  The support is the hull of V_first and V_last, which holds
    every V_k between them.
    """

    def __init__(self, sim: Similarity, first: int, last: int, local: float):
        v1 = sim.first.support
        p = np.asarray(sim.p, dtype=float)
        self.first, self.last = first, last
        self.h1 = sim.first.time_one()
        self.h_last = sim.first.map_at(local)
        # V_first..V_last lie in the hull of the first and the last
        lo, hi = similar_corners(v1, p, np.array([[sim.r ** (first - 1)], [sim.r ** (last - 1)]]))
        self.support = Box(lo.min(axis=0), hi.max(axis=0))
        self._v1 = v1
        # S(hull(V_1 u {p})) = hull(V_2 u {p})
        lo, hi = similar_corners(v1, p, sim.r)
        self._hull_2 = Box(np.minimum(lo, p), np.maximum(hi, p))
        self._dmin = float(np.maximum(np.maximum(v1.lo - p, p - v1.hi), 0.0).max())
        self._r = sim.r
        self._log_r = math.log(sim.r)
        # the most levels one factor r^c or r^-c spans and stays normal
        self._span = int(1000.0 / -math.log2(sim.r))
        # zero components as -0.0, so y - p and d + p keep signed zeros
        self._p = np.where(p == 0.0, -0.0, p).reshape(3, 1)
        self._neg_p = np.where(p == 0.0, -0.0, -p).reshape(3, 1)

    def apply_array(self, pts: np.ndarray) -> np.ndarray:
        return self._on_support(pts, self._run)

    def _similar(self, y: np.ndarray, levels) -> np.ndarray:
        """S^levels of the (3, m) coordinate rows y, for one integer level
        count or one per row: (y - p) r^levels + p, the power applied in
        factors that stay finite and normal, so p stays p at any level."""
        levels = np.asarray(levels)
        still = levels == 0
        if still.all():
            return y
        d = y + self._neg_p
        while np.abs(levels).max() > self._span:
            part = np.clip(levels, -self._span, self._span)
            d = d * self._r ** part
            levels = levels - part
        d = d * self._r ** levels + self._p
        # S^0 is the identity, bitwise
        return np.where(still, y, d) if still.any() else d

    def _run(self, q: np.ndarray) -> np.ndarray:
        x = q.T
        out = np.empty_like(x)
        rows = np.arange(x.shape[1])
        todo = self.last - self.first
        y = self._similar(x, 1 - self.first)
        steps = np.zeros(len(rows), dtype=np.int64)
        if self._dmin > 0.0 and todo:
            y, steps = self._skip(y, todo)
        moved = np.zeros(len(rows), dtype=bool)
        ends = []

        def finish(done, z: np.ndarray, levels) -> None:
            # a row no map moved is where it started
            still = rows[done & ~moved]
            out[:, still] = x[:, still]
            done = done & moved
            if done.any():
                out[:, rows[done]] = self._similar(z[:, done], levels[done])

        while len(rows):
            at_last = steps == todo
            if at_last.any():
                ends.append((rows[at_last], y[:, at_last], moved[at_last]))
                keep = ~at_last
                rows, y, steps, moved = rows[keep], y[:, keep], steps[keep], moved[keep]
                if not len(rows):
                    break
            z, held = self._through(self.h1, y)
            moved |= held
            # S^-1 carries a row out of the hull exactly when it lies
            # outside S(hull): it is done, at S^(first-1+s) of z
            done = ~self._hull_2.contains_array(z.T)
            if done.any():
                finish(done, z, self.first - 1 + steps)
            keep = ~done
            rows, y, z, steps, moved = rows[keep], y[:, keep], z[:, keep], steps[keep], moved[keep]
            stepped = self._similar(z, -1)
            # a row g leaves bitwise in place stays there at every level
            fixed = (stepped.view(np.int64) == y.view(np.int64)).all(axis=0)
            y, steps = stepped, np.where(fixed, todo, steps + 1)
        if ends:
            rows, y, moved = (np.concatenate(e, axis=-1) for e in zip(*ends))
            z, held = self._through(self.h_last, y)
            moved |= held
            finish(np.ones(len(rows), dtype=bool), z, np.full(len(rows), self.last - 1))
        return out.T

    def _through(self, h: LocalMap, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """h on the (3, m) coordinate rows y that V_1 holds, and which rows
        those are: every row, where p lies in V_1 and so V_1 is the hull."""
        if self._dmin == 0.0:
            return h.apply_array(y.T).T, np.ones(y.shape[1], dtype=bool)
        held = self._v1.contains_array(y.T)
        if not held.any():
            return y, held
        z = y.copy()
        z[:, held] = h.apply_array(y[:, held].T).T
        return z, held

    def _skip(self, y: np.ndarray, todo: int) -> tuple[np.ndarray, np.ndarray]:
        """The rows carried past the levels whose V_1 they cannot meet, at
        most todo of them, and the number of levels each skipped."""
        d = np.abs(y + self._neg_p).max(axis=0)
        with np.errstate(divide="ignore"):
            skip = np.minimum(np.ceil(np.log(d / self._dmin) / self._log_r) - 1.0, todo)
        far = skip >= 1.0
        skip = np.where(far, skip, 0.0).astype(np.int64)
        if far.any():
            y = y.copy()
            y[:, far] = self._similar(y[:, far], -skip[far])
        return y, skip


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
    xm = _stages(seq, n + 1, m).apply_array(xn) if m > n else xn
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
