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
stream is its declaration, a ``Similarity``: stage 1, S(x) = p + r (x - p)
and an optional fixed box F that every support holds.  Its stages,
truncations and t = 1 census are one loop over levels: with h_1 stage
1's end map and g = S^-1 h_1, stages j..n are S^n g^(n-j+1) S^(1-j),
stage k is S^(k-1) h_1 S^(1-k), and a census point takes a g step per
stage in level coordinates.  No V_k is formed in floats but as a
support, so a truncation runs at any depth.  A ``Film`` of one curve
holds what its frames reuse: the loop's rounds on that curve, so its
frames run each round once, and the last frame drawn, with its crossing
search and its texts, which the next frame's are spliced from.
The declaration also names the point the supports shrink around, the
stream's ``ball_center``: p, when there is no F and V_1 holds p inside,
and ``find_ball_factoring`` reads the ball V_n0 c B_eps(p) c V_1 off it.
``apply_truncated`` and ``glue_schedule`` (the one place that slices the
time grid into stages) run the truncations, and ``eval_limit_isotopy``,
which evaluates the countable composition at the limit time t = 1 via
the settled / tolerance-converged / budget trichotomy, runs the census.

Both t = 1 questions -- do the tail unions V_n u ... u V_last shrink, and
has a point left every later support -- read one memoized ``TailTable``
per stream and last stage: the stacked supports, which a declared stream
reads off its declaration (``Similarity.corners``), and their suffix-union
diameters, the suffix maxima of the farthest-corner distances between
every pair of supports, read in blocks of rows so that no last x last
matrix is formed.  Each report states a verdict once: the
hypotheses are read off a table of sufficient conditions, each serving
one hypothesis, by the one rule ``HypothesisReport.failing``, and the
injectivity verdict off the probe's least image separation, by the one
rule ``ProbeReport.injectivity``.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from . import diagram
from .geometry import Box, PLCurve, boxes_meet, bounding_box, curve_texts, union_diameter
from .geometry import farthest_corner_distances
from .maps import CompositeMap, IdentityMap, LocalMap, _negative_zeros, _scatter


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
        end = functools.cache(end)

        def map_at(t: float) -> LocalMap:
            if not (0.0 <= t <= 1.0):
                raise ValueError(f"t={t} outside [0,1]")
            if t == 0.0:
                return IdentityMap(support=support)
            return motion(t) if t < 1.0 else end()

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
    V_n..V_last).  The triangle is read in blocks of rows
    (``_upper_blocks``), so the table takes memory linear in last.
    """

    lo: np.ndarray
    hi: np.ndarray
    diam: np.ndarray

    @staticmethod
    def build(boxes: Sequence[Box]) -> "TailTable":
        lo = np.array([b.lo for b in boxes]).reshape(-1, 3)
        hi = np.array([b.hi for b in boxes]).reshape(-1, 3)
        return TailTable.from_corners(lo, hi)

    @staticmethod
    def from_corners(lo: np.ndarray, hi: np.ndarray) -> "TailTable":
        """The table of the supports given as stacked (last, 3) corners."""
        if not len(lo):
            return TailTable(lo=lo, hi=hi, diam=np.empty(0))
        # every distance is >= 0, so the zeros below the diagonal lose
        blocks = _upper_blocks(lo, hi, farthest_corner_distances)
        far = np.concatenate([np.triu(block).max(axis=1) for block in blocks])
        # the base case diam(V_last) = union_diameter([V_last]), bitwise the
        # entry it replaces; perfbench counts these calls
        far[-1] = union_diameter([Box(lo[-1], hi[-1])])
        diam = np.maximum.accumulate(far[::-1])[::-1]
        return TailTable(lo=lo, hi=hi, diam=diam)

    def in_later_support(self, pts: np.ndarray, k: int) -> np.ndarray:
        """Per row of pts, whether it lies in some V_j with j > k."""
        inside = (pts[:, None, :] >= self.lo[k:]) & (pts[:, None, :] <= self.hi[k:])
        # the three columns ANDed, as in Box.contains_array
        return (inside[..., 0] & inside[..., 1] & inside[..., 2]).any(axis=-1)


# entries in one block of a pairwise table of supports: a megabyte of
# float64 per temporary, however many supports there are
_PAIR_BLOCK = 1 << 17


def _upper_blocks(lo: np.ndarray, hi: np.ndarray, pair) -> Iterator[np.ndarray]:
    """The table pair(lo, hi) of the stacked boxes against themselves, one
    block of rows at a time, so no n x n table is formed.  The block of
    rows i0..i1 holds their entries in columns i0.. alone, so its upper
    triangle is the table's in those rows.  Each block has at most
    ``_PAIR_BLOCK`` entries, or one row."""
    step = max(1, _PAIR_BLOCK // len(lo))
    for i in range(0, len(lo), step):
        yield pair(lo[i : i + step], hi[i : i + step], (lo[i:], hi[i:]))


@dataclass(frozen=True, eq=False)
class Similarity:
    """A self-similar stream's declaration: its first stage ``first``,
    supported in V_1, the similarity S(x) = p + r (x - p), 0 < r < 1, and
    an optional fixed box F.  Stage k at time t is S^(k-1) o
    first.map_at(t) o S^(1-k), a one-level loop, supported in
    V_k = S^(k-1)(V_1), or in hull(V_k u F): F widens every support and
    moves no point.  The constants every level loop reads are computed
    once, here, so a declaration is frozen."""

    first: Isotopy
    p: np.ndarray
    r: float
    fixed: Box | None = None

    def __post_init__(self) -> None:
        if not (0.0 < self.r < 1.0):
            raise ValueError(f"a similarity's ratio must lie in (0, 1), got {self.r}")
        # a read-only copy: the caller's array and ``ball_center``'s reader
        # cannot move the point the cached constants below were formed from
        p = np.array(self.p, dtype=float)
        p.flags.writeable = False
        object.__setattr__(self, "p", p)
        v1, v2 = self.first.support, self.box(2)
        dmin = float(np.maximum(np.maximum(v1.lo - p, p - v1.hi), 0.0).max())
        # the most levels one factor r^c or r^-c spans and stays normal
        span = int(1000.0 / -math.log2(self.r))
        vars(self).update(
            # S(hull(V_1 u {p})) = hull(V_2 u {p})
            _hull_2=Box(np.minimum(v2.lo, p), np.maximum(v2.hi, p)),
            _dmin=dmin,
            _log_r=math.log(self.r),
            _span=span,
            _near=_near_faces(dmin, self.r, float(np.abs(p).max()), span),
            # zero components as -0.0, so y - p and d + p keep signed zeros
            _p_col=_negative_zeros(p).reshape(3, 1),
            _neg_p=_negative_zeros(-p).reshape(3, 1),
        )

    def box(self, k: int) -> Box:
        """V_k = S^(k-1)(V_1); V_1 is stage 1's own support."""
        v1, s = self.first.support, self.r ** (k - 1)
        return v1 if k == 1 else Box(self._scaled(s, v1.lo), self._scaled(s, v1.hi))

    def corners(self, first: int, last: int) -> tuple[np.ndarray, np.ndarray]:
        """The supports of stages first..last as stacked (n, 3) corner
        arrays lo and hi, row k - first bitwise ``stage(k).support``: V_k,
        or hull(V_k u F) where a fixed box F is declared.  No stage and no
        box is built."""
        v1 = self.first.support
        s = np.array([self.r ** (k - 1) for k in range(first, last + 1)])[:, None]
        lo, hi = self._scaled(s, v1.lo), self._scaled(s, v1.hi)
        if first == 1 and last >= 1:
            lo[0], hi[0] = v1.lo, v1.hi
        if self.fixed is not None:
            lo, hi = np.minimum(lo, self.fixed.lo), np.maximum(hi, self.fixed.hi)
        return lo, hi

    def _scaled(self, s, corner: np.ndarray) -> np.ndarray:
        """S^(k-1) of a corner of V_1, p + s (corner - p), for s = r^(k-1) a
        Python float power, or a column of them, one row per level."""
        return self.p + s * (corner - self.p)

    def stage(self, k: int) -> Isotopy:
        """Stage k under the end rule, at time t the one-level loop over
        stage 1's map at t."""
        (lo,), (hi,) = self.corners(k, k)

        def loop(t: float) -> LocalMap:
            return _LevelLoop(self, k, k, self.first.map_at(t))

        return Isotopy.from_motion(Box(lo, hi), loop, lambda: loop(1.0))

    def _power(self, y: np.ndarray, levels) -> np.ndarray:
        """S^levels of the (3, m) coordinate rows y, for one integer level
        count or one per row: (y - p) r^levels + p, the power applied in
        factors that stay finite and normal, so p stays p at any level."""
        if isinstance(levels, int) and abs(levels) <= self._span:
            # one count for every row: one Python float factor, bitwise the
            # array path's and a tenth cheaper on the census's one-row steps
            return y if levels == 0 else (y + self._neg_p) * self.r**levels + self._p_col
        levels = np.asarray(levels)
        still = levels == 0
        if still.all():
            return y
        d = y + self._neg_p
        while np.abs(levels).max() > self._span:
            part = np.clip(levels, -self._span, self._span)
            d = d * self.r ** part
            levels = levels - part
        d = d * self.r ** levels + self._p_col
        # S^0 is the identity, bitwise
        return np.where(still, y, d) if still.any() else d

    def _through(self, h: LocalMap, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """h on the (3, m) coordinate rows y that V_1 holds, and which rows
        those are: every row, where p lies in V_1 and so V_1 is the hull."""
        if self._dmin == 0.0:
            return h.apply_array(y.T).T, np.ones(y.shape[1], dtype=bool)
        held = self.first.support.contains_array(y.T)
        if not held.any():
            return y, held
        z = y.copy()
        _scatter(z, held, h.apply_array(y.compress(held, axis=1).T).T)
        return z, held

    def _skip(self, y: np.ndarray, todo: int) -> tuple[np.ndarray, np.ndarray]:
        """The rows carried to the first level whose V can hold them, at
        most todo levels on, and the number of levels each skipped.  A row
        at distance d from p lies in no V_k with r^(k-1) dmin > d, so it
        skips s = ceil(log(d / dmin) / log r) levels, or one less where
        V_s's near face, r^(s-1) dmin from p, could still hold it in floats
        (``_near_faces``); a row s carries past level todo waits there."""
        if self._dmin == 0.0:
            return y, np.zeros(y.shape[1], dtype=np.int64)
        a = np.abs(y + self._neg_p)
        # the three rows folded: a reduction over a length-3 axis is slower
        d = np.maximum(np.maximum(a[0], a[1]), a[2])
        with np.errstate(divide="ignore"):
            s = np.ceil(np.log(d / self._dmin) / self._log_r)
        skip = np.minimum(s, todo)
        far = skip >= 1.0
        skip = np.where(far, skip, 1.0).astype(np.int64)
        near = (s <= todo) & (d >= self._near.take(np.minimum(skip, len(self._near)) - 1))
        skip = np.where(far, skip - near, 0)
        far = skip >= 1
        if far.any():
            y = y.copy()
            _scatter(y, far, self._power(y.compress(far, axis=1), -skip.compress(far)))
        return y, skip


def _near_faces(dmin: float, r: float, p_max: float, span: int) -> np.ndarray:
    """Per level k = 1, 2, ..., a distance from p below that of V_k's near
    face, r^(k-1) dmin, by more than the float error of that face as
    ``Similarity.corners`` forms it from p, whose largest coordinate is
    p_max, and of a row's distance from p: a few ulps of the face and of
    p_max.  A row no farther from p than that might lie in V_k in floats.
    The levels end where the bound reaches 0, or at span, with -inf: from
    there on every row might."""
    eps = np.finfo(float).eps
    faces = dmin * r ** np.arange(span) * (1.0 - 4.0 * eps) - 2.0 * eps * p_max
    return np.append(faces[faces > 0.0], -np.inf)


# a row's ``_Rounds.steps`` before its first round, once done, and once
# g left it in place, so that it waits at every level
_FRESH, _DONE, _STILL = -1, -2, np.iinfo(np.int64).max


class _Rounds:
    """The rounds of g = S^-1 h_1 that a ``Film``'s level loops from
    level 1 ran on the n rows of its curve, indexed by position, so that
    a loop to the same or a later level takes up where the last one
    stopped and one to a smaller level starts afresh.  A loop is handed
    only the rows inside its support, so a row no loop held stays
    _FRESH.  A film is their one holder: a loop given no rounds starts
    afresh and keeps nothing.

    Per row, ``steps`` is the level the row waits at, with ``y`` its level
    coordinates and ``moved`` whether V_1 held it; or _STILL, where g left
    it bitwise in place, so it waits at every level; or _DONE, where g
    carried it out of hull(V_1 u {p}), with ``y`` its image; or _FRESH.
    A row the distance skip carried to the last level, the first whose V
    could hold it or the cap, is left fresh, so a later level skips it
    afresh, maybe past that level (one multiply rounds otherwise than
    steps do).  ``todo`` is the level the rounds reached, -1 before any
    loop ran."""

    def __init__(self, n: int) -> None:
        self.todo = -1
        self.steps, self.moved, self.y = np.full(n, _FRESH), np.zeros(n, dtype=bool), np.empty((3, n))

    def advance(self, sim: Similarity, x: np.ndarray, at: np.ndarray, todo: int, out):
        """``_start`` on the curve's rows at positions at, the (3, m)
        coordinate rows x, taking up the rows a loop ran before where they
        stopped.  Where each row stands is written back once the loop
        ends, so a loop that raises leaves every row where it stood."""
        if todo < self.todo:  # a smaller level starts afresh
            self.__init__(len(self.steps))
        ends, dones, fresh = [], [], None
        if self.todo >= 0:
            steps = self.steps.take(at)
            done = np.flatnonzero(steps == _DONE)
            _scatter(out, done, self.y.take(at.take(done), axis=1))
            ends.append(self._rows(at, np.flatnonzero(steps >= todo), steps))
            # the rows below level todo take their next rounds
            go = np.flatnonzero((steps >= 0) & (steps < todo))
            _loop(sim, 1, todo, out, ends, dones, *self._rows(at, go, steps))
            fresh = np.flatnonzero(steps == _FRESH)
            x = x.take(fresh, axis=1)
        self.todo = todo
        ends = _start(sim, 1, todo, x, fresh, out, ends, dones)
        if ends is not None:
            kept = at.take(ends[0])
            _scatter(self.y, kept, ends[1])
            self.moved[kept], self.steps[kept] = ends[2], ends[3]
        if dones:
            places = np.concatenate(dones)
            _scatter(self.y, at.take(places), out.take(places, axis=1))
            self.steps[at.take(places)] = _DONE
        return ends

    def _rows(self, at: np.ndarray, places: np.ndarray, steps: np.ndarray) -> tuple:
        """The places, y, V_1 flags and steps of the rows at places in at."""
        kept = at.take(places)
        return places, self.y.take(kept, axis=1), self.moved.take(kept), steps.take(places)


def _start(sim: Similarity, first: int, todo: int, x, rows, out, ends: list, dones: list):
    """The rounds to level todo of the (3, m) coordinate rows x, at level
    first and at places rows (all of them where None): carried to level
    1, past the levels whose V_1 they cannot meet, and through ``_loop``.
    The images of the rows done go into out, coordinate rows as x is, and
    their places onto dones.  Returns the places, y, V_1 flags and steps
    of the rows left at level todo, those on ends included, or None."""
    if x.shape[1]:
        rows = np.arange(x.shape[1]) if rows is None else rows
        y, skip = sim._skip(sim._power(x, 1 - first), todo)
        moved = np.zeros(len(rows), dtype=bool)
        wait = skip == todo
        if wait.any():
            ends.append((*_kept(wait, rows, y, moved), np.full(int(wait.sum()), _FRESH)))
            rows, y, moved, skip = _kept(~wait, rows, y, moved, skip)
        _loop(sim, first, todo, out, ends, dones, rows, y, moved, skip)
    return [np.concatenate(part, axis=-1) for part in zip(*ends)] if ends else None


def _loop(sim: Similarity, first: int, todo: int, out, ends, dones, rows, y, moved, steps) -> None:
    """The rounds of ``_start`` on the rows at places rows, below level
    todo, each row put on ends or dones as it stops."""
    h1 = sim.first.time_one()
    while len(rows):
        z, held = sim._through(h1, y)
        moved |= held
        # S^-1 carries a row out of the hull exactly when it lies
        # outside S(hull): it is done, at S^(first-1+s) of z
        done = ~sim._hull_2.contains_array(z.T)
        if done.any():
            image = done & moved
            if image.any():
                levels = first - 1 + steps.compress(image)
                final = sim._power(z.compress(image, axis=1), levels)
                _scatter(out, rows.compress(image), final)
            dones.append(rows.compress(done))
            rows, y, z, moved, steps = _kept(~done, rows, y, z, moved, steps)
        stepped = sim._power(z, -1)
        # a row g leaves bitwise in place stays there at every level;
        # the three rows ANDed, as in Box.contains_array
        same = stepped.view(np.int64) == y.view(np.int64)
        y, steps = stepped, np.where(same[0] & same[1] & same[2], _STILL, steps + 1)
        stop = steps >= todo
        if stop.any():
            ends.append(_kept(stop, rows, y, moved, steps))
            rows, y, moved, steps = _kept(~stop, rows, y, moved, steps)


@dataclass
class MoveSequence:
    """A replayable unbounded stream of stages inside a compact container:
    stage k is an isotopy H_k supported in V_k = ``stage(k).support``.

    A stream is given by its ``stage_fn``, 1-based and pure, or declared
    by its ``similarity`` alone, whose ``stage`` is then its stage
    function.  Stages and tail tables are memoized.
    """

    container: Box
    stage_fn: Callable[[int], Isotopy] | None = None
    similarity: Similarity | None = None
    _cache: dict = field(default_factory=dict, repr=False)
    _tails: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if (self.stage_fn is None) == (self.similarity is None):
            raise ValueError("a stream takes a stage function or a similarity, exactly one")
        self.stage_fn = self.stage_fn or self.similarity.stage

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
        """The tail table of V_1..V_last, built once per last stage; a
        declared stream's reads its supports off the declaration and builds
        no stage."""
        if last not in self._tails:
            sim = self.similarity
            self._tails[last] = (
                TailTable.build(self.boxes(1, last))
                if sim is None
                else TailTable.from_corners(*sim.corners(1, last))
            )
        return self._tails[last]

    @property
    def ball_center(self) -> np.ndarray | None:
        """The point the supports strictly decrease around: p, where the
        stream is declared with no fixed box and V_1 holds p in its
        interior, so that each V_(k+1) = S(V_k) lies inside V_k; else None."""
        sim = self.similarity
        if sim is None or sim.fixed is not None:
            return None
        return sim.p if sim.first.support.contains_array(sim.p, strict=True) else None


# the hypotheses the conditions serve, in the order a verdict names them
HYPOTHESES = UNIFORM_CONVERGENCE, COMPACTNESS = "uniform_convergence", "compactness"


@dataclass(frozen=True)
class Condition:
    """A sufficient condition for one hypothesis, and whether it holds."""

    name: str
    hypothesis: str
    holds: bool


@dataclass(frozen=True)
class HypothesisReport:
    """Tail-union diameters, the disjointness witness and one row per
    sufficient condition, which ``failing`` reads the verdict off."""

    tail_diameters: tuple[tuple[int, float], ...]
    disjoint_supports: bool
    conditions: tuple[Condition, ...]

    @property
    def failing(self) -> str | None:
        """The first hypothesis that no holding condition serves, or None."""
        served = {c.hypothesis for c in self.conditions if c.holds}
        return next((h for h in HYPOTHESES if h not in served), None)

    @property
    def verdict(self) -> str:
        return "pass" if self.failing is None else "fail"

    def to_lines(self) -> list[str]:
        tails = "; ".join(f"{n}:{d:.17g}" for n, d in self.tail_diameters)
        held = {c.name: c.holds for c in self.conditions}
        # a fail numbers the failing hypothesis's first row, counting from 1
        row = next((i for i, c in enumerate(self.conditions, 1) if c.hypothesis == self.failing), None)
        return [
            f"tail_diameters: {tails}",
            f"containment_ok: {str(held.get('containment')).lower()}",
            f"disjoint_supports: {str(self.disjoint_supports).lower()}",
            f"verdict: {self.verdict}" + (f" (condition {row})" if row else ""),
        ]


# image-separation floor below which the injectivity verdict is fail
INJECTIVITY_THRESHOLD = 1e-3


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

    @property
    def injectivity(self) -> str:
        """The injectivity verdict: fail when two probed points come out
        closer than ``INJECTIVITY_THRESHOLD``."""
        return "fail" if self.min_image_separation < INJECTIVITY_THRESHOLD else "pass"

    def to_lines(self) -> list[str]:
        return [
            f"sup_deviation: {self.sup_deviation:.17g}",
            f"min_image_separation: {self.min_image_separation:.17g}",
            f"unsettled_points: {self.unsettled_points}",
            f"budget_exhausted: {str(self.budget_exhausted).lower()}",
        ]


# -- finite truncations ------------------------------------------------------


def truncated_map(seq: MoveSequence, n: int, local: float = 1.0, rounds=None) -> LocalMap:
    """Stages 1..n-1 at time 1, then stage n at its local time, applied in
    stage order as one map (``_stages``), on a ``Film``'s rounds if given."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n == 0:
        return IdentityMap(support=seq.container)
    return _stages(seq, 1, n, local, rounds)


def _stages(seq: MoveSequence, first: int, last: int, local: float = 1.0, rounds=None) -> LocalMap:
    """Stages first..last, the last at its local time, applied in stage
    order: a declared stream's as its level loop, any other's as one
    composite of the stage maps whose support boxes the container with
    the parts' own supports, so it holds whether or not the stages stay
    inside the container."""
    if seq.similarity is not None:
        return _LevelLoop(seq.similarity, first, last, seq.similarity.first.map_at(local), rounds)
    parts = [seq.time_one_map(k) for k in range(first, last)] + [seq.stage(last).map_at(local)]
    return CompositeMap(parts, support=bounding_box([seq.container] + [m.support for m in parts]))


class _LevelLoop(LocalMap):
    """Stages first..last of a declared stream, the last at stage 1's map
    ``h_last`` = h_1(t), as one loop over levels.  Stage k is
    S^(k-1) h_1 S^(1-k), h_1 being stage 1's map at time 1, so with
    g = S^-1 h_1 the stages are S^(last-1) h_1(t) g^(last-first) S^(1-first).
    No box and no frame is built for a level, so none rounds to a zero
    scale or overflows at any depth, and the powers of S are applied in
    factors that stay finite.

    A row is carried to level 1 by S^(1-first) and then takes one step of
    g per round, the rows V_1 holds going through one h_1 call.  S maps
    hull(V_1 u {p}) into itself and h_1 is the identity outside V_1, so a
    row that g carries out of that hull never comes back: it is done, at
    S^(first-1+s) of its h_1 image after s steps, or where it started if
    V_1 never held it.  A row that a step leaves bitwise in place stays
    there at every level.  Where p lies outside V_1, at sup-norm distance
    dmin from it, a row at distance d from p can lie in V_k only if
    r^(k-1) dmin <= d, so it first skips straight to the first level
    whose V can hold it, in one multiply (``Similarity._skip``), and its
    first round is at that level.  The support is the hull of V_first
    and V_last, which holds every V_k between them.  A one-level loop,
    stage k alone, takes no step of g, and its inverse is the one-level
    loop over h_last's inverse.

    A loop is its rounds (``_start``) to level last, then h_last, on the
    rows inside the support.  It takes its rounds as an argument: a
    ``Film``'s, on the rows of the film's curve from level 1, resumed
    where the film's last loop stopped, so its frames run each round
    once; or None, fresh rounds that nothing keeps.
    """

    def __init__(self, sim: Similarity, first: int, last: int, h_last: LocalMap, rounds=None):
        self.sim, self.first, self.last = sim, first, last
        self.h_last, self.rounds = h_last, rounds
        # V_first..V_last lie in the hull of the first and the last
        self.support = bounding_box([sim.box(first), sim.box(last)])

    def apply_array(self, pts: np.ndarray) -> np.ndarray:
        return self._on_support(pts, self._run, at=self.rounds is not None)

    def _inverted(self) -> "_LevelLoop":
        if self.first != self.last:
            raise NotImplementedError("only a one-level loop has an inverse")
        return _LevelLoop(self.sim, self.first, self.last, self.h_last.inverse())

    def _run(self, q: np.ndarray, at: np.ndarray | None = None) -> np.ndarray:
        """The rows q, at positions at of the film's curve where the loop
        has rounds, through the rounds to level last, then h_last."""
        sim, todo = self.sim, self.last - self.first
        x = q.T
        # a row no map moves is where it started
        out = x.copy()
        if self.rounds is None:
            ends = _start(sim, self.first, todo, x, None, out, [], [])
        else:
            ends = self.rounds.advance(sim, x, at, todo, out)
        if ends is not None:
            places, y, moved = ends[:3]
            z, held = sim._through(self.h_last, y)
            moved |= held
            if moved.any():
                z = z.compress(moved, axis=1)
                levels = np.full(z.shape[1], self.last - 1)
                _scatter(out, places.compress(moved), sim._power(z, levels))
        return out.T


def _kept(keep: np.ndarray, *arrays: np.ndarray) -> list[np.ndarray]:
    """Each per-row array, 1-D or (3, m) coordinate rows, with the columns
    keep marks, read by ``compress``."""
    return [a.compress(keep, axis=-1) for a in arrays]


def apply_truncated(seq: MoveSequence, n: int, pts: np.ndarray) -> np.ndarray:
    return truncated_map(seq, n).apply_array(pts)


def map_curve(m: LocalMap, curve: PLCurve) -> PLCurve:
    """Image of a curve's vertices under a map."""
    return PLCurve(m.apply_array(curve.points), closed=curve.closed)


class Film:
    """The frames of a curve under a stream's glued schedules, to any
    depth, and the one holder of what they reuse: the level loop's
    ``rounds`` on the curve (None where the stream has no declaration),
    which are per level of g and so serve every depth, the ``last``
    frame drawn, with its xy crossing ``search`` and its ``texts``, the
    text of its file and that of its points as its drawing prints them,
    each with its rows' byte offsets (``geometry.curve_texts``), and the
    ``witness`` of the last frame taken where its xy view was degenerate:
    the pairs that made it so (``diagram.find_crossings``)."""

    def __init__(self, seq: MoveSequence, curve: PLCurve) -> None:
        self.seq, self.curve = seq, curve
        self.last = self.search = self.texts = self.witness = None
        self.rounds = None if seq.similarity is None else _Rounds(len(curve.points))

    def take(self, frame: PLCurve) -> list:
        """The crossings of frame, the curve's image at some time, with its
        texts made, both against the last frame: only the segments whose xy
        ends moved since are searched, and only the vertices whose bits
        moved are printed and spliced into the last frame's texts.  The
        witness is tested first, so a frame whose xy view it still makes
        degenerate walks no candidate pair.  The frame is the last from
        then on; a degenerate projection raises ValueError and keeps the
        last."""
        search = diagram.xy_search(frame, self.last, self.search, self.witness)
        self.witness = search.witness
        crossings = diagram.find_crossings(frame, search)
        self.texts = curve_texts(frame, self.last, self.texts)
        self.last, self.search = frame, search
        return crossings


# -- hypothesis checking -----------------------------------------------------


def tail_boxes(seq: MoveSequence, after: int, horizon: int) -> list[Box]:
    """Supports V_k for k in (after, horizon]."""
    return seq.boxes(after + 1, horizon)


def check_hypotheses(seq: MoveSequence, horizon: int, threshold: float) -> HypothesisReport:
    """Tail-union diameters, the disjointness witness and the conditions
    ``tails`` (diam V_horizon < threshold, for uniform convergence) and
    ``containment`` (for compactness), read off the tail table to V_horizon."""
    if horizon < 2:
        raise ValueError(f"horizon must be >= 2, got {horizon}")
    if not (math.isfinite(threshold) and threshold > 0):
        raise ValueError(f"threshold must be positive and finite, got {threshold}")
    tails = seq.tail_table(horizon)
    diameters = tuple(enumerate(tails.diam.tolist(), start=1))
    # lo <= hi, so every V_k lies strictly inside iff the least wall margin is positive
    margin = np.minimum(tails.lo - seq.container.lo, seq.container.hi - tails.hi).min()
    blocks = _upper_blocks(tails.lo, tails.hi, boxes_meet)
    disjoint = not any(np.triu(block, k=1).any() for block in blocks)
    shrink = Condition("tails", UNIFORM_CONVERGENCE, diameters[-1][1] < threshold)
    inside = Condition("containment", COMPACTNESS, bool(margin > 0))
    return HypothesisReport(diameters, disjoint, (shrink, inside))


def find_ball_factoring(seq: MoveSequence, horizon: int) -> tuple[float, int | None] | None:
    """(epsilon, n0) with V_n0 c B_epsilon(p) c V_1, read off a ball
    stream's declaration, or None for a stream with no ``ball_center`` p.
    epsilon is half the wall distance from p to V_1, and n0 the least
    k <= horizon whose V_k has every corner strictly inside the ball, by
    ``math.hypot``, which no scale underflows, or None if no V_k fits yet.
    V_(k+1) = S(V_k) lies in V_k by construction, and no V_k past n0 is
    formed.  Raises ValueError when epsilon rounds to 0, as it does for a
    p the least subnormal inside V_1's wall: no ball fits."""
    p, sim = seq.ball_center, seq.similarity
    if p is None:
        return None
    eps = 0.5 * sim.first.support.wall_distance(p)
    if eps == 0.0:
        raise ValueError("no ball about p fits strictly inside the first region")
    for k in range(1, horizon + 1):
        if all(math.hypot(*d) < eps for d in (sim.box(k).corners() - p).tolist()):
            return eps, k
    return eps, None


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
    diam(V_{k+1} u ... u V_{k_budget}) < tol.  A declared stream's point
    takes the level loop's skip and g steps, so no stage map is built.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be positive and finite, got {tol}")
    tails = seq.tail_table(k_budget)
    sim = seq.similarity
    x = np.array(p, dtype=float)[None, :]
    if sim is not None:
        y, (skip,) = sim._skip(x.T, k_budget)
    # one point at a time; all census points as one array is ROADMAP item 6
    for k in range(k_budget):
        if not tails.in_later_support(x, k)[0]:
            return LimitValue(x[0], "settled", k)
        if tails.diam[k] < tol:
            return LimitValue(x[0], "tol-converged", k)
        if sim is None:
            x = seq.time_one_map(k + 1).apply_array(x)
        elif k >= skip:
            y = sim._power(sim._through(sim.first.time_one(), y)[0], -1)
            x = sim._power(y, k + 1).T
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


def glue_schedule(seq: MoveSequence, n: int, rounds=None) -> Isotopy:
    """The n-stage time-compressed gluing: stage k runs over
    [t_{k-1}, t_k], and the map freezes at t >= t_n (from n = 54 on, t_n
    rounds to 1 and the map freezes only at t = 1).  Its truncations run
    on a ``Film``'s rounds where given."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    t_n = _slot_end(n)

    def motion(t: float) -> LocalMap:
        if t >= t_n:
            return truncated_map(seq, n, rounds=rounds)
        k = stage_of(t, max_k=n)
        t0, t1 = _slot_end(k - 1), _slot_end(k)
        return truncated_map(seq, k, (t - t0) / (t1 - t0), rounds)

    return Isotopy.from_motion(seq.container, motion, lambda: motion(1.0))
