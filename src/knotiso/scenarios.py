"""Example curves and move streams exercising the countable-composition
machinery, with declared expected verdicts for the regression suite.

Every curve here is invented geometry anchored to a combinatorial pattern:
loop counts, crossing deltas, box nesting, and decay ratios.  Loop-bearing
curves are built by the reverse trick: apply invertible loop-insert maps
to a plain baseline, so each untying move is the exact inverse of the
insert that created its loop.  A loop chain (``_loop_chain``) ties m
loops in each of its boxes, and every box carries the same canonical
insert framed into it: that insert runs once per process, on the straight
canonical strand (``canonical.tied_strand``), and the chain frames the
tied strand into all its boxes at once, which in exact arithmetic is each
box's insert applied to its straight baseline.

Every stream but the interval counterexample is self-similar, and is
declared once, as its first stage, a similarity S(x) = p + r (x - p) and
an optional fixed box, an ``engine.Similarity`` its ``MoveSequence``
takes in place of a stage function: stage 1 is an isotopy supported in
V_1, and stage k is stage 1 carried into V_k = S^(k-1)(V_1), one stage
rule for all of them, so every stage and truncation reads the
declaration alone.  Every stream here has r a power of two, so
s = r^(k-1) is exact.  The chain
streams (``countable_*``, ``trefoil_chain``) untie the loops of V_1 and
halve toward p on the x-axis, and each chain curve ties its loops in the
stream's own V_1..V_20; ``trefoil_chain_extended`` is ``trefoil_chain``
with the segment it appends at p declared as the fixed box, which every
support holds.  ``recursive_r1`` (an insert, then an unsquish) halves and
``fox_remarkable`` (a loop pair untied, then a squish) quarters toward
p = 0.

Box corners are written as coordinate tuples; the points a scenario
probes are float arrays.  A scenario declares its curve, its stream and
its expectations, nothing more: its name is its registry key, and the
point its supports strictly decrease around, where they do, is read off
the stream's declaration (``MoveSequence.ball_center``), and so is its
ball factoring (``engine.find_ball_factoring``).
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .canonical import CANONICAL_BOX, conjugated_insert, tied_strand
from .engine import HYPOTHESES, UNIFORM_CONVERGENCE, Isotopy, MoveSequence, Similarity
from .geometry import Box, PLCurve, boxes_meet
from .maps import LocalMap, PowerMap1D, UnsquishParams, _negative_zeros, box_frames, frame_refusals
from .moves import chained_isotopy, cone_isotopy, reversed_isotopy, unsquish_isotopy

# loops per chain, one per stage box V_1..V_LOOPS; also the levels
# recursive_r1 refines its wedge curve for
_LOOPS = 20
_PTS_PER_BOX = 100


@dataclass(frozen=True)
class ExpectedVerdicts:
    """The declared verdicts: the failing hypothesis, or None, and injectivity."""

    failing: str | None
    injectivity: str  # "pass" | "fail"

    def __post_init__(self) -> None:
        if self.failing not in (None, *HYPOTHESES):
            raise ValueError(f"no hypothesis is named {self.failing!r}")
        if self.injectivity not in ("pass", "fail"):
            raise ValueError("the injectivity verdict must be 'pass' or 'fail'")


@dataclass(frozen=True, eq=False)
class Scenario:
    """A curve, the move stream acting on it and its declared verdicts.

    ``probe_pairs`` is a (k, 2, 3) array of point pairs for the
    injectivity probe and ``census_samples`` a (k, 3) array of points for
    the t = 1 census.
    """

    initial_curve: PLCurve
    moves: MoveSequence
    expected: ExpectedVerdicts
    probe_pairs: np.ndarray
    census_samples: np.ndarray


# -- loop chains --------------------------------------------------------------


def _loop_chain(
    x_start: float, x_end: float, lo: np.ndarray, hi: np.ndarray, m: int, untied=False
) -> np.ndarray:
    """The x-axis strand from x_start to x_end with m loops tied in each
    box of the stacked (n, 3) corners lo and hi, but the boxes flagged
    ``untied`` (one flag per box, or one for all), refined alike but left
    straight.

    Each box gets m * _PTS_PER_BOX vertices: the canonical strand, tied
    (``tied_strand``) or left straight, framed into the box.  Every box is
    framed at once by ``box_frames``, so each piece is bitwise what the
    box's ``AffineMap.box_to_box`` frame makes of the strand.  The boxes
    must be centred on the x-axis, strictly inside the span, pairwise
    disjoint (closed boxes that meet raise ValueError) and each framed as
    an ``AffineMap`` takes it (``frame_refusals``), else ValueError.
    """
    meet = boxes_meet(lo, hi)
    np.fill_diagonal(meet, False)
    if meet.any():
        i, j = np.argwhere(meet)[0]
        raise ValueError(f"insert boxes overlap: {Box(lo[i], hi[i])} meets {Box(lo[j], hi[j])}")
    scale, shift = box_frames(CANONICAL_BOX, lo, hi)
    # each zero shift as -0.0, as an AffineMap keeps it
    shift = _negative_zeros(shift)
    # the canonical box is centred at the origin: a frame's shift is its box's centre
    off_axis = shift[:, 1:].any(axis=1)
    if off_axis.any():
        k = off_axis.argmax()
        raise ValueError(f"insert box {Box(lo[k], hi[k])} is not centred on the x-axis")
    if not ((x_start < lo[:, 0]) & (hi[:, 0] < x_end)).all():
        raise ValueError("box refinement escapes the arc span")
    # an AffineMap's second refusal holds wherever its first does
    _, no_inverse, _ = frame_refusals(scale, shift)
    if no_inverse.any():
        k = no_inverse.any(axis=1).argmax()
        raise ValueError(f"insert box {Box(lo[k], hi[k])} has no finite invertible frame")
    n = m * _PTS_PER_BOX
    xs = np.linspace(-1.0, 1.0, n)
    # the strands coordinate-major, a row per axis
    tied_rows, straight_rows = tied_strand(m, n).T, (xs, np.zeros(n), np.zeros(n))
    order = np.argsort(lo[:, 0], kind="stable")
    tied = ~np.broadcast_to(untied, len(lo))[order, None]
    scale, shift = scale[order], shift[order]
    chain = np.empty((len(order) * n + 2, 3))
    chain[0], chain[-1] = (x_start, 0.0, 0.0), (x_end, 0.0, 0.0)
    for a in range(3):
        # axis a of every piece at once, in x order
        strands = np.where(tied, tied_rows[a], straight_rows[a])
        chain[1:-1, a] = (strands * scale[:, a, None] + shift[:, a, None]).ravel()
    return chain


def _untie(box: Box, m: int) -> Isotopy:
    """The stage that unties a chain box's m loops: their insert, reversed."""
    return reversed_isotopy(conjugated_insert(box, m))


def _closed_curve(active: np.ndarray) -> PLCurve:
    """Close an x-axis arc through a rectangular return path below it."""
    ret = [[active[-1, 0], -1.2, 0.0], [active[0, 0], -1.2, 0.0]]
    return PLCurve(np.concatenate([active, ret]), closed=True)


# -- countable loop removal (disjoint half-scaling boxes) ---------------------


def _countable_stream(limit_x: float, m: int, container: Box) -> MoveSequence:
    """Untie m loops per stage, in disjoint boxes on the x-axis halving
    toward (limit_x, 0, 0)."""
    v1 = Box.from_center((limit_x - 0.25, 0.0, 0.0), (1 / 32, 1 / 16, 1 / 16))
    return MoveSequence(container, similarity=Similarity(_untie(v1, m), (limit_x, 0.0, 0.0), 0.5))


def build_countable_r1() -> Scenario:
    """A circle with countably many shrinking loops; each move removes the
    next loop inside its own disjoint box."""
    moves = _countable_stream(2.0, 1, Box((-1.0, -2.0, -1.0), (3.0, 1.0, 1.0)))
    curve = _closed_curve(_loop_chain(-0.5, 2.5, *moves.similarity.corners(1, _LOOPS), 1))

    pairs = np.array([
        ((0.5, 0.3, 0.0), (0.5, -0.3, 0.0)),
        ((1.5, 0.2, 0.0), (1.5, -0.2, 0.0)),
        ((0.0, 0.1, 0.0), (0.0, 0.1, 0.2)),
        ((2.2, 0.1, 0.0), (2.4, 0.1, 0.0)),
        ((1.9, 0.05, 0.0), (1.9, -0.05, 0.0)),
    ])
    census = np.array([(2.0 - 2.0**-j, 0.0, 0.0) for j in range(1, 9)] + [(2.0, 0.0, 0.0)])
    return Scenario(
        initial_curve=curve,
        moves=moves,
        expected=ExpectedVerdicts(None, "pass"),
        probe_pairs=pairs,
        census_samples=census,
    )


def build_countable_r2(stage: int) -> Scenario:
    """One of two chained untying passes over loop pairs: stage 1 removes
    the pairs near x=2 from the curve carrying both passes' pairs, stage 2
    the pairs near x=4 from what stage 1 leaves; each pass has disjoint
    boxes, and the two passes' boxes are disjoint too."""
    if stage not in (1, 2):
        raise ValueError(f"stage must be 1 or 2, got {stage}")
    container = Box((-1.0, -2.0, -1.0), (5.0, 1.0, 1.0))
    passes = [_countable_stream(x, 2, container) for x in (2.0, 4.0)]
    (lo1, hi1), (lo2, hi2) = (p.similarity.corners(1, _LOOPS) for p in passes)
    lo, hi = np.concatenate([lo1, lo2]), np.concatenate([hi1, hi2])
    # stage 2 starts from what stage 1 leaves: the first pass's boxes straight
    untied = np.repeat([stage == 2, False], _LOOPS)
    curve = _closed_curve(_loop_chain(-0.5, 4.5, lo, hi, 2, untied))

    if stage == 1:
        pairs = np.array([
            ((0.5, 0.3, 0.0), (0.5, -0.3, 0.0)),
            ((1.9, 0.05, 0.0), (1.9, -0.05, 0.0)),
            ((3.0, 0.2, 0.0), (3.0, -0.2, 0.0)),
        ])
    else:
        pairs = np.array([
            ((3.9, 0.05, 0.0), (3.9, -0.05, 0.0)),
            ((2.5, 0.2, 0.0), (2.5, -0.2, 0.0)),
            ((4.3, 0.1, 0.0), (4.45, 0.1, 0.0)),
        ])
    limit = 2.0 * stage
    return Scenario(
        initial_curve=curve,
        moves=passes[stage - 1],
        expected=ExpectedVerdicts(None, "pass"),
        probe_pairs=pairs,
        census_samples=np.array([(limit - 2.0**-j, 0.0, 0.0) for j in range(1, 7)]),
    )


# -- recursive loop insertion with unsquish protection ------------------------

_REC_SCALE = 0.05  # the wedge length unit
_REC_EPS = 0.1
_REC_HALF = (
    (6.0 + _REC_EPS) / 2.0 * _REC_SCALE,
    (2.0 + _REC_EPS) / 2.0 * _REC_SCALE,
    (2.0 + _REC_EPS) / 2.0 * _REC_SCALE,
)
# relay apexes q_k on the upper wedge arm, halving toward the vertex
_REC_APEX_DIR = np.array([-2.5, 2.0 / 3.0, 0.0])
# V_1 around the wedge vertex; V_k is V_1 scaled about the vertex by 2^(1-k)
_REC_V1 = Box.from_center((0, 0, 0), _REC_HALF)


def rec_apex(k: int) -> np.ndarray:
    """q_k: the relay apex after stage k (q_0 is the initial grab point)."""
    return _REC_APEX_DIR * (_REC_SCALE * 2.0**-k)


def rec_insert_region(k: int) -> Box:
    """The loop-insert region B_k around the pull from q_{k-1} to q_k."""
    s = _REC_SCALE * 2.0**-k
    return Box((-5.3 * s, 0.26 * s, -0.5 * s), (-2.2 * s, 1.74 * s, 0.5 * s))


def rec_unsquish_params(k: int, c: float) -> UnsquishParams:
    """The level-k unsquish, between V_k shrunk by 0.9 and by 0.45."""
    box = _REC_V1.scaled_about_center(0.5 ** (k - 1))
    return UnsquishParams(
        outer=box.scaled_about_center(0.9),
        inner=box.scaled_about_center(0.45),
        apex=rec_apex(k),
        c=c,
    )


def rec_insert(k: int) -> Isotopy:
    """The level-k insert: pull the relay apex from q_{k-1} to q_k in B_k."""
    return cone_isotopy(rec_insert_region(k), rec_apex(k - 1), rec_apex(k))


@functools.cache
def rec_squish_constant() -> float:
    """The unsquish constant c: 0.9 of the next insert's exact
    inverse-Lipschitz constant, capped at 0.95.

    Stage 1's unsquish protects the level-2 insert, and stage k is
    stage 1 carried into V_k by an exact power-of-two scale, so the
    level-2 insert's constant (``ConeMap.inverse_lipschitz``, in closed
    form) bounds every later insert's too.  A module constant: computed
    once, on first call.
    """
    return min(0.95, 0.9 * rec_insert(2).time_one().inverse_lipschitz())


def build_recursive_r1(ablated: bool = False) -> Scenario:
    """Loop inserts marching down the wedge toward its vertex, each
    followed by the unsquish move that protects limit injectivity.

    With ablated=True the unsquish halves are dropped; the insert stream
    alone traps wedge-line pairs in shrinking boxes.
    """
    parts = [rec_insert(1)]
    if not ablated:
        parts.append(unsquish_isotopy(rec_unsquish_params(1, rec_squish_constant())))
    container = Box((-0.6, -0.3, -0.3), (0.3, 0.3, 0.3))
    sim = Similarity(chained_isotopy(parts, _REC_V1), (0.0, 0.0, 0.0), 0.5)
    moves = MoveSequence(container, similarity=sim)

    L = _REC_SCALE
    arm_dir = _REC_APEX_DIR / np.linalg.norm(_REC_APEX_DIR)
    arm_len = 7.8 * L
    radii = [0.0, arm_len]
    for k in range(1, _LOOPS + 1):
        radii.extend(np.linspace(2.2, 5.6, 60) * (L * 2.0**-k) * 1.0343)
    # sorted, without repeats or the vertex
    radii = np.sort(np.clip(np.array(radii), 0.0, arm_len))
    radii = radii[np.append(radii[1:] != radii[:-1], True) & (radii > 0)]
    lower_dir = np.array([arm_dir[0], -arm_dir[1], 0.0])
    wedge = [radii[::-1, None] * arm_dir, np.zeros((1, 3)), radii[:, None] * lower_dir]
    curve = PLCurve(np.concatenate(wedge), closed=False)

    q0 = rec_apex(0)
    pairs = np.array([
        # grab point vs the fixed vertex: the pair the unsquish moves protect
        (q0, (0.0, 0.0, 0.0)),
        (q0, q0 + (0.01, 0.0, 0.0)),
        (q0, q0 + (0.0, 0.01, 0.0)),
        (q0 - (0.005, 0.0, 0.0), q0 + (0.005, 0.0, 0.0)),
        ((-0.05, 0.02, 0.0), (-0.05, -0.02, 0.0)),
    ])
    census = np.array([(0.0, 0.0, 0.0), q0, rec_apex(3)])
    return Scenario(
        initial_curve=curve,
        moves=moves,
        expected=ExpectedVerdicts(None, "pass" if not ablated else "fail"),
        probe_pairs=pairs,
        census_samples=census,
    )


# -- countable connected sum untied shell by shell ----------------------------


def build_trefoil_chain(extended: bool = False) -> Scenario:
    """A chain of summands accumulating at a limit point; move k unties
    summand k inside its shell work box.  Each summand is the insert of
    ``multi_kink_isotopy(3)``: three one-crossing kinks in a row, not a
    trefoil knot.

    The extended variant appends a straight unit segment at the limit
    point and declares it as the stream's fixed box, which every support
    holds, so the tail union diameter is bounded below by the segment
    length.  The box moves no point: the truncations are bitwise the plain
    variant's, so failing condition 1 shows it is sufficient, not necessary.
    """
    container = Box((-1.0, -2.0, -1.0), (4.0, 1.0, 1.0))
    # V_1 is the work box inside the shell between nesting levels 1 and 2
    v1 = Box.from_center((1.90625, 0.0, 0.0), (0.028125, 0.025, 0.025))
    plain = Similarity(_untie(v1, 3), (2.0, 0.0, 0.0), 0.5)
    sim = replace(plain, fixed=Box((2.0, 0.0, 0.0), (3.0, 0.0, 0.0))) if extended else plain
    moves = MoveSequence(container, similarity=sim)
    strand = _loop_chain(-0.5, 2.0, *plain.corners(1, _LOOPS), 3)
    if extended:
        strand = np.concatenate([strand, [[3.0, 0.0, 0.0]]])
    curve = _closed_curve(strand)

    pairs = np.array([
        ((0.5, 0.3, 0.0), (0.5, -0.3, 0.0)),
        ((1.9, 0.05, 0.0), (1.9, -0.05, 0.0)),
        ((2.5, 0.1, 0.0), (2.5, -0.1, 0.0)),
    ])
    census = np.array([(2.0 - 0.1875 * 2.0**-j, 0.0, 0.0) for j in range(1, 7)])
    return Scenario(
        initial_curve=curve,
        moves=moves,
        expected=ExpectedVerdicts(UNIFORM_CONVERGENCE if extended else None, "pass"),
        probe_pairs=pairs,
        census_samples=census,
    )


# -- the remarkable stitch curve: passes hypotheses, fails injectivity --------

_FOX_C = 0.5
# V_1 around the stitch point; V_k is V_1 scaled about it by 4^(1-k)
_FOX_V1 = Box.cube((0, 0, 0), 0.8)


def fox_pair_box_current(k: int) -> Box:
    """Where loop pair k sits when move k runs (after k-1 squishes)."""
    u = 4.0 ** (1 - k)
    return Box.from_center((0.11 * u, 0.0, 0.0), (0.025 * u, 0.03 * u, 0.03 * u))


def fox_untying() -> Similarity:
    """The disjoint stream that unties fox's curve, halving toward the
    stitch point: V_k is loop pair k's box on the curve, which the first
    k - 1 squishes carry onto ``fox_pair_box_current(k)``."""
    return Similarity(_untie(fox_pair_box_current(1), 2), (0.0, 0.0, 0.0), 0.5)


def fox_squish_isotopy() -> Isotopy:
    """Inverse of the unsquish between V_1 and V_1 halved: an exact
    contraction by c toward the stitch point on the inner box."""
    params = UnsquishParams(_FOX_V1, _FOX_V1.scaled_about_center(0.5), apex=np.zeros(3), c=_FOX_C)
    return reversed_isotopy(unsquish_isotopy(params))


def fox_tracked_line() -> np.ndarray:
    """101 evenly spaced ambient points across the first loop pair's span,
    as a (101, 3) array."""
    xs = np.linspace(-0.5, 0.5, 101)
    return np.column_stack([xs, np.zeros_like(xs), np.zeros_like(xs)])


def build_fox_remarkable() -> Scenario:
    """Shrinking loop pairs along an arc into the stitch point; each move
    removes the next pair, then contracts toward that point, dragging a
    countable set of tracked points with it forever.  The curve is tame:
    a disjoint stream (``fox_untying``) unties it to a segment.  Failing
    injectivity is a property of the squish stream, not of the curve."""
    curve = PLCurve(_loop_chain(0.0, 1.5, *fox_untying().corners(1, _LOOPS), 2), closed=False)

    container = Box((-1.0, -1.0, -1.0), (2.0, 1.0, 1.0))

    first = chained_isotopy([_untie(fox_pair_box_current(1), 2), fox_squish_isotopy()], _FOX_V1)
    moves = MoveSequence(container, similarity=Similarity(first, (0.0, 0.0, 0.0), 0.25))

    tracked = fox_tracked_line()
    pairs = np.stack([tracked[:-1], tracked[1:]], axis=1)
    return Scenario(
        initial_curve=curve,
        moves=moves,
        expected=ExpectedVerdicts(None, "fail"),
        probe_pairs=pairs,
        census_samples=tracked,
    )


# -- the interval counterexample ----------------------------------------------


def build_1d_counterexample() -> Scenario:
    """The interval move stream h_k(x) = x^((k+1)/k) on the x-axis.

    Stage k at time t is ``PowerMap1D((k + t) / k)``, whose support is the
    box [0, 1] x [-1/4, 1/4]^2, strictly inside the container: every stage
    has that one support, so condition 1 fails.  On the axis H_n(x) =
    x^(n+1), whose limit, 0 on [0, 1) and 1 at 1, is discontinuous and not
    injective: max |H_n - H_2n| tends to 1/4, and uniform convergence is
    the hypothesis this stream breaks.  The curve, probe pairs and census
    points lie on the axis, where each stage is the interval map itself.
    """

    def stage(k: int) -> Isotopy:
        def power(t: float) -> LocalMap:
            return PowerMap1D((k + t) / k)

        return Isotopy.from_motion(PowerMap1D.support, power, lambda: power(1.0))

    container = Box((-0.5, -0.5, -0.5), (1.5, 0.5, 0.5))
    curve = PLCurve(((0.0, 0.0, 0.0), (1.0, 0.0, 0.0)), closed=False)
    pairs = np.array([
        ((0.2, 0, 0), (0.5, 0, 0)),
        ((0.3, 0, 0), (0.6, 0, 0)),
        ((0.1, 0, 0), (0.4, 0, 0)),
    ], dtype=float)
    census = np.array([(x, 0, 0) for x in (0.3, 0.5, 0.7, 0.9)], dtype=float)
    return Scenario(
        initial_curve=curve,
        moves=MoveSequence(container, stage_fn=stage),
        expected=ExpectedVerdicts(UNIFORM_CONVERGENCE, "fail"),
        probe_pairs=pairs,
        census_samples=census,
    )


# -- registry -----------------------------------------------------------------

SCENARIO_BUILDERS: dict[str, Callable[[], Scenario]] = {
    "countable_r1": build_countable_r1,
    "countable_r2_stage1": lambda: build_countable_r2(1),
    "countable_r2_stage2": lambda: build_countable_r2(2),
    "recursive_r1": build_recursive_r1,
    "trefoil_chain": lambda: build_trefoil_chain(extended=False),
    "trefoil_chain_extended": lambda: build_trefoil_chain(extended=True),
    "fox_remarkable": build_fox_remarkable,
    "1d_counterexample": build_1d_counterexample,
}
