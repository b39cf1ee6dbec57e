"""Example curves and move streams exercising the countable-composition
machinery, with declared expected verdicts for the regression suite.

Every curve here is invented geometry anchored to a combinatorial pattern:
loop counts, crossing deltas, box nesting, and decay ratios.  Loop-bearing
curves are built by the reverse trick: apply invertible loop-insert maps
to a plain baseline, so each untying move is the exact inverse of the
insert that created its loop.  A curve's loops are inserted in one pass:
its insert boxes are pairwise disjoint, so every point is framed into the
canonical box of the one insert box that holds it, and the points of all
boxes go through the shared canonical move together (``_insert_loops``).
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .ball_factoring import NestedFamily
from .canonical import conjugated_insert, insert_parts
from .engine import Isotopy, MoveSequence
from .geometry import Box, PLCurve, Point3, boxes_meet
from .maps import LocalMap, UnsquishParams, estimate_inverse_lipschitz
from .moves import chained_isotopy, cone_isotopy, reversed_isotopy, unsquish_isotopy

# image-separation floor below which the injectivity probe verdict is fail
INJECTIVITY_THRESHOLD = 1e-3

_PTS_PER_BOX = 100


@dataclass(frozen=True)
class ExpectedVerdicts:
    hypotheses: str  # "pass" | "fail"
    failing_condition: int | None
    injectivity: str  # "pass" | "fail"

    def __post_init__(self) -> None:
        if self.hypotheses not in ("pass", "fail") or self.injectivity not in ("pass", "fail"):
            raise ValueError("verdicts must be 'pass' or 'fail'")
        if (self.failing_condition is not None) != (self.hypotheses == "fail"):
            raise ValueError("failing_condition must accompany exactly the fail verdict")


@dataclass(frozen=True)
class Scenario:
    name: str
    initial_curve: PLCurve
    moves: MoveSequence
    expected: ExpectedVerdicts
    declared_decay_ratio: float | None
    probe_pairs: tuple[tuple[Point3, Point3], ...]
    census_samples: tuple[Point3, ...]
    nested_family: NestedFamily | None = None


# -- baseline construction helpers -------------------------------------------


def _axis_points(
    x_start: float, x_end: float, boxes: Sequence[Box], pts_per_box: int = _PTS_PER_BOX
) -> np.ndarray:
    """Vertices along the x-axis from x_start to x_end, refined inside
    each box so loop inserts are resolved."""
    xs = [x_start, x_end]
    for b in boxes:
        xs.extend(np.linspace(b.lo.x, b.hi.x, pts_per_box).tolist())
    xs = np.unique(np.array(xs, dtype=float))
    if xs[0] != x_start or xs[-1] != x_end:
        raise ValueError("box refinement escapes the arc span")
    zeros = np.zeros_like(xs)
    return np.column_stack([xs, zeros, zeros])


def _insert_loops(boxes: Sequence[Box], m: int, pts: np.ndarray) -> np.ndarray:
    """pts after the time-1 maps of ``conjugated_insert(b, m)`` for every box.

    One pass through the canonical move instead of one insert per box, and
    bitwise the same: the boxes are pairwise disjoint (closed boxes that
    meet raise ValueError), each insert maps its box onto itself and fixes
    everything else, and the canonical map acts row by row.
    """
    lo = np.array([b.bound_arrays()[0] for b in boxes])
    hi = np.array([b.bound_arrays()[1] for b in boxes])
    meet = boxes_meet(lo, hi)
    np.fill_diagonal(meet, False)
    if meet.any():
        i, j = np.argwhere(meet)[0]
        raise ValueError(f"insert boxes overlap: {boxes[i]} meets {boxes[j]}")
    # inside[j, i]: box j holds row i, tested one axis at a time over all boxes
    inside = np.ones((len(boxes), len(pts)), dtype=bool)
    for axis, x in enumerate(pts.T):
        inside &= (lo[:, axis, None] <= x) & (x <= hi[:, axis, None])
    rows = [np.nonzero(held)[0] for held in inside]
    # every insert of m loops shares one canonical move, inners[0]
    frames, inners = zip(*(insert_parts(b, m) for b in boxes))
    local = np.concatenate([f.inverse().apply_array(pts[r]) for f, r in zip(frames, rows)])
    moved = inners[0].time_one().apply_array(local)
    out = np.array(pts, dtype=float)
    start = 0
    for f, r in zip(frames, rows):
        out[r] = f.apply_array(moved[start : start + len(r)])
        start += len(r)
    return out


def _closed_curve(active: np.ndarray, y_return: float) -> PLCurve:
    """Close an x-axis arc through a rectangular return path below it."""
    ret = [[active[-1, 0], y_return, 0.0], [active[0, 0], y_return, 0.0]]
    return PLCurve(np.concatenate([active, ret]), closed=True)


# -- countable loop removal (disjoint half-scaling boxes) ---------------------


def _shrinking_boxes(limit_x: float) -> Callable[[int], Box]:
    """Disjoint boxes on the x-axis accumulating at limit_x, half-scaling."""

    def box(k: int) -> Box:
        s = 2.0**-k
        return Box.from_center(
            Point3(limit_x - 0.5 * s, 0.0, 0.0),
            Point3(0.0625 * s, 0.125 * s, 0.125 * s),
        )

    return box


_R1_LOOPS = 20


def build_countable_r1() -> Scenario:
    """A circle with countably many shrinking loops; each move removes the
    next loop inside its own disjoint box."""
    boxes = _shrinking_boxes(2.0)
    loop_boxes = [boxes(k) for k in range(1, _R1_LOOPS + 1)]
    active = _axis_points(-0.5, 2.5, loop_boxes)
    curve = _closed_curve(_insert_loops(loop_boxes, 1, active), y_return=-1.2)

    container = Box(Point3(-1.0, -2.0, -1.0), Point3(3.0, 1.0, 1.0))

    def stage(k: int) -> tuple[Isotopy, Box]:
        b = boxes(k)
        return reversed_isotopy(conjugated_insert(b)), b

    pairs = (
        (Point3(0.5, 0.3, 0.0), Point3(0.5, -0.3, 0.0)),
        (Point3(1.5, 0.2, 0.0), Point3(1.5, -0.2, 0.0)),
        (Point3(0.0, 0.1, 0.0), Point3(0.0, 0.1, 0.2)),
        (Point3(2.2, 0.1, 0.0), Point3(2.4, 0.1, 0.0)),
        (Point3(1.9, 0.05, 0.0), Point3(1.9, -0.05, 0.0)),
    )
    census = tuple(Point3(2.0 - 2.0**-j, 0.0, 0.0) for j in range(1, 9)) + (
        Point3(2.0, 0.0, 0.0),
    )
    return Scenario(
        name="countable_r1",
        initial_curve=curve,
        moves=MoveSequence(stage_fn=stage, container=container),
        expected=ExpectedVerdicts("pass", None, "pass"),
        declared_decay_ratio=0.5,
        probe_pairs=pairs,
        census_samples=census,
    )


_R2_PAIRS = 20


def build_countable_r2(stage: int) -> Scenario:
    """One of two chained untying passes over loop pairs: stage 1 removes
    the pairs near x=2 from the curve carrying both passes' pairs, stage 2
    the pairs near x=4 from what stage 1 leaves; each pass has disjoint
    boxes, and the two passes' boxes are disjoint too."""
    if stage not in (1, 2):
        raise ValueError(f"stage must be 1 or 2, got {stage}")
    boxes1 = _shrinking_boxes(2.0)
    boxes2 = _shrinking_boxes(4.0)
    pass1 = [boxes1(k) for k in range(1, _R2_PAIRS + 1)]
    pass2 = [boxes2(k) for k in range(1, _R2_PAIRS + 1)]
    active = _axis_points(-0.5, 4.5, pass1 + pass2, pts_per_box=2 * _PTS_PER_BOX)
    tied = pass1 + pass2 if stage == 1 else pass2
    curve = _closed_curve(_insert_loops(tied, 2, active), y_return=-1.2)
    boxes = boxes1 if stage == 1 else boxes2

    container = Box(Point3(-1.0, -2.0, -1.0), Point3(5.0, 1.0, 1.0))

    def untie(k: int) -> tuple[Isotopy, Box]:
        b = boxes(k)
        return reversed_isotopy(conjugated_insert(b, m=2)), b

    if stage == 1:
        pairs = (
            (Point3(0.5, 0.3, 0.0), Point3(0.5, -0.3, 0.0)),
            (Point3(1.9, 0.05, 0.0), Point3(1.9, -0.05, 0.0)),
            (Point3(3.0, 0.2, 0.0), Point3(3.0, -0.2, 0.0)),
        )
    else:
        pairs = (
            (Point3(3.9, 0.05, 0.0), Point3(3.9, -0.05, 0.0)),
            (Point3(2.5, 0.2, 0.0), Point3(2.5, -0.2, 0.0)),
            (Point3(4.3, 0.1, 0.0), Point3(4.45, 0.1, 0.0)),
        )
    limit = 2.0 * stage
    return Scenario(
        name=f"countable_r2_stage{stage}",
        initial_curve=curve,
        moves=MoveSequence(stage_fn=untie, container=container),
        expected=ExpectedVerdicts("pass", None, "pass"),
        declared_decay_ratio=0.5,
        probe_pairs=pairs,
        census_samples=tuple(Point3(limit - 2.0**-j, 0.0, 0.0) for j in range(1, 7)),
    )


# -- recursive loop insertion with unsquish protection ------------------------

_REC_SCALE = 0.05  # the wedge length unit
_REC_EPS = 0.1
_REC_HALF = Point3(
    (6.0 + _REC_EPS) / 2.0 * _REC_SCALE,
    (2.0 + _REC_EPS) / 2.0 * _REC_SCALE,
    (2.0 + _REC_EPS) / 2.0 * _REC_SCALE,
)
# relay apexes q_k on the upper wedge arm, halving toward the vertex
_REC_APEX_DIR = np.array([-2.5, 2.0 / 3.0, 0.0])


def rec_box(k: int) -> Box:
    """Nested half-scaling boxes around the wedge vertex."""
    return Box.from_center(Point3(0, 0, 0), _REC_HALF.scaled(2.0 ** (1 - k)))


def rec_apex(k: int) -> Point3:
    """q_k: the relay apex after stage k (q_0 is the initial grab point)."""
    return Point3.from_array(_REC_APEX_DIR * (_REC_SCALE * 2.0**-k))


def rec_insert_region(k: int) -> Box:
    """The loop-insert region B_k around the pull from q_{k-1} to q_k."""
    s = _REC_SCALE * 2.0**-k
    return Box(
        Point3(-5.3 * s, 0.26 * s, -0.5 * s),
        Point3(-2.2 * s, 1.74 * s, 0.5 * s),
    )


def rec_unsquish_params(k: int, c: float) -> UnsquishParams:
    return UnsquishParams(
        outer=rec_box(k).scaled_about_center(0.9),
        inner=rec_box(k).scaled_about_center(0.45),
        apex=rec_apex(k),
        c=c,
    )


def rec_insert(k: int) -> Isotopy:
    """The level-k insert: pull the relay apex from q_{k-1} to q_k in B_k."""
    return cone_isotopy(rec_insert_region(k), rec_apex(k - 1), rec_apex(k))


@functools.cache
def rec_squish_constant() -> float:
    """Inverse-Lipschitz estimate of the next insert, with safety factor.

    The construction is exactly self-similar across levels, so the level-1
    estimate is valid for every k.  A module constant: estimated once, on
    first call.
    """
    est = estimate_inverse_lipschitz(
        rec_insert(2).time_one(), rec_insert_region(2), n_samples=4000, seed=20260823
    )
    return min(0.95, 0.9 * est)


def build_recursive_r1(ablated: bool = False) -> Scenario:
    """Loop inserts marching down the wedge toward its vertex, each
    followed by the unsquish move that protects limit injectivity.

    With ablated=True the unsquish halves are dropped; the insert stream
    alone traps wedge-line pairs in shrinking boxes.
    """
    c = rec_squish_constant()

    def stage(k: int) -> tuple[Isotopy, Box]:
        insert = rec_insert(k)
        if ablated:
            return chained_isotopy([insert], rec_box(k)), rec_box(k)
        squish = unsquish_isotopy(rec_unsquish_params(k, c))
        return chained_isotopy([insert, squish], rec_box(k)), rec_box(k)

    L = _REC_SCALE
    arm_dir = _REC_APEX_DIR / np.linalg.norm(_REC_APEX_DIR)
    arm_len = 7.8 * L
    radii = [0.0, arm_len]
    for k in range(1, 21):
        radii.extend(np.linspace(2.2, 5.6, 60) * (L * 2.0**-k) * 1.0343)
    radii = np.unique(np.clip(np.array(radii), 0.0, arm_len))
    radii = radii[radii > 0]
    lower_dir = np.array([arm_dir[0], -arm_dir[1], 0.0])
    wedge = [radii[::-1, None] * arm_dir, np.zeros((1, 3)), radii[:, None] * lower_dir]
    curve = PLCurve(np.concatenate(wedge), closed=False)

    container = Box(Point3(-0.6, -0.3, -0.3), Point3(0.3, 0.3, 0.3))
    q0 = rec_apex(0)
    pairs = (
        # grab point vs the fixed vertex: the pair the unsquish moves protect
        (q0, Point3(0.0, 0.0, 0.0)),
        (q0, Point3(q0.x + 0.01, q0.y, q0.z)),
        (q0, Point3(q0.x, q0.y + 0.01, q0.z)),
        (Point3(q0.x - 0.005, q0.y, q0.z), Point3(q0.x + 0.005, q0.y, q0.z)),
        (Point3(-0.05, 0.02, 0.0), Point3(-0.05, -0.02, 0.0)),
    )
    census = (Point3(0, 0, 0), q0, rec_apex(3))
    return Scenario(
        name="recursive_r1" + ("_ablated" if ablated else ""),
        initial_curve=curve,
        moves=MoveSequence(stage_fn=stage, container=container),
        expected=ExpectedVerdicts("pass", None, "pass" if not ablated else "fail"),
        declared_decay_ratio=0.5,
        probe_pairs=pairs,
        census_samples=census,
        nested_family=NestedFamily(p=Point3(0, 0, 0), region=rec_box),
    )


def rec_settle_bound(d: float) -> int:
    """Smallest n0 with (6 + 2 eps) l / 2^n0 < d, the settle-index bound
    for a point at distance d from the wedge vertex."""
    if d <= 0:
        raise ValueError("d must be positive")
    n0 = 1
    while (6.0 + 2.0 * _REC_EPS) * _REC_SCALE / 2.0**n0 >= d:
        n0 += 1
        if n0 > 200:
            raise ValueError("point too close to the vertex")
    return n0


# -- countable connected sum untied shell by shell ----------------------------

_TREFOIL_SUMMANDS = 20
_TREFOIL_LIMIT = Point3(2.0, 0.0, 0.0)


def trefoil_work_box(k: int) -> Box:
    """Work box inside the shell between nesting levels k and k+1."""
    s = 2.0**-k
    return Box.from_center(
        Point3(2.0 - 0.1875 * s, 0.0, 0.0),
        Point3(0.05625 * s, 0.05 * s, 0.05 * s),
    )


def trefoil_nested_box(k: int) -> Box:
    return Box.cube(_TREFOIL_LIMIT, 0.5 * 2.0**-k)


def _with_segment(b: Box) -> Box:
    """Enlarge a work box to contain the appended unit segment."""
    return Box(b.lo, Point3(3.0, b.hi.y, b.hi.z))


def build_trefoil_chain(extended: bool = False) -> Scenario:
    """A chain of three-crossing summands accumulating at a limit point;
    move k unties summand k inside its shell work box.

    The extended variant appends a straight unit segment at the limit
    point and declares supports large enough to contain it, so the tail
    union diameter is bounded below by the segment length.
    """
    work = [trefoil_work_box(k) for k in range(1, _TREFOIL_SUMMANDS + 1)]
    active = _axis_points(-0.5, 2.0, work, pts_per_box=3 * _PTS_PER_BOX)
    tied = _insert_loops(work, 3, active)
    if extended:
        ret = [[3.0, 0.0, 0.0], [3.0, -1.2, 0.0], [-0.5, -1.2, 0.0]]
        curve = PLCurve(np.concatenate([tied, ret]), closed=True)
    else:
        curve = _closed_curve(tied, y_return=-1.2)

    container = Box(Point3(-1.0, -2.0, -1.0), Point3(4.0, 1.0, 1.0))

    def stage(k: int) -> tuple[Isotopy, Box]:
        b = trefoil_work_box(k)
        support = _with_segment(b) if extended else b
        return reversed_isotopy(conjugated_insert(b, m=3)), support

    pairs = (
        (Point3(0.5, 0.3, 0.0), Point3(0.5, -0.3, 0.0)),
        (Point3(1.9, 0.05, 0.0), Point3(1.9, -0.05, 0.0)),
        (Point3(2.5, 0.1, 0.0), Point3(2.5, -0.1, 0.0)),
    )
    census = tuple(Point3(2.0 - 0.1875 * 2.0**-j, 0.0, 0.0) for j in range(1, 7))
    return Scenario(
        name="trefoil_chain" + ("_extended" if extended else ""),
        initial_curve=curve,
        moves=MoveSequence(stage_fn=stage, container=container),
        expected=(
            ExpectedVerdicts("fail", 1, "pass")
            if extended
            else ExpectedVerdicts("pass", None, "pass")
        ),
        declared_decay_ratio=None if extended else 0.5,
        probe_pairs=pairs,
        census_samples=census,
    )


# -- the remarkable stitch curve: passes hypotheses, fails injectivity --------

_FOX_PAIRS = 20
_FOX_C = 0.5


def fox_outer(k: int) -> Box:
    """Nested supports around the stitch point, quarter-scaling."""
    return Box.cube(Point3(0, 0, 0), 0.8 * 4.0 ** (1 - k))


def fox_inner(k: int) -> Box:
    return Box.cube(Point3(0, 0, 0), 0.4 * 4.0 ** (1 - k))


def fox_pair_box_current(k: int) -> Box:
    """Where loop pair k sits when move k runs (after k-1 squishes)."""
    u = 4.0 ** (1 - k)
    return Box.from_center(
        Point3(0.11 * u, 0.0, 0.0), Point3(0.025 * u, 0.03 * u, 0.03 * u)
    )


def fox_pair_box_initial(k: int) -> Box:
    """Initial placement: the current box scaled back out by the exact
    homothety the first k-1 squishes will apply."""
    f = 2.0 ** (k - 1)
    b = fox_pair_box_current(k)
    return Box(b.lo.scaled(f), b.hi.scaled(f))


def fox_squish_isotopy(k: int) -> Isotopy:
    """Inverse of the unsquish between the level-k concentric boxes: an
    exact contraction by c toward the stitch point on the inner box."""
    params = UnsquishParams(
        outer=fox_outer(k), inner=fox_inner(k), apex=Point3(0, 0, 0), c=_FOX_C
    )
    return reversed_isotopy(unsquish_isotopy(params))


def fox_tracked_line() -> tuple[Point3, ...]:
    """101 evenly spaced ambient points across the first loop pair's span."""
    return tuple(Point3(float(x), 0.0, 0.0) for x in np.linspace(-0.5, 0.5, 101))


def build_fox_remarkable() -> Scenario:
    """Shrinking loop pairs along an arc into its wild endpoint; each move
    removes the next pair, then contracts toward the endpoint, dragging a
    countable set of tracked points with it forever."""
    initial_boxes = [fox_pair_box_initial(k) for k in range(1, _FOX_PAIRS + 1)]
    active = _axis_points(0.0, 1.5, initial_boxes, pts_per_box=2 * _PTS_PER_BOX)
    curve = PLCurve(_insert_loops(initial_boxes, 2, active), closed=False)

    container = Box(Point3(-1.0, -1.0, -1.0), Point3(2.0, 1.0, 1.0))

    def stage(k: int) -> tuple[Isotopy, Box]:
        removal = reversed_isotopy(conjugated_insert(fox_pair_box_current(k), m=2))
        return (
            chained_isotopy([removal, fox_squish_isotopy(k)], fox_outer(k)),
            fox_outer(k),
        )

    tracked = fox_tracked_line()
    pairs = tuple(zip(tracked[:-1], tracked[1:]))
    return Scenario(
        name="fox_remarkable",
        initial_curve=curve,
        moves=MoveSequence(stage_fn=stage, container=container),
        expected=ExpectedVerdicts("pass", None, "fail"),
        declared_decay_ratio=0.25,
        probe_pairs=pairs,
        census_samples=tracked,
        nested_family=NestedFamily(p=Point3(0, 0, 0), region=fox_outer),
    )


# -- snowflake iterates -------------------------------------------------------


def _tooth_template(shrink: float) -> np.ndarray:
    """Per-segment refinement pattern as (along, right-offset) rows.

    The segment is cut into equal flat pieces no longer than shrink * L,
    and the middle piece is replaced by a triangular twist whose apex sits
    0.75 * shrink * L to the right of travel.  The longest new piece is
    exactly shrink * L, so successive sup deviations scale by exactly the
    piece ratio.
    """
    if not (0.0 < shrink < 1.0):
        raise ValueError(f"shrink must be in (0,1), got {shrink}")
    n_f = int(np.ceil(1.0 / shrink - 1e-12))
    mid = n_f // 2
    h = 0.75 * shrink
    rows = [(j / n_f, 0.0) for j in range(mid + 1)]
    rows.append(((mid + 0.5) / n_f, h))
    rows.extend((j / n_f, 0.0) for j in range(mid + 1, n_f))
    return np.array(rows)


def build_snowflake(shrink: float, depth: int) -> list[PLCurve]:
    """Iterates of a square-based twisting curve: each segment grows a
    centered triangular twist of height 0.75 * shrink * L, flanked by flat
    pieces, teeth pointing to the right of travel (outward for the
    counterclockwise base)."""
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    template = _tooth_template(shrink)
    base = np.array(
        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0, 0.0]]
    )
    iterates = [PLCurve(tuple(Point3.from_array(p) for p in base), closed=True)]
    pts = base
    for _ in range(depth - 1):
        nxt = []
        n = len(pts)
        for i in range(n):
            a, b = pts[i], pts[(i + 1) % n]
            d = b - a
            length = float(np.linalg.norm(d))
            right = np.array([d[1], -d[0], 0.0]) / length
            for along, off in template:
                nxt.append(a + d * along + right * (off * length))
        pts = np.array(nxt)
        iterates.append(PLCurve(tuple(Point3.from_array(p) for p in pts), closed=True))
    return iterates


def snowflake_sup_deviation(f_n: PLCurve, f_next: PLCurve) -> float:
    """Sup vertex deviation under the consistent parameterization: vertex
    j of f_n is vertex j*m of f_next."""
    a = f_n.points
    b = f_next.points
    if len(b) % len(a) != 0:
        raise ValueError("iterates are not consecutive")
    step = len(b) // len(a)
    dev_old = float(np.sqrt(((b[::step] - a) ** 2).sum(-1)).max())
    # new vertices sit at even fractions along the old segments
    m = step
    devs = [dev_old]
    n = len(a)
    for j in range(1, m):
        frac = j / m
        interp = a + frac * (np.roll(a, -1, axis=0) - a)
        devs.append(float(np.sqrt(((b[j::step] - interp) ** 2).sum(-1)).max()))
    return max(devs)


# -- the interval counterexample ----------------------------------------------


class PowerMap1D(LocalMap):
    """x -> x^e on the unit interval of the x-axis, identity elsewhere.

    A 1-D stand-in: its support is the degenerate unit-interval box, and
    it moves every point whose x lies in [0, 1] regardless of y, z.  It
    therefore moves points off its declared support on purpose, unlike
    every other map kind; a ``CompositeMap`` over it only evaluates the
    rows inside the composite's own support.
    """

    def __init__(self, exponent: float):
        if exponent <= 0:
            raise ValueError(f"exponent must be positive, got {exponent}")
        self.exponent = exponent
        self.support = Box(Point3(0, 0, 0), Point3(1, 0, 0))

    def apply_array(self, pts: np.ndarray) -> np.ndarray:
        out = np.array(pts, dtype=float)
        x = out[:, 0]
        mask = (x >= 0.0) & (x <= 1.0)
        out[mask, 0] = x[mask] ** self.exponent
        return out

    def inverse(self) -> "PowerMap1D":
        return PowerMap1D(1.0 / self.exponent)


def build_1d_counterexample() -> Scenario:
    """The interval move stream h_k(x) = x^((k+1)/k) with full-interval
    supports; uniformly convergent stages whose limit is not injective."""

    def stage(k: int) -> tuple[Isotopy, Box]:
        support = Box(Point3(0, 0, 0), Point3(1, 0, 0))

        def map_at(t: float, k: int = k) -> LocalMap:
            return PowerMap1D((k + t) / k)

        return Isotopy(support=support, map_at=map_at), support

    container = Box(Point3(-0.5, -0.5, -0.5), Point3(1.5, 0.5, 0.5))
    curve = PLCurve((Point3(0, 0, 0), Point3(1, 0, 0)), closed=False)
    pairs = (
        (Point3(0.2, 0, 0), Point3(0.5, 0, 0)),
        (Point3(0.3, 0, 0), Point3(0.6, 0, 0)),
        (Point3(0.1, 0, 0), Point3(0.4, 0, 0)),
    )
    census = tuple(Point3(x, 0, 0) for x in (0.3, 0.5, 0.7, 0.9))
    return Scenario(
        name="1d_counterexample",
        initial_curve=curve,
        moves=MoveSequence(stage_fn=stage, container=container),
        expected=ExpectedVerdicts("fail", 1, "fail"),
        declared_decay_ratio=None,
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
