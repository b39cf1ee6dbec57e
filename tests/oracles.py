"""Reference computations that only the tests call.

The acceptance criteria and unit tests check the package against these:
the checks of a box and of an axis-aligned frame written out in numpy,
the tail diameters and disjointness of a box family from full pairwise
tables, crossing counts of a curve's diagram, the drawn pieces of a
segment cut gap by gap, reference box families (the
dyadic cubes, each self-similar stream's supports level by level, and
the loop-pair boxes of fox's curve), the
ball factoring scanned box by box and in exact closed form, the
infinite-motion census after a finite truncation, the t = 1 census of one
point run stage by stage through the stage maps, the one-sided values of
a glued schedule at a seam, loop chains inserted box by box into a
refined axis, a declared stream's stages framed from stage 1, the stages
of ``recursive_r1`` and ``fox_remarkable`` built level by level, the
snowflake iterates with their sup deviations, the cone pull as 12 affine
tetrahedra, with the smallest singular value of each of its six pyramids,
the inverse-Lipschitz constant of a map estimated on sampled point pairs,
the maps' reach kernel read on (n, 3) rows, and the cone and unsquish
kernels computed on (n, 3) rows, the reference for the maps'
coordinate-major kernels.  None of them is on the path of a CLI verb.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from typing import Sequence

from knotiso.canonical import conjugated_insert
from knotiso.diagram import find_crossings
from knotiso.engine import Isotopy, LimitValue, MoveSequence, apply_truncated, truncated_map
from knotiso.geometry import Box, PLCurve, boxes_meet, bounding_box, union_diameter
from knotiso.maps import (
    CompositeMap,
    ConeMap,
    LocalMap,
    UnsquishMap,
    UnsquishParams,
    _radial_scale,
)
from knotiso.moves import chained_isotopy, conjugated_isotopy, reversed_isotopy, unsquish_isotopy
from knotiso.scenarios import (
    _FOX_C,
    _PTS_PER_BOX,
    _REC_HALF,
    _untie,
    fox_pair_box_current,
    rec_insert,
    rec_squish_constant,
    rec_unsquish_params,
)


# -- boxes and frames checked by numpy ---------------------------------------


def numpy_box_corners(lo, hi) -> np.ndarray:
    """``Box``'s checks of its corners done by numpy, as the box made them
    before it checked Python floats: the (2, 3) corner array, or
    ValueError."""
    corners = np.array((lo, hi), dtype=float)
    if corners.shape != (2, 3):
        raise ValueError(f"box corners must be two (3,) rows, got {corners.shape}")
    if not np.isfinite(corners).all():
        raise ValueError(f"non-finite box corners: {corners.tolist()}")
    lo, hi = corners
    if (lo > hi).any():
        raise ValueError(f"box min corner exceeds max corner: {lo} > {hi}")
    return corners


def numpy_affine_frame(scale, shift) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``AffineMap``'s checks and inverse frame written out in numpy, the
    reference for ``maps.frame_refusals``: (scale, shift, inverse scale,
    inverse shift) as (3,) rows, or ValueError.  A scale and a shift are
    three numbers each, and zero shifts keep their sign here.
    A frame is refused on the first axis where the inverse frame's own
    inverse shift is not finite."""
    scale = np.asarray(scale, dtype=float).reshape(3)
    shift = np.asarray(shift, dtype=float).reshape(3)
    if not (np.isfinite(scale).all() and scale.all()):
        k = int(np.argmin(np.isfinite(scale) & (scale != 0)))
        raise ValueError(f"affine scale on axis {'xyz'[k]} is {scale[k]}, not finite and nonzero")
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        inv = 1.0 / scale
        inv_shift = -inv * shift
        finite = np.isfinite(-(1.0 / inv) * inv_shift)
    if not finite.all():
        k = int(np.argmin(finite))
        raise ValueError(
            f"affine frame on axis {'xyz'[k]} has no finite inverse (scale {scale[k]})"
        )
    return scale, shift, inv, inv_shift


def full_matrix_tails(boxes: Sequence[Box]) -> tuple[np.ndarray, bool]:
    """The tail diameters diam(V_n u ... u V_last) of boxes V_1..V_last and
    whether no two of them meet, read off full last x last tables: the
    suffix maxima of the row maxima of the upper triangle of the
    farthest-corner distances (the largest face gap per axis, squared and
    summed in axis order), the last entry being union_diameter([V_last]),
    and the upper triangle of ``boxes_meet`` above its diagonal.  The
    distance table is summed in place, so at most three tables are held
    at once."""
    lo = np.array([b.lo for b in boxes])
    hi = np.array([b.hi for b in boxes])
    n = len(boxes)
    far, gap, other = np.zeros((n, n)), np.empty((n, n)), np.empty((n, n))
    for a in range(3):
        np.subtract(hi[:, None, a], lo[None, :, a], out=gap)
        np.subtract(hi[None, :, a], lo[:, None, a], out=other)
        np.maximum(gap, other, out=gap)
        far += np.multiply(gap, gap, out=gap)
    del gap, other
    far = np.triu(np.sqrt(far, out=far)).max(axis=1)
    far[-1] = union_diameter(boxes[-1:])
    diam = np.maximum.accumulate(far[::-1])[::-1]
    return diam, not np.triu(boxes_meet(lo, hi), k=1).any()


# -- diagrams -----------------------------------------------------------------


def count_crossings(curve: PLCurve, region: Box | None = None) -> int:
    """Number of projected crossings, optionally restricted to crossings
    whose projected location falls in the xy-shadow of a box."""
    cs = find_crossings(curve)
    if region is None:
        return len(cs)
    lo, hi = region.lo[:2], region.hi[:2]
    return sum(1 for c in cs if ((lo <= c.xy) & (c.xy <= hi)).all())


def drawn_pieces_by_splitting(gaps: Sequence[tuple[float, float]]) -> list[tuple[float, float]]:
    """What is left of [0, 1] once the gaps are cut, the gaps taken by
    start and each one splitting every piece it meets."""
    pieces = [(0.0, 1.0)]
    for g0, g1 in sorted(gaps):
        nxt = []
        for lo, hi in pieces:
            if g1 <= lo or g0 >= hi:
                nxt.append((lo, hi))
            else:
                if g0 > lo:
                    nxt.append((lo, g0))
                if g1 < hi:
                    nxt.append((g1, hi))
        pieces = nxt
    return pieces


# -- nested families and stream readings --------------------------------------


def dyadic_cubes(p: np.ndarray, horizon: int) -> list[Box]:
    """Reference family: cubes centered at p with side 2^(1-n), n = 1..horizon."""
    return [Box.cube(p, 2.0 ** (1 - n)) for n in range(1, horizon + 1)]


def nested_ball_factoring(p: np.ndarray, boxes: Sequence[Box]) -> tuple[float, int | None]:
    """(epsilon, n0) with V_n0 c B_epsilon(p) c V_1 for boxes V_1, V_2, ...
    given as a list, scanned box by box: epsilon is half the wall distance
    from p to V_1, n0 the least 1-based index whose box has every corner
    strictly inside the ball (``math.hypot``), or None.  Raises ValueError
    when p is not interior to a box up to n0, when one of them is not
    strictly inside the one before it, or when no ball fits."""
    eps = 0.5 * boxes[0].wall_distance(p)
    for n, b in enumerate(boxes, start=1):
        if not b.contains_array(p, strict=True):
            raise ValueError(f"p not interior to region {n}")
        if n > 1 and not boxes[n - 2].contains_box(b, strict=True):
            raise ValueError(f"region {n} not strictly inside region {n - 1}")
        if eps <= 0:
            raise ValueError("no ball about p fits strictly inside the first region")
        if all(math.hypot(*d) < eps for d in (b.corners() - p).tolist()):
            return eps, n
    return eps, None


def closed_form_ball_factoring(
    v1: Box, p: np.ndarray, r: float, horizon: int
) -> tuple[float, int | None]:
    """The ball factoring of the stream V_k = p + r^(k-1) (V_1 - p) in
    exact rationals: epsilon is half the wall distance from p to V_1, and
    n0 the least n <= horizon with r^(2(n-1)) R^2 < epsilon^2, R being
    the distance from p to V_1's farthest corner, or None.  Exact on the
    floats' own values, so it is the float reading only where p, V_1 and
    r are dyadic enough that every V_k and every offset is exact."""
    lo, hi, q = ([Fraction(x) for x in v.tolist()] for v in (v1.lo, v1.hi, p))
    eps = min(min(c - a, b - c) for a, b, c in zip(lo, hi, q)) / 2
    far = sum(max(c - a, b - c) ** 2 for a, b, c in zip(lo, hi, q))
    r2 = Fraction(r) ** 2
    n0 = next((n for n in range(1, horizon + 1) if r2 ** (n - 1) * far < eps**2), None)
    return float(eps), n0


def shrinking_boxes(limit_x: float, k: int) -> Box:
    """Box k of a countable chain: disjoint boxes on the x-axis
    accumulating at limit_x, half-scaling."""
    s = 2.0**-k
    return Box.from_center((limit_x - 0.5 * s, 0.0, 0.0), (0.0625 * s, 0.125 * s, 0.125 * s))


def trefoil_work_box(k: int) -> Box:
    """Work box inside the shell between nesting levels k and k+1."""
    s = 2.0**-k
    return Box.from_center((2.0 - 0.1875 * s, 0.0, 0.0), (0.05625 * s, 0.05 * s, 0.05 * s))


def with_segment(b: Box) -> Box:
    """A trefoil work box enlarged to hold the unit segment that the
    extended chain appends at its limit point."""
    return Box(b.lo, (3.0, b.hi[1], b.hi[2]))


def rec_box(k: int) -> Box:
    """Nested half-scaling boxes around the wedge vertex."""
    return Box.from_center((0, 0, 0), np.multiply(_REC_HALF, 2.0 ** (1 - k)))


def fox_outer(k: int) -> Box:
    """Nested supports around the stitch point, quarter-scaling."""
    return Box.cube((0, 0, 0), 0.8 * 4.0 ** (1 - k))


def fox_pair_box_initial(k: int) -> Box:
    """Loop pair k's box on fox's initial curve: where move k finds it,
    scaled back out by the exact homothety the first k - 1 squishes
    apply."""
    f = 2.0 ** (k - 1)
    b = fox_pair_box_current(k)
    return Box(b.lo * f, b.hi * f)


# each self-similar stream's supports V_k, level by level
STREAM_BOXES = {
    "countable_r1": lambda k: shrinking_boxes(2.0, k),
    "countable_r2_stage1": lambda k: shrinking_boxes(2.0, k),
    "countable_r2_stage2": lambda k: shrinking_boxes(4.0, k),
    "recursive_r1": rec_box,
    "trefoil_chain": trefoil_work_box,
    "trefoil_chain_extended": lambda k: with_segment(trefoil_work_box(k)),
    "fox_remarkable": fox_outer,
}


def infinite_motion_census(
    seq: MoveSequence, n_max: int, samples: np.ndarray, horizon: int | None = None
) -> int:
    """Count of the (k, 3) samples whose n_max-stage image still lies in a
    later support (checked up to the horizon)."""
    if not len(samples):
        return 0
    if horizon is None:
        horizon = n_max + 20
    img = apply_truncated(seq, n_max, samples)
    tails = seq.tail_table(horizon)
    return int(tails.in_later_support(img, n_max).sum())


def stagewise_limit(seq: MoveSequence, p: np.ndarray, tol: float, k_budget: int) -> LimitValue:
    """``eval_limit_isotopy`` run stage by stage: after k stages the image
    is settled when it lies in none of V_{k+1}..V_{k_budget}, else
    tol-converged when their union's diameter is below tol, else it goes
    through stage k + 1's map at time 1, up to k_budget stages."""
    tails = seq.tail_table(k_budget)
    x = np.array(p, dtype=float)[None, :]
    for k in range(k_budget):
        if not tails.in_later_support(x, k)[0]:
            return LimitValue(x[0], "settled", k)
        if tails.diam[k] < tol:
            return LimitValue(x[0], "tol-converged", k)
        x = seq.time_one_map(k + 1).apply_array(x)
    return LimitValue(x[0], "budget-exhausted", k_budget)


def seam_values(seq: MoveSequence, k: int, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One-sided values of the glued isotopy at the seam t_k.

    Left: stage k completed at its local time 1.  Right: stage k+1 entered
    at its local time 0.  Both are exact one-sided limits.
    """
    return truncated_map(seq, k).apply_array(pts), truncated_map(seq, k + 1, 0.0).apply_array(pts)


# -- loop chains inserted box by box ------------------------------------------

def axis_points(x_start: float, x_end: float, boxes: Sequence[Box], m: int) -> np.ndarray:
    """Vertices along the x-axis from x_start to x_end, refined with
    m * _PTS_PER_BOX points inside each box so m loop inserts are resolved."""
    xs = [x_start, x_end]
    for b in boxes:
        xs.extend(np.linspace(b.lo[0], b.hi[0], m * _PTS_PER_BOX).tolist())
    xs = np.unique(np.array(xs, dtype=float))
    zeros = np.zeros_like(xs)
    return np.column_stack([xs, zeros, zeros])


def inserted_loop_chain(
    x_start: float, x_end: float, lo: np.ndarray, hi: np.ndarray, m: int, untied=False
) -> np.ndarray:
    """The loop chain as inserts into a refined axis: the composite of the
    ``conjugated_insert`` at time 1 of every box of the stacked corners lo
    and hi not flagged ``untied``, one Box at a time, applied to the axis
    refined in the tied and untied boxes alike."""
    boxes = [Box(a, b) for a, b in zip(lo, hi)]
    tied = [b for b, skip in zip(boxes, np.broadcast_to(untied, len(boxes))) if not skip]
    inserts = CompositeMap(
        [conjugated_insert(b, m).time_one() for b in tied], support=bounding_box(tied)
    )
    return inserts.apply_array(axis_points(x_start, x_end, boxes, m))


# -- self-similar streams level by level --------------------------------------


def framed_stage(seq: MoveSequence, k: int) -> Isotopy:
    """Stage k of a declared stream as stage 1 framed into V_k: stage 1
    itself for k = 1, else ``conjugated_isotopy(stage 1, V_k)``, whose
    frame, the affine map of V_1 onto V_k, rounds where V_1 is not dyadic
    and is refused once V_k collapses in floats."""
    sim = seq.similarity
    return sim.first if k == 1 else conjugated_isotopy(sim.first, sim.box(k))



def rec_stage_per_level(k: int, ablated: bool = False) -> Isotopy:
    """Stage k of ``recursive_r1`` built from its level-k closed forms:
    the level-k insert, then (unless ablated) the level-k unsquish."""
    parts = [rec_insert(k)]
    if not ablated:
        parts.append(unsquish_isotopy(rec_unsquish_params(k, rec_squish_constant())))
    return chained_isotopy(parts, rec_box(k))


def fox_squish_per_level(k: int) -> Isotopy:
    """Inverse of the unsquish between the level-k concentric boxes: an
    exact contraction by c toward the stitch point on the inner box."""
    outer = fox_outer(k)
    params = UnsquishParams(outer, outer.scaled_about_center(0.5), apex=np.zeros(3), c=_FOX_C)
    return reversed_isotopy(unsquish_isotopy(params))


def fox_stage_per_level(k: int) -> Isotopy:
    """Stage k of ``fox_remarkable`` built from its level-k closed forms:
    untie loop pair k where it sits, then squish toward the stitch point."""
    removal = _untie(fox_pair_box_current(k), 2)
    return chained_isotopy([removal, fox_squish_per_level(k)], fox_outer(k))


# -- cone pull as a simplicial map -------------------------------------------

# the 12 boundary triangles of a box as indices into its x-major
# ``corners()``: each face, normal to an axis at lo (side 0) or hi (side 1),
# split along its diagonal through the in-face min corner (u, v) = 00
_BOUNDARY_TRIANGLES = np.array([
    [side << 2 - axis | bu << 2 - u | bv << 2 - v for bu, bv in tri]
    for axis, (u, v) in enumerate(((1, 2), (0, 2), (0, 1)))
    for side in (0, 1)
    for tri in (((0, 0), (1, 0), (1, 1)), ((0, 0), (1, 1), (0, 1)))
])


def cone_tetrahedra(m: ConeMap) -> np.ndarray:
    """The (12, 3, 3) boundary triangles the cone over p0 is cut into."""
    return m.region.corners()[_BOUNDARY_TRIANGLES]


def twelve_tetrahedra_cone(m: ConeMap, pts: np.ndarray) -> np.ndarray:
    """The cone pull star-triangulated: the box is cut into the 12
    tetrahedra spanned by p0 and a boundary triangle, and each is carried
    affinely onto the one spanned by p1 and the same triangle.  A row is
    evaluated from its barycentric weights in the tetrahedron where its
    least weight is largest; rows outside the region are kept."""
    out = pts.copy()
    inside = m.region.contains_array(pts)
    if not inside.any():
        return out
    tris = cone_tetrahedra(m)
    # barycentric solve matrices: columns t_i - p0 for each tetrahedron
    inv_basis = np.linalg.inv(np.transpose(tris - m.p0, (0, 2, 1)))
    lam = np.einsum("kij,mj->kmi", inv_basis, pts[inside] - m.p0)
    b0 = 1.0 - lam.sum(axis=-1)
    best = np.minimum(lam.min(axis=-1), b0).argmax(axis=0)
    rows = np.arange(len(best))
    out[inside] = b0[best, rows][:, None] * m.p1 + np.einsum(
        "mi,mij->mj", lam[best, rows, :], tris[best]
    )
    return out


def cone_piece_singular_values(m: ConeMap) -> np.ndarray:
    """The smallest singular value of the cone pull on each of its six
    pyramids, faces in the order x lo, x hi, y lo, y hi, z lo, z hi.

    On the pyramid from p0 over the face x_i = f the gauge is
    (q - p0) . w with w = e_i / (f - p0_i), so the pull is
    q -> q + (1 - (q - p0) . w) u with u = p1 - p0, an affine map with
    Jacobian I - u w^T."""
    u = m.p1 - m.p0
    sigma = []
    for axis in range(3):
        for face in (m.region.lo[axis], m.region.hi[axis]):
            w = np.zeros(3)
            w[axis] = 1.0 / (face - m.p0[axis])
            sigma.append(np.linalg.svd(np.eye(3) - np.outer(u, w), compute_uv=False)[-1])
    return np.array(sigma)


def estimate_inverse_lipschitz(m: LocalMap, region: Box, n_samples: int, seed: int) -> float:
    """Min over sampled point pairs of d(m(x1), m(x2)) / d(x1, x2): the
    sampled reference for ``ConeMap.inverse_lipschitz``, which a sample can
    only read high.  Deterministic given the seed."""
    if n_samples < 2:
        raise ValueError("need at least 2 samples")
    rng = np.random.default_rng(seed)
    x1 = region.sample(rng, n_samples)
    x2 = region.sample(rng, n_samples)
    sep = np.sqrt(((x1 - x2) ** 2).sum(-1))
    ok = sep > 1e-12
    x1, x2, sep = x1[ok], x2[ok], sep[ok]
    y1 = m.apply_array(x1)
    y2 = m.apply_array(x2)
    img = np.sqrt(((y1 - y2) ** 2).sum(-1))
    return float((img / sep).min())


# -- the row-major kernels ----------------------------------------------------


def box_radial_scale(box: Box, origin: np.ndarray, direction: np.ndarray) -> np.ndarray:
    """The maps' reach kernel on (n, 3) rows: the largest r with
    origin + r * direction inside the box, per row of the origins and
    directions."""
    return _radial_scale((box.lo - origin).T, (box.hi - origin).T, direction.T)


def _row_radial_scale(lo_off: np.ndarray, hi_off: np.ndarray, direction: np.ndarray) -> np.ndarray:
    """The box gauge's reciprocal per (n, 3) row, given the corners'
    offsets from the origin: the least over the axes of the larger of
    lo_off / direction and hi_off / direction."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t_lo = lo_off / direction
        t_hi = hi_off / direction
    t_max = np.maximum(t_lo, t_hi)
    return np.minimum(np.minimum(t_max[:, 0], t_max[:, 1]), t_max[:, 2])


def row_major_cone(m: ConeMap, pts: np.ndarray) -> np.ndarray:
    """The cone pull computed on (n, 3) rows: every row of the region moves
    by (1 - 1 / r) (p1 - p0), r its reach from p0, and a zero shift keeps
    the coordinate's bits; other rows are kept."""
    pts = np.array(pts, dtype=float)
    inside = m.region.contains_array(pts)
    q = pts[inside]
    r = _row_radial_scale(m.region.lo - m.p0, m.region.hi - m.p0, q - m.p0)
    shift = (1.0 - 1.0 / r)[:, None] * (m.p1 - m.p0)
    pts[inside] = np.where(shift == 0.0, q, q + shift)
    return pts


def row_major_unsquish(m: UnsquishMap, pts: np.ndarray, inverse: bool = False) -> np.ndarray:
    """The unsquish slide (or its inverse) computed on (n, 3) rows: each
    row of the outer box gets its glued parameter s and inner anchor, both
    legs' formulas picked per row, an apex row found by an infinite reach
    or a zero offset, then slid to s'(s); other rows are kept."""
    par, t = m.params, m.t
    apex, center = par.apex, par.outer.center
    stretch = par.scale_up - 1.0
    s0 = par.s_c0
    sc_t = t * par.s_c1 + (1.0 - t) * s0
    pts = np.array(pts, dtype=float)
    inside = par.outer.contains_array(pts)
    q = pts[inside]
    in_inner = par.inner.contains_array(q)
    origin = np.where(in_inner[:, None], apex, center)
    d = q - origin
    r = _row_radial_scale(par.inner.lo - origin, par.inner.hi - origin, d)
    at_apex = ~np.isfinite(r) | (np.abs(d).max(axis=-1) == 0.0)
    r = np.where(at_apex, 1.0, r)
    mult = 1.0 / r
    s_inner = np.where(at_apex, 0.0, mult) / 2.0
    s_shell = 0.5 + 0.5 * np.minimum(np.maximum((mult - 1.0) / stretch, 0.0), 1.0)
    s = np.where(in_inner, s_inner, s_shell)
    v_in = np.where(at_apex[:, None], apex + 0.0, origin + r[:, None] * d)
    if inverse:
        s = np.where(s <= sc_t, (s / sc_t) * s0, s0 + (s - sc_t) / (1.0 - sc_t) * (1.0 - s0))
    else:
        high = (s - s0) / (1.0 - s0)
        s = np.where(s <= s0, (s / s0) * sc_t, high + (1.0 - high) * sc_t)
    inner_leg = s <= 0.5
    origin = np.where(inner_leg[:, None], apex, center)
    two_s = 2.0 * s
    mult = np.where(
        inner_leg, np.minimum(np.maximum(two_s, 0.0), 1.0), 1.0 + (two_s - 1.0) * stretch
    )
    pts[inside] = origin + mult[:, None] * (v_in - origin)
    return pts


def part_by_part(m, pts: np.ndarray) -> np.ndarray:
    """A composite culled to its support, then its parts one after another,
    at every level of nesting; any other map as itself."""
    if not isinstance(m, CompositeMap):
        return m.apply_array(pts)
    out = np.array(pts, dtype=float)
    inside = m.support.contains_array(out)
    if inside.any():
        x = out[inside]
        for part in m.parts:
            x = part_by_part(part, x)
        out[inside] = x
    return out


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
    iterates = [PLCurve(base, closed=True)]
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
        iterates.append(PLCurve(pts, closed=True))
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
