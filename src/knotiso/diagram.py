"""Planar diagram export: orthographic projection onto the xy-plane,
crossing detection with over/under resolution, and SVG rendering with
under-strand gaps.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import ALL_PAIRS_MAX_SEGMENTS, Box, PLCurve, multiscale_close_pairs

_TANGENCY_EPS = 1e-9
_PERTURB_RAD = 1e-7
# candidate pairs tested per batch in _find_crossings
_PAIR_CHUNK = 200_000


@dataclass(frozen=True)
class Crossing:
    seg_over: int
    seg_under: int
    xy: tuple[float, float]
    z_over: float
    z_under: float


def _rotation(axis: int, angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    if axis == 0:
        return np.array([[1, 0, 0], [0, c, -s], [0, s, c]])
    return np.array([[c, 0, s], [0, 1, 0], [-s, 0, c]])


def _candidate_pairs(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Non-adjacent index pairs whose xy extents can overlap.

    The search radius is relative to the segments' own lengths: pairs with
    |mid_i - mid_j| <= (h_i + h_j)(1 + 1e-5) + 8 ulp(M), h the half
    lengths and M the largest xy coordinate.  That keeps every pair
    ``_find_crossings`` can flag: it needs t and u within 1e-9 of [0, 1],
    which puts the exact midpoints within (h_i + h_j)(1 + 2e-9).  It only
    solves pairs with |denom| >= 1e-9 |r||s|, so the rounding of the cross
    products (a few eps |qp||s| and eps |r||s|) moves t by up to about
    4.4e-7 (|qp|/|r| + 1) and u likewise; with |qp| <= |r| + |s| that
    moves the two midpoint distances by about 2.7e-6 (h_i + h_j) in all,
    under the 1e-5 factor.  Each computed midpoint is off by at most an
    ulp of its coordinates, which the 8 ulp(M) pad absorbs on segments far
    shorter than their distance to the origin.  A pad fixed in absolute
    units would admit every pair of segments shorter than it.
    """
    n = len(a)
    if n <= ALL_PAIRS_MAX_SEGMENTS:
        return np.triu_indices(n, k=2)
    mids = (a[:, :2] + b[:, :2]) / 2.0
    half = np.sqrt(((b[:, :2] - a[:, :2]) ** 2).sum(-1)) / 2.0
    pad = 8.0 * np.spacing(float(np.abs(mids).max() + half.max()))
    ii, jj = multiscale_close_pairs(mids, half * (1 + 1e-5), pad)
    keep = jj - ii >= 2
    return ii[keep], jj[keep]


def _find_crossings(a: np.ndarray, b: np.ndarray, closed: bool):
    """Proper projected crossings of non-adjacent segment pairs, or None if
    any candidate pair is within tolerance of tangency/degeneracy.

    Candidates are tested _PAIR_CHUNK at a time, so the temporaries stay
    bounded on curves with millions of candidate pairs."""
    n = len(a)
    ii, jj = _candidate_pairs(a, b)
    if closed:
        keep = ~((ii == 0) & (jj == n - 1))
        ii, jj = ii[keep], jj[keep]
    hits = []
    for start in range(0, len(ii), _PAIR_CHUNK):
        ci, cj = ii[start : start + _PAIR_CHUNK], jj[start : start + _PAIR_CHUNK]
        p1, p2 = a[ci, :2], b[ci, :2]
        q1, q2 = a[cj, :2], b[cj, :2]
        r = p2 - p1
        s = q2 - q1
        denom = r[:, 0] * s[:, 1] - r[:, 1] * s[:, 0]
        qp = q1 - p1
        scale = np.sqrt((r**2).sum(-1) * (s**2).sum(-1)) + 1e-300
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (qp[:, 0] * s[:, 1] - qp[:, 1] * s[:, 0]) / denom
            u = (qp[:, 0] * r[:, 1] - qp[:, 1] * r[:, 0]) / denom
        near_parallel = np.abs(denom) < _TANGENCY_EPS * scale
        inside = (
            ~near_parallel & (t > 0.0) & (t < 1.0) & (u > 0.0) & (u < 1.0)
        )
        # near-tangent configurations: a crossing candidate on or next to both
        # segments whose location is within tolerance of a segment endpoint
        on_both = (
            ~near_parallel
            & (t > -_TANGENCY_EPS)
            & (t < 1.0 + _TANGENCY_EPS)
            & (u > -_TANGENCY_EPS)
            & (u < 1.0 + _TANGENCY_EPS)
        )
        grazing = on_both & (
            (np.abs(t) < _TANGENCY_EPS)
            | (np.abs(t - 1.0) < _TANGENCY_EPS)
            | (np.abs(u) < _TANGENCY_EPS)
            | (np.abs(u - 1.0) < _TANGENCY_EPS)
        )
        if grazing.any():
            return None
        k = np.nonzero(inside)[0]
        hits += zip(ci[k].tolist(), cj[k].tolist(), t[k].tolist(), u[k].tolist())
    crossings = []
    for i, j, ti, uj in hits:
        zi = a[i, 2] + ti * (b[i, 2] - a[i, 2])
        zj = a[j, 2] + uj * (b[j, 2] - a[j, 2])
        if abs(zi - zj) < _TANGENCY_EPS:
            return None  # strands touch in 3-space at the crossing
        xy = (
            float(a[i, 0] + ti * (b[i, 0] - a[i, 0])),
            float(a[i, 1] + ti * (b[i, 1] - a[i, 1])),
        )
        if zi > zj:
            crossings.append(Crossing(i, j, xy, float(zi), float(zj)))
        else:
            crossings.append(Crossing(j, i, xy, float(zj), float(zi)))
    return crossings


def find_crossings(curve: PLCurve) -> list[Crossing]:
    """Crossings of the +z orthographic projection.

    Near-tangent configurations are resolved by perturbing the view by
    1e-7 rad about x, then y.
    """
    pts = curve.points
    for rot in (None, _rotation(0, _PERTURB_RAD), _rotation(0, _PERTURB_RAD) @ _rotation(1, _PERTURB_RAD)):
        view = pts if rot is None else pts @ rot.T
        if curve.closed:
            a, b = view, np.roll(view, -1, axis=0)
        else:
            a, b = view[:-1], view[1:]
        result = _find_crossings(a, b, curve.closed)
        if result is not None:
            return result
    raise ValueError("projection is degenerate even after view perturbation")


def count_crossings(curve: PLCurve, region: Box | None = None) -> int:
    """Number of projected crossings, optionally restricted to crossings
    whose projected location falls in the xy-shadow of a box."""
    cs = find_crossings(curve)
    if region is None:
        return len(cs)
    return sum(
        1
        for c in cs
        if region.lo.x <= c.xy[0] <= region.hi.x and region.lo.y <= c.xy[1] <= region.hi.y
    )


def _drawn_pieces(gaps: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """What is left of the parameter interval [0, 1] once the gaps are cut."""
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


def render_svg(curve: PLCurve, gap_radius: float = 0.005, stroke: float = 0.01) -> str:
    """SVG drawing of the projected diagram with under-strand gaps."""
    pts = curve.points
    crossings = find_crossings(curve)
    a, b = curve.segment_arrays()
    # per-segment list of parameter intervals to blank out
    gaps: dict[int, list[tuple[float, float]]] = {}
    for c in crossings:
        i = c.seg_under
        seg_a, seg_b = a[i, :2], b[i, :2]
        d = seg_b - seg_a
        length = float(np.linalg.norm(d))
        if length == 0:
            continue
        x = np.array(c.xy)
        t0 = float((x - seg_a) @ d) / (length * length)
        dt = gap_radius / length
        gaps.setdefault(i, []).append((max(0.0, t0 - dt), min(1.0, t0 + dt)))
    # drawn pieces [lo, hi] of each segment, in segment order; only the
    # gapped segments are split
    seg = np.arange(len(a))
    lo = np.zeros(len(a))
    hi = np.ones(len(a))
    if gaps:
        whole = np.ones(len(a), dtype=bool)
        whole[list(gaps)] = False
        split = [(i, p0, p1) for i, g in gaps.items() for p0, p1 in _drawn_pieces(g)]
        extra = np.array(split, dtype=float).reshape(-1, 3)
        seg = np.concatenate([seg[whole], extra[:, 0].astype(np.int64)])
        lo = np.concatenate([lo[whole], extra[:, 1]])
        hi = np.concatenate([hi[whole], extra[:, 2]])
        order = np.argsort(seg, kind="stable")
        seg, lo, hi = seg[order], lo[order], hi[order]
    sa, sd = a[seg, :2], b[seg, :2] - a[seg, :2]
    x0 = sa + lo[:, None] * sd
    x1 = sa + hi[:, None] * sd
    ends = np.column_stack([x0[:, 0], -x0[:, 1], x1[:, 0], -x1[:, 1]])
    line = '<line x1="%.17g" y1="%.17g" x2="%.17g" y2="%.17g" />\n'
    body = (line * len(ends) % tuple(ends.ravel().tolist()))[:-1]
    lo_xy = pts[:, :2].min(axis=0)
    hi_xy = pts[:, :2].max(axis=0)
    pad = 0.05 * max(1e-9, float((hi_xy - lo_xy).max()))
    vb = (
        f"{lo_xy[0] - pad:.17g} {-(hi_xy[1] + pad):.17g} "
        f"{hi_xy[0] - lo_xy[0] + 2 * pad:.17g} {hi_xy[1] - lo_xy[1] + 2 * pad:.17g}"
    )
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{vb}">\n'
        f'<g stroke="black" stroke-width="{stroke}" fill="none" stroke-linecap="round">\n'
        f"{body}\n</g>\n</svg>\n"
    )
