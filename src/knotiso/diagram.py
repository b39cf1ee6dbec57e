"""Planar diagram export: orthographic projection onto the xy-plane,
crossing detection with over/under resolution, and SVG rendering with
under-strand gaps: one polyline per run of drawn pieces, in a group that
flips y, laid out as slices of the curve's point text, "x,y " per vertex
(``geometry.curve_texts``), which a film splices from its last frame's,
and whose gap cuts are printed by the same exact kernel,
``geometry._g17_cells``.

Crossing candidates come from ``geometry``'s one segment-pair search;
like it, the crossing test reads x and y columns, taken once per view.
``xy_search`` searches the xy view, given the last frame's search
(``engine.Film`` holds it) only the pairs with a segment that moved
since, reading the others' candidacy and crossings off that search.  A
degenerate view's search holds its witness, the pairs that made it so;
a view in which one of them is still degenerate is degenerate too, so
it is tested first and the view is searched only where none is.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import (
    DecimalText,
    PLCurve,
    _POINT_SEPS,
    _g17_cells,
    multiscale_close_pairs,
    nonadjacent,
    segment_ends,
)

_TANGENCY_EPS = 1e-9
_PERTURB_RAD = 1e-7
# candidate pairs tested per batch in _crossing_test
_PAIR_CHUNK = 200_000
# drawn line width, in model units
_STROKE = 0.01


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


class _Search(NamedTuple):
    """The crossing search of one view: the pad 8 ulp(M) its candidate
    pairs were found with, the keys i n + j of the pairs that cross
    properly, sorted, with each crossing's parameters t and u on its two
    segments, and the crossings, over and under read off z.  Where the
    view is degenerate those four are None, and ``witness`` holds the
    keys of pairs that make it so: pairs within tolerance of tangency or
    degeneracy, or hits where two strands touch in 3-space."""

    pad: float
    hits: np.ndarray | None
    t: np.ndarray | None
    u: np.ndarray | None
    crossings: list[Crossing] | None
    witness: np.ndarray | None = None


def _extents(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """The xy midpoints of the segments a -> b as two rows, their half
    lengths, and the pad 8 ulp(M), M the largest xy coordinate."""
    (x0, y0), (x1, y1) = a[:, :2].T, b[:, :2].T
    mids = np.stack([x0 + x1, y0 + y1]) / 2.0
    half = np.sqrt((x1 - x0) ** 2 + (y1 - y0) ** 2) / 2.0
    return mids, half, 8.0 * np.spacing(float(np.abs(mids).max() + half.max()))


def _candidate_pairs(mids, half, pad: float, closed: bool, hot=None) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs of segments that share no vertex and whose xy extents
    can overlap, from the same multiscale search at every curve size,
    given the segments' ``_extents``; given a mask hot of segments, only
    the pairs with a hot segment.

    The search radius is relative to the segments' own lengths: exactly the
    pairs with |mid_i - mid_j| <= (h_i + h_j)(1 + 1e-5) + 8 ulp(M), h the
    half lengths and M the largest xy coordinate.  That keeps every pair
    ``_crossing_test`` can flag: it needs t and u within 1e-9 of [0, 1],
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
    return nonadjacent(*multiscale_close_pairs(mids.T, half * (1 + 1e-5), pad, hot), len(half), closed)


def _crossing_test(a: np.ndarray, b: np.ndarray, ii: np.ndarray, jj: np.ndarray):
    """The keys i n + j of the pairs (ii, jj) of the n segments a -> b
    that cross properly in the xy view, in pair order, with t and u; or,
    as one array, the keys of the pairs within tolerance of tangency or
    degeneracy in the first chunk that has one: the view's witness.

    Pairs are tested _PAIR_CHUNK at a time, so the temporaries stay
    bounded on curves with millions of candidate pairs.  A pair's verdict
    reads its own two segments alone."""
    # each segment's start and direction, as columns
    x, y = np.ascontiguousarray(a[:, :2].T)
    dx, dy = b[:, 0] - x, b[:, 1] - y
    length2 = dx * dx + dy * dy
    hits = [(np.empty(0, np.int64), np.empty(0), np.empty(0))]
    for start in range(0, len(ii), _PAIR_CHUNK):
        ci, cj = ii[start : start + _PAIR_CHUNK], jj[start : start + _PAIR_CHUNK]
        rx, ry = dx.take(ci), dy.take(ci)
        sx, sy = dx.take(cj), dy.take(cj)
        qx, qy = x.take(cj) - x.take(ci), y.take(cj) - y.take(ci)
        denom = rx * sy - ry * sx
        scale = np.sqrt(length2.take(ci) * length2.take(cj)) + 1e-300
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (qx * sy - qy * sx) / denom
            u = (qx * ry - qy * rx) / denom
        near_parallel = np.abs(denom) < _TANGENCY_EPS * scale
        # crossings on or next to both segments: if one lies within
        # tolerance of a segment end the view is near-tangent, else the
        # proper ones are hits
        eps = _TANGENCY_EPS
        on_both = ~near_parallel & (t > -eps) & (t < 1.0 + eps) & (u > -eps) & (u < 1.0 + eps)
        k = np.flatnonzero(on_both)
        t, u = t[k], u[k]
        near = (np.abs(t) < eps) | (np.abs(t - 1.0) < eps) | (np.abs(u) < eps) | (np.abs(u - 1.0) < eps)
        if near.any():
            return ci[k[near]] * len(a) + cj[k[near]]
        inside = (t > 0.0) & (t < 1.0) & (u > 0.0) & (u < 1.0)
        k = k[inside]
        hits.append((ci[k] * len(a) + cj[k], t[inside], u[inside]))
    return tuple(np.concatenate(h) for h in zip(*hits))


def _crossings(a: np.ndarray, b: np.ndarray, hits: np.ndarray, t: np.ndarray, u: np.ndarray):
    """The crossings at the hits of the n segments a -> b, at parameters
    t and u on their two segments, over and under read off z; or, as one
    array, the keys of the hits where two strands touch in 3-space: the
    view's witness."""
    i, j = np.divmod(hits, len(a))
    xi, yi, zi = (a[i] + t[:, None] * (b[i] - a[i])).T
    zj = a[j, 2] + u * (b[j, 2] - a[j, 2])
    touch = np.abs(zi - zj) < _TANGENCY_EPS
    if touch.any():
        return hits[touch]
    crossings = []
    for over, under, x, y, z_over, z_under in zip(*(v.tolist() for v in (i, j, xi, yi, zi, zj))):
        if z_over < z_under:
            over, under, z_over, z_under = under, over, z_under, z_over
        crossings.append(Crossing(over, under, (x, y), z_over, z_under))
    return crossings


def _view(a: np.ndarray, b: np.ndarray, pad: float, found) -> _Search:
    """The search of a view of the segments a -> b from what
    ``_crossing_test`` found among its pairs."""
    if isinstance(found, tuple):
        crossings = _crossings(a, b, *found)
        if isinstance(crossings, list):
            return _Search(pad, *found, crossings)
        found = crossings
    return _Search(pad, None, None, None, None, found)


def _search(a: np.ndarray, b: np.ndarray, closed: bool, old: _Search | None = None, hot=None, witness=None):
    """The crossing search of the segments a -> b.

    A pair's candidacy and its test read its two segments' xy ends and
    the pad alone, and whether its strands touch reads their z too.  So
    given a witness, the keys of pairs that made a view of a curve of
    this shape degenerate, only those pairs are tested first: every pair
    that can be degenerate is a candidate (``_candidate_pairs``), so if
    one is degenerate here the view is, and its search is over with no
    candidate walked.  Otherwise, given old, the search of a curve of
    this shape, with this pad, and the mask hot of the segments whose xy
    ends moved since, only the pairs with a hot segment are walked
    (``_candidate_pairs`` given hot) and tested, and the other hits are
    read off old.  Either way the search is the whole one's, or as
    degenerate as it."""
    n = len(a)
    mids, half, pad = _extents(a, b)
    if witness is not None:
        seen = _view(a, b, pad, _crossing_test(a, b, *np.divmod(witness, n)))
        if seen.witness is not None:
            return seen
    if old is None or old.hits is None or old.pad != pad:
        old = hot = None
    found = _crossing_test(a, b, *_candidate_pairs(mids, half, pad, closed, hot))
    if isinstance(found, tuple) and old is not None:
        # merged into key order, the order the whole search tests in
        kept = ~(hot.take(old.hits // n) | hot.take(old.hits % n))
        order = np.argsort(np.concatenate([old.hits[kept], found[0]]))
        found = tuple(np.concatenate([was[kept], now])[order] for was, now in zip(old[1:4], found))
    return _view(a, b, pad, found)


def xy_search(
    curve: PLCurve, last: PLCurve | None = None, old: _Search | None = None, witness=None
) -> _Search:
    """The crossing search of the curve's xy view.  Given the witness of
    a degenerate view of a curve of this shape, its pairs are tested
    first; given old, the search of last, a curve of this shape, only the
    pairs with a segment whose xy ends moved since last are walked
    (``_search``)."""
    pts, closed = curve.points, curve.closed
    hot = None
    if old is not None:
        now = pts[:, :2].view(np.int64) != last.points[:, :2].view(np.int64)
        hot = np.logical_or(*segment_ends(now[:, 0] | now[:, 1], closed))
    return _search(*segment_ends(pts, closed), closed, old, hot, witness)


def find_crossings(curve: PLCurve, search: _Search | None = None) -> list[Crossing]:
    """Crossings of the +z orthographic projection, from search, the
    unperturbed view's (``xy_search``), searched here where not given.

    Near-tangent configurations are resolved by perturbing the view by
    1e-7 rad about x, then y.  A view is degenerate exactly when one of
    its candidate pairs is: a pair ``_crossing_test`` flags, or a hit
    where two strands touch in 3-space.  Each pair's verdict reads its
    own two segments alone, and every pair that can be degenerate is a
    candidate, so the pairs that made one view degenerate, its witness,
    are tested first in the next: a view in which one of them is still
    degenerate is rejected unsearched, and any other is searched whole.
    """
    pts, closed = curve.points, curve.closed
    search = xy_search(curve) if search is None else search
    for rot in (_rotation(0, _PERTURB_RAD), _rotation(0, _PERTURB_RAD) @ _rotation(1, _PERTURB_RAD)):
        if search.crossings is None:
            search = _search(*segment_ends(pts @ rot.T, closed), closed, witness=search.witness)
    if search.crossings is None:
        raise ValueError("projection is degenerate even after view perturbation")
    return search.crossings


def _drawn_pieces(gaps: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """What is left of [0, 1] once the gaps are cut, in one sweep by start:
    a piece before each gap that starts past every earlier gap's end."""
    pieces, end = [], 0.0
    for g0, g1 in sorted(gaps):
        if g0 > end:
            pieces.append((end, g0))
        end = max(end, g1)
    if end < 1.0:
        pieces.append((end, 1.0))
    return pieces


def render_svg(
    curve: PLCurve, gap_radius: float = 0.005, crossings: list | None = None, points: DecimalText | None = None
) -> str:
    """SVG drawing of the projected diagram with under-strand gaps, at the
    curve's crossings, found here where not given.

    Each run of drawn pieces is one ``<polyline>``: a piece joins the run
    of the piece before it when that one reaches its segment's end and
    this one starts at the next segment's start.  The group's transform
    flips y, so a vertex is printed as its own "x,y " row of points, the
    curve's point text (``geometry.curve_texts``), laid out here where not
    given.  A run is an optional start cut, a contiguous range of
    vertices, the last of which may be vertex 0 on a closed curve, and an
    optional end cut, so its text is slices of the point text and of the
    cuts' text: only the gap cuts a + t (b - a) are printed here, through
    the same exact ``%.17g`` kernel.  Round caps and round joins stroke
    the same region as one round-capped line per piece.
    """
    pts = curve.points
    n = len(pts)
    crossings = find_crossings(curve) if crossings is None else crossings
    points = DecimalText.of(_g17_cells(pts[:, :2]), _POINT_SEPS) if points is None else points
    a, b = curve.segment_arrays()
    # each under segment's gap: its crossing's parameter t0 on it, +- the
    # gap radius over its xy length, cut to [0, 1]; np.vecdot sums each
    # row as the 1-D dot inside np.linalg.norm and @ does, so the gaps are
    # the ones a crossing at a time gives
    under = np.array([c.seg_under for c in crossings], np.int64)
    x = np.array([c.xy for c in crossings], float).reshape(-1, 2)
    seg_a = a[under, :2]
    d = b[under, :2] - seg_a
    length = np.sqrt(np.vecdot(d, d))
    drawn = length != 0
    under, x, seg_a, d, length = (v[drawn] for v in (under, x, seg_a, d, length))
    t0 = np.vecdot(x - seg_a, d) / (length * length)
    dt = gap_radius / length
    gaps: dict[int, list[tuple[float, float]]] = {}
    for i, g0, g1 in zip(under.tolist(), np.maximum(0.0, t0 - dt).tolist(), np.minimum(1.0, t0 + dt).tolist()):
        gaps.setdefault(i, []).append((g0, g1))
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
    # a run starts at every piece that does not continue the one before;
    # its first piece may start at a cut, its last end at one, and its
    # vertices are v0 .. v1 - 1, vertex n being vertex 0
    first = np.ones(len(seg), dtype=bool)
    first[1:] = (hi[:-1] != 1.0) | (lo[1:] != 0.0) | (seg[1:] != seg[:-1] + 1)
    r0 = np.flatnonzero(first)
    r1 = np.append(r0[1:], len(seg)) - 1
    cut0, cut1 = lo[r0] != 0.0, hi[r1] != 1.0
    v0, v1 = seg[r0] + cut0, seg[r1] + 2 - cut1
    s = np.concatenate([seg[r0][cut0], seg[r1][cut1]])
    t = np.concatenate([lo[r0][cut0], hi[r1][cut1]])
    cuts = DecimalText.of(_g17_cells(a[s, :2] + t[:, None] * (b[s, :2] - a[s, :2])), points.seps)
    text, at = memoryview(points.text), points.at
    cut_text = memoryview(cuts.text)
    cut_texts = [cut_text[c0:c1] for c0, c1 in zip(cuts.at[:-1].tolist(), cuts.at[1:].tolist())]
    start_cuts, end_cuts = iter(cut_texts), iter(cut_texts[int(cut0.sum()) :])
    vertex_0 = text[at[0] : at[1]]
    body = []
    runs = (v.tolist() for v in (cut0, at.take(v0), at.take(np.minimum(v1, n)), v1 > n, cut1))
    for opens_cut, p0, p1, wraps, ends_cut in zip(*runs):
        run = [b'<polyline points="']
        if opens_cut:
            run.append(next(start_cuts))
        run.append(text[p0:p1])
        if wraps:
            run.append(vertex_0)
        if ends_cut:
            run.append(next(end_cuts))
        # the last point's text, but its closing separator
        run[-1] = run[-1][:-1]
        body += run
        body.append(b'" />\n')
    # column by column: a reduction over the strided (n, 2) block is ten
    # times slower
    xs, ys = pts[:, 0], pts[:, 1]
    lo_xy, hi_xy = np.array([xs.min(), ys.min()]), np.array([xs.max(), ys.max()])
    pad = 0.05 * max(1e-9, float((hi_xy - lo_xy).max()))
    vb = (
        f"{lo_xy[0] - pad:.17g} {-(hi_xy[1] + pad):.17g} "
        f"{hi_xy[0] - lo_xy[0] + 2 * pad:.17g} {hi_xy[1] - lo_xy[1] + 2 * pad:.17g}"
    )
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{vb}">\n'
        f'<g transform="scale(1 -1)" stroke="black" stroke-width="{_STROKE}" fill="none" '
        'stroke-linecap="round" stroke-linejoin="round">\n'
    )
    return b"".join([head.encode(), *body, b"</g>\n</svg>\n"]).decode()
