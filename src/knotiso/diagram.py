"""Planar diagram export: orthographic projection onto the xy-plane,
crossing detection with over/under resolution, and SVG rendering with
under-strand gaps: one polyline per run of drawn pieces, in a group that
flips y, whose vertices are the curve's own ``%.17g`` cells joined by
``geometry.cell_text`` as its file's lines are, and whose gap cuts are
printed by the same exact kernel, ``geometry._g17_cells``.

Crossing candidates come from ``geometry``'s one segment-pair search;
like it, the crossing test reads x and y columns, taken once per view.
A curve keeps the search of its xy view, and a curve drawn against a
base (``engine.map_curve``) searches only the pairs with a segment that
moved, reading the others' candidacy and crossings off the base's.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import PLCurve, _g17_cells, cell_text, multiscale_close_pairs, nonadjacent, segment_ends

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
    pairs were found with, and the keys i n + j of the pairs that cross
    properly, sorted, with each crossing's parameters t and u on its two
    segments."""

    pad: float
    hits: np.ndarray
    t: np.ndarray
    u: np.ndarray


def _extents(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """The xy midpoints of the segments a -> b as two rows, their half
    lengths, and the pad 8 ulp(M), M the largest xy coordinate."""
    (x0, y0), (x1, y1) = a[:, :2].T, b[:, :2].T
    mids = np.stack([x0 + x1, y0 + y1]) / 2.0
    half = np.sqrt((x1 - x0) ** 2 + (y1 - y0) ** 2) / 2.0
    return mids, half, 8.0 * np.spacing(float(np.abs(mids).max() + half.max()))


def _candidate_pairs(a: np.ndarray, b: np.ndarray, closed: bool) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs of segments that share no vertex and whose xy extents
    can overlap, from the same multiscale search at every curve size.

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
    mids, half, pad = _extents(a, b)
    ii, jj = multiscale_close_pairs(mids.T, half * (1 + 1e-5), pad)
    return nonadjacent(ii, jj, len(a), closed)


def _crossing_test(a: np.ndarray, b: np.ndarray, ii: np.ndarray, jj: np.ndarray):
    """The keys i n + j of the pairs (ii, jj) of the n segments a -> b
    that cross properly in the xy view, in pair order, with t and u, or
    None if any pair is within tolerance of tangency or degeneracy.

    Pairs are tested _PAIR_CHUNK at a time, so the temporaries stay
    bounded on curves with millions of candidate pairs."""
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
        if (np.abs(np.concatenate([t, t - 1.0, u, u - 1.0])) < eps).any():
            return None
        inside = (t > 0.0) & (t < 1.0) & (u > 0.0) & (u < 1.0)
        k = k[inside]
        hits.append((ci[k] * len(a) + cj[k], t[inside], u[inside]))
    return tuple(np.concatenate(h) for h in zip(*hits))


def _crossings(a: np.ndarray, b: np.ndarray, search: _Search):
    """The crossings at the hits of the n segments a -> b, over and under
    read off z, or None if two strands touch in 3-space at one."""
    x, y, z = a.T
    dx, dy, dz = (b - a).T
    crossings = []
    for key, ti, uj in zip(search.hits.tolist(), search.t.tolist(), search.u.tolist()):
        i, j = divmod(key, len(a))
        zi, zj = z[i] + ti * dz[i], z[j] + uj * dz[j]
        if abs(zi - zj) < _TANGENCY_EPS:
            return None  # strands touch in 3-space at the crossing
        xy = (float(x[i] + ti * dx[i]), float(y[i] + ti * dy[i]))
        if zi > zj:
            crossings.append(Crossing(i, j, xy, float(zi), float(zj)))
        else:
            crossings.append(Crossing(j, i, xy, float(zj), float(zi)))
    return crossings


def _search(a: np.ndarray, b: np.ndarray, closed: bool, old: _Search | None = None, hot=None):
    """The crossing search of the segments a -> b, or None if a candidate
    pair is within tolerance of tangency or degeneracy.

    A pair's candidacy and its test read its two segments' xy ends and
    the pad alone.  So given old, the search of a curve of this shape,
    with this pad, and the mask hot of the segments whose xy ends moved
    since, only the pairs with a hot segment are walked
    (``multiscale_close_pairs`` given hot) and tested, and the other
    crossings are read off old: the search is the whole one's."""
    n = len(a)
    mids, half, pad = _extents(a, b)
    if old is None or old.pad != pad:
        old, (ii, jj) = None, _candidate_pairs(a, b, closed)
    else:
        ii, jj = nonadjacent(*multiscale_close_pairs(mids.T, half * (1 + 1e-5), pad, hot), n, closed)
    found = _crossing_test(a, b, ii, jj)
    if found is not None and old is not None:
        # merged into key order, the order the whole search tests in
        kept = ~(hot.take(old.hits // n) | hot.take(old.hits % n))
        order = np.argsort(np.concatenate([old.hits[kept], found[0]]))
        found = [np.concatenate([was[kept], now])[order] for was, now in zip(old[1:], found)]
    return None if found is None else _Search(pad, *found)


def _find_crossings(a: np.ndarray, b: np.ndarray, closed: bool):
    """Proper projected crossings of segment pairs that share no vertex, or
    None if any candidate pair is within tolerance of tangency/degeneracy."""
    search = _search(a, b, closed)
    return None if search is None else _crossings(a, b, search)


def find_crossings(curve: PLCurve) -> list[Crossing]:
    """Crossings of the +z orthographic projection.

    Near-tangent configurations are resolved by perturbing the view by
    1e-7 rad about x, then y.  The curve keeps the search of its
    unperturbed view (``_xy``), and where its base kept one, searches
    only the pairs with a segment whose xy ends moved since (``_search``);
    a perturbed view is searched whole.
    """
    pts, closed, base = curve.points, curve.closed, curve._base
    a, b = segment_ends(pts, closed)
    old = hot = None
    if base is not None and base._xy is not None:
        old, now = base._xy, pts[:, :2].view(np.int64) != base.points[:, :2].view(np.int64)
        hot = np.logical_or(*segment_ends(now[:, 0] | now[:, 1], closed))
    search = _search(a, b, closed, old, hot)
    object.__setattr__(curve, "_xy", search)
    result = None if search is None else _crossings(a, b, search)
    for rot in (_rotation(0, _PERTURB_RAD), _rotation(0, _PERTURB_RAD) @ _rotation(1, _PERTURB_RAD)):
        if result is None:
            result = _find_crossings(*segment_ends(pts @ rot.T, closed), closed)
    if result is None:
        raise ValueError("projection is degenerate even after view perturbation")
    return result


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


def render_svg(curve: PLCurve, gap_radius: float = 0.005) -> str:
    """SVG drawing of the projected diagram with under-strand gaps.

    Each run of drawn pieces is one ``<polyline>``: a piece joins the run
    of the piece before it when that one reaches its segment's end and
    this one starts at the next segment's start.  The group's transform
    flips y, so a vertex is printed as its own ``x,y`` cells from
    ``curve.decimal_cells()``, joined by ``cell_text`` as a curve file's
    lines are, and a frame's curve file and drawing format each vertex
    once.  Only the gap cuts a + t (b - a) are printed here, through the
    same exact ``%.17g`` kernel.  Round caps and round joins stroke the
    same region as one round-capped line per piece.
    """
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
    # a run starts at every piece that does not continue the one before
    first = np.ones(len(seg), dtype=bool)
    first[1:] = (hi[:-1] != 1.0) | (lo[1:] != 0.0) | (seg[1:] != seg[:-1] + 1)
    # the points in drawing order: each piece's end, after its start where
    # it begins a run; each is a vertex but at a gap cut
    end_at = np.arange(len(seg)) + np.cumsum(first)
    run_at = end_at[first] - 1
    vertex = np.empty(len(seg) + len(run_at), np.int64)
    vertex[run_at] = seg[first]
    vertex[end_at] = (seg + 1) % len(pts)
    cells = curve.decimal_cells().take(vertex, axis=0)[:, :2]
    # a piece that starts at a cut begins a run, one that ends at a cut
    # ends one
    cut_lo, cut_hi = lo != 0.0, hi != 1.0
    at = np.concatenate([end_at[cut_lo] - 1, end_at[cut_hi]])
    s = np.concatenate([seg[cut_lo], seg[cut_hi]])
    t = np.concatenate([lo[cut_lo], hi[cut_hi]])
    cells[at] = _g17_cells(a[s, :2] + t[:, None] * (b[s, :2] - a[s, :2]))
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
    body = []
    for r0, r1 in zip(run_at.tolist(), [*run_at[1:].tolist(), len(cells)]):
        text = list(cell_text(cells[r0:r1], b", "))
        body += [b'<polyline points="', *text[:-1], text[-1][:-1], b'" />\n']
    return b"".join([head.encode(), *body, b"</g>\n</svg>\n"]).decode()
