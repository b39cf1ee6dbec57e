"""Points, axis-aligned boxes, polylines and the metric predicates the rest
of the package is built on.

A point is a float ``(3,)`` row and a set of points an ``(n, 3)`` array,
the form every map moves in bulk.  A ``Box`` keeps its min and max corners
as two read-only rows, and a ``PLCurve`` its vertices as one read-only
``(n, 3)`` array.  Both compare by value; a dataclass elsewhere that holds
a bare row compares by identity (``eq=False``), since ``==`` on arrays has
no single truth value.

Segment pairs are found one way at every curve size:
``multiscale_close_pairs`` gives the pairs whose midpoints lie close
enough, and ``nonadjacent`` drops those that share a vertex.  The
simplicity check here and the crossing search in ``diagram`` both use it.

Everything here is immutable and pure.  All lengths are in dimensionless
model units.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

# corner i of a box takes hi on axis a where bit (2 - a) of i is set, so
# the corners run x-major: (lo, lo, lo), (lo, lo, hi), ..., (hi, hi, hi)
_CORNER_HI = (np.arange(8)[:, None] >> np.array([2, 1, 0])) & 1 == 1


@dataclass(frozen=True, slots=True, eq=False)
class Box:
    """A closed axis-aligned box given by its min and max corners, each a
    read-only float (3,) row with finite coordinates."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self) -> None:
        # one (2, 3) copy holds both rows
        corners = np.array((self.lo, self.hi), dtype=float)
        if corners.shape != (2, 3):
            raise ValueError(f"box corners must be two (3,) rows, got {corners.shape}")
        if not np.isfinite(corners).all():
            raise ValueError(f"non-finite box corners: {corners.tolist()}")
        corners.flags.writeable = False
        lo, hi = corners
        if (lo > hi).any():
            raise ValueError(f"box min corner exceeds max corner: {lo} > {hi}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Box):
            return NotImplemented
        return np.array_equal(self.lo, other.lo) and np.array_equal(self.hi, other.hi)

    def __repr__(self) -> str:
        return f"Box(lo={tuple(self.lo.tolist())}, hi={tuple(self.hi.tolist())})"

    @staticmethod
    def from_center(center: Sequence[float], half_extents: Sequence[float]) -> "Box":
        center = np.asarray(center, dtype=float)
        return Box(center - half_extents, center + half_extents)

    @staticmethod
    def cube(center: Sequence[float], side: float) -> "Box":
        h = side / 2.0
        return Box.from_center(center, (h, h, h))

    @property
    def center(self) -> np.ndarray:
        return self.lo + (self.hi - self.lo) * 0.5

    @property
    def half_extents(self) -> np.ndarray:
        return (self.hi - self.lo) * 0.5

    def diameter(self) -> float:
        return float(np.sqrt(((self.hi - self.lo) ** 2).sum()))

    def corners(self) -> np.ndarray:
        """The 8 corners as an (8, 3) array, x-major."""
        return np.where(_CORNER_HI, self.hi, self.lo)

    def contains_array(self, pts: np.ndarray, strict: bool = False) -> np.ndarray:
        """Per row of pts (or for one row), whether the box holds it."""
        if strict:
            inside = (pts > self.lo) & (pts < self.hi)
        else:
            inside = (pts >= self.lo) & (pts <= self.hi)
        # the three columns ANDed: a reduction over a length-3 last axis is slower
        return inside[..., 0] & inside[..., 1] & inside[..., 2]

    def contains_box(self, other: "Box", strict: bool = False) -> bool:
        return bool(self.contains_array(np.stack([other.lo, other.hi]), strict).all())

    def scaled_about_center(self, factor: float) -> "Box":
        return Box.from_center(self.center, self.half_extents * factor)

    def wall_distance(self, p: np.ndarray) -> float:
        """Distance from an interior point to the nearest face plane."""
        return float(min((p - self.lo).min(), (self.hi - p).min()))

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.lo + rng.random((n, 3)) * (self.hi - self.lo)


def bounding_box(boxes: Sequence[Box]) -> Box:
    """The smallest box containing a non-empty family of boxes."""
    return Box(np.min([b.lo for b in boxes], axis=0), np.max([b.hi for b in boxes], axis=0))


def boxes_meet(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """meet[i, j]: closed boxes i and j, given by their stacked (n, 3)
    corner arrays lo and hi, share a point."""
    # one axis at a time: a reduction over a length-3 last axis is slower
    meet = np.ones((len(lo), len(lo)), dtype=bool)
    for a in range(3):
        meet &= (lo[:, None, a] <= hi[None, :, a]) & (lo[None, :, a] <= hi[:, None, a])
    return meet


def farthest_corner_distances(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """far[i, j]: the largest distance from a corner of box i to a corner
    of box j, the boxes given by their stacked (n, 3) corner arrays lo and
    hi.

    A corner pair is chosen axis by axis, and on each axis the largest
    gap |x_i - x_j| between a face of box i and one of box j is
    hi_i - lo_j or hi_j - lo_i.  Rounding is monotone, so the sum of the
    per-axis squared maxima is bitwise the largest of the 64 corner-pair
    sums dx**2 + dy**2 + dz**2, added in that order.
    """
    gx, gy, gz = (
        np.maximum(hi[:, None, a] - lo[None, :, a], hi[None, :, a] - lo[:, None, a])
        for a in range(3)
    )
    return np.sqrt(gx * gx + gy * gy + gz * gz)


def union_diameter(boxes: Sequence[Box]) -> float:
    """Diameter of the union of a non-empty family of boxes.

    The supremum of pairwise distances over a union of boxes is attained at
    box corners, so the exact value is the largest farthest-corner
    distance over all box pairs.
    """
    if not boxes:
        raise ValueError("union_diameter of empty box list")
    lo = np.array([b.lo for b in boxes])
    hi = np.array([b.hi for b in boxes])
    return float(farthest_corner_distances(lo, hi).max())


class PLCurve:
    """A finite polyline in 3-space, open arc or closed loop.

    The vertices live in one read-only ``(n, 3)`` float array, ``points``
    (``vertices`` is the same array); ``decimal_text()`` is the same
    polyline as the decimal lines of a curve file, built on first use.
    """

    __slots__ = ("points", "closed", "_text")

    def __init__(self, vertices: np.ndarray, closed: bool = False) -> None:
        pts = np.array(vertices, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError(f"vertices must be an (n, 3) array, got shape {pts.shape}")
        if not np.isfinite(pts).all():
            raise ValueError("non-finite vertex coordinates")
        n = len(pts)
        if closed and n < 3:
            raise ValueError("closed curve needs at least 3 vertices")
        if not closed and n < 2:
            raise ValueError("open curve needs at least 2 vertices")
        if (pts[1:] == pts[:-1]).all(axis=1).any():
            raise ValueError("consecutive vertices must be distinct")
        if closed and (pts[0] == pts[-1]).all():
            raise ValueError("closed curve must not repeat its first vertex")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "closed", closed)
        object.__setattr__(self, "_text", None)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("PLCurve is immutable")

    @property
    def vertices(self) -> np.ndarray:
        return self.points

    def decimal_text(self) -> str:
        """One ``"x y z\\n"`` line per vertex, each coordinate printed
        with ``%.17g`` (17 significant digits, so it reads back bitwise),
        built on first use."""
        if self._text is None:
            text = "%.17g %.17g %.17g\n" * len(self.points) % tuple(self.points.ravel().tolist())
            object.__setattr__(self, "_text", text)
        return self._text

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PLCurve):
            return NotImplemented
        return self.closed == other.closed and np.array_equal(self.points, other.points)

    def segment_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        pts = self.points
        if self.closed:
            a = pts
            b = np.roll(pts, -1, axis=0)
        else:
            a = pts[:-1]
            b = pts[1:]
        return a, b

    def densified(self, max_seg_len: float) -> "PLCurve":
        """Insert evenly spaced vertices so no segment exceeds max_seg_len:
        segment a -> b of length L becomes k = ceil(L / max_seg_len) pieces
        with vertices a + (b - a) * (j / k), j < k."""
        if not max_seg_len > 0:
            raise ValueError(f"max_seg_len must be positive, got {max_seg_len}")
        a, b = self.segment_arrays()
        d = b - a
        # np.vecdot sums like the 1-D dot inside np.linalg.norm(d[i]), so
        # each k is the one a per-segment norm gives; norm(d, axis=1)
        # rounds differently in the last bit for about one row in ten
        length = np.sqrt(np.vecdot(d, d))
        k = np.maximum(1, np.ceil(length / max_seg_len)).astype(np.int64)
        seg = np.repeat(np.arange(len(a)), k)
        starts = np.cumsum(k) - k
        j = np.arange(len(seg)) - np.repeat(starts, k)
        out = a[seg] + d[seg] * (j / k[seg])[:, None]
        if not self.closed:
            out = np.concatenate([out, self.points[-1:]])
        return PLCurve(out, closed=self.closed)


def _segment_pair_distances(
    a: np.ndarray, b: np.ndarray, idx_i: np.ndarray, idx_j: np.ndarray
) -> np.ndarray:
    """Vectorized segment-segment distances for index pairs (i, j)."""
    p1 = a[idx_i]
    p2 = b[idx_i]
    q1 = a[idx_j]
    q2 = b[idx_j]
    d1 = p2 - p1
    d2 = q2 - q1
    r = p1 - q1
    A = (d1 * d1).sum(-1)
    E = (d2 * d2).sum(-1)
    B = (d1 * d2).sum(-1)
    C = (d1 * r).sum(-1)
    F = (d2 * r).sum(-1)
    denom = A * E - B * B
    safe = denom > 1e-14 * np.maximum(A * E, 1e-300)
    s = np.where(safe, (B * F - C * E) / np.where(safe, denom, 1.0), 0.0)
    s = np.clip(s, 0.0, 1.0)
    t = (B * s + F) / np.where(E > 0, E, 1.0)
    tc = np.clip(t, 0.0, 1.0)
    # re-clamp s where t was clamped
    s = np.where(tc != t, np.clip((B * tc - C) / np.where(A > 0, A, 1.0), 0.0, 1.0), s)
    cp = p1 + s[:, None] * d1
    cq = q1 + tc[:, None] * d2
    return np.sqrt(((cp - cq) ** 2).sum(-1))


def multiscale_close_pairs(
    mids: np.ndarray, half: np.ndarray, margin: float
) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs of segments whose midpoints lie within their half
    lengths plus margin.

    Segment i is summarized by its midpoint ``mids[i]`` and half length
    ``half[i]``.  Returns int64 arrays ``(ii, jj)``, sorted by ``ii`` then
    ``jj``, of exactly the pairs ``ii < jj`` with
    ``sqrt(((mids[ii] - mids[jj]) ** 2).sum(-1)) <= half[ii] + half[jj] + margin``.

    Segments are bucketed into classes two octaves of half length wide
    (curves here are strongly multiscale, so a single KD radius degenerates
    to all pairs).  Each class pair is searched once, with radius the sum
    of the two classes' largest half lengths plus the margin, unless the
    bounding boxes of the two classes' trees lie farther apart than that
    radius; the hits are then cut to each pair's own radius.  Rounding is
    monotone, so two classes' box distance is at most the distance of
    any pair between them, and the 1e-9 relative pad on the searched
    radius covers the KD tree's own rounding of the distances it compares.
    """
    from scipy.spatial import cKDTree

    n = len(mids)
    cls = np.floor(np.log2(np.maximum(half, 1e-300))).astype(np.int64) // 2
    groups = [np.nonzero(cls == c)[0] for c in np.unique(cls)]
    trees = [cKDTree(mids[g]) for g in groups]
    hmax = np.array([half[g].max() for g in groups])
    radius = (hmax[:, None] + hmax[None, :] + margin) * (1 + 1e-9)
    lo = np.array([t.mins for t in trees]).reshape(-1, mids.shape[1])
    hi = np.array([t.maxes for t in trees]).reshape(-1, mids.shape[1])
    gap = np.maximum(0.0, np.maximum(lo[:, None] - hi[None, :], lo[None, :] - hi[:, None]))
    near = np.sqrt((gap**2).sum(-1)) <= radius
    first = [np.empty(0, dtype=np.int64)]
    second = [np.empty(0, dtype=np.int64)]
    for i1, i2 in zip(*np.nonzero(np.triu(near))):
        g1, t1 = groups[i1], trees[i1]
        if i1 == i2:
            pairs = t1.query_pairs(radius[i1, i1], output_type="ndarray")
            first.append(g1[pairs[:, 0]])
            second.append(g1[pairs[:, 1]])
        else:
            hits = t1.sparse_distance_matrix(trees[i2], radius[i1, i2], output_type="ndarray")
            first.append(g1[hits["i"]])
            second.append(groups[i2][hits["j"]])
    a = np.concatenate(first)
    b = np.concatenate(second)
    dist = np.sqrt(((mids[a] - mids[b]) ** 2).sum(-1))
    keep = dist <= half[a] + half[b] + margin
    a, b = a[keep], b[keep]
    # each unordered pair is found in exactly one class pair
    key = np.sort(np.minimum(a, b) * n + np.maximum(a, b))
    return key // n, key % n


def nonadjacent(
    ii: np.ndarray, jj: np.ndarray, n: int, closed: bool
) -> tuple[np.ndarray, np.ndarray]:
    """The pairs ``ii < jj`` of the n segments of a curve that share no
    vertex: consecutive segments share one, and so do the last and the
    first of a closed curve."""
    keep = jj - ii >= 2
    if closed:
        keep &= ~((ii == 0) & (jj == n - 1))
    return ii[keep], jj[keep]


def curve_is_simple(curve: PLCurve, tol: float) -> bool:
    """True iff no pair of segments that share no vertex comes within tol."""
    a, b = curve.segment_arrays()
    # only pairs whose midpoints lie within their half lengths plus tol
    # can come within tol, so only those get the exact distance test
    mids = (a + b) / 2.0
    half = np.sqrt(((b - a) ** 2).sum(-1)) / 2.0
    ii, jj = nonadjacent(*multiscale_close_pairs(mids, half, tol), len(a), curve.closed)
    chunk = 500_000
    for start in range(0, len(ii), chunk):
        d = _segment_pair_distances(a, b, ii[start : start + chunk], jj[start : start + chunk])
        if (d < tol).any():
            return False
    return True


# -- curve file format -------------------------------------------------------
#
# line 1: "open N" or "closed N"
# then N lines "x y z": the curve's ``decimal_text()``, decimal literals
# with 17 significant digits, which ``render_svg`` reuses for the drawing


def write_curve(curve: PLCurve, path) -> None:
    kind = "closed" if curve.closed else "open"
    with open(path, "w") as fh:
        fh.write(f"{kind} {len(curve.points)}\n")
        fh.write(curve.decimal_text())


def read_curve(path) -> PLCurve:
    with open(path) as fh:
        # a file that ends in a newline has no empty last line; an empty
        # file reads as one empty header line
        tokens = fh.read().splitlines() or [""]
    header = tokens[0].split()
    if len(header) != 2 or header[0] not in ("open", "closed"):
        raise ValueError(f"bad curve file header: {tokens[0]!r}")
    n = int(header[1])
    if len(tokens) - 1 != n:
        raise ValueError(f"expected {n} vertices, found {len(tokens) - 1}")
    rows = [[float(t) for t in line.split()] for line in tokens[1:]]
    if any(len(r) != 3 for r in rows):
        raise ValueError("each vertex line needs three coordinates")
    return PLCurve(np.array(rows, dtype=float).reshape(n, 3), closed=header[0] == "closed")
