"""Points, axis-aligned boxes, polylines and the metric predicates the rest
of the package is built on.

Everything here is immutable and pure.  All lengths are in dimensionless
model units.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

# curves with more segments than this get a spatial candidate search
# (``multiscale_close_pairs``); the others test all non-adjacent pairs
ALL_PAIRS_MAX_SEGMENTS = 1200


@dataclass(frozen=True, slots=True)
class Point3:
    """A point of 3-space with finite coordinates."""

    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y) and math.isfinite(self.z)):
            raise ValueError(f"non-finite coordinates: {(self.x, self.y, self.z)}")

    def __add__(self, other: "Point3") -> "Point3":
        return Point3(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Point3") -> "Point3":
        return Point3(self.x - other.x, self.y - other.y, self.z - other.z)

    def scaled(self, s: float) -> "Point3":
        return Point3(self.x * s, self.y * s, self.z * s)

    def dot(self, other: "Point3") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def norm(self) -> float:
        return math.sqrt(self.dot(self))

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)

    @staticmethod
    def from_array(a: np.ndarray) -> "Point3":
        return Point3(float(a[0]), float(a[1]), float(a[2]))


def lerp(a: Point3, b: Point3, t: float) -> Point3:
    return Point3(a.x + (b.x - a.x) * t, a.y + (b.y - a.y) * t, a.z + (b.z - a.z) * t)


def distance(a: Point3, b: Point3) -> float:
    """Euclidean distance between two points."""
    return math.sqrt((a.x - b.x) ** 2 + (a.y - b.y) ** 2 + (a.z - b.z) ** 2)


@dataclass(frozen=True, slots=True)
class Box:
    """A closed axis-aligned box given by its min and max corners."""

    lo: Point3
    hi: Point3
    # (lo, hi) as read-only float arrays, built on the first vectorized test
    _arrays: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.lo.x > self.hi.x or self.lo.y > self.hi.y or self.lo.z > self.hi.z:
            raise ValueError(f"box min corner exceeds max corner: {self.lo} > {self.hi}")

    def bound_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The corners lo and hi as read-only float arrays, built once."""
        if self._arrays is None:
            lo, hi = self.lo.as_array(), self.hi.as_array()
            lo.flags.writeable = hi.flags.writeable = False
            object.__setattr__(self, "_arrays", (lo, hi))
        return self._arrays

    @staticmethod
    def from_center(center: Point3, half_extents: Point3) -> "Box":
        return Box(center - half_extents, center + half_extents)

    @staticmethod
    def cube(center: Point3, side: float) -> "Box":
        h = side / 2.0
        return Box.from_center(center, Point3(h, h, h))

    @property
    def center(self) -> Point3:
        return lerp(self.lo, self.hi, 0.5)

    @property
    def half_extents(self) -> Point3:
        return (self.hi - self.lo).scaled(0.5)

    def diameter(self) -> float:
        return distance(self.lo, self.hi)

    def corners(self) -> list[Point3]:
        lo, hi = self.lo, self.hi
        return [
            Point3(x, y, z)
            for x in (lo.x, hi.x)
            for y in (lo.y, hi.y)
            for z in (lo.z, hi.z)
        ]

    def corner_array(self) -> np.ndarray:
        return np.array([c.as_array() for c in self.corners()])

    def contains(self, p: Point3, strict: bool = False) -> bool:
        if strict:
            return (
                self.lo.x < p.x < self.hi.x
                and self.lo.y < p.y < self.hi.y
                and self.lo.z < p.z < self.hi.z
            )
        return (
            self.lo.x <= p.x <= self.hi.x
            and self.lo.y <= p.y <= self.hi.y
            and self.lo.z <= p.z <= self.hi.z
        )

    def contains_array(self, pts: np.ndarray, strict: bool = False) -> np.ndarray:
        lo, hi = self.bound_arrays()
        if strict:
            return np.all((pts > lo) & (pts < hi), axis=-1)
        return np.all((pts >= lo) & (pts <= hi), axis=-1)

    def contains_box(self, other: "Box", strict: bool = False) -> bool:
        return self.contains(other.lo, strict) and self.contains(other.hi, strict)

    def intersects(self, other: "Box") -> bool:
        return (
            self.lo.x <= other.hi.x
            and other.lo.x <= self.hi.x
            and self.lo.y <= other.hi.y
            and other.lo.y <= self.hi.y
            and self.lo.z <= other.hi.z
            and other.lo.z <= self.hi.z
        )

    def scaled_about_center(self, factor: float) -> "Box":
        return Box.from_center(self.center, self.half_extents.scaled(factor))

    def wall_distance(self, p: Point3) -> float:
        """Distance from an interior point to the nearest face plane."""
        return min(
            p.x - self.lo.x,
            self.hi.x - p.x,
            p.y - self.lo.y,
            self.hi.y - p.y,
            p.z - self.lo.z,
            self.hi.z - p.z,
        )

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        lo = self.lo.as_array()
        hi = self.hi.as_array()
        return lo + rng.random((n, 3)) * (hi - lo)


def bounding_box(boxes: Sequence[Box]) -> Box:
    """The smallest box containing a non-empty family of boxes."""
    lo = np.min([b.lo.as_array() for b in boxes], axis=0)
    hi = np.max([b.hi.as_array() for b in boxes], axis=0)
    return Box(Point3.from_array(lo), Point3.from_array(hi))


def boxes_meet(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """meet[i, j]: closed boxes i and j, given by their stacked (n, 3)
    corner arrays lo and hi, share a point."""
    return np.all((lo[:, None] <= hi[None]) & (lo[None] <= hi[:, None]), axis=-1)


def union_diameter(boxes: Sequence[Box]) -> float:
    """Diameter of the union of a non-empty family of boxes.

    The supremum of pairwise distances over a union of boxes is attained at
    box corners, so the exact value is the max distance over all corner
    pairs.
    """
    if not boxes:
        raise ValueError("union_diameter of empty box list")
    corners = np.concatenate([b.corner_array() for b in boxes])
    diff = corners[:, None, :] - corners[None, :, :]
    return float(np.sqrt((diff**2).sum(axis=-1)).max())


class PLCurve:
    """A finite polyline in 3-space, open arc or closed loop.

    The vertices live in one read-only ``(n, 3)`` float array, ``points``;
    ``vertices`` is the same polyline as a tuple of ``Point3``, built on
    first use.  The constructor takes either form.
    """

    __slots__ = ("points", "closed", "_vertices")

    def __init__(self, vertices: Sequence[Point3] | np.ndarray, closed: bool = False) -> None:
        if isinstance(vertices, np.ndarray):
            pts = np.array(vertices, dtype=float)
        else:
            pts = np.array([(v.x, v.y, v.z) for v in vertices], dtype=float).reshape(-1, 3)
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
        object.__setattr__(self, "_vertices", None)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("PLCurve is immutable")

    @property
    def vertices(self) -> tuple[Point3, ...]:
        if self._vertices is None:
            verts = tuple(Point3(x, y, z) for x, y, z in self.points.tolist())
            object.__setattr__(self, "_vertices", verts)
        return self._vertices

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PLCurve):
            return NotImplemented
        return self.closed == other.closed and np.array_equal(self.points, other.points)

    @property
    def n_segments(self) -> int:
        return len(self.points) if self.closed else len(self.points) - 1

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
    """Index pairs of segments whose hulls can come within margin.

    Segment i is summarized by its midpoint ``mids[i]`` and half length
    ``half[i]``.  Returns int64 arrays ``(ii, jj)``, sorted by ``ii`` then
    ``jj``, of unique pairs with ``ii < jj`` that contain every pair with
    ``|mids[i] - mids[j]| <= half[i] + half[j] + margin``; they may
    contain more.

    Segments are bucketed by log2 half-length class (curves here are
    strongly multiscale, so a single KD radius degenerates to all pairs)
    and each class pair is searched once with radius = the sum of the
    classes' bounds on the half lengths plus the margin.
    """
    from scipy.spatial import cKDTree

    n = len(mids)
    cls = np.floor(np.log2(np.maximum(half, 1e-300))).astype(int)
    classes = np.unique(cls).tolist()
    groups = [np.nonzero(cls == c)[0] for c in classes]
    trees = [cKDTree(mids[g]) for g in groups]
    first = [np.empty(0, dtype=np.int64)]
    second = [np.empty(0, dtype=np.int64)]
    for i1, c1 in enumerate(classes):
        g1, t1 = groups[i1], trees[i1]
        pairs = t1.query_pairs(2.0 ** (c1 + 2) + margin, output_type="ndarray")
        first.append(g1[pairs[:, 0]])
        second.append(g1[pairs[:, 1]])
        for i2 in range(i1 + 1, len(classes)):
            r = 2.0 ** (c1 + 1) + 2.0 ** (classes[i2] + 1) + margin
            hits = t1.sparse_distance_matrix(trees[i2], r, output_type="ndarray")
            first.append(g1[hits["i"]])
            second.append(groups[i2][hits["j"]])
    a = np.concatenate(first)
    b = np.concatenate(second)
    key = np.sort(np.minimum(a, b) * n + np.maximum(a, b))
    key = key[np.diff(key, prepend=-1) != 0]
    return key // n, key % n


def curve_is_simple(curve: PLCurve, tol: float) -> bool:
    """True iff no pair of non-adjacent segments comes within tol."""
    a, b = curve.segment_arrays()
    n = curve.n_segments
    if n < 3:
        return True
    if n <= ALL_PAIRS_MAX_SEGMENTS:
        ii, jj = np.triu_indices(n, k=2)
        if curve.closed:
            keep = ~((ii == 0) & (jj == n - 1))
            ii, jj = ii[keep], jj[keep]
    else:
        # spatial prefilter: only segment pairs whose midpoints are close
        # enough to possibly come within tol need the exact test
        mids = (a + b) / 2.0
        half = np.sqrt(((b - a) ** 2).sum(-1)) / 2.0
        ii, jj = multiscale_close_pairs(mids, half, tol)
        if len(ii) == 0:
            return True
        adj = (jj - ii) <= 1
        if curve.closed:
            adj |= (ii == 0) & (jj == n - 1)
        keep = ~adj
        ii, jj = ii[keep], jj[keep]
    if len(ii) == 0:
        return True
    chunk = 500_000
    for start in range(0, len(ii), chunk):
        d = _segment_pair_distances(a, b, ii[start : start + chunk], jj[start : start + chunk])
        if (d < tol).any():
            return False
    return True


# -- curve file format -------------------------------------------------------
#
# line 1: "open N" or "closed N"
# then N lines "x y z" (decimal literals; written with 17 significant digits)


def write_curve(curve: PLCurve, path) -> None:
    kind = "closed" if curve.closed else "open"
    n = len(curve.points)
    body = "%.17g %.17g %.17g\n" * n % tuple(curve.points.ravel().tolist())
    with open(path, "w") as fh:
        fh.write(f"{kind} {n}\n{body}")


def read_curve(path) -> PLCurve:
    with open(path) as fh:
        tokens = fh.read().split("\n")
    header = tokens[0].split()
    if len(header) != 2 or header[0] not in ("open", "closed"):
        raise ValueError(f"bad curve file header: {tokens[0]!r}")
    n = int(header[1])
    rows = [[float(t) for t in line.split()] for line in tokens[1 : 1 + n]]
    if len(rows) != n:
        raise ValueError(f"expected {n} vertices, found {len(rows)}")
    if any(len(r) != 3 for r in rows):
        raise ValueError("each vertex line needs three coordinates")
    return PLCurve(np.array(rows, dtype=float).reshape(n, 3), closed=header[0] == "closed")
