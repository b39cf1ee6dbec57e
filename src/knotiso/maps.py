"""Evaluable, invertible self-maps of 3-space with compact support.

Four kinds are provided:

* ``AffineMap`` -- a global affine map, used to conjugate canonical moves
  into target boxes.  A non-identity affine map cannot be identity outside
  a bounded set, so its declared support is an effectively-unbounded box.
* ``ConeMap`` -- the piecewise-affine "vertex pull" over a box: the box
  boundary is star-triangulated into 12 triangles, and the cone over each
  from an interior apex is mapped affinely so the apex moves from p0 to
  p1 while the boundary and exterior stay pointwise fixed.
* ``UnsquishMap`` -- a fixed-time slice of the radial expansion between
  two concentric nested boxes; points near the expansion center are moved
  away from it by an exact factor of 1/c at time 1.
* ``CompositeMap`` -- left-to-right composition of other maps, evaluated
  only on the rows inside its declared support.

All maps evaluate pointwise (``apply``) and in bulk over (n, 3) arrays
(``apply_array``); inverses are exact map objects, not numeric solves.
``AffineMap`` and ``ConeMap`` build their inverse once and hand the same
object to every caller, and the canonical moves built from them are
shared module constants (see ``canonical``), so no caller may mutate a
map or its arrays.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .geometry import Box, Point3, bounding_box, distance

_HUGE = 1e12


def unbounded_box() -> Box:
    return Box(Point3(-_HUGE, -_HUGE, -_HUGE), Point3(_HUGE, _HUGE, _HUGE))


class LocalMap:
    """Interface shared by every map kind."""

    support: Box

    def apply(self, p: Point3) -> Point3:
        return Point3.from_array(self.apply_array(p.as_array()[None, :])[0])

    def apply_array(self, pts: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def inverse(self) -> "LocalMap":
        raise NotImplementedError

    def apply_inverse_array(self, pts: np.ndarray) -> np.ndarray:
        return self.inverse().apply_array(pts)


@dataclass(frozen=True)
class IdentityMap(LocalMap):
    support: Box = field(default_factory=lambda: Box(Point3(0, 0, 0), Point3(0, 0, 0)))

    def apply_array(self, pts: np.ndarray) -> np.ndarray:
        return pts.copy()

    def inverse(self) -> "IdentityMap":
        return self


class AffineMap(LocalMap):
    """p -> M p + t with |det M| bounded away from zero."""

    def __init__(self, matrix: np.ndarray, translation: Point3):
        matrix = np.asarray(matrix, dtype=float).reshape(3, 3)
        det = float(np.linalg.det(matrix))
        # relative to the matrix scale so uniformly tiny frames stay valid
        scale = float(np.abs(matrix).max())
        if abs(det) <= 1e-12 * max(scale, 1e-200) ** 3:
            raise ValueError(f"affine matrix is singular (det={det})")
        self.matrix = matrix
        self.translation = translation
        self._shift = translation.as_array()
        self.support = unbounded_box()
        self._inverse: AffineMap | None = None

    @staticmethod
    def similarity(scale: float, translation: Point3) -> "AffineMap":
        return AffineMap(np.eye(3) * scale, translation)

    @staticmethod
    def box_to_box(src: Box, dst: Box) -> "AffineMap":
        """Axis-aligned affine map taking one box onto another."""
        s = src.half_extents.as_array()
        d = dst.half_extents.as_array()
        if (s <= 0).any():
            raise ValueError("source box is degenerate")
        scale = d / s
        m = np.diag(scale)
        t = dst.center.as_array() - m @ src.center.as_array()
        return AffineMap(m, Point3.from_array(t))

    def apply_array(self, pts: np.ndarray) -> np.ndarray:
        return pts @ self.matrix.T + self._shift

    def inverse(self) -> "AffineMap":
        # no link back: inv(inv(M)) is not bitwise M, and the reports of
        # reversed conjugated moves are pinned on the double inverse
        if self._inverse is None:
            inv = np.linalg.inv(self.matrix)
            self._inverse = AffineMap(inv, Point3.from_array(-inv @ self._shift))
        return self._inverse


def _box_boundary_triangles(box: Box) -> np.ndarray:
    """The 12 boundary triangles of a box, (12, 3, 3).

    Each face is split along the diagonal through the face corner with the
    lexicographically smallest coordinates, so the decomposition is
    deterministic.
    """
    lo = box.lo.as_array()
    hi = box.hi.as_array()
    tris = []
    for axis in range(3):
        for side_val in (lo[axis], hi[axis]):
            u, v = [a for a in range(3) if a != axis]
            # face corners in (u, v) order: 00, 01, 10, 11
            c = {}
            for bu in (0, 1):
                for bv in (0, 1):
                    pt = np.empty(3)
                    pt[axis] = side_val
                    pt[u] = lo[u] if bu == 0 else hi[u]
                    pt[v] = lo[v] if bv == 0 else hi[v]
                    c[(bu, bv)] = pt
            # split along diagonal through the min corner c[0,0]-c[1,1]
            tris.append([c[(0, 0)], c[(1, 0)], c[(1, 1)]])
            tris.append([c[(0, 0)], c[(1, 1)], c[(0, 1)]])
    return np.array(tris)


# the in-face axes (u, v) of the faces normal to axis 0, 1, 2
_FACE_U = np.array([1, 0, 0])
_FACE_V = np.array([2, 2, 1])


class ConeMap(LocalMap):
    """Piecewise-affine pull of an interior apex of a box from p0 to p1.

    Fixes the box boundary and the exterior pointwise; bijective on all of
    space.  A point inside is moved by the affine map of the one
    tetrahedron (the apex and a boundary triangle) that contains it.  The
    inverse is the cone map with the apexes swapped.
    """

    def __init__(self, region: Box, p0: Point3, p1: Point3):
        if not region.contains(p0, strict=True):
            raise ValueError(f"apex source {p0} not strictly inside {region}")
        if not region.contains(p1, strict=True):
            raise ValueError(f"apex target {p1} not strictly inside {region}")
        self.region = region
        self.p0 = p0
        self.p1 = p1
        self.support = region
        self._tris = _box_boundary_triangles(region)  # (12, 3, 3)
        a0 = p0.as_array()
        a1 = p1.as_array()
        # barycentric solve matrices: columns t_i - p0 for each tetra
        basis = self._tris - a0[None, None, :]  # (12, 3, 3) rows are t_i - p0
        self._inv_basis = np.linalg.inv(np.transpose(basis, (0, 2, 1)))  # (12, 3, 3)
        self._a0 = a0
        self._a1 = a1
        # exit-face pick: nonzero since the apex is strictly inside
        self._lo = region.lo.as_array()
        hi = region.hi.as_array()
        self._inv_to_lo = 1.0 / (self._lo - a0)
        self._inv_to_hi = 1.0 / (hi - a0)
        self._inv_extent = 1.0 / (hi - self._lo)
        self._inverse: ConeMap | None = None

    def apply_array(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        out = pts.copy()
        inside = self.region.contains_array(pts)
        if not inside.any():
            return out
        q = pts[inside]  # (m, 3)
        rel = q - self._a0  # (m, 3)
        m_idx = np.arange(q.shape[0])
        # the ray from the apex through a point leaves the box through the
        # face maximizing rel_i / (face_i - a0_i); the apex row scores 0
        ratio = np.where(rel > 0.0, rel * self._inv_to_hi, rel * self._inv_to_lo)
        axis = ratio.argmax(axis=1)
        rho = ratio[m_idx, axis]
        side = rel[m_idx, axis] > 0.0
        # rho * (exit point - lo) over the box extent; the face's second
        # triangle lies above its diagonal through the min corner
        frac = ((self._a0 - self._lo) * rho[:, None] + rel) * self._inv_extent
        which = frac[m_idx, _FACE_V[axis]] > frac[m_idx, _FACE_U[axis]]
        best = axis * 4 + side * 2 + which  # index into _box_boundary_triangles
        # barycentric weights in that one tetrahedron
        lam = np.einsum("mij,mj->mi", self._inv_basis[best], rel)  # (m, 3)
        b0 = 1.0 - lam.sum(axis=-1)  # apex weight, (m,)
        img = b0[:, None] * self._a1 + np.einsum("mi,mij->mj", lam, self._tris[best])
        out[inside] = img
        return out

    def inverse(self) -> "ConeMap":
        # ConeMap(region, p1, p0).inverse() would rebuild self's arrays
        # bitwise, so the inverse links back to self
        if self._inverse is None:
            self._inverse = ConeMap(self.region, self.p1, self.p0)
            self._inverse._inverse = self
        return self._inverse


@dataclass(frozen=True)
class UnsquishParams:
    """Geometry of the two-box radial expansion.

    ``outer`` and ``inner`` must be concentric with parallel sides and
    ``inner`` strictly inside ``outer``; ``apex`` is the expansion center
    q, strictly inside ``inner``; ``c`` in (0, 1) is the inverse-Lipschitz
    allowance of the move that follows, so points with radial parameter at
    most c/2 end up exactly 1/c times farther from q at time 1.
    """

    outer: Box
    inner: Box
    apex: Point3
    c: float

    def __post_init__(self) -> None:
        if not (0.0 < self.c < 1.0):
            raise ValueError(f"c must be in (0,1), got {self.c}")
        if not self.outer.contains_box(self.inner, strict=True):
            raise ValueError("inner box must be strictly inside outer box")
        co = self.outer.center.as_array()
        ci = self.inner.center.as_array()
        if np.abs(co - ci).max() > 1e-12 * max(1.0, np.abs(co).max()):
            raise ValueError("outer and inner boxes must share a center")
        ho = self.outer.half_extents.as_array()
        hi = self.inner.half_extents.as_array()
        lam = ho / hi
        if lam.max() - lam.min() > 1e-9 * lam.max():
            raise ValueError("outer box must be a uniform scale-up of inner box")
        if not self.inner.contains(self.apex, strict=True):
            raise ValueError("apex must be strictly inside inner box")

    @property
    def scale_up(self) -> float:
        return float(self.outer.half_extents.x / self.inner.half_extents.x)

    @property
    def s_c0(self) -> float:
        return self.c / 2.0

    s_c1 = 0.5


def _box_radial_scale(box: Box, origin: np.ndarray, direction: np.ndarray) -> np.ndarray:
    """Largest r with origin + r*direction inside the box, per row."""
    lo = box.lo.as_array()
    hi = box.hi.as_array()
    with np.errstate(divide="ignore", invalid="ignore"):
        t_lo = (lo - origin) / direction
        t_hi = (hi - origin) / direction
    t_max = np.maximum(t_lo, t_hi)
    t_max[~np.isfinite(t_max)] = np.inf
    return t_max.min(axis=-1)


class UnsquishMap(LocalMap):
    """The fixed-time slice of the unsquish isotopy.

    Every point of the outer box lies on a unique polyline path
    apex -> v_inner -> v_outer (inner leg radial from the apex, outer leg
    radial from the shared box center), with glued parameter s in [0, 1]
    (s = 1/2 on the inner boundary).  The time-t map slides each point
    along its own path from parameter s to s'(t, s), a piecewise-linear
    reparameterization sending the breakpoint c/2 to the time-interpolated
    value s_c(t) = t/2 + (1 - t) c/2.
    """

    def __init__(self, params: UnsquishParams, t: float):
        if not (0.0 <= t <= 1.0):
            raise ValueError(f"time must be in [0,1], got {t}")
        self.params = params
        self.t = t
        self.support = params.outer
        self._center = params.outer.center.as_array()
        self._apex = params.apex.as_array()

    # -- path parameterization ------------------------------------------

    def _path_coords(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Glued parameter s and the inner-boundary anchor v_inner."""
        par = self.params
        in_inner = par.inner.contains_array(pts)
        s = np.empty(pts.shape[0])
        v_in = np.empty_like(pts)
        if in_inner.any():
            q = pts[in_inner]
            d = q - self._apex
            r = _box_radial_scale(par.inner, np.broadcast_to(self._apex, q.shape), d)
            at_apex = ~np.isfinite(r) | (np.abs(d).max(axis=-1) == 0.0)
            r = np.where(at_apex, 1.0, r)
            v = self._apex + r[:, None] * d
            s_raw = np.where(at_apex, 0.0, 1.0 / r)
            s[in_inner] = s_raw / 2.0
            v_in[in_inner] = np.where(at_apex[:, None], self._apex + 0.0, v)
        out_mask = ~in_inner
        if out_mask.any():
            q = pts[out_mask]
            d = q - self._center
            lam = par.scale_up
            r = _box_radial_scale(par.inner, np.broadcast_to(self._center, q.shape), d)
            # point is at multiple 1/r of the inner boundary along the
            # central ray; shell spans multiples 1 .. lam
            mult = 1.0 / r
            v = self._center + r[:, None] * d
            s[out_mask] = 0.5 + 0.5 * np.clip((mult - 1.0) / (lam - 1.0), 0.0, 1.0)
            v_in[out_mask] = v
        return s, v_in

    def _path_point(self, s: np.ndarray, v_in: np.ndarray) -> np.ndarray:
        par = self.params
        lam = par.scale_up
        inner_leg = s <= 0.5
        out = np.empty_like(v_in)
        sr = np.clip(2.0 * s, 0.0, 1.0)
        out[inner_leg] = self._apex + sr[inner_leg, None] * (v_in[inner_leg] - self._apex)
        if (~inner_leg).any():
            mult = 1.0 + (2.0 * s[~inner_leg] - 1.0) * (lam - 1.0)
            out[~inner_leg] = self._center + mult[:, None] * (
                v_in[~inner_leg] - self._center
            )
        return out

    def _s_prime(self, s: np.ndarray) -> np.ndarray:
        par = self.params
        s0 = par.s_c0
        sc_t = self.t * par.s_c1 + (1.0 - self.t) * s0
        low = s <= s0
        out = np.empty_like(s)
        out[low] = (s[low] / s0) * sc_t
        out[~low] = ((s[~low] - s0) / (1.0 - s0)) * 1.0 + (
            1.0 - (s[~low] - s0) / (1.0 - s0)
        ) * sc_t
        return out

    def _s_prime_inverse(self, sp: np.ndarray) -> np.ndarray:
        par = self.params
        s0 = par.s_c0
        sc_t = self.t * par.s_c1 + (1.0 - self.t) * s0
        low = sp <= sc_t
        out = np.empty_like(sp)
        out[low] = (sp[low] / sc_t) * s0
        out[~low] = s0 + (sp[~low] - sc_t) / (1.0 - sc_t) * (1.0 - s0)
        return out

    # -- LocalMap interface ---------------------------------------------

    def apply_array(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        out = pts.copy()
        inside = self.params.outer.contains_array(pts)
        if not inside.any():
            return out
        s, v_in = self._path_coords(pts[inside])
        out[inside] = self._path_point(self._s_prime(s), v_in)
        return out

    def apply_inverse_array(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        out = pts.copy()
        inside = self.params.outer.contains_array(pts)
        if not inside.any():
            return out
        s, v_in = self._path_coords(pts[inside])
        out[inside] = self._path_point(self._s_prime_inverse(s), v_in)
        return out

    def inverse(self) -> "LocalMap":
        return _InverseWrapper(self)


class _InverseWrapper(LocalMap):
    """Inverse view of a map whose inverse has no closed form of its own."""

    def __init__(self, inner: LocalMap):
        self._inner = inner
        self.support = inner.support

    def apply_array(self, pts: np.ndarray) -> np.ndarray:
        return self._inner.apply_inverse_array(pts)

    def apply_inverse_array(self, pts: np.ndarray) -> np.ndarray:
        return self._inner.apply_array(pts)

    def inverse(self) -> LocalMap:
        return self._inner


class CompositeMap(LocalMap):
    """Left-to-right composition: apply(p) runs parts[0] first.

    Only the rows inside the declared support are pushed through the
    parts; the rest come back bitwise unchanged.  The support must
    therefore contain everything any part moves.
    """

    def __init__(self, parts: Sequence[LocalMap], support: Box | None = None):
        self.parts = tuple(parts)
        if support is not None:
            self.support = support
        elif self.parts:
            self.support = bounding_box([m.support for m in self.parts])
        else:
            self.support = Box(Point3(0, 0, 0), Point3(0, 0, 0))

    def _on_support(self, pts: np.ndarray, run) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        inside = self.support.contains_array(pts)
        if inside.all():
            return run(pts)
        out = pts.copy()
        if inside.any():
            out[inside] = run(pts[inside])
        return out

    def apply_array(self, pts: np.ndarray) -> np.ndarray:
        def run(out: np.ndarray) -> np.ndarray:
            for m in self.parts:
                out = m.apply_array(out)
            return out

        return self._on_support(pts, run)

    def apply_inverse_array(self, pts: np.ndarray) -> np.ndarray:
        def run(out: np.ndarray) -> np.ndarray:
            for m in reversed(self.parts):
                out = m.apply_inverse_array(out)
            return out

        return self._on_support(pts, run)

    def inverse(self) -> "CompositeMap":
        return CompositeMap([m.inverse() for m in reversed(self.parts)], support=self.support)


def conjugate(frame: AffineMap, canonical: LocalMap, support: Box) -> CompositeMap:
    """frame o canonical o frame^-1, supported in the given box."""
    return CompositeMap([frame.inverse(), canonical, frame], support=support)


def make_cone_map(region: Box, p0: Point3, p1: Point3) -> LocalMap:
    if distance(p0, p1) == 0.0:
        return IdentityMap(support=region)
    return ConeMap(region, p0, p1)


def estimate_inverse_lipschitz(
    m: LocalMap, region: Box, n_samples: int, seed: int
) -> float:
    """Min over sampled point pairs of d(m(x1), m(x2)) / d(x1, x2).

    Deterministic given the seed.  For compactly supported non-affine maps
    this estimates the constant c with c*d(x1,x2) <= d(m(x1), m(x2)).
    """
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


def roundtrip_error(m: LocalMap, pts: np.ndarray) -> float:
    back = m.apply_inverse_array(m.apply_array(pts))
    return float(np.sqrt(((back - pts) ** 2).sum(-1)).max())
