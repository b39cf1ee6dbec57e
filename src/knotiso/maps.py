"""Evaluable, invertible self-maps of 3-space with compact support.

Five kinds are provided:

* ``AffineMap`` -- an axis-aligned frame p -> scale * p + shift (per-axis
  scales, no rotation), carrying the canonical box onto a target box to
  conjugate canonical moves there.  A non-identity affine map cannot be
  identity outside a bounded set, so every affine map declares the one
  effectively-unbounded box ``UNBOUNDED`` as its support.
* ``ConeMap`` -- the piecewise-affine "vertex pull" over a box: the box
  boundary is star-triangulated into 12 triangles, and the cone over each
  from an interior apex is mapped affinely so the apex moves from p0 to
  p1.  The exterior stays bitwise fixed; the boundary stays fixed only up
  to rounding, since a boundary point's image is recomputed from its
  barycentric weights.
* ``UnsquishMap`` -- a fixed-time slice of the radial expansion between
  two concentric nested boxes; points near the expansion center are moved
  away from it by an exact factor of 1/c at time 1.
* ``CompositeMap`` -- left-to-right composition of other maps, evaluated
  only on the rows inside its declared support.
* ``ConjugateMap`` -- the composite leave o inner o enter supported in a
  box: a canonical map framed into that box (``conjugate``).

A composite applies each run of consecutive conjugates that share one
inner map object and have pairwise disjoint closed supports in one routed
pass: each row goes through the ``enter`` of the one box holding it, the
rows of all boxes through ``inner`` together, and each box's rows back
through its ``leave``.  That is bitwise the part-by-part loop, because a
conjugate maps its box onto itself and fixes everything else, and the
kernels act row by row.

All maps evaluate in bulk over (n, 3) arrays of points (``apply_array``),
and a point they are built from (a cone apex, an unsquish center) is a
float (3,) row; inverses are exact map objects, not numeric solves.
``AffineMap``, ``ConeMap`` and ``CompositeMap`` build their inverse once
and hand the same object to every caller, and the canonical moves built
from them are shared module constants (see ``canonical``), so no caller
may mutate a map or its arrays.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .geometry import Box, bounding_box, boxes_meet

_HUGE = 1e12

# the support every affine map declares
UNBOUNDED = Box(np.full(3, -_HUGE), np.full(3, _HUGE))

# the default support of a map that moves nothing
_ORIGIN = Box(np.zeros(3), np.zeros(3))


class LocalMap:
    """Interface shared by every map kind."""

    support: Box

    def apply_array(self, pts: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def inverse(self) -> "LocalMap":
        raise NotImplementedError

    def apply_inverse_array(self, pts: np.ndarray) -> np.ndarray:
        return self.inverse().apply_array(pts)


@dataclass(frozen=True)
class IdentityMap(LocalMap):
    support: Box = field(default_factory=lambda: _ORIGIN)

    def apply_array(self, pts: np.ndarray) -> np.ndarray:
        return pts.copy()

    def inverse(self) -> "IdentityMap":
        return self


class AffineMap(LocalMap):
    """p -> scale * p + shift, per axis, with every scale finite and
    nonzero.

    Every frame in knotiso carries one box onto another (``box_to_box``),
    so the linear part is diagonal and is kept as the (3,) ``scale``.  A
    diagonal map is invertible exactly when no axis scale is zero, however
    tiny or anisotropic the scales are.
    """

    def __init__(self, scale: np.ndarray, shift: np.ndarray):
        scale = np.asarray(scale, dtype=float)
        if not (np.isfinite(scale).all() and scale.all()):
            det = float(scale[0] * scale[1] * scale[2])
            raise ValueError(f"affine matrix is singular (det={det})")
        self.scale = scale
        self.shift = np.asarray(shift, dtype=float)
        self.support = UNBOUNDED
        self._inverse: AffineMap | None = None

    @staticmethod
    def box_to_box(src: Box, dst: Box) -> "AffineMap":
        """Axis-aligned affine map taking one box onto another."""
        s = src.half_extents
        if (s <= 0).any():
            raise ValueError("source box is degenerate")
        scale = dst.half_extents / s
        return AffineMap(scale, dst.center - scale * src.center)

    def apply_array(self, pts: np.ndarray) -> np.ndarray:
        return pts * self.scale + self.shift

    def inverse(self) -> "AffineMap":
        # no link back: 1 / (1 / s) is not bitwise s, and the reports of
        # reversed conjugated moves are pinned on the double inverse
        if self._inverse is None:
            inv = 1.0 / self.scale
            self._inverse = AffineMap(inv, -inv * self.shift)
        return self._inverse


def _box_boundary_triangles(box: Box) -> np.ndarray:
    """The 12 boundary triangles of a box, (12, 3, 3).

    Each face is split along the diagonal through the face corner with the
    lexicographically smallest coordinates, so the decomposition is
    deterministic.
    """
    lo, hi = box.lo, box.hi
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

    Fixes the exterior bitwise and the box boundary up to rounding (a
    boundary point's image is rebuilt from its barycentric weights, so it
    can move by tens of ulps); bijective on all of space.  A point inside
    is moved by the affine map of the one tetrahedron (the apex and a
    boundary triangle) that contains it.  The inverse is the cone map with
    the apexes swapped.
    """

    def __init__(self, region: Box, p0: np.ndarray, p1: np.ndarray):
        if not region.contains_array(p0, strict=True):
            raise ValueError(f"apex source {p0} not strictly inside {region}")
        if not region.contains_array(p1, strict=True):
            raise ValueError(f"apex target {p1} not strictly inside {region}")
        self.region = region
        self.p0 = p0
        self.p1 = p1
        self.support = region
        self._tris = _box_boundary_triangles(region)  # (12, 3, 3)
        # barycentric solve matrices: columns t_i - p0 for each tetra
        basis = self._tris - p0[None, None, :]  # (12, 3, 3) rows are t_i - p0
        self._inv_basis = np.linalg.inv(np.transpose(basis, (0, 2, 1)))  # (12, 3, 3)
        # exit-face pick: nonzero since the apex is strictly inside
        lo, hi = region.lo, region.hi
        self._inv_to_lo = 1.0 / (lo - p0)
        self._inv_to_hi = 1.0 / (hi - p0)
        self._inv_extent = 1.0 / (hi - lo)
        self._inverse: ConeMap | None = None

    def apply_array(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        out = pts.copy()
        inside = self.region.contains_array(pts)
        if not inside.any():
            return out
        q = pts[inside]  # (m, 3)
        rel = q - self.p0  # (m, 3)
        m_idx = np.arange(q.shape[0])
        # the ray from the apex through a point leaves the box through the
        # face maximizing rel_i / (face_i - a0_i); the apex row scores 0
        ratio = np.where(rel > 0.0, rel * self._inv_to_hi, rel * self._inv_to_lo)
        axis = ratio.argmax(axis=1)
        rho = ratio[m_idx, axis]
        side = rel[m_idx, axis] > 0.0
        # rho * (exit point - lo) over the box extent; the face's second
        # triangle lies above its diagonal through the min corner
        frac = ((self.p0 - self.region.lo) * rho[:, None] + rel) * self._inv_extent
        which = frac[m_idx, _FACE_V[axis]] > frac[m_idx, _FACE_U[axis]]
        best = axis * 4 + side * 2 + which  # index into _box_boundary_triangles
        # barycentric weights in that one tetrahedron
        lam = np.einsum("mij,mj->mi", self._inv_basis[best], rel)  # (m, 3)
        b0 = 1.0 - lam.sum(axis=-1)  # apex weight, (m,)
        img = b0[:, None] * self.p1 + np.einsum("mi,mij->mj", lam, self._tris[best])
        out[inside] = img
        return out

    def inverse(self) -> "ConeMap":
        # ConeMap(region, p1, p0).inverse() would rebuild self's arrays
        # bitwise, so the inverse links back to self
        if self._inverse is None:
            self._inverse = ConeMap(self.region, self.p1, self.p0)
            self._inverse._inverse = self
        return self._inverse


@dataclass(frozen=True, eq=False)
class UnsquishParams:
    """Geometry of the two-box radial expansion.

    ``outer`` and ``inner`` must be concentric with parallel sides and
    ``inner`` strictly inside ``outer``; ``apex``, a float (3,) row, is the
    expansion center q, strictly inside ``inner``; ``c`` in (0, 1) is the
    inverse-Lipschitz allowance of the move that follows, so points with
    radial parameter at most c/2 end up exactly 1/c times farther from q
    at time 1.
    """

    outer: Box
    inner: Box
    apex: np.ndarray
    c: float

    def __post_init__(self) -> None:
        if not (0.0 < self.c < 1.0):
            raise ValueError(f"c must be in (0,1), got {self.c}")
        if not self.outer.contains_box(self.inner, strict=True):
            raise ValueError("inner box must be strictly inside outer box")
        co = self.outer.center
        if np.abs(co - self.inner.center).max() > 1e-12 * max(1.0, np.abs(co).max()):
            raise ValueError("outer and inner boxes must share a center")
        lam = self.outer.half_extents / self.inner.half_extents
        if lam.max() - lam.min() > 1e-9 * lam.max():
            raise ValueError("outer box must be a uniform scale-up of inner box")
        if not self.inner.contains_array(self.apex, strict=True):
            raise ValueError("apex must be strictly inside inner box")

    @property
    def scale_up(self) -> float:
        return float(self.outer.half_extents[0] / self.inner.half_extents[0])

    @property
    def s_c0(self) -> float:
        return self.c / 2.0

    s_c1 = 0.5


def _box_radial_scale(box: Box, origin: np.ndarray, direction: np.ndarray) -> np.ndarray:
    """Largest r with origin + r*direction inside the box, per row."""
    # a zero or subnormal direction component gives an infinite reach there
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t_lo = (box.lo - origin) / direction
        t_hi = (box.hi - origin) / direction
    t_max = np.maximum(t_lo, t_hi)
    t_max[~np.isfinite(t_max)] = np.inf
    return np.minimum(np.minimum(t_max[:, 0], t_max[:, 1]), t_max[:, 2])


class UnsquishMap(LocalMap):
    """The fixed-time slice of the unsquish isotopy.

    Every point of the outer box lies on a unique polyline path
    apex -> v_inner -> v_outer (inner leg radial from the apex, outer leg
    radial from the shared box center), with glued parameter s in [0, 1]
    (s = 1/2 on the inner boundary).  The time-t map slides each point
    along its own path from parameter s to s'(t, s), a piecewise-linear
    reparameterization sending the breakpoint c/2 to the time-interpolated
    value s_c(t) = t/2 + (1 - t) c/2.

    The kernels take one pass over all the rows of the outer box: each
    evaluates both legs' formulas on every row and picks one per row
    (``np.where``), the origin of a row's ray being the apex or the center.
    """

    def __init__(self, params: UnsquishParams, t: float):
        if not (0.0 <= t <= 1.0):
            raise ValueError(f"time must be in [0,1], got {t}")
        self.params = params
        self.t = t
        self.support = params.outer
        self._center = params.outer.center
        self._apex = params.apex

    # -- path parameterization ------------------------------------------

    def _path_coords(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Glued parameter s and the inner-boundary anchor v_inner."""
        par = self.params
        in_inner = par.inner.contains_array(pts)
        # rows of the inner box lie on a ray from the apex, the rest of the
        # shell on a ray from the center
        origin = np.where(in_inner[:, None], self._apex, self._center)
        d = pts - origin
        r = _box_radial_scale(par.inner, origin, d)
        # only an inner row can sit at its origin: a shell row is off center
        at_apex = ~np.isfinite(r) | (np.abs(d).max(axis=-1) == 0.0)
        r = np.where(at_apex, 1.0, r)
        # a point is at multiple 1/r of the inner boundary along its ray;
        # the shell spans multiples 1 .. scale_up
        mult = 1.0 / r
        s_inner = np.where(at_apex, 0.0, mult) / 2.0
        s_shell = 0.5 + 0.5 * np.clip((mult - 1.0) / (par.scale_up - 1.0), 0.0, 1.0)
        s = np.where(in_inner, s_inner, s_shell)
        v_in = np.where(at_apex[:, None], self._apex + 0.0, origin + r[:, None] * d)
        return s, v_in

    def _path_point(self, s: np.ndarray, v_in: np.ndarray) -> np.ndarray:
        inner_leg = s <= 0.5
        origin = np.where(inner_leg[:, None], self._apex, self._center)
        two_s = 2.0 * s
        mult = np.where(
            inner_leg, np.clip(two_s, 0.0, 1.0), 1.0 + (two_s - 1.0) * (self.params.scale_up - 1.0)
        )
        return origin + mult[:, None] * (v_in - origin)

    def _s_prime(self, s: np.ndarray) -> np.ndarray:
        par = self.params
        s0 = par.s_c0
        sc_t = self.t * par.s_c1 + (1.0 - self.t) * s0
        high = (s - s0) / (1.0 - s0)
        return np.where(s <= s0, (s / s0) * sc_t, high + (1.0 - high) * sc_t)

    def _s_prime_inverse(self, sp: np.ndarray) -> np.ndarray:
        par = self.params
        s0 = par.s_c0
        sc_t = self.t * par.s_c1 + (1.0 - self.t) * s0
        return np.where(
            sp <= sc_t, (sp / sc_t) * s0, s0 + (sp - sc_t) / (1.0 - sc_t) * (1.0 - s0)
        )

    # -- LocalMap interface ---------------------------------------------

    def _slide(self, pts: np.ndarray, reparam) -> np.ndarray:
        """Slide each point of the outer box along its path from s to reparam(s)."""
        pts = np.asarray(pts, dtype=float)
        out = pts.copy()
        inside = self.params.outer.contains_array(pts)
        if not inside.any():
            return out
        s, v_in = self._path_coords(pts[inside])
        out[inside] = self._path_point(reparam(s), v_in)
        return out

    def apply_array(self, pts: np.ndarray) -> np.ndarray:
        return self._slide(pts, self._s_prime)

    def apply_inverse_array(self, pts: np.ndarray) -> np.ndarray:
        return self._slide(pts, self._s_prime_inverse)

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
    therefore contain everything any part moves.  Runs of conjugates are
    found on first use and routed (see the module docstring).
    """

    def __init__(self, parts: Sequence[LocalMap], support: Box | None = None):
        self.parts = tuple(parts)
        if support is not None:
            self.support = support
        elif self.parts:
            self.support = bounding_box([m.support for m in self.parts])
        else:
            self.support = _ORIGIN
        self._inverse: CompositeMap | None = None
        self._steps: list | None = None

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
        if self._steps is None:
            self._steps = _routed_steps(self.parts)

        def run(out: np.ndarray) -> np.ndarray:
            for step in self._steps:
                out = step.apply_array(out)
            return out

        return self._on_support(pts, run)

    def inverse(self) -> "CompositeMap":
        # no link back: inv(inv(M)) of an affine part is not bitwise M
        if self._inverse is None:
            self._inverse = self._inverted()
        return self._inverse

    def _inverted(self) -> "CompositeMap":
        return CompositeMap([m.inverse() for m in reversed(self.parts)], support=self.support)


class ConjugateMap(CompositeMap):
    """leave o inner o enter, supported in a box: ``enter`` carries the box
    into inner's domain and ``leave`` carries it back."""

    def __init__(self, enter: LocalMap, inner: LocalMap, leave: LocalMap, support: Box):
        super().__init__([enter, inner, leave], support=support)
        self.enter = enter
        self.inner = inner
        self.leave = leave

    def _inverted(self) -> "ConjugateMap":
        return ConjugateMap(
            self.leave.inverse(), self.inner.inverse(), self.enter.inverse(), self.support
        )


class _RoutedRun:
    """Conjugates sharing one inner map, with pairwise disjoint closed
    supports stacked as (r, 3) corner arrays, applied in one pass."""

    def __init__(self, parts: Sequence[ConjugateMap], lo: np.ndarray, hi: np.ndarray):
        self.parts = parts
        self.lo = lo
        self.hi = hi

    def apply_array(self, pts: np.ndarray) -> np.ndarray:
        # held[j, i]: box j holds row i, tested one axis at a time
        held = np.ones((len(self.parts), len(pts)), dtype=bool)
        for axis, x in enumerate(pts.T):
            held &= (self.lo[:, axis, None] <= x) & (x <= self.hi[:, axis, None])
        routed = [(m, np.nonzero(h)[0]) for m, h in zip(self.parts, held)]
        routed = [(m, r) for m, r in routed if len(r)]
        out = pts.copy()
        if not routed:
            return out
        local = np.concatenate([m.enter.apply_array(pts[r]) for m, r in routed])
        moved = self.parts[0].inner.apply_array(local)
        start = 0
        for m, r in routed:
            out[r] = m.leave.apply_array(moved[start : start + len(r)])
            start += len(r)
        return out


def _routed_steps(parts: Sequence[LocalMap]) -> list:
    """The parts in order, each run of two or more consecutive conjugates
    that share one inner object and whose closed supports are pairwise
    disjoint replaced by one ``_RoutedRun``."""
    conj = [i for i, m in enumerate(parts) if isinstance(m, ConjugateMap)]
    if len(conj) < 2:
        return list(parts)
    # one stacked meet test over every conjugate's support
    lo = np.array([parts[i].support.lo for i in conj])
    hi = np.array([parts[i].support.hi for i in conj])
    meet = boxes_meet(lo, hi)
    slot = {i: j for j, i in enumerate(conj)}
    steps: list = []
    run: list[int] = []  # slots of the open run

    def close() -> None:
        if len(run) > 1:
            steps.append(_RoutedRun([parts[conj[j]] for j in run], lo[run], hi[run]))
        else:
            steps.extend(parts[conj[j]] for j in run)
        run.clear()

    for i, m in enumerate(parts):
        j = slot.get(i)
        if j is None:
            close()
            steps.append(m)
            continue
        # the open run's slots are consecutive: run[0] .. j - 1
        if run and (m.inner is not parts[conj[run[0]]].inner or meet[j, run[0] : j].any()):
            close()
        run.append(j)
    close()
    return steps


def conjugate(frame: AffineMap, canonical: LocalMap, support: Box) -> ConjugateMap:
    """frame o canonical o frame^-1, supported in the given box."""
    return ConjugateMap(frame.inverse(), canonical, frame, support)


def make_cone_map(region: Box, p0: np.ndarray, p1: np.ndarray) -> LocalMap:
    """The cone map pulling p0 to p1, or the identity when they are the
    same point (-0.0 and 0.0 count as equal)."""
    if np.array_equal(p0, p1):
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
