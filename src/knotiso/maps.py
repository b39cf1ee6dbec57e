"""Evaluable, invertible self-maps of 3-space with compact support.

Five kinds are provided:

* ``AffineMap`` -- an axis-aligned frame p -> scale * p + shift (per-axis
  scales, no rotation), carrying the canonical box onto a target box to
  conjugate canonical moves there.  A non-identity affine map cannot be
  identity outside a bounded set, so every affine map declares the one
  effectively-unbounded box ``UNBOUNDED`` as its support.  Frames onto
  stacked boxes follow the same rule (``box_frames``, ``frame_refusals``).
* ``ConeMap`` -- the Alexander-trick "vertex pull" over a box: a point q
  moves by (1 - rho(q)) * (p1 - p0), where the box gauge rho from the apex
  p0 is 0 at p0 and 1 on the boundary, so the apex goes to p1 and the
  boundary and exterior stay bitwise fixed.
* ``UnsquishMap`` -- a fixed-time slice of the radial expansion between
  two concentric nested boxes; points near the expansion center are moved
  away from it by an exact factor of 1/c at time 1.
* ``PowerMap1D`` -- the interval map x -> x^e of the x-axis, thickened to
  a box whose faces it fixes: the exponent tapers to 1 toward the lateral
  faces.
* ``CompositeMap`` -- left-to-right composition of other maps, evaluated
  only on the rows inside its declared support; a canonical map framed
  into a box (``conjugate``) is the composite of the inverse frame, the
  map and the frame.

All maps evaluate in bulk over (n, 3) arrays of points (``apply_array``),
and a point they are built from (a cone apex, an unsquish center) is a
float (3,) row; inverses are exact map objects, not numeric solves.
Inside the maps a batch is coordinate-major: its memory is Fortran order,
so each coordinate is one contiguous row of ``pts.T``, and the kernels
compute on those rows; the unsquish kernels, which have two legs each,
compute only the legs their rows take.  Every image is Fortran-ordered;
the values are the row-major ones bitwise, since every operation is per
element or a fixed-order fold over the three coordinates.  A batch's rows move by
``compress`` (or ``take``) on the coordinate rows, and the images go
back by one 1-D write per coordinate row (``_scatter``), never by a mask
paired with a slice: on a (3, 6000) float64 batch keeping 90% of its
rows, ``y[:, mask]`` takes about 80 us against about 30 us for
``y.compress(mask, axis=1)``, and ``z[:, mask] = v`` about 90 us against
about 30 us for the three 1-D writes (numpy 2.4.6, 2-core x86-64 VM).

Two rules live in ``LocalMap`` alone, so each kind states only its
kernel: ``_on_support`` runs the kernel on the rows inside ``support``,
with their positions in the batch where the kernel asks for them, and
hands every other row back bitwise unchanged, always in a fresh array, so
no image aliases its input; and ``inverse()`` builds the kind's
``_inverted()`` once and hands that same object to every caller.  The
culling rule has no exception: every kind with a bounded support that
moves points culls through it (an affine frame's support is unbounded,
and the identity moves nothing).  The canonical moves are shared module
constants (see ``canonical``), so no caller may mutate a map or its
arrays.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import Box

_HUGE = 1e12

# the support every affine map declares
UNBOUNDED = Box(np.full(3, -_HUGE), np.full(3, _HUGE))


class LocalMap:
    """Interface shared by every map kind."""

    support: Box
    _inverse: LocalMap | None = None

    def apply_array(self, pts: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _inverted(self) -> "LocalMap":
        raise NotImplementedError

    def inverse(self) -> "LocalMap":
        if self._inverse is None:
            self._inverse = self._inverted()
        return self._inverse

    def apply_inverse_array(self, pts: np.ndarray) -> np.ndarray:
        return self.inverse().apply_array(pts)

    def _on_support(self, pts: np.ndarray, run, at: bool = False) -> np.ndarray:
        """run(rows) on the rows inside the support; the rest come back
        bitwise unchanged, and always in a fresh array.  The batch is made
        Fortran-ordered once (no copy if it is already), its inside rows
        read with ``compress`` and written back one coordinate row at a
        time, and the image is Fortran-ordered.  With at, run(rows,
        positions) is handed the rows' positions in the batch too."""
        pts = np.asarray(pts, dtype=float, order="F")
        inside = self.support.contains_array(pts)
        held = np.count_nonzero(inside)
        if held == len(pts):
            return run(pts, np.arange(len(pts))) if at else run(pts)
        out = pts.copy(order="F")
        if held:
            rows = pts.T.compress(inside, axis=1).T
            image = run(rows, inside.nonzero()[0]) if at else run(rows)
            _scatter(out.T, inside, image.T)
        return out


def _scatter(rows: np.ndarray, where: np.ndarray, values: np.ndarray) -> None:
    """values[k] into coordinate row rows[k] at where, a mask or indices,
    for each of the three rows: one 1-D write per coordinate, about three
    times faster than ``rows[:, where] = values`` on a few thousand rows."""
    for row, value in zip(rows, values):
        row[where] = value


@dataclass(frozen=True)
class IdentityMap(LocalMap):
    support: Box

    def apply_array(self, pts: np.ndarray) -> np.ndarray:
        return pts.copy(order="K")

    def inverse(self) -> "IdentityMap":
        return self


class AffineMap(LocalMap):
    """p -> scale * p + shift, per axis, with every scale finite and
    nonzero and an inverse frame that is itself a frame of this kind.

    Every frame in knotiso carries one box onto another (``box_to_box``),
    so the linear part is diagonal and is kept as the (3,) ``scale``.  A
    diagonal map is invertible exactly when no axis scale is zero, however
    tiny or anisotropic the scales are; in floating point its inverse
    must also be finite, which a subnormal scale or a huge shift over a
    tiny scale breaks, and so must the inverse of that inverse, which a
    scale so large that 1 / scale is subnormal breaks.  Such a frame is
    refused when it is built (``frame_refusals``), so ``inverse()`` always
    builds.  Every zero shift component, of the frame and of its inverse,
    is kept as -0.0, the exact additive identity: x + (-0.0) is x bitwise,
    -0.0 included, where x + 0.0 turns -0.0 into 0.0.
    """

    def __init__(self, scale: np.ndarray, shift: np.ndarray):
        scale, shift = (np.array(v, dtype=float).reshape(3) for v in (scale, shift))
        bad_scale, no_inverse, inverse_frame = frame_refusals(scale, shift)
        if no_inverse.any():
            k = bad_scale.argmax() if bad_scale.any() else no_inverse.argmax()
            raise ValueError(
                f"affine scale on axis {'xyz'[k]} is {scale[k]}, not finite and nonzero"
                if bad_scale.any()
                else f"affine frame on axis {'xyz'[k]} has no finite inverse (scale {scale[k]})"
            )
        self.scale = scale
        self.shift = _negative_zeros(shift)
        self.support = UNBOUNDED
        self._inverse_frame = inverse_frame

    @staticmethod
    def box_to_box(src: Box, dst: Box) -> "AffineMap":
        """The axis-aligned affine map taking one box onto another."""
        return AffineMap(*box_frames(src, dst.lo, dst.hi))

    def apply_array(self, pts: np.ndarray) -> np.ndarray:
        return pts * self.scale + self.shift

    def _inverted(self) -> "AffineMap":
        # no link back: 1 / (1 / s) is not bitwise s, and the reports of
        # reversed conjugated moves are pinned on the double inverse
        return AffineMap(*self._inverse_frame)


def box_frames(src: Box, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-axis scale and shift of the frames carrying box src onto the
    boxes with corners lo and hi, (3,) rows or n stacked (n, 3) rows:
    scale = h_dst / h_src and shift = c_dst - scale * c_src, with h and c
    as ``Box`` reads them; not yet checked, and zero shifts not yet made
    -0.0, which ``AffineMap`` does once."""
    h = (src.hi - src.lo) * 0.5
    if not h.all():
        raise ValueError("source box is degenerate")
    # a huge target overflows to a scale that frame_refusals refuses
    with np.errstate(over="ignore", invalid="ignore"):
        half = (hi - lo) * 0.5
        scale = half / h
        shift = (lo + half) - scale * (src.lo + h)
    return scale, shift


def frame_refusals(scale: np.ndarray, shift: np.ndarray) -> tuple:
    """Per axis of these scale and shift rows, an ``AffineMap``'s two
    refusals, a scale zero or not finite and an inverse frame whose own
    inverse shift is not finite (true wherever the first is), as masks,
    and the inverse frame (1 / scale, -(1 / scale) * shift)."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        inv = 1.0 / scale
        inv_shift = -inv * shift
        no_inverse = ~np.isfinite(-(1.0 / inv) * inv_shift)
    bad_scale = ~np.isfinite(scale) | (scale == 0.0)
    return bad_scale, no_inverse, (inv, inv_shift)


def _negative_zeros(shift: np.ndarray) -> np.ndarray:
    """The shift with each zero component as -0.0, the additive identity."""
    return np.where(shift == 0.0, -0.0, shift)


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


def _radial_scale(lo_off: np.ndarray, hi_off: np.ndarray, direction: np.ndarray) -> np.ndarray:
    """Largest r with origin + r*direction inside a box, per column of the
    (3, m) directions: the reciprocal of the box gauge from origin, which
    the cone pull and the unsquish slide both read.  The box is given by
    its corners' offsets from the origin, lo - origin and hi - origin, as
    (3, 1) columns or (3, m) rows."""
    # a zero or subnormal direction component gives an infinite reach there
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t_lo = lo_off / direction
        t_hi = hi_off / direction
    # the origin is strictly inside the box, so a zero direction component,
    # +0.0 or -0.0, gives one infinite offset of each sign: the reach is +inf
    t_max = np.maximum(t_lo, t_hi)
    return np.minimum(np.minimum(t_max[0], t_max[1]), t_max[2])


def _column(row) -> np.ndarray:
    """A float (3,) row as a (3, 1) column, to broadcast over coordinate rows."""
    return np.asarray(row, dtype=float).reshape(3, 1)


class ConeMap(LocalMap):
    """Alexander-trick pull of an interior apex of a box from p0 to p1.

    A point q of the box moves to q + (1 - rho(q)) * (p1 - p0), where rho
    is the box gauge from p0: rho = 1/r for the largest r with
    p0 + r * (q - p0) in the box, so rho is 0 at the apex and 1 on the
    boundary.  This is the cone over the boundary from p0 carried affinely
    onto the cone from p1.  The boundary and the exterior stay bitwise
    fixed, as does every coordinate that p0 and p1 share, so with p0 == p1
    it is the bitwise identity; bijective on all of space.  The inverse is
    the cone map with the apexes swapped.

    The apex, the step and the box corners' offsets from p0, which every
    row's gauge reads, are (3, 1) columns computed once, when the map is
    built.
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
        self._apex = _column(p0)
        self._step = _column(p1 - p0)
        self._lo_off = _column(region.lo - p0)
        self._hi_off = _column(region.hi - p0)

    def apply_array(self, pts: np.ndarray) -> np.ndarray:
        return self._on_support(pts, self._pull)

    def _pull(self, q: np.ndarray) -> np.ndarray:
        """The images of (m, 3) rows inside the region, computed on their
        coordinate rows q.T."""
        q = q.T
        # r >= 1 inside the box and exactly 1 on its boundary; r is inf at
        # the apex, which therefore moves by the whole step
        r = _radial_scale(self._lo_off, self._hi_off, q - self._apex)
        shift = (1.0 - 1.0 / r) * self._step
        # a zero shift keeps the coordinate's bits, signed zero included
        return np.where(shift == 0.0, q, q + shift).T

    def _inverted(self) -> "ConeMap":
        # ConeMap(region, p1, p0).inverse() would rebuild self bitwise, so
        # the inverse links back to self
        inv = ConeMap(self.region, self.p1, self.p0)
        inv._inverse = self
        return inv

    def inverse_lipschitz(self) -> float:
        """The exact inverse-Lipschitz constant: the largest c with
        |m(x) - m(y)| >= c |x - y| for all x and y.

        On the pyramid from p0 over the face x_i = f the gauge is
        (q - p0) . w with w = e_i / (f - p0_i), so there the pull is the
        affine map q -> q + (1 - (q - p0) . w) u, u = p1 - p0, with
        Jacobian I - u w^T.  The pull is a piecewise-affine homeomorphism
        of space and the identity outside its region, so c is the least of
        1 and the six Jacobians' smallest singular values."""
        u = self.p1 - self.p0
        jacobians = []
        for axis in range(3):
            for off in (self._lo_off[axis, 0], self._hi_off[axis, 0]):
                w = np.zeros(3)
                w[axis] = 1.0 / off
                jacobians.append(np.eye(3) - np.outer(u, w))
        sigma = np.linalg.svd(np.array(jacobians), compute_uv=False)[:, -1]
        return min(1.0, float(sigma.min()))


class UnsquishMap(LocalMap):
    """The fixed-time slice of the unsquish isotopy.

    Every point of the outer box lies on a unique polyline path
    apex -> v_inner -> v_outer (inner leg radial from the apex, outer leg
    radial from the shared box center), with glued parameter s in [0, 1]
    (s = 1/2 on the inner boundary).  The time-t map slides each point
    along its own path from parameter s to s'(t, s), a piecewise-linear
    reparameterization sending the breakpoint c/2 to the time-interpolated
    value s_c(t) = t/2 + (1 - t) c/2.

    The kernels take one pass over the coordinate rows of the outer box's
    points and compute only the legs their rows take: where every row
    takes one leg (inner box or shell, s below or above a breakpoint),
    that leg's formula alone; where the rows are mixed, both legs'
    formulas on every row, one picked per row (``np.where``).  The origin
    of a point's ray is the apex or the center, both kept as (3, 1)
    columns.  Those columns, the inner box's corners' offsets from each,
    and the constants the kernels read -- scale_up - 1, c/2 and s_c(t)
    with their complements 1 - c/2 and 1 - s_c(t) -- are computed once,
    when the map is built.
    """

    def __init__(self, params: UnsquishParams, t: float):
        if not (0.0 <= t <= 1.0):
            raise ValueError(f"time must be in [0,1], got {t}")
        self.params = params
        self.t = t
        self.support = params.outer
        self._center = _column(params.outer.center)
        self._apex = _column(params.apex)
        # the anchor of an apex point, with a -0.0 coordinate made +0.0
        self._apex_anchor = self._apex + 0.0
        inner_lo, inner_hi = _column(params.inner.lo), _column(params.inner.hi)
        # the inner box's corners' offsets from each leg's origin
        self._apex_off = (inner_lo - self._apex, inner_hi - self._apex)
        self._center_off = (inner_lo - self._center, inner_hi - self._center)
        self._stretch = params.scale_up - 1.0
        self._s0 = params.s_c0
        self._sc_t = t * params.s_c1 + (1.0 - t) * self._s0
        self._s0_rest = 1.0 - self._s0
        self._sc_t_rest = 1.0 - self._sc_t

    # -- path parameterization ------------------------------------------

    def _path_coords(self, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Glued parameter s and the inner-boundary anchor v_inner of the
        (3, m) coordinate rows q."""
        # points of the inner box lie on a ray from the apex, the rest of
        # the shell on a ray from the center
        in_inner = self.params.inner.contains_array(q.T)
        leg = _one_leg(in_inner)
        if leg is None:
            origin = np.where(in_inner, self._apex, self._center)
            lo_off, hi_off = (
                np.where(in_inner, a, c) for a, c in zip(self._apex_off, self._center_off)
            )
        else:
            origin = self._apex if leg else self._center
            lo_off, hi_off = self._apex_off if leg else self._center_off
        d = q - origin
        r = _radial_scale(lo_off, hi_off, d)
        # a point is at multiple 1/r of the inner boundary along its ray;
        # the shell spans multiples 1 .. scale_up
        if leg is False:
            return self._shell_s(1.0 / r), origin + r * d
        # only an inner point can sit at its origin, the apex, and the apex
        # is strictly inside the inner box, so r is inf exactly there
        at_apex = ~np.isfinite(r)
        r = np.where(at_apex, 1.0, r)
        mult = 1.0 / r
        s = np.where(at_apex, 0.0, mult) / 2.0
        if leg is None:
            s = np.where(in_inner, s, self._shell_s(mult))
        return s, np.where(at_apex, self._apex_anchor, origin + r * d)

    def _shell_s(self, mult: np.ndarray) -> np.ndarray:
        """The glued parameter of shell points at multiple mult of the
        inner boundary along their rays from the center."""
        return 0.5 + 0.5 * np.minimum(np.maximum((mult - 1.0) / self._stretch, 0.0), 1.0)

    def _path_point(self, s: np.ndarray, v_in: np.ndarray) -> np.ndarray:
        """The (3, m) coordinate rows at parameter s on the paths through
        the anchors v_in."""
        two_s = 2.0 * s
        return _by_leg(
            s <= 0.5,
            lambda: self._apex + np.minimum(np.maximum(two_s, 0.0), 1.0) * (v_in - self._apex),
            lambda: self._center + (1.0 + (two_s - 1.0) * self._stretch) * (v_in - self._center),
        )

    def _s_prime(self, s: np.ndarray) -> np.ndarray:
        s0, sc_t = self._s0, self._sc_t

        def above() -> np.ndarray:
            high = (s - s0) / self._s0_rest
            return high + (1.0 - high) * sc_t

        return _by_leg(s <= s0, lambda: (s / s0) * sc_t, above)

    def _s_prime_inverse(self, sp: np.ndarray) -> np.ndarray:
        s0, sc_t = self._s0, self._sc_t
        return _by_leg(
            sp <= sc_t,
            lambda: (sp / sc_t) * s0,
            lambda: s0 + (sp - sc_t) / self._sc_t_rest * self._s0_rest,
        )

    # -- LocalMap interface ---------------------------------------------

    def _slide(self, q: np.ndarray, reparam) -> np.ndarray:
        """Slide (m, 3) rows of the outer box along their paths from s to
        reparam(s), computed on their coordinate rows q.T."""
        s, v_in = self._path_coords(q.T)
        return self._path_point(reparam(s), v_in).T

    def apply_array(self, pts: np.ndarray) -> np.ndarray:
        return self._on_support(pts, lambda q: self._slide(q, self._s_prime))

    def apply_inverse_array(self, pts: np.ndarray) -> np.ndarray:
        return self._on_support(pts, lambda q: self._slide(q, self._s_prime_inverse))

    def _inverted(self) -> "LocalMap":
        return _InverseWrapper(self)


def _one_leg(first: np.ndarray) -> bool | None:
    """True where every row takes the first of two legs, False where none
    does, None where the rows are mixed."""
    n = np.count_nonzero(first)
    return True if n == len(first) else False if n == 0 else None


def _by_leg(first: np.ndarray, leg_a, leg_b) -> np.ndarray:
    """A kernel of two legs on rows of which first marks those taking
    the first: leg_a() or leg_b() alone where every row takes one, else
    both, one picked per row."""
    leg = _one_leg(first)
    if leg is None:
        return np.where(first, leg_a(), leg_b())
    return leg_a() if leg else leg_b()


# half-width in y and z of the interval map's box
_POWER_HALF_WIDTH = 0.25


class PowerMap1D(LocalMap):
    """The interval map x -> x^e on the x-axis, thickened to the box
    [0, 1] x [-w, w]^2 with w = 1/4.

    A point of the box has x raised to 1 + (e - 1) * phi, where
    phi = 1 - max(|y|, |z|) / w is 1 on the axis and 0 on the lateral
    faces; y and z stay put.  Each (y, z) slice is thus a homeomorphism of
    [0, 1], and the inverse raises x to 1 / (1 + (e - 1) * phi).  Every
    face stays bitwise fixed: x = 0 and x = 1 under any exponent (signed
    zero included), the lateral faces because their exponent is exactly 1.
    On the axis the exponent is e itself (1 / e for the inverse), so those
    rows keep the bits of ``x ** e`` (but for x = -0.0, which stays put).
    """

    support = Box(
        (0.0, -_POWER_HALF_WIDTH, -_POWER_HALF_WIDTH), (1.0, _POWER_HALF_WIDTH, _POWER_HALF_WIDTH)
    )

    def __init__(self, exponent: float):
        if exponent <= 0:
            raise ValueError(f"exponent must be positive, got {exponent}")
        self.exponent = exponent

    def _raise(self, q: np.ndarray, inverse: bool) -> np.ndarray:
        """(m, 3) rows of the box with x raised to its power."""
        x = q[:, 0]
        phi = 1.0 - np.maximum(np.abs(q[:, 1]), np.abs(q[:, 2])) / _POWER_HALF_WIDTH
        power = 1.0 + (self.exponent - 1.0) * phi
        y = x ** (1.0 / power if inverse else power)
        # a scalar exponent on the axis: numpy's own x ** e (x * x for
        # e = 2), which an array exponent does not match bitwise
        on_axis = phi == 1.0
        y[on_axis] = x[on_axis] ** (1.0 / self.exponent if inverse else self.exponent)
        out = q.copy(order="K")
        # 0 ** power is +0.0: the x = 0 face keeps its sign bit too
        out[:, 0] = np.copysign(y, x)
        return out

    def apply_array(self, pts: np.ndarray) -> np.ndarray:
        return self._on_support(pts, lambda q: self._raise(q, inverse=False))

    def apply_inverse_array(self, pts: np.ndarray) -> np.ndarray:
        return self._on_support(pts, lambda q: self._raise(q, inverse=True))

    def _inverted(self) -> "LocalMap":
        return _InverseWrapper(self)


class _InverseWrapper(LocalMap):
    """Inverse view of a map whose inverse has no closed form of its own."""

    def __init__(self, inner: LocalMap):
        self._inner = inner
        self.support = inner.support

    def apply_array(self, pts: np.ndarray) -> np.ndarray:
        return self._inner.apply_inverse_array(pts)

    def _inverted(self) -> LocalMap:
        return self._inner


class CompositeMap(LocalMap):
    """Left-to-right composition: apply(p) runs parts[0] first.

    Only the rows inside the declared support are pushed through the
    parts, one after another; the rest come back bitwise unchanged.  The
    support must therefore contain everything any part moves, and there
    is at least one part, whose fresh image is the composite's.
    """

    def __init__(self, parts: Sequence[LocalMap], support: Box):
        self.parts = tuple(parts)
        self.support = support

    def apply_array(self, pts: np.ndarray) -> np.ndarray:
        def run(out: np.ndarray) -> np.ndarray:
            for part in self.parts:
                out = part.apply_array(out)
            return out

        return self._on_support(pts, run)

    def _inverted(self) -> "CompositeMap":
        # no link back: inv(inv(M)) of an affine part is not bitwise M
        return CompositeMap([m.inverse() for m in reversed(self.parts)], support=self.support)


def conjugate(frame: AffineMap, canonical: LocalMap, support: Box) -> CompositeMap:
    """frame o canonical o frame^-1, supported in the given box."""
    return CompositeMap([frame.inverse(), canonical, frame], support=support)

