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

``PCG64Stream`` draws the doubles of ``numpy.random.default_rng(seed)``
bit for bit without loading ``numpy.random``; ``Box.sample`` reads it.

A curve's file and its drawing's points are ``DecimalText``s: the
``%.17g`` text of every coordinate, from one exact vectorized kernel,
with each row's byte offset; rows are laid out one way, a block at a
time (``_blocks``).  A frame's texts are the frame before's with the
rows that moved laid out afresh and spliced in, the text between them
copied, so they cost what moved since (``curve_texts``); a whole text
is every row laid out (``DecimalText.of``).  A curve's file is written
one way: its head, then its blocks streamed (``write_curve``).

Everything here is immutable and pure, save that stream's state.  All
lengths are in dimensionless model units.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

# corner i of a box takes hi on axis a where bit (2 - a) of i is set, so
# the corners run x-major: (lo, lo, lo), (lo, lo, hi), ..., (hi, hi, hi)
_CORNER_HI = (np.arange(8)[:, None] >> np.array([2, 1, 0])) & 1 == 1


@dataclass(frozen=True, slots=True, eq=False)
class Box:
    """A closed axis-aligned box given by its min and max corners, each a
    read-only float (3,) row with finite coordinates; ``bounds`` holds the
    six as Python floats, lo's then hi's."""

    lo: np.ndarray
    hi: np.ndarray
    bounds: tuple[float, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        # one (2, 3) copy holds both rows
        corners = np.array((self.lo, self.hi), dtype=float)
        if corners.shape != (2, 3):
            raise ValueError(f"box corners must be two (3,) rows, got {corners.shape}")
        # six values are checked faster as Python floats than by numpy
        values = corners.tolist()
        lo, hi = values
        if not all(map(math.isfinite, lo + hi)):
            raise ValueError(f"non-finite box corners: {values}")
        corners.flags.writeable = False
        if lo[0] > hi[0] or lo[1] > hi[1] or lo[2] > hi[2]:
            raise ValueError(f"box min corner exceeds max corner: {corners[0]} > {corners[1]}")
        object.__setattr__(self, "lo", corners[0])
        object.__setattr__(self, "hi", corners[1])
        object.__setattr__(self, "bounds", (*lo, *hi))

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

    def contains_point(self, point: Sequence[float]) -> bool:
        """Whether the box holds one point, given as three Python floats:
        ``contains_array``'s comparisons without its arrays, for the
        census's one-row steps."""
        x, y, z = point
        x0, y0, z0, x1, y1, z1 = self.bounds
        return x0 <= x <= x1 and y0 <= y <= y1 and z0 <= z <= z1

    def contains_box(self, other: "Box", strict: bool = False) -> bool:
        return bool(self.contains_array(np.stack([other.lo, other.hi]), strict).all())

    def scaled_about_center(self, factor: float) -> "Box":
        return Box.from_center(self.center, self.half_extents * factor)

    def wall_distance(self, p: np.ndarray) -> float:
        """Distance from an interior point to the nearest face plane."""
        return float(min((p - self.lo).min(), (self.hi - p).min()))

    def sample(self, rng: PCG64Stream, n: int) -> np.ndarray:
        """n points drawn uniformly in the box from any stream with a
        ``random(shape)`` method: a ``PCG64Stream`` or a numpy Generator."""
        return self.lo + rng.random((n, 3)) * (self.hi - self.lo)


# -- numpy's default_rng doubles, without numpy.random -------------------------
#
# numpy.random.default_rng(seed) is PCG64 seeded by SeedSequence(seed), and
# its .random() doubles are (x >> 11) * 2**-53 of the XSL-RR outputs x.
# PCG64Stream replays those steps, so a seeded draw does not load
# numpy.random and its bits do not depend on numpy's generator code.

_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
# PCG's default 128-bit LCG multiplier
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_state(seed: int) -> list[int]:
    """``SeedSequence(seed).generate_state(4, np.uint64)``: the seed's
    32-bit entropy words, least significant first, hashed and mixed into a
    pool of four words, which the output hash reads twice round, each
    pair of its words one little-endian 64-bit word."""
    entropy = [seed >> s & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
    const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * 0x931E8875 & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        value = 0xCA01F9DD * x - 0x4973F715 * y & _MASK32
        return value ^ value >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    const = 0x8B51F9DD
    words = []
    for i in range(8):
        value = pool[i % 4] ^ const
        const = const * 0x58F38DED & _MASK32
        value = value * const & _MASK32
        words.append(value ^ value >> 16)
    return [words[i + 1] << 32 | words[i] for i in range(0, 8, 2)]


class PCG64Stream:
    """The doubles of ``numpy.random.default_rng(seed).random(shape)``, bit
    for bit, for any integer seed >= 0."""

    def __init__(self, seed: int) -> None:
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
        # the initial state's high and low halves, then the sequence's
        q = _seed_state(seed)
        self._inc = ((q[2] << 64 | q[3]) << 1 | 1) & _MASK128
        # state = step(step(0) + init), and step(0) = inc
        self._state = ((self._inc + (q[0] << 64 | q[1])) * _PCG_MULT + self._inc) & _MASK128

    def random(self, shape: tuple[int, ...]) -> np.ndarray:
        """The next prod(shape) doubles in [0, 1), in C order."""
        n = math.prod(shape)
        state, inc = self._state, self._inc
        chunks = []
        for _ in range(n):
            state = (state * _PCG_MULT + inc) & _MASK128
            chunks.append(state.to_bytes(16, "little"))
        self._state = state
        lo, hi = np.frombuffer(b"".join(chunks), "<u8").reshape(n, 2).T
        # XSL-RR: the halves' xor, rotated right by the state's top 6 bits
        word = hi ^ lo
        rot = hi >> np.uint64(58)
        x = word >> rot | word << ((np.uint64(64) - rot) & np.uint64(63))
        return ((x >> np.uint64(11)) * 2.0**-53).reshape(shape)


def bounding_box(boxes: Sequence[Box]) -> Box:
    """The smallest box containing a non-empty family of boxes."""
    return Box(np.min([b.lo for b in boxes], axis=0), np.max([b.hi for b in boxes], axis=0))


def boxes_meet(lo: np.ndarray, hi: np.ndarray, cols: tuple | None = None) -> np.ndarray:
    """meet[i, j]: closed boxes i and j, given by their stacked (n, 3)
    corner arrays lo and hi, share a point; with cols = (lo_b, hi_b), box
    j is box j of that stack instead."""
    lo_b, hi_b = (lo, hi) if cols is None else cols
    # one axis at a time: a reduction over a length-3 last axis is slower
    meet = np.ones((len(lo), len(lo_b)), dtype=bool)
    for a in range(3):
        meet &= (lo[:, None, a] <= hi_b[None, :, a]) & (lo_b[None, :, a] <= hi[:, None, a])
    return meet


def farthest_corner_distances(
    lo: np.ndarray, hi: np.ndarray, cols: tuple | None = None
) -> np.ndarray:
    """far[i, j]: the largest distance from a corner of box i to a corner
    of box j, the boxes given by their stacked (n, 3) corner arrays lo and
    hi; with cols = (lo_b, hi_b), box j is box j of that stack instead.

    A corner pair is chosen axis by axis, and on each axis the largest
    gap |x_i - x_j| between a face of box i and one of box j is
    hi_i - lo_j or hi_j - lo_i.  Rounding is monotone, so the sum of the
    per-axis squared maxima is bitwise the largest of the 64 corner-pair
    sums dx**2 + dy**2 + dz**2, added in that order.
    """
    lo_b, hi_b = (lo, hi) if cols is None else cols
    gx, gy, gz = (
        np.maximum(hi[:, None, a] - lo_b[None, :, a], hi_b[None, :, a] - lo[:, None, a])
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


# -- exact %.17g text in bulk ------------------------------------------------
#
# '%.17g' % x is x rounded half-even to 17 significant digits D * 10**(k - 16),
# 10**16 <= D < 10**17, printed in fixed notation for -4 <= k <= 16 and
# exponential notation otherwise, trailing fraction zeros (and a bare point)
# dropped.  _g17_cells gets D from |x| * 10**(16 - k) in double-double
# arithmetic, the digit bytes from a table of 4-digit groups, and the cell
# layout from one template per (exponent, sign, digit count) group.  Each
# table is built when a call first reads it, nothing at import: a
# power-of-ten row per decade, from exact integers; the digit table whole,
# by one broadcast write per digit place and per trailing-zero run length;
# a template per group, by slicing and joining a few bytes.

# the widest cell, '-1.2345678901234567e-308'
_G17_WIDTH = 24
# k = floor(log10|x|) spans [-324, 308] over the finite nonzero doubles
_G17_K_MIN, _G17_K_MAX = -324, 308
# a layout key is ((k - _G17_K_MIN) * 2 + sign) * 17 + digits - 1; the
# values printed by '%.17g' itself take the key past the last one
_G17_UNDECIDED = (_G17_K_MAX - _G17_K_MIN + 1) * 34
# fraction parts of |x| * 10**(16 - k) this close to 1/2 are left to '%.17g':
# the double-double product is good to within 1e-13, and an exact tie needs
# the round-half-even rule
_G17_TIE_MARGIN = 1e-6
# Veltkamp's constant 2**27 + 1 splits a double into two 26-bit halves
_SPLIT = 134217729.0
# values per pass of the kernel, so its temporaries stay small
_G17_CHUNK = 4096


# row k - _G17_K_MIN of 10**(16 - k) as (hi, lo, hi's two Veltkamp halves),
# and its binary exponent; a row's hi is NaN until _pow10_rows first reads
# its decade and fills the row in place
_G17_POW10 = np.full((_G17_K_MAX - _G17_K_MIN + 1, 4), np.nan)
_G17_POW10_EXP = np.zeros(_G17_K_MAX - _G17_K_MIN + 1, np.int32)


def _pow10_row(k: int) -> tuple[tuple[float, float, float, float], int]:
    """Decade k's row, from exact integers: (hi, lo, hi's two Veltkamp
    halves) with hi + lo = 10**(16 - k) / 2**b to within 2**-105 relative,
    hi in [1, 2]; and b."""
    num, den = (10 ** (16 - k), 1) if k <= 16 else (1, 10 ** (k - 16))
    b = num.bit_length() - den.bit_length()
    if (num << max(0, -b)) < (den << max(0, b)):
        b -= 1
    # 10**(16 - k) / 2**b to the nearest multiple of 2**-105, ties up
    top, bot = num << max(0, 105 - b), den << max(0, b - 105)
    m = (2 * top + bot) // (2 * bot)
    hi = m / (1 << 105)
    lo = (m - (int(hi * (1 << 52)) << 53)) / (1 << 105)
    c = _SPLIT * hi
    hi_top = c - (c - hi)
    return (hi, lo, hi_top, hi - hi_top), b


def _pow10_rows(row: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The power-of-ten rows at row as four columns, hi, lo and hi's
    halves, and their exponents b.  A row is built (``_pow10_row``) the
    first time a call reads its decade, and kept: one NaN test on the
    gathered hi column finds the rows not yet built."""
    pairs = np.take(_G17_POW10, row, axis=0).T
    unbuilt = np.isnan(pairs[0])
    if unbuilt.any():
        # each decade once, flagged on a mask: np.unique costs more
        read = np.zeros(len(_G17_POW10), bool)
        read[row.compress(unbuilt)] = True
        for i in np.flatnonzero(read).tolist():
            _G17_POW10[i], _G17_POW10_EXP[i] = _pow10_row(i + _G17_K_MIN)
        pairs = np.take(_G17_POW10, row, axis=0).T
    return pairs, np.take(_G17_POW10_EXP, row)


@functools.cache
def _digit_words() -> tuple[np.ndarray, np.ndarray]:
    """Entry q < 10**4: q's four ASCII digits as one little-endian uint32;
    entry 10**4 + d: the digit d alone, as the word's last byte.  And for
    q < 10**4, its count of trailing zero digits (4 for 0).  Built on the
    first ``_g17_cells`` call that prints a digit, one array write per
    digit place and per length of trailing zero run."""
    digit = np.frombuffer(b"0123456789", np.uint8)
    words = np.zeros((10010, 4), np.uint8)
    # byte j of entry 1000 a + 100 b + 10 c + d is digit j of (a, b, c, d)
    quads = words[:10000].reshape(10, 10, 10, 10, 4)
    quads[..., 0] = digit[:, None, None, None]
    quads[..., 1] = digit[:, None, None]
    quads[..., 2] = digit[:, None]
    quads[..., 3] = digit
    words[10000:, 3] = digit
    # the entries that end in one zero, in two, in three, and 0
    zeros = np.zeros((10, 10, 10, 10), np.uint8)
    zeros[..., 0] = 1
    zeros[..., 0, 0] = 2
    zeros[:, 0, 0, 0] = 3
    zeros[0, 0, 0, 0] = 4
    return words.view("<u4").ravel(), zeros.ravel()


def _g17_digits(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For finite nonzero x: the 17 digits of each as bytes 3..19 of a
    row of an (n, 5) uint32 array, and each one's layout key.  The lead
    digit and the four 4-digit groups are kept as the rows of a (5, n)
    array, so each is one contiguous row."""
    a = np.abs(x)
    k = np.floor(np.log10(a)).astype(np.int32)
    row = k - _G17_K_MIN
    (hi, lo, hi_top, hi_bot), exps = _pow10_rows(row)
    # m * hi = p + err exactly (Dekker), m in [0.5, 1) so nothing overflows
    m, e = np.frexp(a)
    p = m * hi
    c = m * _SPLIT
    m_top = c - (c - m)
    m_bot = m - m_top
    err = ((m_top * hi_top - p) + m_top * hi_bot + m_bot * hi_top) + m_bot * hi_bot
    # |x| * 10**(16 - k) = w_hi + w_lo, w_hi a whole number from 2**53 up
    scale = e + exps
    w_hi = np.ldexp(p, scale)
    w_lo = np.ldexp(err + m * lo, scale)
    whole = np.floor(w_lo)
    d = w_hi.astype(np.int64) + whole.astype(np.int64)
    frac = w_lo - whole
    # a wrong k from log10 puts the whole part outside [10**16, 10**17),
    # and rounding up may carry it to 10**17
    ok = (d >= 10**16) & (np.abs(frac - 0.5) > _G17_TIE_MARGIN)
    d += frac > 0.5
    ok &= d < 10**17
    d[~ok] = 10**16
    # the lead digit, then four groups of four
    q = np.empty((5, len(d)), np.int64)
    for i in range(4):
        unit = 10 ** (16 - 4 * i)
        q[i] = d // unit
        d -= q[i] * unit
    q[4] = d
    q[0] += 10000
    table, quad_zeros = _digit_words()
    zeros = np.take(quad_zeros, q[4])
    for i in (3, 2, 1):
        # the groups right of group i are all zeros
        run = np.flatnonzero(zeros == 4 * (4 - i))
        zeros[run] += np.take(quad_zeros, q[i].take(run))
    key = ((k - _G17_K_MIN) * 2 + np.signbit(x)) * 17 + 16 - zeros
    key[~ok] = _G17_UNDECIDED
    # 16-bit keys take numpy's radix sort
    return np.take(table, q).T, key.astype(np.int16)


@functools.cache
def _g17_layout(key: int) -> tuple[bytes, tuple[tuple[int, int, int, int], ...]]:
    """The cell template of a layout key, NULs where digits go, and its
    digit copies as (cell start, cell stop, digit byte start, digit byte
    stop); digit i is byte 3 + i of its row of words.  Built on the
    key's first use, from slices and joins of a few bytes."""
    rest, n = divmod(key, 17)
    k, s = divmod(rest, 2)
    k += _G17_K_MIN
    n += 1
    sign = b"-"[:s]
    if -4 <= k < 0:
        # '0.' and -k - 1 zeros, then the n digits
        c = s + 1 - k
        return b"-0.000"[1 - s : 2 - k], ((c, c + n, 3, 3 + n),)
    if 0 <= k <= 16:
        # k + 1 integer digits, then the point and the fraction digits left
        whole = (s, s + k + 1, 3, 4 + k)
        if n <= k + 1:
            return sign, (whole,)
        return sign + bytes(k + 1) + b".", (whole, (s + k + 2, s + 1 + n, 4 + k, 3 + n))
    lead = (s, s + 1, 3, 4)
    if n == 1:
        return sign + b"\0e%+03d" % k, (lead,)
    return sign + b"\0." + bytes(n - 1) + b"e%+03d" % k, (lead, (s + 2, s + 1 + n, 4, 3 + n))


def _g17_cells(values: np.ndarray) -> np.ndarray:
    """``'%.17g' % v`` for every v of a float array, as an array of the
    same shape of NUL-padded bytes cells (dtype ``S24``).

    Every cell equals the ``'%.17g'`` text: zeros are written as they
    print, and ``'%.17g'`` itself prints every non-finite value and every
    value whose 17 digits the double-double product cannot decide (a
    fraction part within 1e-6 of 1/2, such as an exact tie, or a whole
    part outside [10**16, 10**17) from a log10 that rounded across a
    power of ten).
    """
    flat = np.ascontiguousarray(values, dtype=float).ravel()
    out = np.full(len(flat), b"0", f"S{_G17_WIDTH}")
    out[np.signbit(flat)] = b"-0"
    odd = np.flatnonzero(~np.isfinite(flat))
    out[odd] = ["%.17g" % v for v in flat[odd].tolist()]
    rows = np.flatnonzero(np.isfinite(flat) & (flat != 0))
    # one chunk at a time from digits to scatter, so no full-size digit or
    # cell arrays coexist
    for i in range(0, len(rows), _G17_CHUNK):
        chunk = rows[i : i + _G17_CHUNK]
        x = np.take(flat, chunk)
        words, key = _g17_digits(x)
        # one run of rows per layout key, radix-sorted
        order = np.argsort(key, kind="stable")
        keys = np.take(key, order)
        bounds = [0, *(np.flatnonzero(keys[1:] != keys[:-1]) + 1).tolist(), len(chunk)]
        digits = np.take(words, order, axis=0).view(np.uint8)
        cells = np.zeros((len(chunk), _G17_WIDTH), np.uint8)
        texts = cells.view(out.dtype)[:, 0]
        for g0, g1, k in zip(bounds, bounds[1:], keys[bounds[:-1]].tolist()):
            if k == _G17_UNDECIDED:
                texts[g0:g1] = ["%.17g" % v for v in x[order[g0:g1]].tolist()]
                continue
            head, copies = _g17_layout(k)
            if head:
                texts[g0:g1] = head
            for c0, c1, d0, d1 in copies:
                cells[g0:g1, c0:c1] = digits[g0:g1, d0:d1]
        out[np.take(chunk, order)] = cells.view(out.dtype).ravel()
    return out.reshape(np.shape(values))


def segment_ends(pts: np.ndarray, closed: bool) -> tuple[np.ndarray, np.ndarray]:
    """The start and end rows of the segments of a polyline through the
    (n, 3) rows pts: each vertex to the next, and the last back to the
    first where the polyline is closed."""
    if closed:
        return pts, np.roll(pts, -1, axis=0)
    return pts[:-1], pts[1:]


class PLCurve:
    """A finite polyline in 3-space, open arc or closed loop.

    The vertices live in one read-only row-major ``(n, 3)`` float array,
    ``points`` (``vertices`` is the same array).  A curve keeps nothing
    else: its ``%.17g`` text is laid out by whoever writes or draws it
    (``write_curve``, ``render_svg``), and a film's frames' texts are
    spliced from the frame's before, which the film keeps
    (``curve_texts``, ``engine.Film``).
    """

    __slots__ = ("points", "closed")

    def __init__(self, vertices: np.ndarray, closed: bool = False) -> None:
        # row-major whatever the input's layout: a map's image is
        # coordinate-major, and every curve reads the same way
        pts = np.array(vertices, dtype=float, order="C")
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError(f"vertices must be an (n, 3) array, got shape {pts.shape}")
        if not np.isfinite(pts).all():
            raise ValueError("non-finite vertex coordinates")
        n = len(pts)
        if closed and n < 3:
            raise ValueError("closed curve needs at least 3 vertices")
        if not closed and n < 2:
            raise ValueError("open curve needs at least 2 vertices")
        # column by column: a reduction over a length-3 last axis is slower
        same = pts[1:, 0] == pts[:-1, 0]
        same &= pts[1:, 1] == pts[:-1, 1]
        same &= pts[1:, 2] == pts[:-1, 2]
        if same.any():
            raise ValueError("consecutive vertices must be distinct")
        if closed and (pts[0] == pts[-1]).all():
            raise ValueError("closed curve must not repeat its first vertex")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "closed", closed)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("PLCurve is immutable")

    @property
    def vertices(self) -> np.ndarray:
        return self.points

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PLCurve):
            return NotImplemented
        return self.closed == other.closed and np.array_equal(self.points, other.points)

    def segment_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return segment_ends(self.points, self.closed)

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
        out = a.take(seg, axis=0) + d.take(seg, axis=0) * (j / k.take(seg))[:, None]
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


# node pairs the dual-tree walk starts from: every pair a <= b of a level
# of at most this many nodes
_WALK_TOP = 32


def _meeting(lo: np.ndarray, hi: np.ndarray, heat, a: np.ndarray, b: np.ndarray):
    """The node pairs (a, b) whose closed boxes, given per axis by the
    (dim, nodes) rows lo and hi, share a point, and where the nodes' heat
    is given, one of which at least is hot."""
    if heat is not None:
        hot = heat.take(a) | heat.take(b)
        a, b = a[hot], b[hot]
    # one axis at a time, compressed before the next gather
    for lo_k, hi_k in zip(lo, hi):
        meet = lo_k.take(a) <= hi_k.take(b)
        meet &= lo_k.take(b) <= hi_k.take(a)
        a, b = a[meet], b[meet]
    return a, b


def _leaf_pairs(a: np.ndarray, b: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The leaf pairs i < j < n under the node pairs a <= b of the level
    above the leaves: a node's own two leaves, and the four pairings of
    two nodes' leaves.  A node pair whose boxes meet holds no node of
    padding alone, so the one padding leaf it can reach is the second
    leaf, n, of the last node when n is odd."""
    off = a < b
    a, b = 2 * a, 2 * b
    own, a, b = a[~off], a[off], b[off]
    a2, b2 = a, b + 1
    if n % 2:
        own = own[own + 1 < n]
        whole = b2 < n
        a2, b2 = a[whole], b2[whole]
    return np.concatenate([own, a, a + 1, a2, a2 + 1]), np.concatenate([own + 1, b, b, b2, b2])


def multiscale_close_pairs(
    mids: np.ndarray, half: np.ndarray, margin: float, hot: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs of segments whose midpoints lie within their half
    lengths plus margin; given a mask ``hot`` of segments, only the pairs
    with a hot segment.

    Segment i is summarized by its midpoint ``mids[i]`` and half length
    ``half[i]``.  Returns int64 arrays ``(ii, jj)``, sorted by ``ii`` then
    ``jj``, of exactly the pairs ``ii < jj`` with
    ``sqrt(((mids[ii] - mids[jj]) ** 2).sum(-1)) <= half[ii] + half[jj] + margin``.

    The search is a walk of a binary tree of axis-aligned boxes against
    itself.  The leaves are the segments in index order, segment i's box
    is mids[i] ± r_i with r_i = (half[i] + margin / 2)(1 + 1e-9) + 2^-511,
    and a node's box bounds its two children's.  From a level of at most
    32 nodes down, the walk keeps the node pairs a <= b whose boxes meet,
    one box test per level on all four child pairings at once; the leaf
    pairs of distinct segments under them (or all pairs of at most 32
    segments) take the predicate above directly.  A node is hot when a
    leaf under it is, and a walk given hot segments keeps only the pairs
    with a hot node, so it walks the hot segments and the ones whose boxes
    meet theirs alone, and its pairs are exactly the full walk's with a
    hot segment.  Curves here are strongly multiscale, so no single search
    radius fits them, but each box is as small as its own segment's
    radius, and a curve passed in curve order keeps each node's box as
    small as the piece of curve under it.  Any order stays exact, and
    only gets slower.

    The boxes of a pair within the radius meet at every level, rounding
    included.  The computed distance is at least the exact one less a few
    eps of it, and less 2^-536 more where squares round in the subnormal
    range; the computed sum on the right is at most a few eps above the
    exact one.  So every coordinate difference of such a pair, at most
    its exact distance, is at most r_i + r_j: the 1e-9 factor covers the
    relative errors and the two 2^-511 terms the absolute one.  Rounding
    is monotone, so the computed faces mids ± r still meet on every axis,
    and the min and max taken up the tree round nothing.

    It reads one column per axis: row gathers and sums over a last axis
    of length 2 or 3 cost more than their arithmetic.  Summed a column at
    a time, squares add left to right as ``.sum(-1)`` adds them, bitwise.
    """
    n = len(mids)
    cols = np.ascontiguousarray(mids.T)
    r = (half + margin / 2) * (1 + 1e-9) + 2.0**-511
    # leaves beyond the n segments get boxes that meet nothing
    width = 1 << (n - 1).bit_length()
    lo = np.full((len(cols), width), np.inf)
    hi = np.full((len(cols), width), -np.inf)
    lo[:, :n], hi[:, :n] = cols - r, cols + r
    # a node is hot when a leaf under it is
    heat = None if hot is None else np.append(hot, np.zeros(width - n, dtype=bool))
    levels = []
    while width > _WALK_TOP:
        width //= 2
        lo, hi = np.minimum(lo[:, 0::2], lo[:, 1::2]), np.maximum(hi[:, 0::2], hi[:, 1::2])
        heat = heat if heat is None else heat[0::2] | heat[1::2]
        levels.append((lo, hi, heat))
    if not levels:
        a, b = (i.astype(np.int32) for i in np.triu_indices(n, 1))
    else:
        a, b = (i.astype(np.int32) for i in np.triu_indices(width))
        for lo, hi, heat in reversed(levels[1:]):
            a, b = _meeting(lo, hi, heat, a, b)
            # the children of a <= b, without the mirror (2a + 1, 2a) of (2a, 2a + 1)
            off, a, b = a < b, 2 * a, 2 * b
            a = np.concatenate([a, a, a + 1, a[off] + 1])
            b = np.concatenate([b, b + 1, b + 1, b[off]])
        a, b = _leaf_pairs(*_meeting(*levels[0], a, b), n)
    if hot is not None:
        hit = hot.take(a) | hot.take(b)
        a, b = a[hit], b[hit]
    square = sum((col.take(a) - col.take(b)) ** 2 for col in cols)
    keep = np.sqrt(square) <= half.take(a) + half.take(b) + margin
    key = np.sort(a[keep].astype(np.int64) * n + b[keep])
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


# -- decimal text ------------------------------------------------------------
#
# A curve file is a head line, "open N" or "closed N", then a line "x y z" per
# vertex; a drawing prints a vertex as "x,y ".  Both texts are DecimalTexts
# of the vertices' %.17g cells.

# rows laid out at a time, so the laid-out bytes stay small
_TEXT_BLOCK = 2048
_FILE_SEPS = b"  \n"
_POINT_SEPS = b", "


def _blocks(cells: np.ndarray, seps: bytes):
    """The text of rows of ``%.17g`` cells, each cell followed by its
    column's byte of ``seps``, as one uint8 array per _TEXT_BLOCK rows:
    the block laid out as (rows, columns, 25) bytes, every cell's
    NUL-padded bytes followed by its separator, and the NULs dropped."""
    for i in range(0, len(cells), _TEXT_BLOCK):
        block = cells[i : i + _TEXT_BLOCK]
        laid = np.empty((len(block), len(seps), _G17_WIDTH + 1), np.uint8)
        laid[:, :, :_G17_WIDTH].view(f"S{_G17_WIDTH}")[..., 0] = block
        laid[:, :, _G17_WIDTH] = np.frombuffer(seps, np.uint8)
        yield laid[laid != 0]


def _laid_out(cells: np.ndarray, seps: bytes) -> tuple[np.ndarray, np.ndarray]:
    """The ``_blocks`` of the cells joined, and the end of each row's text
    in it, the byte after its last separator, which no cell holds."""
    texts, ends, size = [], [np.empty(0, np.int64)], 0
    for text in _blocks(cells, seps):
        texts.append(text)
        ends.append(np.flatnonzero(text == seps[-1]) + (size + 1))
        size += len(text)
    text = texts[0] if len(texts) == 1 else np.concatenate(texts or [np.empty(0, np.uint8)])
    return text, np.concatenate(ends)


class DecimalText(NamedTuple):
    """A head, then a row of text per row of a float array: each value's
    ``%.17g`` text (17 significant digits, so it reads back bitwise)
    followed by its column's byte of ``seps``.  Row r is
    ``text[at[r]:at[r + 1]]``, and the head ``text[:at[0]]``."""

    text: bytes
    at: np.ndarray
    seps: bytes

    @classmethod
    def of(cls, cells: np.ndarray, seps: bytes, head: bytes = b"") -> DecimalText:
        """head, then the rows of the ``%.17g`` cells, laid out whole."""
        text, ends = _laid_out(cells, seps)
        at = np.empty(len(cells) + 1, np.int64)
        at[0] = 0
        at[1:] = ends
        at += len(head)
        return cls(b"".join([head, text]), at, seps)

    def spliced(self, rows: np.ndarray, cells: np.ndarray) -> DecimalText:
        """This text with the given rows, sorted and distinct, printed
        afresh from their ``%.17g`` cells.  Only those rows are laid out;
        the text between each run of them is copied, and each row's offset
        moves by what the rows before it grew, so the text and its offsets
        are those of the text laid out whole."""
        fresh, ends = _laid_out(cells, self.seps)
        at = self.at
        grew = np.zeros(len(at), np.int64)
        grew[rows + 1] = np.diff(ends, prepend=0) - (at.take(rows + 1) - at.take(rows))
        now = np.cumsum(grew, out=grew)
        now += at
        # the runs of consecutive rows: run j is rows[k[j]:k[j + 1]]
        bound = np.ones(len(rows) + 1, dtype=bool)
        bound[1:-1] = rows[1:] != rows[:-1] + 1
        k = np.flatnonzero(bound)
        r0, r1 = rows.take(k[:-1]), rows.take(k[1:] - 1) + 1
        runs = (v.tolist() for v in (at.take(r0), at.take(r1), now.take(r1) - now.take(r0)))
        old, new = memoryview(self.text), memoryview(fresh)
        pieces, kept, f = [], 0, 0
        for a0, a1, size in zip(*runs):
            pieces += (old[kept:a0], new[f : f + size])
            kept, f = a1, f + size
        pieces.append(old[kept:])
        return DecimalText(b"".join(pieces), now, self.seps)


def _file_head(curve: PLCurve) -> bytes:
    return b"%s %d\n" % (b"closed" if curve.closed else b"open", len(curve.points))


def curve_texts(
    curve: PLCurve, last: PLCurve | None = None, texts: tuple[DecimalText, DecimalText] | None = None
) -> tuple[DecimalText, DecimalText]:
    """The text of the curve's file and that of its points as a drawing
    prints them, "x,y " per vertex, every vertex printed by the exact
    kernel.  Given texts, last's, a curve of this shape, only the
    vertices with a coordinate whose bits differ from last's are printed
    and spliced in: a cell depends on its double's bits alone, so the
    texts are the whole ones."""
    pts = curve.points
    if texts is None:
        cells = _g17_cells(pts)
        return DecimalText.of(cells, _FILE_SEPS, _file_head(curve)), DecimalText.of(cells[:, :2], _POINT_SEPS)
    moved = pts.view(np.int64) != last.points.view(np.int64)
    rows = np.flatnonzero(moved[:, 0] | moved[:, 1] | moved[:, 2])
    cells = _g17_cells(pts.take(rows, axis=0))
    lines, points = texts
    return lines.spliced(rows, cells), points.spliced(rows, cells[:, :2])


def write_curve(curve: PLCurve, path) -> None:
    """Write the curve's file: its head, then the rows of its ``%.17g``
    cells, written a block at a time as they are laid out, so the heap
    never holds the whole text."""
    with open(path, "wb") as fh:
        fh.write(_file_head(curve))
        fh.writelines(_blocks(_g17_cells(curve.points), _FILE_SEPS))


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
