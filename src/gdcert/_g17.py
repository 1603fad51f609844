"""Exact ``'%.17g' % v`` and ``repr(v)`` for a whole float64 array at once.

``format_floats`` writes each value's text into a slot of ``SLOT_WORDS``
8-byte words whose unused bytes are 0 (holes), so that deleting every 0
byte of a run of slots gives the texts side by side. A finite v != 0 takes
these steps:

- X = floor(log10 |v|), from ``np.log10`` and corrected by one against the
  least double at or above 10^X;
- V = |v| * 10^(16 - X) as an unevaluated sum hi + lo, exact to about
  1e-14: 10^q is a double-double from a table, exact for 0 <= q <= 22, and
  |v| times its high part is Dekker's exact product, by Veltkamp's split
  (numpy has no fused multiply-add). Below 1e-280 and above 1e280, |v| is
  first scaled by 2^600 or 2^-600 and the table entry by the inverse, so
  that no partial product leaves the normal range;
- the 17 digits D = hi + rint(lo), which rounds half to even as ``dtoa``
  does (hi >= 1e16 is even); for ``repr``, the shortest digits that round
  to v instead (``_shortest``); a carry to 10^17 moves X up by one;
- the layout: fixed notation for -4 <= X < 17 (``%g``) or X < 16
  (``repr``, which adds ".0" to an integer), scientific otherwise,
  trailing zeros and a bare point dropped, an exponent of two digits at
  least.

Zero is written as "0" and "-0", or "0.0" and "-0.0". Every other value
goes to ``fallback``: nan and infinities, and a value whose rounding the
error of V or of the interval could decide: for ``%.17g`` a lo within
1e-6 of a half with an inexact power of ten; for ``repr`` a candidate
within 1e-6 of a tie or of the edge of v's rounding interval, and the
powers of two and subnormals.

A slot is, byte by byte: the sign, the "0.000" prefix of -4 <= X < 0,
then digit i at byte 6 + 2i with the point after it at byte 7 + 2i, then
"e+XXX"; its last three bytes are always holes. Its words are looked up in
tables: the sign and the first digit by both, four digits per word by
their value, the prefix, the point and the trailing-zero mask by the
position of the point and the digit count, and the exponent by X.
"""

from __future__ import annotations

import math

import numpy as np

SLOT_WORDS = 6

_K0, _K1 = -325, 341  # the decimal exponents the tables cover
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter
_TOL = 1e-6  # the margin, in units of V's last digit, for an unsure rounding


def _words(rows: np.ndarray) -> np.ndarray:
    """uint8 rows of 8k bytes as k native uint64 words each."""
    return np.ascontiguousarray(rows, dtype=np.uint8).view(np.uint64)


def _ratio(n: int, d: int) -> tuple:
    """n / d as a double-double: the nearest double and the nearest double
    to the rest (int / int is correctly rounded)."""
    h = n / d
    hn, hd = h.as_integer_ratio()
    return h, (n * hd - hn * d) / (d * hd)


def _least_at_or_above(n: int, d: int) -> float:
    h = n / d
    hn, hd = h.as_integer_ratio()
    return h if hn * d >= n * hd else math.nextafter(h, math.inf)


class _Tables:
    """The kernel's lookup tables (about 5 ms to build)."""

    def __init__(self):
        # by k - _K0: the least double >= 10^k, and 10^k * 2^-s as a
        # double-double with its hi part split, for a value scaled by 2^s
        least, scale, hi, lo = [], [], [], []
        for k in range(_K0, _K1 + 1):
            num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
            s = 600 if k >= 297 else -600 if k <= -265 else 0
            h, rest = _ratio(num << max(-s, 0), den << max(s, 0))
            hi.append(h)
            lo.append(rest)
            scale.append(2.0 ** s)
            least.append(_least_at_or_above(num, den) if k <= 308 else math.inf)
        self.least, self.scale, self.lo = np.array(least), np.array(scale), np.array(lo)
        self.hi = np.array(hi)
        c = self.hi * _SPLIT
        self.hi_hi = c - (c - self.hi)
        self.hi_lo = self.hi - self.hi_hi

        g = np.arange(10_000)
        b = np.zeros((10_000, 8), np.uint8)
        b[:, ::2] = np.stack([g // 1000, g // 100 % 10, g // 10 % 10, g % 10], 1) + 48
        self.quad = _words(b)[:, 0]  # by a four-digit group
        # by the k-th group: the digit count of D through the group's last
        # nonzero digit; 0 for a zero group, but 1 for the first, where the
        # leading digit counts
        sig = 4 - (g % 10 == 0) - (g % 100 == 0) - (g % 1000 == 0)
        self.count = [np.where(g > 0, 4 * k + 1 + sig, int(k == 0)).astype(np.uint8)
                      for k in range(4)]

        b = np.zeros((20, 8), np.uint8)
        b[10:, 0] = ord("-")
        b[:, 6] = np.arange(20) % 10 + 48
        self.lead = _words(b)[:, 0]  # by 10 * sign + leading digit

        # by X - _K0, then once more for the repr style: the exponent word,
        # empty for fixed notation, and the layout (below)
        x = np.tile(np.arange(_K0, _K1 + 1), 2)
        short = np.arange(len(x)) >= len(x) // 2
        ax, wide = np.abs(x), np.abs(x) >= 100
        fixed = (x >= -4) & (x < 17 - short)
        b = np.zeros((len(x), 8), np.uint8)
        b[:, 0] = ord("e")
        b[:, 1] = np.where(x < 0, ord("-"), ord("+"))
        b[:, 2] = np.where(wide, ax // 100, ax // 10) + 48
        b[:, 3] = np.where(wide, ax // 10 % 10, ax % 10) + 48
        b[:, 4] = np.where(wide, ax % 10 + 48, 0)
        b[fixed] = 0
        self.exp = _words(b)[:, 0]
        self.layout = 18 * np.where(fixed, np.where(x >= 0, x + 22 * short, 17 - x), 17)

        # by layout * 18 + digit count n, where layout is X for 0 <= X <= 16
        # (integer digits through X, point after digit X), 22 + X for the
        # repr style's 0 <= X <= 15 (the same, with ".0" for an integer),
        # 17 for scientific (point after the first digit) and 17 - X for
        # -4 <= X <= -1 (prefix "0." and -X - 1 zeros, no point)
        keep = np.zeros((38 * 18, 40), np.uint8)
        put = np.zeros((38 * 18, 40), np.uint8)
        for layout in range(38):
            for n in range(1, 18):
                row, shown, point = layout * 18 + n, n, None
                if layout <= 16:
                    shown = max(n, layout + 1)
                    point = layout if n > layout + 1 else None
                elif layout >= 22:
                    # digit X + 1 of an integer is the 0 after the point
                    shown, point = max(n, layout - 20), layout - 22
                elif layout == 17:
                    point = 0 if n > 1 else None
                else:
                    prefix = b"0." + b"0" * (layout - 18)
                    put[row, 1:1 + len(prefix)] = list(prefix)
                keep[row, 6:6 + 2 * shown:2] = 0xFF
                if point is not None:
                    put[row, 7 + 2 * point] = ord(".")
        self.head_put = _words(put)[:, 0].copy()
        self.quads_keep = _words(keep)[:, 1:5].copy()
        self.quads_put = _words(put)[:, 1:5].copy()


_T = _Tables()


def _shortest(hi, d17, lo, slow17, mant) -> tuple:
    """The digits of ``repr`` as a 17-digit integer with trailing zeros, and
    where they are unsure, for V = d17 + lo (|lo| <= 1/2), the value v scaled
    by 10^(16 - X), from hi, its nearest double; ``mant`` is v's significand
    in [1/2, 1), 2^-53 times the integer one.

    The n-digit candidate c_n is V rounded to a multiple of 10^(17 - n), and
    n is the least for which c_n rounds to v: |c_n - V| < h = V / (2^54
    mant), half an ulp of v at V's scale (v is not a power of two, whose
    interval is asymmetric; the caller leaves those to the fallback). Once
    c_n is outside, so is every shorter candidate, which is no nearer. As
    h < 12, two multiples of 100 are never both inside: if c_15 is inside,
    every shorter candidate inside is c_15 itself, and its trailing zeros
    give n. So only c_16 and c_15 are tested, as offsets from the multiple
    of 100 below d17. A cell is unsure where a distance lies within _TOL of
    h, where c_16 is chosen within _TOL of a tie, or where c_17 = d17 is
    chosen and ``slow17``, the %.17g style's unsure cells, holds it."""
    h = hi / (mant * 2.0**54)
    base = d17 // 100
    base *= 100
    r17 = (d17 - base).astype(float)  # exact
    x = r17 + lo  # V - base
    c16 = np.rint(x * 0.1)
    c16 *= 10.0
    dist = np.abs(x - c16)
    inside = dist < h
    unsure = np.abs(dist - h) < _TOL
    unsure |= np.where(inside, np.abs(dist - 5.0) < _TOL, slow17)
    off = np.where(inside, c16, r17)
    c15 = np.rint(x * 0.01)
    c15 *= 100.0
    dist = np.abs(x - c15)
    inside = dist < h
    unsure |= np.abs(dist - h) < _TOL
    np.copyto(off, c15, where=inside)
    base += off.astype(np.int64)
    return base, unsure


def format_floats(v: np.ndarray, out: np.ndarray, fallback, shortest=False) -> None:
    """Write the text of each x in the float64 array ``v`` into ``out``,
    uint64 of shape ``v.shape + (SLOT_WORDS,)`` (a view will do), with 0
    bytes in the unused places: ``'%.17g' % x``, or ``repr(x)`` where
    ``shortest``, a bool or a bool array that broadcasts against ``v``, is
    true. ``fallback(x)``, a str of at most 45 ASCII characters, is written
    for each x off the vectorized path."""
    t = _T
    a = np.abs(v)
    finite = a < np.inf
    zero = a == 0.0
    a = np.where(finite & ~zero, a, 1.0)
    if shortest is not False:
        mant, e = np.frexp(a)
        odd = mant == 0.5  # a power of two: its interval is asymmetric
        odd |= e < -1021  # subnormal
    ix = (np.floor(np.log10(a)) - _K0).astype(np.intp)  # X - _K0
    ix += a >= t.least.take(ix + 1)
    ix -= a < t.least.take(ix)

    q = (16 - 2 * _K0) - ix  # 16 - X - _K0
    a *= t.scale.take(q)
    c = a * _SPLIT
    ah = c - (c - a)
    al = a - ah
    hi = a * t.hi.take(q)
    hh, hl, pl = t.hi_hi.take(q), t.hi_lo.take(q), t.lo.take(q)
    lo = ((ah * hh - hi) + ah * hl + al * hh) + al * hl + a * pl
    r = np.rint(lo)
    slow = np.abs(lo - r) > 0.5 - _TOL  # near a tie
    slow &= pl != 0.0
    d = hi.astype(np.int64)
    d += r.astype(np.int64)
    if shortest is not False:
        ds, unsure = _shortest(hi, d, lo - r, slow, mant)
        unsure |= odd
        d = np.where(shortest, ds, d)
        slow = np.where(shortest, unsure, slow)
        slow &= ~zero  # whose stand-in 1.0 is a power of two
        # the repr style's half of the layout and exponent tables
        ix += np.multiply(shortest, len(t.least), dtype=np.intp)
    d[zero] = 0
    carry = d == 10 ** 17
    if carry.any():
        d[carry] = 10 ** 16
        ix += carry

    top = d // 100_000_000
    low = d - top * 100_000_000
    lead = top // 100_000_000
    mid = top - lead * 100_000_000
    groups = np.empty(v.shape + (4,), np.intp)
    groups[..., 0] = mid // 10_000
    groups[..., 1] = mid - groups[..., 0] * 10_000
    groups[..., 2] = low // 10_000
    groups[..., 3] = low - groups[..., 2] * 10_000
    n = t.count[0].take(groups[..., 0])
    for k in (1, 2, 3):
        np.maximum(n, t.count[k].take(groups[..., k]), out=n)
    layout = t.layout.take(ix)
    layout += n

    lead += np.signbit(v) * 10
    out[..., 0] = t.lead.take(lead) | t.head_put.take(layout)
    quads = t.quad.take(groups)
    quads &= t.quads_keep.take(layout, axis=0)
    quads |= t.quads_put.take(layout, axis=0)
    out[..., 1:5] = quads
    out[..., 5] = t.exp.take(ix)

    slow |= ~finite
    if slow.any():
        at = np.nonzero(slow)
        text = np.array([fallback(f) for f in v[at].tolist()], dtype="S48")
        out[at] = text.view(np.uint64).reshape(-1, SLOT_WORDS)
