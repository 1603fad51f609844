"""Exact ``'%.17g' % v`` for a whole float64 array at once.

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
  does (hi >= 1e16 is even); a carry to 10^17 moves X up by one;
- the layout: fixed notation for -4 <= X < 17, scientific otherwise,
  trailing zeros and a bare point dropped, an exponent of two digits at
  least.

Zero is written as "0" and "-0". Every other value goes to ``fallback``:
nan and infinities, and a value whose rounding the error of V could
decide, a lo within 1e-6 of a half with an inexact power of ten.

A slot is four 8-byte words, byte by byte: byte 0, always a hole, for
the caller's separator; the sign at byte 1; the "0.000" prefix of
-4 <= X < 0 at bytes 2-6; then digit i of D densely, seven to a word: at
byte 8 + i, 9 + i (i >= 7) or 10 + i (i >= 14), so that the last byte of
each digit word (15, 23, 27) is free; and the exponent "e+XX" or "e+XXX"
at bytes 27-31, the tail of the last word. The point after digit p moves
the digits after it in p's word up by one byte into the free one and takes
the byte it leaves; the other words stay as they are. Only scientific
notation has an exponent, and its point lies in the first digit word, so
the free byte 27 holds a digit or the point only without an exponent. A
text is 24 bytes at most: the sign, 17 digits, the point and "e-308".

The words are looked up in tables: a digit word from a four-digit and a
three-digit group by their values, the prefix and each digit word's low
mask (kept in place), high mask (moved up a byte) and point by the layout
and the digit count, and the exponent by X.
"""

from __future__ import annotations

import math

import numpy as np

SLOT_WORDS = 4

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

        # digit words by group value: a four-digit group at bytes 0-3, a
        # three-digit one at bytes 4-6 or 0-2; and by group k (a1, a2, b1, b2,
        # c below), the digit count of D through the group's last nonzero
        # digit; 0 for a zero group, but 1 for a1, whose leading digit counts
        g = np.arange(10_000)
        b = np.zeros((10_000, 8), np.uint8)
        b[:, :4] = np.stack([g // 1000, g // 100 % 10, g // 10 % 10, g % 10], 1) + 48
        self.quad = _words(b)[:, 0]
        b = np.zeros((1_000, 8), np.uint8)
        b[:, 4:7] = np.stack([g[:1000] // 100, g[:1000] // 10 % 10, g[:1000] % 10], 1) + 48
        self.tri_high = _words(b)[:, 0]
        self.tri = self.tri_high >> np.uint64(32)
        self.count = []
        for first, width in ((0, 4), (4, 3), (7, 4), (11, 3), (14, 3)):
            h = g[:10 ** width]
            sig = width - (h % 10 == 0) - (h % 100 == 0) - (width == 4) * (h % 1000 == 0)
            self.count.append(np.where(h > 0, first + sig, int(first == 0)).astype(np.uint8))

        # by X - _K0: the exponent in the last word, empty for fixed
        # notation, and the layout (below)
        x = np.arange(_K0, _K1 + 1)
        ax, wide = np.abs(x), np.abs(x) >= 100
        fixed = (x >= -4) & (x < 17)
        b = np.zeros((len(x), 8), np.uint8)
        b[:, 3] = ord("e")
        b[:, 4] = np.where(x < 0, ord("-"), ord("+"))
        b[:, 5] = np.where(wide, ax // 100, ax // 10) + 48
        b[:, 6] = np.where(wide, ax // 10 % 10, ax % 10) + 48
        b[:, 7] = np.where(wide, ax % 10 + 48, 0)
        b[fixed] = 0
        self.exp = _words(b)[:, 0]
        self.layout = 18 * np.where(fixed, np.where(x >= 0, x, 17 - x), 17)

        # by layout * 18 + digit count n, where layout is X for 0 <= X <= 16
        # (integer digits through X, point after digit X), 17 for scientific
        # (point after the first digit) and 17 - X for -4 <= X <= -1 (prefix
        # "0." and -X - 1 zeros, no point)
        head = np.zeros((22 * 18, 8), np.uint8)
        low = np.zeros((22 * 18, 3, 8), np.uint8)
        high = np.zeros((22 * 18, 3, 8), np.uint8)
        put = np.zeros((22 * 18, 3, 8), np.uint8)
        for layout in range(22):
            for n in range(1, 18):
                row, shown, point = layout * 18 + n, n, None
                if layout <= 16:
                    shown = max(n, layout + 1)
                    point = layout if n > layout + 1 else None
                elif layout == 17:
                    point = 0 if n > 1 else None
                else:
                    prefix = b"0." + b"0" * (layout - 18)
                    head[row, 2:2 + len(prefix)] = list(prefix)
                # digit i in word min(i // 7, 2), at byte i less 7 a word
                at = [min(i // 7, 2) for i in range(18)]
                for i in range(shown):
                    moved = point is not None and i > point and at[i] == at[point]
                    (high if moved else low)[row, at[i], i - 7 * at[i]] = 0xFF
                if point is not None:
                    put[row, at[point], point - 7 * at[point] + 1] = ord(".")
        self.head = _words(head)[:, 0].copy()
        # one row per digit word
        self.low, self.high, self.put = (_words(m.reshape(-1, 24)).T.copy()
                                         for m in (low, high, put))


_T = _Tables()


class Workspace:
    """The intermediates of ``format_floats`` calls of up to ``cells``
    values: ten rows of 8-byte words and six of bools, 86 bytes a cell. A
    call writes every row it reads, so it carries nothing to the next; a
    workspace serves one call at a time."""

    def __init__(self, cells: int):
        self.cells, self.words, self.flags = cells, np.empty(10 * cells), np.empty(6 * cells, bool)


def format_floats(v: np.ndarray, out: np.ndarray, fallback,
                  work: Workspace | None = None) -> None:
    """Write ``'%.17g' % x`` for each x in the float64 array ``v`` into
    ``out``, uint64 of shape ``v.shape + (SLOT_WORDS,)`` (a view will do),
    with 0 bytes in the unused places. ``fallback(x)``, a str of at most 31
    ASCII characters other than NUL (ValueError otherwise), is written for
    each x off the vectorized path. Byte 0 of every slot is left 0. Every
    intermediate goes into ``work``, a ``Workspace`` of at least ``v.size``
    cells (a new one if None)."""
    t, shape, flat = _T, v.shape, v.reshape(-1)
    work = Workspace(flat.size) if work is None else work
    if flat.size > work.cells:
        raise ValueError(f"a workspace of {work.cells} cells cannot hold {flat.size}")
    # 8-byte rows (float64, int64, uint64) and bool rows, each run contiguous
    f = work.words[:10 * flat.size].reshape(10, -1)
    i, u, b = f.view(np.int64), f.view(np.uint64), work.flags[:6 * flat.size].reshape(6, -1)
    finite, zero, m, slow = b[:4]
    a, g, ix, q = f[0], f[2], i[3], i[4]
    np.abs(flat, out=a)
    np.less(a, np.inf, out=finite)
    np.equal(a, 0.0, out=zero)
    np.copyto(a, 1.0, where=zero)
    np.copyto(a, 1.0, where=np.invert(finite, out=m))
    np.log10(a, out=g)
    np.floor(g, out=g)
    np.subtract(g, _K0, out=g)
    np.copyto(ix, g, casting="unsafe")  # X - _K0
    np.add(ix, 1, out=q)
    t.least.take(q, out=g, mode="clip")  # in range; "raise" would buffer out
    np.greater_equal(a, g, out=m)
    np.add(ix, 1, out=ix, where=m)
    t.least.take(ix, out=g, mode="clip")
    np.less(a, g, out=m)
    np.subtract(ix, 1, out=ix, where=m)

    np.subtract(16 - 2 * _K0, ix, out=q)  # 16 - X - _K0
    t.scale.take(q, out=g, mode="clip")
    a *= g
    c, al, ah, hi, hh, hl, pl, lo = g, g, f[5], f[6], f[7], f[8], f[9], f[4]
    np.multiply(a, _SPLIT, out=c)
    np.subtract(c, a, out=ah)
    np.subtract(c, ah, out=ah)
    np.subtract(a, ah, out=al)
    t.hi.take(q, out=hi, mode="clip")
    np.multiply(a, hi, out=hi)
    for table, row in ((t.hi_hi, hh), (t.hi_lo, hl), (t.lo, pl)):
        table.take(q, out=row, mode="clip")
    # lo = ((ah hh - hi) + ah hl + al hh) + al hl + a pl in q's row, each
    # product in the row of an operand that is not read again
    np.multiply(ah, hh, out=lo)
    lo -= hi
    for x, y, product in ((ah, hl, ah), (al, hh, hh), (al, hl, hl), (a, pl, a)):
        np.multiply(x, y, out=product)
        lo += product
    r, tmp, d, k = f[0], f[5], i[7], i[8]
    np.rint(lo, out=r)
    np.subtract(lo, r, out=tmp)
    np.abs(tmp, out=tmp)
    np.greater(tmp, 0.5 - _TOL, out=slow)  # near a tie
    np.not_equal(pl, 0.0, out=m)
    slow &= m
    np.copyto(d, hi, casting="unsafe")
    np.copyto(k, r, casting="unsafe")
    d += k
    np.copyto(d, 0, where=zero)
    np.equal(d, 10 ** 17, out=m)  # a carry
    if m.any():
        np.copyto(d, 10 ** 16, where=m)
        np.add(ix, 1, out=ix, where=m)

    # D's digits in groups, one to a row: a1 = d0-d3 and b1 = d7-d10 in
    # ``fours``, a2 = d4-d6 and b2 = d11-d13 in ``threes`` (ab's rows) and
    # c = d14-d16
    ab, fours, k, c, threes, layout = i[8:10], i[4:6], i[0], d, i[8:10], i[6]
    np.floor_divide(d, 10 ** 10, out=ab[0])
    np.multiply(ab[0], 10 ** 10, out=k)
    np.subtract(d, k, out=c)
    np.floor_divide(c, 1000, out=ab[1])
    np.multiply(ab[1], 1000, out=k)
    c -= k
    np.floor_divide(ab, 1000, out=fours)
    np.multiply(fours, 1000, out=i[0:2])
    threes -= i[0:2]
    n, group_n = b[4].view(np.uint8), b[5].view(np.uint8)
    t.count[0].take(fours[0], out=n, mode="clip")
    for table, group in zip(t.count[1:], (threes[0], fours[1], threes[1], c)):
        table.take(group, out=group_n, mode="clip")
        np.maximum(n, group_n, out=n)
    t.layout.take(ix, out=layout, mode="clip")
    np.copyto(k, n)
    layout += k

    # the digit words, one to a row, then the point's shift
    words, moved, w = u[0:3], u[7:10], u[4]
    t.quad.take(fours, out=words[:2], mode="clip")
    t.tri_high.take(threes, out=u[4:6], mode="clip")  # fours' rows, free now
    words[:2] |= u[4:6]
    t.tri.take(c, out=words[2], mode="clip")
    t.high.take(layout, axis=1, out=moved, mode="clip")
    moved &= words
    moved <<= np.uint64(8)
    for word, low in zip(words, t.low):
        low.take(layout, out=w, mode="clip")
        word &= w
    words |= moved
    put = moved
    t.put.take(layout, axis=1, out=put, mode="clip")
    t.exp.take(ix, out=w, mode="clip")
    put[2] |= w
    for at, (word, bits) in enumerate(zip(words, put), 1):
        np.bitwise_or(word.reshape(shape), bits.reshape(shape), out=out[..., at])
    t.head.take(layout, out=w, mode="clip")
    np.signbit(flat, out=m)
    np.bitwise_or(w, np.uint64(ord("-") << 8), out=w, where=m)
    np.copyto(out[..., 0], w.reshape(shape))

    np.invert(finite, out=m)
    slow |= m
    if slow.any():
        at = np.nonzero(slow.reshape(shape))
        texts = [fallback(f).encode("ascii") for f in v[at].tolist()]
        room = 8 * SLOT_WORDS - 1
        if max(map(len, texts)) > room or any(b"\0" in text for text in texts):
            raise ValueError(f"a fallback text must be at most {room} bytes, none of them 0")
        b = np.zeros((len(texts), 8 * SLOT_WORDS), np.uint8)
        b[:, 1:] = np.array(texts, dtype=f"S{room}")[:, None].view(np.uint8)
        out[at] = b.view(np.uint64)
