"""The number formatter of every text output.

Values are written with 17 significant digits (``'%.17g'``), so each double
reads back exactly; identical numbers always give identical bytes.

:func:`fmt` formats one value.  :func:`fmt_rows` formats whole tables and
gives exactly the bytes of ``'%.17g'`` for every value, but converts a
block of values at a time in numpy instead of one dtoa call per value:

* **Digits.**  A value ``a = |x|`` with decimal exponent ``k`` has the
  17 digits ``n = round(y)``, ``y = a * 10**(16 - k)``.  ``10**s`` is held
  as a double-double ``hi + lo`` (correctly rounded from exact integers),
  and ``a * hi`` is formed exactly as ``p + e`` by Dekker's product with
  Veltkamp's split (T. J. Dekker, *A floating-point technique for
  extending the available precision*, Numer. Math. 18, 1971).  ``p`` is an
  integer, so ``n = p + floor(t) + (f > 1/2)`` with ``t = e + a * lo`` and
  ``f = t - floor(t)``; the error of ``f`` is below 1e-14 (rounding of
  ``a * lo`` and of the sum, and the truncation of ``10**s``).  ``k``
  starts as ``floor(log10 a)`` and moves by one while the *unrounded*
  ``p + floor(t)`` lies outside ``[10**16, 10**17)``; a rounding up to
  ``10**17`` then carries into ``k``.
* **Certification.**  The digits are used only where ``|f - 1/2|`` exceeds
  ``_MARGIN`` (1e-9), far above that error, so the rounding direction is
  certain.  Zeros are written directly as ``0`` and ``-0``.  Every other
  value -- an exact or near tie, a ``k`` that would not settle, a value
  that is not finite or lies outside ``[1e-280, 1e280]`` -- is formatted by
  :func:`fmt`, that is, by Python's correctly rounded conversion (D. M.
  Gay, *Correctly rounded binary-decimal and decimal-binary conversions*,
  AT&T Numerical Analysis Manuscript 90-10, 1990).
* **Text.**  Each value gets a cell of bytes holding every character its
  text can use, in output order: the sign, ``0.000``, the 17 digits each
  followed by a point, the exponent and the separator.  The ``%g`` rules
  (fixed notation for ``-4 <= k < 17``, trailing zeros and a bare point
  dropped, an exponent of at least two digits) pick a subsequence of the
  cell: one mask row per sign, layout and digit count, and one
  ``np.compress`` per block lays out every line.
"""

from __future__ import annotations

import functools
from typing import Iterator

import numpy as np

__all__ = ["fmt", "fmt_rows"]


def fmt(x) -> str:
    """One value with 17 significant digits."""
    return "%.17g" % x


#: Values formatted at a time (whole rows, at least one); bounds the memory
#: of a big table.
_BLOCK_VALUES = 1 << 13

#: Values whose digits are computed in numpy; the rest go to fmt.
_TINY, _HUGE = 1e-280, 1e280
#: Least |f - 1/2| of a certified rounding; the error of f is below 1e-14.
_MARGIN = 1e-9
#: Exponents s of the 10**s table: 16 - k for k within one of the range.
_S_MIN, _S_MAX = -265, 297
_VELTKAMP = 134217729.0  # 2**27 + 1

# A cell of bytes, by offset: every character a value's text can use, in
# output order, so that the text is a subsequence of the cell.  Digit i is
# at 6 + 2 i and followed by a point; the 8-byte runs from offset 8 hold
# four digits and their points each, written as one word.
_MINUS, _ZERO, _POINT, _LEAD_ZEROS = 0, 1, 2, 3  # "-" "0" "." "000"
_DIGITS = 6
_E = 39  # "e" (over the point after digit 16), exponent sign, then its digits
_MARK = 44  # stands in for a value formatted by fmt
_NUM = 45  # the separator follows
#: Layouts: 0..20 fixed notation with k = layout - 4, 21 and 22 scientific
#: with a 2- or 3-digit exponent, 23 a value formatted by fmt.
_SCI, _FALLBACK, _NLAYOUT = 21, 23, 24


@functools.cache
def _tables():
    """Built on first use, not at import: 10**s as hi + lo with hi split,
    the digit groups, their trailing zero counts, and the masks."""
    big = [10**j for j in range(_S_MAX + 1)]
    hi = [1 / b for b in big[-_S_MIN:0:-1]] + [float(b) for b in big]
    ratios = (h.as_integer_ratio() for h in hi)
    lo = [(q - a * b) / (q * b) for (a, q), b in zip(ratios, big[-_S_MIN:0:-1])]
    lo += [float(b - int(h)) for b, h in zip(big, hi[-_S_MIN:])]
    hi = np.array(hi)
    c = _VELTKAMP * hi
    hh = c - (c - hi)
    pow10 = (hh, hi - hh, np.array(lo))

    # "d.d.d.d." and the count of trailing zero digits of 0..9999
    chars = np.full((10, 10, 10, 10, 8), ord("."), np.uint8)
    tz = np.zeros((10, 10, 10, 10), np.int8)
    zeros = np.ones(tz.shape, bool)
    for j in (3, 2, 1, 0):
        axis = (10,) + (1,) * (3 - j)
        chars[..., 2 * j] = np.arange(48, 58, dtype=np.uint8).reshape(axis)
        zeros &= (np.arange(10) == 0).reshape(axis)
        tz += zeros
    chars, tz = chars.reshape(10000, 8), tz.ravel()
    groups = chars.view(np.uint64).ravel()
    pairs = chars[:100, 4::2].copy().view(np.uint16).ravel()  # "00".."99"

    lay, d = np.divmod(np.arange(_NLAYOUT * 17), 17)
    d = d[:, None] + 1
    k = (lay - 4)[:, None]
    small = (lay < 4)[:, None]  # 0.000ddd
    fixed = ((lay >= 4) & (lay < _SCI))[:, None]
    sci = ((lay >= _SCI) & (lay < _FALLBACK))[:, None]
    i = np.arange(17)
    mask = np.zeros((len(lay), _NUM), bool)
    mask[:, [_ZERO, _POINT]] = small
    mask[:, _LEAD_ZEROS : _LEAD_ZEROS + 3] = small & (np.arange(3) < -1 - k)
    mask[:, _DIGITS:_E:2] = (small | sci) & (i < d) | fixed & ((i < d) | (i <= k))
    point = fixed & (i == k) & (d > k + 1) | sci & (i == 0) & (d > 1)
    mask[:, _DIGITS + 1 : _E : 2] = point[:, :16]  # never after digit 16
    mask[:, [_E, _E + 1, _E + 3, _E + 4]] = sci
    mask[:, _E + 2] = lay == _SCI + 1
    mask[:, _MARK] = lay == _FALLBACK
    mask = np.concatenate([mask, mask])
    mask[len(lay) :, _MINUS] = lay != _FALLBACK
    return pow10, groups, pairs, tz, mask


def _scaled(a, k, pow10):
    """``floor(y)`` and ``y - floor(y)`` of ``y = a * 10**(16 - k)``."""
    hh, hl, lo = (col.take(16 - k - _S_MIN) for col in pow10)
    p = a * (hh + hl)
    c = _VELTKAMP * a
    ah = c - (c - a)
    al = a - ah
    t = ((ah * hh - p) + ah * hl + al * hh) + al * hl + a * lo
    ft = np.floor(t)
    return p.astype(np.int64) + ft.astype(np.int64), t - ft


def _digits(a, pow10):
    """17 digits ``n`` and exponent ``k`` of each ``a`` in [_TINY, _HUGE],
    and whether the rounding is certified."""
    k = np.floor(np.log10(a)).astype(np.int64)
    n, f = _scaled(a, k, pow10)
    for _ in range(2):
        off = np.flatnonzero((n < 10**16) | (n >= 10**17))
        if not len(off):
            break
        k[off] += np.where(n[off] < 10**16, -1, 1)
        n[off], f[off] = _scaled(a[off], k[off], pow10)
    ok = (n >= 10**16) & (n < 10**17) & (np.abs(f - 0.5) > _MARGIN)
    n += f > 0.5
    carry = n == 10**17
    n[carry] = 10**16
    k += carry
    return n, k, ok


def _format_block(x, cells, keep, masks) -> str:
    """The text of the rows ``x``, laid out in the ``cells`` and ``keep``
    buffers; ``masks`` holds the mask rows of a value in any column but the
    last, then those of a value in the last column."""
    pow10, groups, pairs, tz, _ = _tables()
    m = x.size
    flat = x.ravel()
    a = np.abs(flat)
    fine = (a >= _TINY) & (a <= _HUGE)
    n, k, ok = _digits(np.where(fine, a, 1.0), pow10)
    zero = a == 0
    n[zero] = 0
    ok = ok & fine | zero

    cells = cells[: len(x)].reshape(m, -1)
    keep = keep[: len(x)].reshape(m, -1)
    words = cells.view(np.uint64)
    q, g4 = np.divmod(n, 10**4)
    q, g3 = np.divmod(q, 10**4)
    q, g2 = np.divmod(q, 10**4)
    lead, g1 = np.divmod(q, 10**4)
    cells[:, _DIGITS] = 48 + lead
    for j, g in enumerate((g1, g2, g3, g4)):
        words[:, 1 + j] = groups[g]
    cells[:, _E] = ord("e")
    cells[:, _E + 1] = np.where(k < 0, ord("-"), ord("+"))
    hundreds, k2 = np.divmod(np.abs(k), 100)
    cells[:, _E + 2] = 48 + hundreds
    cells.view(np.uint16)[:, (_E + 3) // 2] = pairs[k2]  # an aligned pair

    zeros = tz[g4] + (g4 == 0) * (tz[g3] + (g3 == 0) * (tz[g2] + (g2 == 0) * tz[g1]))
    layout = np.where((k >= -4) & (k < 17), k + 4, _SCI + (hundreds > 0))
    layout[~ok] = _FALLBACK
    key = (np.signbit(flat) * _NLAYOUT + layout) * 17 + (16 - zeros)
    key = key.reshape(x.shape)
    key[:, -1] += len(masks) // 2  # the last column ends the line
    # keys are in range; mode="clip" lets take write to out unbuffered
    np.take(masks, key.ravel(), axis=0, out=keep, mode="clip")
    text = np.compress(keep.ravel(), cells.ravel()).tobytes().decode()
    if ok.all():
        return text
    parts = text.split("\x01")
    return parts[0] + "".join(fmt(v) + p for v, p in zip(flat[~ok].tolist(), parts[1:]))


def fmt_rows(rows, sep: str = " ", prefix: str = "") -> Iterator[str]:
    """Text lines ``prefix + sep.join(values)`` of the rows of a 2-D array,
    yielded in blocks of lines (join them for one string).

    ``sep`` and ``prefix`` must not contain the character ``"\\x01"``.
    """
    rows = np.asarray(rows, dtype=float)
    nrows, ncols = rows.shape
    if not ncols:
        yield (prefix + "\n") * nrows
        return
    num_mask = _tables()[-1]
    # Each separator slot holds sep, or after the last column "\n" + prefix
    # (so a block's text is prefix + text[:-len(prefix)]).
    pre, sb = prefix.encode(), sep.encode()
    tail = b"\n" + pre
    width = 8 * -(-(_NUM + max(len(sb), len(tail))) // 8)
    masks = np.zeros((2, len(num_mask), width), bool)
    masks[..., :_NUM] = num_mask
    masks[0, :, _NUM : _NUM + len(sb)] = True
    masks[1, :, _NUM : _NUM + len(tail)] = True
    masks = masks.reshape(-1, width)

    step = max(1, _BLOCK_VALUES // ncols)
    cells = np.zeros((min(step, nrows), ncols, width), np.uint8)
    constant = [_MINUS, _ZERO, _POINT, *range(_LEAD_ZEROS, _LEAD_ZEROS + 3), _DIGITS + 1, _MARK]
    cells[..., constant] = list(b"-0.000.\1")
    cells[:, :-1, _NUM : _NUM + len(sb)] = list(sb)
    cells[:, -1, _NUM : _NUM + len(tail)] = list(tail)
    keep = np.empty(cells.shape, bool)
    for s in range(0, nrows, step):
        text = _format_block(rows[s : s + step], cells, keep, masks)
        yield prefix + text[: len(text) - len(prefix)]
