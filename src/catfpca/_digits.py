"""Exact 17-significant-digit decimal text of float64 arrays, a block at a time.

``format17(values)[i]`` is ``b"%.17g" % values[i]``.  Python's conversion
(``PyOS_double_to_string``) rounds the exact binary value half-to-even with a
bignum routine, about a microsecond per value.  For 17 digits and the range
the exports live in, one exact integer product decides the same rounding, and
numpy computes it for a whole array in a few passes:

    |x| = M * 2**b, M the 53-bit integer mantissa, E = floor(log10 |x|),
    k = 16 - E, and D = floor(|x| * 10**k) = (M * 5**k) >> s, s = -(b + k).

For 0 <= k <= 27 the product M * 5**k is below 2**116, and it is formed
exactly in two uint64 limbs; for 1 <= s <= 63 the shift leaves D in the low
limb and the remainder in the bits shifted out, so rounding half-to-even is
exact.  An estimate of E off by one shows as D outside [10**16, 10**17) and
is corrected once.  Rounding never carries D up to 10**17 here: that takes a
double less than 5e-18 (relative) below a power of ten, and below each of
1e-11 ... 1e16 the nearest double is at least 2e-17 away (the tests format
those neighbours), so such a value would only be sent to the fallback.
Zeros are laid out directly; every other value (outside roughly
1e-11 <= |x| < 2e15, or non-finite) is formatted by Python itself.
Every integer operand has an explicit dtype (uint64, uint32 or intp), so no
step depends on numpy's scalar promotion rules.
"""
from __future__ import annotations

import numpy as np

_U32 = np.uint64(0xFFFF_FFFF)
_32 = np.uint64(32)
_64 = np.uint64(64)
_ONE = np.uint64(1)
_HALF = np.uint64(1 << 63)
_TEN16 = np.uint64(10 ** 16)
_TEN17 = np.uint64(10 ** 17)
_TINY, _HUGE = np.finfo(np.float64).smallest_subnormal, np.finfo(np.float64).max  # clamp bounds
_MAX_K = 27  # 5**27 < 2**63, so M * 5**k < 2**116
_POW5 = np.uint64(5) ** np.arange(_MAX_K + 1, dtype=np.uint64)

# A row of the scratch buffer: the 17 digits of D after three padding digits,
# then the other characters a text can hold.  A layout maps each output
# column to a position in that row.
_WIDTH = 24  # the longest "%.17g" text: "-1.2345678901234567e-308"
_ROW = 36
_DIGIT0 = 3
_CHARS = b".-e\x000123456789\x00\x00"  # at 20 .. 35; two NULs pad the row to whole uint32s
_DOT, _MINUS, _EXP, _NUL, _ZERO = 20, 21, 22, 23, 24
_E_MIN, _E_MAX = -11, 15  # the decimal exponents the integer path reaches: k <= 27, |x| < 2**52
_CHUNK = 1 << 12  # values per pass: the temporaries stay near 1 MB


def _quad_tables() -> tuple[np.ndarray, np.ndarray]:
    """The four ASCII digits of each of 0..9999 as one uint32 in memory order, and the
    number of trailing zeros among them."""
    digits = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1)  # thousands .. units
    quads = np.ascontiguousarray((digits + np.uint8(ord("0"))).T).view(np.uint32).ravel()
    th, hu, te, un = (digits == 0).view(np.uint8)
    one = np.uint8(1)
    return quads, un * (one + te * (one + hu * (one + th)))


def _layouts() -> np.ndarray:
    """Row positions of each output column, one row per (sign, E, significant digits).

    %g with 17 digits: fixed notation for -4 <= E < 17, else d.ddd followed by
    e-XX; trailing zeros after the point are dropped, and the point with them.
    A negative value's text is the positive one behind a minus sign.
    """
    e, n, p = np.ix_(*(np.arange(lo, hi, dtype=np.int8)
                       for lo, hi in ((_E_MIN, _E_MAX + 1), (1, 18), (0, _WIDTH))))
    fixed = e >= -4
    zeros = np.where(fixed, np.maximum(-e, 0), 0)  # leading zeros, the one before the point too
    point = np.where(fixed, np.maximum(e + 1, 1), 1)
    mantissa = np.where(zeros + n > point, zeros + n + 1, point)
    q = p - (p > point)  # digit column, the point taken out
    pos = np.where(q < zeros, _ZERO, _DIGIT0 + q - zeros)
    pos = np.where(p == point, _DOT, pos)
    t = p - mantissa  # column in the exponent suffix
    suffix = np.where(t == 0, _EXP, np.where(t == 1, _MINUS, _ZERO + np.where(t == 2, -e // 10,
                                                                              -e % 10)))
    pos = np.where(t < 0, pos, np.where(fixed | (t > 3), _NUL, suffix))
    negative = np.concatenate([np.full(pos[..., :1].shape, _MINUS), pos[..., :-1]], axis=-1)
    return np.concatenate([pos, negative]).reshape(-1, _WIDTH).astype(np.int8)


_QUADS, _TRAILING_ZEROS = _quad_tables()
_LAYOUTS = _layouts()


def _scaled(mantissa, exp2, e):
    """floor(M * 2**b * 10**(16 - E)), whether rounding half-to-even takes it up, and where
    that is exact."""
    k = 16 - e
    s = e - exp2 - 16  # -(b + k)
    ok = (k >= 0) & (k <= _MAX_K) & (s >= 1) & (s <= 63)
    p5 = _POW5[np.where(ok, k, 0)]
    s = np.where(ok, s, 1).astype(np.uint64)
    mh, ml = mantissa >> _32, mantissa & _U32
    ph, pl = p5 >> _32, p5 & _U32
    low = ml * pl
    cross = mh * pl + ml * ph  # < 2**53 + 2**63
    lo = low + (cross << _32)
    hi = mh * ph + (cross >> _32) + (lo < low)
    t = _64 - s
    d = (lo >> s) | (hi << t)
    ok &= (hi >> s) == 0
    # the s bits shifted out, as a fraction of 2**64: above one half rounds up, and
    # exactly one half rounds to the even neighbour
    up = (lo << t) > (_HALF - (d & _ONE))
    return d, up, ok


def _write_digits(buf, d) -> np.ndarray:
    """D's 17 digits into ``buf[:, 3:20]``; returns how many are left without trailing zeros."""
    hi = d // np.uint64(10 ** 8)
    lo = (d - hi * np.uint64(10 ** 8)).astype(np.uint32)
    hi = hi.astype(np.uint32)  # both below 10**9
    ten4 = np.uint32(10 ** 4)
    # the leading digit, then four groups of four
    quads = np.empty((5, d.size), dtype=np.uint32)
    np.floor_divide(hi, np.uint32(10 ** 8), out=quads[0])
    mid = hi // ten4
    np.subtract(mid, quads[0] * ten4, out=quads[1])
    np.subtract(hi, mid * ten4, out=quads[2])
    np.floor_divide(lo, ten4, out=quads[3])
    np.subtract(lo, quads[3] * ten4, out=quads[4])
    quads = quads.astype(np.intp)
    buf.view(np.uint32)[:, :5] = _QUADS[quads].T
    zeros = _TRAILING_ZEROS[quads[1]]
    for g in (2, 3, 4):
        zeros = _TRAILING_ZEROS[quads[g]] + (quads[g] == 0) * zeros
    return 17 - zeros


def format17(values) -> np.ndarray:
    """``b"%.17g" % v`` for every v of ``values``, in C order, as an (N,) bytes array."""
    x = np.asarray(values, dtype=np.float64).ravel()
    texts = np.empty(x.size, dtype=f"S{_WIDTH}")
    for lo in range(0, x.size, _CHUNK):
        texts[lo:lo + _CHUNK] = _format(x[lo:lo + _CHUNK])
    return texts


def _format(x: np.ndarray) -> np.ndarray:
    """format17 of at most _CHUNK values."""
    d, e, ok = _round17(x)
    buf = np.empty((x.size, _ROW), dtype=np.uint8)
    buf[:, _DOT:] = np.frombuffer(_CHARS, dtype=np.uint8)
    n = _write_digits(buf, d)
    layout = (np.signbit(x) * (_E_MAX - _E_MIN + 1) + (e - _E_MIN)) * 17 + (n - 1)
    cols = np.take(_LAYOUTS, layout, axis=0) + (np.arange(x.size) * _ROW)[:, None]
    texts = np.take(buf.ravel(), cols).view(f"S{_WIDTH}").ravel()

    zero = x == 0
    texts[zero] = np.where(np.signbit(x[zero]), b"-0", b"0")
    rest = ~ok & ~zero
    if rest.any():
        texts[rest] = [b"%.17g" % v for v in x[rest].tolist()]
    return texts


def _round17(x: np.ndarray):
    """D and E of |x| rounded to 17 digits, D * 10**(E - 16), and where they are exact."""
    # zeros, NaN and infinities are clamped to finite magnitudes the integer path rejects
    a = np.fmin(np.fmax(np.abs(x), _TINY), _HUGE)
    frac, exp2 = np.frexp(a)
    mantissa = (frac * 2.0 ** 53).astype(np.uint64)
    exp2 = exp2 - 53
    e = np.floor(np.log10(a)).astype(np.intp)
    d, up, ok = _scaled(mantissa, exp2, e)
    miss = ok & ((d < _TEN16) | (d >= _TEN17))
    if miss.any():  # log10 rounded across a power of ten
        e[miss] += np.where(d[miss] < _TEN16, -1, 1)
        d[miss], up[miss], ok[miss] = _scaled(mantissa[miss], exp2[miss], e[miss])
        ok &= (d >= _TEN16) & (d < _TEN17)
    d += up
    ok &= d < _TEN17  # never false: see the module docstring
    e[~ok], d[~ok] = 0, _TEN16  # any valid layout; these values are replaced
    return d, e, ok
