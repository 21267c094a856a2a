"""JSON text of float arrays, with Python's shortest round-trip decimals.

encode(a, sep) returns exactly json.dumps(a.tolist(), separators=(sep, ...))
for a float64 array a of shape (n,) or (n, m), without building the list or
calling float.__repr__ per element, and dumps(obj, **kw) is json.dumps for
a dict whose values may be such arrays, at any depth.  Every element gets
the digits repr prints: the shortest decimal that reads back as the same
double, the nearest to it when several are that short.

The digits come from integer arithmetic in the spirit of Ryu (Adams, PLDI
2018), with NumPy's fixed-width integers in place of Ryu's tables.  For
1e-4 <= |x| < 1e16, where repr writes no exponent, y = |x| 10^s with s the
power that puts y in [1e16, 1e17).  10^s is an exact double for every s
used (5^22 < 2^53), so Dekker's product of |x| and the split of 10^s gives
y as hi + lo with no error, and from it the integer N = floor(y) and the
fraction f = y - N, both exact.  Half an ulp of x in the same units,
h = ulp(x) 10^s / 2, is exact too and lies in (0.55, 11.2), so the
decimals that read back as x are the integers first..last strictly inside
(y - h, y + h), times 10^-s.  The shortest of them drops the most trailing
digits j: the largest j with a multiple of 10^j in first..last, that is
with last // 10^j > (first - 1) // 10^j.  Of the multiples of 10^j there,
repr takes the one nearest y, which is the multiple of 10^j nearest y.

The characters are built eight to a uint64 word: the 17 digits from a
table of four-digit groups, then shifted and masked by tables indexed by
the decimal-point position and the digit count into d.ddd, ddd.0 or
0.000ddd.  Each element's brackets, sign, text and separator sit at fixed
byte positions of a row of zero bytes, and one bytes.translate of the
rows drops the zeros.

Nothing is guessed: json.dumps(float(v)) formats every element that the
arithmetic does not decide.  These are 0, subnormals, inf and nan; |x|
outside [1e-4, 1e16), which repr writes with an exponent; mantissas that
are a power of two, whose rounding interval is lopsided; an end of the
interval that is an integer (whether it reads back as x depends on the
parity of x's mantissa); and y exactly halfway between two multiples of
10^j.
"""

from __future__ import annotations

import json

import numpy as np

# Elements per pass, so that the temporaries of a pass stay in cache.
_CHUNK = 8192

_U64 = np.uint64
_POW10 = np.array([10**j for j in range(19)], dtype=np.int64)
# 10^s for s = 0..22, exact doubles, each split into 26-bit halves
# hi + lo (Veltkamp) for Dekker's exact product.
_SPLITTER = 134217729.0  # 2^27 + 1
_P10 = np.array([float(10**s) for s in range(23)])
_P10_HI = _P10 * _SPLITTER - (_P10 * _SPLITTER - _P10)
_P10_LO = _P10 - _P10_HI


def _words(b: np.ndarray) -> np.ndarray:
    """Bytes (..., 24) as 3 little-endian words, word index first."""
    return np.moveaxis(b.astype(np.uint8).view("<u8"), -1, 0).copy()


# The ASCII digits of 0..9999, first digit in the lowest byte.
_i = np.arange(10_000, dtype=_U64)
_ASCII4 = sum((_i // _U64(10 ** (3 - c)) % _U64(10) + _U64(48)) << _U64(8 * c) for c in range(4))
# The text of |x| from its 17 digits S (3 words, digit 0 in byte 0), its
# decimal-point position p (digits before the point, -3..16, counted from
# _P_MIN as an index) and its digit count d is, word by word,
# (S & _KEEP[p]) | (shl(S, _SHIFT[p]) & _MOVED[18 p + d]) | _FIXED[p].  For
# p >= 1 the first p digits stay and the others move one byte up, past the
# point, with at least one digit after it (ddd.0); for p <= 0 every digit
# moves up past "0." and -p zeros.  _MOVED also clears the bytes past the
# last digit.
_P_MIN, _P_MAX = -3, 16
_byte = np.arange(24)
_p = np.arange(_P_MIN, _P_MAX + 1)[:, None]
_size = np.where(_p >= 1, _p + 1 + np.maximum(np.arange(18) - _p, 1), 2 - _p + np.arange(18))
_SHIFT = np.where(_p[:, 0] >= 1, 8, 16 - 8 * _p[:, 0]).astype(_U64)
_KEEP = _words(np.where(_byte < _p, 0xFF, 0))
_MOVED = _words(
    np.where((_byte >= np.maximum(_p, 0)[..., None] + 1) & (_byte < _size[..., None]), 0xFF, 0)
).reshape(3, -1)
_FIXED = _words(
    np.where(
        _p >= 1,
        np.where(_byte == _p, ord("."), 0),
        np.where(_byte == 1, ord("."), np.where(_byte < 2 - _p, ord("0"), 0)),
    )
)
del _i, _byte, _p, _size

_EXPONENT = 0x7FF << 52
_PLACEHOLDER = "\x00fibjacobi-array-%d\x00"


def _exact_product(x: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x 10^s as hi + lo with no rounding error (Dekker's two-product)."""
    p, ph, pl = _P10[s], _P10_HI[s], _P10_LO[s]
    hi = x * p
    c = x * _SPLITTER
    xh = c - (c - x)
    xl = x - xh
    return hi, ((xh * ph - hi) + xh * pl + xl * ph) + xl * pl


def _shortest(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Shortest round-trip digits of positive doubles 1e-4 <= x < 1e16.

    Returns the digits as an integer in [1e16, 1e17) padded with zeros,
    their count, the decimal-point position (digits before the point,
    <= 0 for x < 1) and a flag for the elements the arithmetic does not
    decide.
    """
    s = 16 - np.floor(np.log10(x)).astype(np.intp)
    hi, lo = _exact_product(x, s)
    # log10 may miss by one next to a power of ten.
    shift = ((hi < 1e16) | ((hi == 1e16) & (lo < 0))).astype(np.intp)
    shift -= (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
    if shift.any():
        s += shift
        hi, lo = _exact_product(x, s)
    below = np.floor(lo)
    big = hi.astype(np.int64) + below.astype(np.int64)
    frac = lo - below
    # Half an ulp is 2^(e - 53) for x in [2^e, 2^(e + 1)).
    half = (x.view(np.int64) & _EXPONENT) - (53 << 52)
    half = half.view(np.float64) * _P10[s]
    # The integers strictly inside (y - h, y + h) are first..last.
    down, up = frac - half, frac + half
    floor_down, ceil_up = np.floor(down), np.ceil(up)
    flag = (floor_down == down) | (ceil_up == up)
    a = big + floor_down.astype(np.int64)  # first - 1
    b = big + (ceil_up.astype(np.int64) - 1)  # last

    # dropped, the most digits that can go, counts the j >= 1 with
    # last // 10^j > (first - 1) // 10^j, over the elements still passing:
    # once last // 10^j <= (first - 1) // 10^j, it holds for every larger j.
    dropped = np.zeros(x.size, dtype=np.intp)
    live = np.arange(x.size)
    for _ in range(17):
        a //= 10
        b //= 10
        keep = np.flatnonzero(b > a)
        live, a, b = live[keep], a[keep], b[keep]
        if not live.size:
            break
        dropped[live] += 1
    # Round y to the nearest multiple of 10^j: up where 2f > 10^j - 2r with
    # r = N mod 10^j, halfway where equal (2f is in [0, 2)).
    unit = _POW10[dropped]
    q = big // unit
    rest = unit - 2 * (big - q * unit)
    frac *= 2.0
    flag |= frac == rest
    digits = (q + (frac > rest)) * unit
    # Only y within h of 1e17 rounds up to it, at j = 17: the digit "1".
    carry = digits == _POW10[17]
    flag |= carry & (dropped < 17)
    digits[carry] = _POW10[16]
    return digits, 17 - dropped + carry, 17 - s + carry, flag


def _ascii_words(digits: np.ndarray) -> list[np.ndarray]:
    """The 17 digits of integers in [1e16, 1e17) as ASCII, bytes 0..16 of 3 words."""
    first = digits // _POW10[16]
    rest = digits - first * _POW10[16]
    high = rest // _POW10[8]
    eights = []
    for v in (high, rest - high * _POW10[8]):
        top = v // 10_000
        eights.append(_ASCII4[top] | (_ASCII4[v - top * 10_000] << _U64(32)))
    h, l = eights
    return [(first.astype(_U64) + _U64(ord("0"))) | (h << _U64(8)), (h >> _U64(56)) | (l << _U64(8)), l >> _U64(56)]


def _texts(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write repr(abs(v)) for the elements v of a 1-d float64 array to out.

    out takes (n, 3) words: the ASCII text, up to 22 characters, padded
    with zero bytes.  Returns a flag on the elements that need
    json.dumps(float(v)) instead, whose words hold no text.
    """
    ax = np.abs(x)
    fine = (ax >= 1e-4) & (ax < 1e16) & (x.view(np.int64) & ((1 << 52) - 1) != 0)
    digits, count, point, flag = _shortest(np.where(fine, ax, 1.5))
    s = _ascii_words(digits)
    p = point - _P_MIN
    pd = 18 * p + count
    k = _SHIFT[p]
    back = _U64(64) - k
    low = _U64(0)
    for i in range(3):
        out[:, i] = (s[i] & _KEEP[i][p]) | (((s[i] << k) | low) & _MOVED[i][pd]) | _FIXED[i][p]
        low = s[i] >> back
    return flag | ~fine


def _rows(x: np.ndarray, ends: np.ndarray) -> bytes:
    """The elements of x with their brackets and separators, as JSON text.

    Each element takes a row of 5 words: "[" (row start) and "-" in bytes 6
    and 7, the text of its number from byte 8, "]" (row end) and the
    separator from byte 32, and zero bytes elsewhere, which are dropped.
    ends holds words 0 and 4 for each column of the array, and x whole rows
    of it.
    """
    row = np.empty((x.size, 5), dtype=_U64)
    flag = _texts(x, row[:, 1:4])
    row.reshape(-1, ends.shape[0], 5)[:, :, ::4] = ends
    row[:, 0] |= (x < 0).astype(_U64) * _U64(ord("-") << 56)
    odd = np.flatnonzero(flag)
    if odd.size:
        # json.dumps writes these, sign included, over bytes 8..31.
        reprs = json.dumps(x[odd].tolist())[1:-1].encode("ascii").split(b", ")
        row[odd, 0] &= _U64((1 << 56) - 1)
        row[odd, 1:4] = np.frombuffer(b"".join(r.ljust(24, b"\0") for r in reprs), dtype="<u8").reshape(-1, 3)
    return row.tobytes().translate(None, b"\0")


def encode(a: np.ndarray, sep: str) -> str:
    """json.dumps(a.tolist(), separators=(sep, ...)) for sep "," or ", "."""
    if a.dtype != np.float64 or a.ndim not in (1, 2) or not a.size:
        return json.dumps(a.tolist(), separators=(sep, ":"))
    m = 1 if a.ndim == 1 else a.shape[1]
    nested = a.ndim == 2
    ends = b"".join(
        (b"[" if nested and c == 0 else b"").rjust(7, b"\0").ljust(8, b"\0")
        + ((b"]" if nested and c == m - 1 else b"") + sep.encode("ascii")).ljust(8, b"\0")
        for c in range(m)
    )
    ends = np.frombuffer(ends, dtype="<u8").reshape(m, 2)
    x = a.reshape(-1)
    step = max(_CHUNK // m, 1) * m
    text = b"".join(_rows(x[i : i + step], ends) for i in range(0, x.size, step))
    return "[" + text[: -len(sep)].decode("ascii") + "]"


def _hold(obj, arrays: list):
    if isinstance(obj, np.ndarray):
        arrays.append(obj)
        return _PLACEHOLDER % (len(arrays) - 1)
    if isinstance(obj, dict):
        return {k: _hold(v, arrays) for k, v in obj.items()}
    return obj


def dumps(obj, **kw) -> str:
    """json.dumps(obj, **kw), without indent, where dict values may be float arrays.

    Each array stands in as a placeholder string while json.dumps runs,
    and encode's text then takes the placeholder's place; if a string of
    obj spells a placeholder too, json.dumps writes the lists instead.
    """
    arrays: list = []
    text = json.dumps(_hold(obj, arrays), **kw)
    sep = kw.get("separators", (", ", ": "))[0]
    for i, a in enumerate(arrays):
        quoted = json.dumps(_PLACEHOLDER % i)
        if text.count(quoted) != 1:
            return json.dumps(obj, default=lambda v: v.tolist(), **kw)
        text = text.replace(quoted, encode(a, sep))
    return text
