"""Shortest round-trip decimal text of float64 arrays: ``repr`` for whole columns.

``join_reprs(values)`` returns ``",\n    ".join(map(repr, values.tolist()))``,
a plan column as ``json.dumps(indent=2)`` writes it, byte for byte, for a
nonempty array of finite positive float64 values (the domain an
``AllocationPlan`` guarantees for its ``r`` and ``b``; zero, negative,
non-finite or empty input is outside it and is not checked).

Digits: Schubfach (R. Giulietti, "The Schubfach way to render doubles",
2020; the algorithm of Java 19's ``Double.toString``) on uint64 lanes.  It
yields the shortest decimal inside the value's rounding interval, the one
closest to the value on a tie of lengths, and the even one on a tie of
distance, which are the digits CPython's ``repr`` writes.  Two changes from
Java's version, whose output has at least two digits: its rule for
subnormals below 3 ulps is dropped, and the one-digit-shorter candidate is
tried from ``s >= 10`` on, not ``s >= 100`` (Java prints 8e-323 as
7.9e-323).

Layout: CPython's ``format_float_short`` for ``repr``.  With the value
written ``0.d1d2...dn * 10**decpt``, the exponent form is used iff
``decpt <= -4`` or ``decpt > 16``; its exponent has a sign and at least two
digits, and a single digit has no dot (``1e+16``).  A fixed form of an
integral value ends in ``.0``.
"""
from __future__ import annotations

import numpy as np

_U64 = np.uint64
_K_MIN, _K_MAX = -324, 292
_DECPT_MIN, _DECPT_MAX = -323, 309
_DIGITS = 17
_CHUNK = 4096
_SEPARATOR = ",\n    "  # between two values of a plan column; ASCII, at most 8 bytes


def _flog2pow10(e):
    """floor(log2(10**e))."""
    return (e * 913_124_641_741) >> 38


def _g_table() -> np.ndarray:
    """Rows g1 hi, g1 lo, g0 hi, g0 lo: the 32-bit halves of g = g1*2**63 + g0, per k.

    ``g = floor(10**-k * 2**-r) + 1``, with r chosen so that 2**125 <= g < 2**126.
    """
    columns = []
    for k in range(_K_MIN, _K_MAX + 1):
        r = _flog2pow10(-k) - 125
        if k <= 0:
            beta = 10**-k >> r if r >= 0 else 10**-k << -r
        else:
            beta = (1 << -r) // 10**k
        g1, g0 = (beta + 1) >> 63, (beta + 1) & ((1 << 63) - 1)
        columns.append((g1 >> 32, g1 & 0xFFFFFFFF, g0 >> 32, g0 & 0xFFFFFFFF))
    return np.array(columns, dtype=_U64).T.copy()


def _words(texts, dtype) -> np.ndarray:
    """Each ASCII text zero-padded to one ``dtype`` word; viewed as bytes it reads in order."""
    width = np.dtype(dtype).itemsize
    return np.frombuffer(b"".join(t.encode().ljust(width, b"\0") for t in texts), dtype=dtype)


# One row of eight uint64 words per value, each field at a fixed byte offset:
#   0-4 "0.000" | 7-23 the 17 digits (A) | 24 "." | 31-47 the 17 digits (B)
#   | 48-52 the exponent | 56-63 the separator
# A text keeps a prefix of "0.000", A's first digits, the dot, the rest of
# B's digits, the exponent and the separator, so masking each row's unkept bytes
# compacts the rows into the text.  The kept bytes depend only on the layout
# and the digit count n, which give the row of _KEEP: 18*layout + n.
# Layouts: 1-16 fixed form with decpt digits before the dot (ddd.ddd or
# ddd000.0, the zeros from the digits' fill); 17-20 fixed form "0." and
# 17 - layout zeros ahead of the digits; 21, 22 exponent form with 2 or 3
# exponent digits.
_A, _DOT, _B, _EXP, _SEP = 7, 24, 31, 48, 56


def _keep_table() -> np.ndarray:
    """Per layout code, the bytes of a row that the value's text and its separator keep."""
    table = np.zeros((23 * 18, _SEP + 8), dtype=bool)
    table[:, _SEP : _SEP + len(_SEPARATOR)] = True
    for n in range(1, _DIGITS + 1):
        for decpt in range(1, 17):
            row = table[18 * decpt + n]
            row[_A : _A + decpt] = row[_DOT] = True
            row[_B + decpt : _B + max(n, decpt + 1)] = True
        for zeros in range(4):
            row = table[18 * (17 + zeros) + n]
            row[: 2 + zeros] = row[_B : _B + n] = True
        for width in (4, 5):
            row = table[18 * (17 + width) + n]
            row[_A] = row[_EXP : _EXP + width] = True
            row[_DOT] = row[_B + 1 : _B + n] = n > 1
    return table


_G = _g_table()
_POW10 = np.array([10**i for i in range(_DIGITS + 1)], dtype=_U64)
_QUADS = _words([f"{i:04d}" for i in range(10_000)], np.uint32)
_QUAD_ZEROS = np.array([4] + [4 - len(f"{i:04d}".rstrip("0")) for i in range(1, 10_000)], dtype=np.int8)
_ZEROS_AND_LEAD = _words([f"0.000\0\0{d}" for d in range(10)], _U64)
_DOT_AND_LEAD = _words([f".\0\0\0\0\0\0{d}" for d in range(10)], _U64)
_EXPONENTS = _words([f"e{d - 1:+03d}" for d in range(_DECPT_MIN, _DECPT_MAX + 1)], _U64)
_KEEP = _keep_table()
_SEPARATOR_WORD = _words([_SEPARATOR], _U64)[0]
_LAYOUT_ROW = 18 * np.array([  # 18 * layout, by decpt
    decpt if 0 < decpt <= 16 else 17 - decpt if -4 < decpt <= 0 else 21 + (abs(decpt - 1) >= 100)
    for decpt in range(_DECPT_MIN, _DECPT_MAX + 1)
])


def _rop(g, cp):
    """Java's rop: floor(g * cp / 2**127), with the low bit set when inexact.

    ``g`` is (g1 hi, g1 lo, g0 hi, g0 lo) in 32-bit halves and ``cp < 2**60``
    (c < 2**53, shifted left by 2 + h with h <= 5), so every sum of partial
    products below stays under 2**64.
    """
    g1_hi, g1_lo, g0_hi, g0_lo = g
    cp_hi, cp_lo = cp >> _U64(32), cp & _U64(0xFFFFFFFF)
    low = g1_lo * cp_lo
    mid = g1_hi * cp_lo + g1_lo * cp_hi
    y1 = g1_hi * cp_hi + ((mid + (low >> _U64(32))) >> _U64(32))  # g1 * cp = y1 * 2**64 + y0
    y0 = low + (mid << _U64(32))
    x1 = g0_hi * cp_hi + (  # the high 64 bits of g0 * cp
        (g0_hi * cp_lo + g0_lo * cp_hi + ((g0_lo * cp_lo) >> _U64(32))) >> _U64(32)
    )
    z = (y0 >> _U64(1)) + x1
    return (y1 + (z >> _U64(63))) | ((z << _U64(1)) != 0)


def _shortest(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Schubfach's decimal ``f * 10**k`` for positive finite float64 bit patterns."""
    biased = bits >> _U64(52)
    fraction = bits & _U64((1 << 52) - 1)
    c = fraction | (np.minimum(biased, _U64(1)) << _U64(52))
    q = np.maximum(biased, _U64(1)).astype(np.int64) - 1075
    irregular = (fraction == 0) & (biased > _U64(1))  # c = 2**52 above the least normal binade
    # floor(log10(2**q)), or floor(log10(3/4 * 2**q)) where the lower gap is half the upper
    k = (q * 661_971_961_083 - irregular * 274_743_187_321) >> 41
    h = (q + _flog2pow10(-k) + 2).astype(_U64)
    g = np.take(_G, k - _K_MIN, axis=1)
    cb = c << _U64(2)
    vb = _rop(g, cb << h)
    lower = _rop(g, (cb - _U64(2) + irregular) << h) + (c & _U64(1))
    upper = _rop(g, (cb + _U64(2)) << h) - (c & _U64(1))
    s = vb >> _U64(2)
    s4 = s << _U64(2)
    # s or s + 1: the one in the interval, else the closer, else the even.
    closer_s = vb < s4 + _U64(3) - (s & _U64(1))
    f = s + _U64(1) - ((lower <= s4) & ((s4 + _U64(4) > upper) | closer_s))
    # One digit shorter: sp10 or sp10 + 10, when exactly one is in the interval.
    sp10 = (s // _U64(10)) * _U64(10)
    upin = lower <= sp10 << _U64(2)
    wpin = (sp10 + _U64(10)) << _U64(2) <= upper
    f = np.where((s >= _U64(10)) & (upin != wpin), np.where(upin, sp10, sp10 + _U64(10)), f)
    return f, k


def _chunk_bytes(values: np.ndarray) -> np.ndarray:
    """The text of each value followed by the separator, as one byte array."""
    f, k = _shortest(values.view(_U64))
    length = np.searchsorted(_POW10, f, side="right")  # decimal digits of f
    decpt = k + length
    padded = f * _POW10[_DIGITS - length]  # f's digits, zero-filled to 17
    lead = (padded // _U64(10**16)).astype(np.intp)
    rest = padded - lead.astype(_U64) * _U64(10**16)
    high = (rest // _U64(10**8)).astype(np.uint32)
    low = (rest - high * _U64(10**8)).astype(np.uint32)
    quads = high // 10_000, high % 10_000, low // 10_000, low % 10_000

    rows = np.empty((f.size, _SEP // 8 + 1), dtype=_U64)
    rows[:, 0] = np.take(_ZEROS_AND_LEAD, lead)
    rows[:, 3] = np.take(_DOT_AND_LEAD, lead)
    quad_words = rows.view(np.uint32)
    for i, quad in enumerate(quads):
        quad_words[:, 2 + i] = quad_words[:, 8 + i] = np.take(_QUADS, quad)
    decpt_at = decpt - _DECPT_MIN
    rows[:, 6] = np.take(_EXPONENTS, decpt_at)
    rows[:, _SEP // 8] = _SEPARATOR_WORD

    # Trailing zeros of the 16 digits after the lead, quad by quad from the left.
    zeros = np.take(_QUAD_ZEROS, quads[0])
    for quad in quads[1:]:
        zeros = np.where(quad == 0, zeros + 4, np.take(_QUAD_ZEROS, quad))
    code = np.take(_LAYOUT_ROW, decpt_at) + (_DIGITS - zeros)
    return rows.view(np.uint8)[np.take(_KEEP, code, axis=0)]


def join_reprs(values: np.ndarray) -> str:
    """``",\n    ".join(map(repr, values.tolist()))`` for nonempty, finite, positive float64 values.

    Values outside that domain give undefined text.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    joined = np.concatenate([_chunk_bytes(values[i : i + _CHUNK]) for i in range(0, values.size, _CHUNK)])
    return joined[: joined.size - len(_SEPARATOR)].tobytes().decode("ascii")
