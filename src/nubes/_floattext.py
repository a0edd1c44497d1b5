"""CSV cells of float64 arrays, byte-equal to Python's `repr`, made in numpy.

`repr` runs dtoa with bignums for most 17-digit values, one call per cell.
Here the shortest round-trip digits of all normal doubles of a block come
from Schubfach (R. Giulietti, "The Schubfach way to render doubles", 2020;
the `toDecimal` core of Java's `DoubleToDecimal`), which needs only 64-bit
integer arithmetic, so it runs on uint64 lanes.  Schubfach, like `repr`,
picks the shortest decimal that rounds back to the double and, of those, the
closest (ties to even digits).

The text is then laid out by `repr`'s rules, eight bytes to a uint64 word:
positional when the decimal point position `decpt` (value = 0.d1d2... *
10**decpt) lies in (-4, 16], else `d[.ddd]e+XX` with at least two exponent
digits.  ±0.0, subnormals, ±inf and nan go through `repr` itself.

A fresh numpy temporary per operation would be faulted in anew on every
block, so `Cells` computes each block in arrays it allocates once.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["SLOT", "Cells"]

SLOT = 32  # bytes per cell: at most 24 characters of repr, the separator, zero padding

_K_MIN, _K_MAX = -324, 292  # the decimal exponents k that normal doubles need
_DECPT_MIN = _K_MIN + 16  # the least decpt = k + 17 - (f has 16 digits)
_M32 = 0xFFFF_FFFF
_M63 = (1 << 63) - 1
_ONES = np.uint64(0xFFFF_FFFF_FFFF_FFFF)
_ASCII_ZERO = 0x3030_3030_3030_3030
_WORD_BITS = np.arange(0, 256, 64, dtype=np.int64)[:, None]  # bit offset of each word of a cell
_WORD_ENDS = _WORD_BITS + 64


def _flog2pow10(e: int) -> int:
    """floor(e * log2(10)) for |e| <= 5456721, in integer arithmetic (Java's `flog2pow10`)."""
    return (e * 913_124_641_741) >> 38


@functools.cache
def _tables() -> tuple[np.ndarray, np.ndarray]:
    """The Schubfach multipliers and the exponent suffixes, built with exact
    Python ints on first use (about a millisecond), so that importing the
    CLI does not pay for them.

    g[:, k - K_MIN]: for k in [K_MIN, K_MAX], g = floor(10**-k * 2**(125 -
    flog2pow10(-k))) + 1, which lies in [2**125, 2**126), split as g = g1
    2**63 + g0; the rows are g1 and g0.

    suffix[decpt - DECPT_MIN]: repr's exponent text for that decpt, such as
    'e-05', as little-endian bytes in the low word and its length in the high
    word; zero for a positional decpt."""
    g = []
    for k in range(_K_MIN, _K_MAX + 1):
        shift = 125 - _flog2pow10(-k)
        if k <= 0:
            beta = (10**-k << shift) if shift >= 0 else (10**-k >> -shift)
        else:
            beta = (1 << shift) // 10**k
        g.append(((beta + 1) >> 63, (beta + 1) & _M63))
    suffix = []
    for decpt in range(_DECPT_MIN, _K_MAX + 18):
        text = b"" if -4 < decpt <= 16 else f"e{decpt - 1:+03d}".encode()
        suffix.append((int.from_bytes(text, "little"), len(text)))
    return np.array(g, dtype=np.uint64).T.copy(), np.array(suffix, dtype=np.uint64).T.copy()


def _mulhi(a_hi, a_lo, b_hi, b_lo, out, tmp):
    """out = high 64 bits of a * b, from 32-bit halves; a < 2**63 and b < 2**61.

    Under those bounds the middle sum (a_lo b_lo >> 32) + a_hi b_lo + a_lo b_hi
    fits in 64 bits, so it needs no carry word."""
    np.multiply(a_lo, b_lo, out=out)
    out >>= 32
    out += np.multiply(a_hi, b_lo, out=tmp)
    out += np.multiply(a_lo, b_hi, out=tmp)
    out >>= 32
    out += np.multiply(a_hi, b_hi, out=tmp)


def _pack8(v, tmp, prod):
    """v < 10**8 in place -> its eight decimal digits, one per byte (values
    0-9), the most significant in the low byte: split into halves of four
    digits, then quarters of two, then single digits, each step in parallel
    across the word with a multiply-shift division."""
    np.floor_divide(v, 10_000, out=tmp)
    v -= np.multiply(tmp, 10_000, out=prod)
    v <<= 32
    v |= tmp
    np.multiply(v, 10_486, out=tmp)  # x // 100 == x * 10486 >> 20 for x < 10**4
    tmp >>= 20
    tmp &= 0x0000_007F_0000_007F
    v -= np.multiply(tmp, 100, out=prod)
    v <<= 16
    v |= tmp
    np.multiply(v, 103, out=tmp)  # x // 10 == x * 103 >> 10 for x < 100
    tmp >>= 10
    tmp &= 0x000F_000F_000F_000F
    v -= np.multiply(tmp, 10, out=prod)
    v <<= 8
    v |= tmp


def _bytes_below(n8, out, bits):
    """out[i] = word i of the mask whose bytes 0 .. n - 1 are 0xFF, from n8 = 8 n."""
    np.subtract(_WORD_ENDS, n8, out=bits)
    np.maximum(bits, 0, out=bits)
    np.right_shift(_ONES, bits.view(np.uint64), out=out)  # a shift past 63 gives 0


class Cells:
    """Formats blocks of at most `lanes` doubles as CSV cells.

    Calling it with values and a separator byte per value (broadcast against
    the values) returns a (values.size, SLOT) uint8 array: each row holds
    repr(value) and the separator from byte 0, then zero bytes.  The array
    is the instance's own and is overwritten by the next call."""

    def __init__(self, lanes: int):
        self.lanes = lanes
        self._words = np.empty((6, 4, lanes), dtype=np.uint64)  # four words a lane
        self._lane = np.empty((12, lanes), dtype=np.uint64)  # one word a lane
        self._frexp = (np.empty((2, lanes)), np.empty((2, lanes), dtype=np.int32))
        self._slots = np.empty((lanes, SLOT // 8), dtype="<u8")  # byte i of a cell is byte i % 8 of word i // 8

    def __call__(self, values, sep) -> np.ndarray:
        x = np.asarray(values, dtype=np.float64).ravel()
        bits = x.view(np.uint64)
        fallback = self._decimal(bits)
        self._digits(x.size)
        slots = self._layout(bits, np.asarray(sep, dtype=np.uint64), np.shape(values))
        if fallback.size:
            seps = np.broadcast_to(sep, np.shape(values)).ravel()[fallback].tolist()
            cells = [repr(value).encode() + bytes([b]) for value, b in zip(x[fallback].tolist(), seps)]
            slots.view(f"S{SLOT}")[fallback, 0] = cells
        return slots.view(np.uint8)

    def _decimal(self, bits: np.ndarray):
        """Schubfach: the shortest, closest decimal 0.f * 10**decpt of each
        double, f of exactly 17 digits (trailing zeros pad the shortest),
        into lanes 0 (f) and 1 (decpt).  Returns the indices of the cells it
        leaves to repr: ±0.0, subnormals, ±inf and nan."""
        n = bits.size
        f, decpt, q, c, h, s, sp10, tp10, g1, g0, g_hi, g_lo = (w[:n] for w in self._lane)
        cp, cp_hi, cp_lo, x1, v, tmp = (w[:3, :n] for w in self._words)
        q, decpt, k, h = q.view(np.int64), decpt.view(np.int64), decpt.view(np.int64), h.view(np.int64)
        g_table, _ = _tables()

        # the magnitude is c 2**q
        np.right_shift(bits, 52, out=q)
        q &= 0x7FF
        fallback = np.flatnonzero((q == 0) | (q == 0x7FF))
        q[fallback] = 1024  # 2.0
        q -= 1075
        np.bitwise_and(bits, (1 << 52) - 1, out=c)
        c[fallback] = 0
        irregular = (c == 0) & (q > -1074)  # the neighbour below is closer than the one above
        c |= 1 << 52

        # scaled by 10**-k, 4 v and the ends of its rounding interval,
        # rounded to odd: vb, vbl and vbr
        np.multiply(q, 661_971_961_083, out=k)
        k[irregular] -= 274_743_187_321
        k >>= 41  # floor(log10(2**q)), or of 3/4 2**q when irregular
        np.multiply(k, -913_124_641_741, out=h)
        h >>= 38
        h += q
        h += 2  # h = q + flog2pow10(-k) + 2, in [2, 5]
        k -= _K_MIN
        np.take(g_table[0], k, out=g1)
        np.take(g_table[1], k, out=g0)
        np.left_shift(c, 2, out=cp[0])
        np.subtract(cp[0], 2, out=cp[1])
        cp[1][irregular] += 1
        np.add(cp[0], 2, out=cp[2])
        cp <<= h.view(np.uint64)
        np.right_shift(cp, 32, out=cp_hi)
        np.bitwise_and(cp, _M32, out=cp_lo)
        _mulhi(np.right_shift(g0, 32, out=g_hi), np.bitwise_and(g0, _M32, out=g_lo), cp_hi, cp_lo, x1, tmp)
        _mulhi(np.right_shift(g1, 32, out=g_hi), np.bitwise_and(g1, _M32, out=g_lo), cp_hi, cp_lo, v, tmp)
        cp *= g1
        cp >>= 1
        cp += x1  # z
        v += np.right_shift(cp, 63, out=tmp)
        cp &= _M63
        cp += _M63
        cp >>= 63
        v |= cp  # v = rop(g * cp / 2**127)
        vb, vbl, vbr = v
        c &= 1
        vbl += c  # an even c keeps the ends of the interval
        vbr -= c

        # s has 16 or 17 digits: c >= 2**52 and 2**q / 10**k is in [1, 10)
        np.right_shift(vb, 2, out=s)
        # a decimal one digit shorter: u' = 10 floor(s / 10) or w' = u' + 10, if only one is inside
        np.floor_divide(s, 10, out=sp10)
        sp10 *= 10
        np.add(sp10, 10, out=tp10)
        upin = vbl <= np.left_shift(sp10, 2, out=c)
        wpin = np.left_shift(tp10, 2, out=c) <= vbr
        # else s or s + 1: the one inside, or the closer one (ties to even s) when both are
        uin = vbl <= np.left_shift(s, 2, out=c)
        c += 4
        win = c <= vbr
        vb &= 3  # 4 v - 4 s
        s_closer = (vb < 2) | ((vb == 2) & (np.bitwise_and(s, 1, out=c) == 0))
        np.add(s, np.where(uin != win, win, ~s_closer), out=f)
        shorter = upin != wpin
        np.copyto(f, sp10, where=shorter & upin)
        np.copyto(f, tp10, where=shorter & wpin)
        short = f < 10**16
        np.multiply(f, 10, out=f, where=short)
        decpt -= short
        decpt += _K_MIN + 17
        return fallback

    def _digits(self, n: int):
        """f's digits as bytes 0-9 into words[0] (first digit in the low
        byte of word 0), and how many are significant into frexp[1][0]."""
        f, _, upper, lead = (w[:n] for w in self._lane[:4])
        digits, pair, tmp, prod = self._words[0, :, :n], self._words[1, :2, :n], self._words[2, :2, :n], self._words[3, :2, :n]
        np.floor_divide(f, 10**8, out=upper)
        np.floor_divide(upper, 10**8, out=lead)
        np.subtract(upper, np.multiply(lead, 10**8, out=pair[0]), out=pair[0])  # digits 1-8
        np.subtract(f, np.multiply(upper, 10**8, out=pair[1]), out=pair[1])  # digits 9-16
        _pack8(pair, tmp, prod)
        np.left_shift(pair[0], 8, out=digits[0])
        digits[0] |= lead
        np.left_shift(pair[1], 8, out=digits[1])
        digits[1] |= np.right_shift(pair[0], 56, out=upper)
        np.right_shift(pair[1], 56, out=digits[2])
        digits[3] = 0
        # significant: 1 + the bytes of digits 1-8 up to the last nonzero
        # one, or 9 + those of 9-16 (frexp is exact enough: each byte is <= 9)
        mantissa, used = self._frexp[0][:, :n], self._frexp[1][:, :n]
        mantissa[...] = pair
        np.frexp(mantissa, out=(mantissa, used))
        used += 7
        used >>= 3
        used[0] += 1
        np.add(used[1], 9, out=used[0], where=used[1] > 0)

    def _layout(self, bits, sep, shape) -> np.ndarray:
        """The text of each cell, by repr's rules, into the slots: '-'?,
        then an int part, '.' and a fraction (positional; the int part is
        '0' and leading '0's start the fraction when decpt <= 0), or
        d[.ddd]; then the exponent, if any, and the separator."""
        n = bits.size
        _, decpt, point, lead, dot, frac, body, sign, suffix, suffix_len, word = (
            w[:n].view(np.int64) for w in self._lane[:11])
        digits, text, below, above, bit, spill = (w[:, :n] for w in self._words)
        bit = bit.view(np.int64)
        ndigits = self._frexp[1][0, :n]
        _, suffix_table = _tables()

        positional = (decpt > -4) & (decpt <= 16)
        np.copyto(point, decpt)
        np.copyto(point, 1, where=~positional)  # decpt as laid out
        np.right_shift(bits, 63, out=sign.view(np.uint64))
        np.subtract(1, point, out=lead)
        np.maximum(lead, 0, out=lead)
        lead += sign  # bytes before the first digit
        np.maximum(point, 1, out=dot)
        dot += sign  # byte of the decimal point
        np.subtract(ndigits, point, out=frac)
        np.maximum(frac, positional, out=frac)  # digits after the point: '1.0' but '1e+16'
        has_dot = frac > 0
        np.add(dot, frac, out=body)
        body += has_dot  # bytes before the suffix

        # the digits moved up by `lead` bytes, and those from byte `dot` on by one more
        lead <<= 3
        np.left_shift(digits, lead.view(np.uint64), out=text)
        np.subtract(64, lead, out=lead)
        text[1:] |= np.right_shift(digits[:-1], lead.view(np.uint64), out=spill[1:])
        dot <<= 3
        _bytes_below(dot, below, bit)
        np.invert(below, out=above)
        above &= text
        text &= below
        text |= np.left_shift(above, 8, out=spill)
        text[1:] |= np.right_shift(above[:-1], 56, out=spill[1:])
        # ASCII: '0' + digit on each body byte, '.' at dot and '-' at byte 0
        body <<= 3
        _bytes_below(body, below, bit)
        below &= _ASCII_ZERO
        text |= below
        np.subtract(dot, _WORD_BITS, out=bit)  # a negative shift wraps, past 63, to 0
        np.multiply(has_dot, 0x2E ^ 0x30, out=word)
        text ^= np.left_shift(word.view(np.uint64), bit.view(np.uint64), out=below)
        sign *= 0x2D ^ 0x30
        text[0] ^= sign.view(np.uint64)

        # the suffix from byte `body` on
        suffix, suffix_len = suffix.view(np.uint64), suffix_len.view(np.uint64)
        decpt -= _DECPT_MIN
        np.take(suffix_table[0], decpt, out=suffix)
        np.take(suffix_table[1], decpt, out=suffix_len)
        suffix_len <<= 3
        suffix |= np.left_shift(sep, suffix_len.reshape(shape), out=suffix_len.reshape(shape)).reshape(n)
        np.subtract(body, _WORD_BITS, out=bit)
        text |= np.left_shift(suffix, bit.view(np.uint64), out=below)
        np.negative(bit, out=bit)
        text |= np.right_shift(suffix, bit.view(np.uint64), out=below)
        slots = self._slots[:n]
        for i, row in enumerate(text):
            slots[:, i] = row
        return slots
