"""Vectorized ``repr`` of float64 blocks, for the matrix CSV writer.

The shortest decimal that reads back as each float, and of those the one
nearest it, comes from Schubfach (R. Giulietti, "The Schubfach way to
render doubles", 2020) in uint64 arithmetic. A finite normal float is
c 2^q with 2^52 <= c < 2^53; the decimals that read back as it lie within
half its spacing on either side, ends included when c is even. With 10^k
at most that spacing, they hold at most one multiple of 10^(k+1): if they
do, it is the shortest; otherwise the multiple of 10^k nearest the float
(ties to even) is. The float and the ends, times 10^-k, are rounded to odd
from a 126-bit g of 10^-k, which decides each comparison exactly
(Giulietti, 9.9). Zeros, subnormals, infinities and NaNs take ``repr``.
"""

import functools

import numpy as np

_K_MIN, _K_MAX = -324, 292  # k = floor(log10(2^q)) over the normal floats
_M32, _M52, _M63 = (1 << 32) - 1, (1 << 52) - 1, (1 << 63) - 1
#: Slots of an entry's text: a sign, 16 digits, "0.000", 17 digits, "e+000"
#: and its separator. An entry keeps some of them, in order.
_TEMPLATE = b"-" + b"0" * 16 + b"0.000" + b"0" * 17 + b"e+000,"
_EXPONENT_CODES, _REPR_CODES = 20 * 18, 22 * 18


@functools.cache
def _tables():
    """The tables, built on first use. ``g``: for each k, g = floor(10^-k
    2^-r) + 1 in [2^125, 2^126), as g1 = g >> 63 and the 32-bit halves of g1
    and g mod 2^63. ``ks``, ``shifts``: k - K_MIN and Giulietti's h by biased
    exponent, then again for c = 2^52, whose spacing below is half. ``keep``:
    the slots kept by layout code. ``quads``: 0 to 9999 as 4 digit
    characters in a uint32, and ``zeros`` how many of them end it."""
    # floor(log2(10^-k)), floor(log10(2^q)) and floor(log10(3/4 2^q)) by
    # Giulietti's multiply-shifts, which are exact over these ranges
    g = []
    for k in range(_K_MIN, _K_MAX + 1):
        r = (-k * 913124641741 >> 38) - 125
        g.append((10 ** max(-k, 0) << max(-r, 0)) // (10 ** max(k, 0) << max(r, 0)) + 1)
    g = np.array(g, dtype=object)
    g = np.array([g >> 63, g >> 95, g >> 63 & _M32, g >> 32 & _M32 >> 1, g & _M32], np.uint64)
    q = np.arange(2048) - 1075
    ks = np.concatenate([q * 661971961083 >> 41, q * 661971961083 - 274743187321 >> 41])
    shifts = (np.tile(q, 2) + (-ks * 913124641741 >> 38) + 2).astype(np.uint8)
    keep = np.zeros((_REPR_CODES + 26, len(_TEMPLATE)), bool)
    keep[:, -1] = True
    for n in range(1, 18):  # n digits, the first at 10^E
        for E in range(-4, 16):
            row = keep[(E + 4) * 18 + n]
            if E >= 0:  # d.d, at least one digit after the point
                row[1:2 + E] = row[18] = row[23 + E:22 + max(n, E + 2)] = True
            else:  # 0.000d
                row[17:18 - E] = row[22:22 + n] = True
        for wide in (0, 1):  # d.de+XX or d.de-XXX
            row = keep[_EXPONENT_CODES + 18 * wide + n]
            row[1] = row[23:22 + n] = row[39:41] = row[42 - wide:44] = True
            row[18] = n > 1
    for length in range(26):  # repr's own text
        keep[_REPR_CODES + length, :length] = True
    r = np.arange(10000, dtype=np.uint16)
    quads = np.stack([r // 10 ** j % 10 + ord("0") for j in (3, 2, 1, 0)], axis=1).astype(np.uint8)
    zeros = sum((r % 10 ** j == 0).astype(np.uint8) for j in (1, 2, 3, 4))
    return g, (ks - _K_MIN).astype(np.int16), shifts, keep, quads.view(np.uint32)[:, 0], zeros


def repr_text(x: np.ndarray, first: int, cols: int) -> np.ndarray:
    """The text of ``x``, C-ordered entries ``first`` on of rows of ``cols``:
    each entry's ``repr``, then a comma or, ending a row, a newline."""
    text, kept = _slots(x, first, cols)  # its other work arrays are freed first
    return text.ravel()[kept.ravel()]


def _slots(x: np.ndarray, first: int, cols: int) -> tuple[np.ndarray, np.ndarray]:
    """``_TEMPLATE``'s slots for each entry of :func:`repr_text`, and which it
    keeps: positional if its first digit is at 10^-4 to 10^15, else d.ddde+XX."""
    _, _, _, keep, quads, zeros = _tables()
    bits = x.view(np.uint64)
    f, E = _shortest(bits)
    n = len(x)
    quad = np.empty((n, 5), np.uint32)  # f's 17 digits after 3 zeros
    ends = np.zeros(n, np.intp)  # zero digits that end f
    run = np.ones(n, bool)
    for j in range(4, -1, -1):
        f, r = np.divmod(f, 10000)
        quad[:, j] = quads.take(r)
        np.add(ends, zeros.take(r), out=ends, where=run)
        run &= r == 0
    digits = quad.view(np.uint8)[:, 3:]
    code = np.where((E < -4) | (E >= 16), _EXPONENT_CODES + 18 * (np.abs(E) >= 100) + 17 - ends,
                    (E + 4) * 18 + 17 - ends)
    text = np.empty((n, len(_TEMPLATE)), np.uint8)
    text[:] = np.frombuffer(_TEMPLATE, np.uint8)
    text[:, 1:17] = digits[:, :16]
    text[:, 22:39] = digits
    text[:, 40] = np.where(E < 0, ord("-"), ord("+"))
    text[:, 41:44] = quads.take(np.abs(E)).view(np.uint8).reshape(n, 4)[:, 1:]
    text[:, -1] = np.where(np.arange(first, first + n) % cols == cols - 1, ord("\n"), ord(","))
    for i in np.flatnonzero((bits >> 52) + 1 & 0x7FF < 2):  # zero, subnormal, inf, nan
        own = repr(float(x[i])).encode()
        text[i, :len(own)] = np.frombuffer(own, np.uint8)
        code[i] = _REPR_CODES + len(own)
    kept = keep.take(code, axis=0)
    kept[:, 0] |= (bits >> 63).astype(bool)
    return text, kept


def _shortest(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``f, E``: the 17-digit f and the E of each finite normal float's
    shortest decimal f 10^(E-16)."""
    g, ks, shifts, _, _, _ = _tables()
    c = bits & _M52
    irregular = (c == 0) & (bits & 0x7FF << 52 > 1 << 52)  # c = 2^52, not the least normal
    e = bits >> 52 & 0x7FF
    np.add(e, 2048, out=e, where=irregular)
    k = ks.take(e)
    h = shifts.take(e)
    g = [part.take(k) for part in g]
    c |= 1 << 52
    odd = c & 1 == 1  # the ends are excluded
    c <<= 2
    v = _rop(g, c << h)
    low = _rop(g, (c - 2 + irregular) << h) + odd
    high = _rop(g, (c + 2) << h) - odd
    s = v >> 2  # floor of the float times 10^-k
    tens = s // 10 * 10
    lower, upper = low <= tens << 2, tens + 10 << 2 <= high
    lower_s, upper_s = low <= s << 2, s + 1 << 2 <= high
    mid = s << 2 | 2
    s_wins = np.where(lower_s != upper_s, lower_s, (v < mid) | (v == mid) & (s & 1 == 0))
    f = np.where(lower != upper, np.where(lower, tens, tens + 10), s + 1 - s_wins)
    E = k + (_K_MIN + 16)
    short = f < 10 ** 16
    f[short] *= 10
    E -= short
    return f, E


def _rop(g: list, cp: np.ndarray) -> np.ndarray:
    """g cp 2^-127 rounded to odd: Giulietti's rop, with g from :func:`_tables`."""
    ch, cl = cp >> 32, cp & _M32
    x1 = _high(g[3], g[4], ch, cl)
    y1 = _high(g[1], g[2], ch, cl)
    z = (g[0] * cp >> 1) + x1
    return y1 + (z >> 63) | ((z & _M63) + _M63) >> 63


def _high(ah, al, bh, bl) -> np.ndarray:
    """The high 64 bits of a b, each given by its 32-bit halves."""
    cross, other = al * bh, ah * bl
    low = (al * bl >> 32) + (cross & _M32) + (other & _M32)
    return ah * bh + (cross >> 32) + (other >> 32) + (low >> 32)
