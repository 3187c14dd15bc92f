"""CSV text of int64 and float64 columns, block-wide in numpy, byte for byte as ``csv.writer``.

``csv.writer`` writes a number through ``str()``: an int as its decimal
digits, a float as its ``repr``, the shortest decimal that reads back as the
same double, of those the nearest to it, a tie going to the even last digit
(Gay, *Correctly rounded binary-decimal and decimal-binary conversions*,
1990).  ``csv_text`` writes the same text without a Python call per value, and
``_runs`` cuts rows into runs; ``counting._write_triples`` computes the numbers.

Layout.  A field is a column of little-endian uint32 words, four characters
each, a 0 byte for no character; a block is a matrix of words, a row per
field word and a column per CSV row.  The text is that matrix, column by
column, with its 0 bytes dropped.  The first word of a field holds the comma
before it and the sign.  An int then takes its digits, right-aligned, 4 to a
word from a table of the 10^4 groups, with the leading zeros masked off.  A
float takes the digits before its point, right-aligned; the point; up to 20
digits after it, left-aligned, with the trailing ones masked off; and, in
exponent form, one word "e-06".

Digits.  A double v = m 2^e, 2^52 <= m < 2^53, is scaled to W = |v| 10^K in
[10^16, 10^17).  For 0 <= K <= 22, 10^K is a double, so Dekker's TwoProduct
(1971) gives W = p + err exactly: p >= 2^53 is an integer and |err| <= 8.
W's last bit is 2^(e + K) >= 2^-50, so W = I + F with the int64 I and
F = err - floor(err) in [0, 1), both exact.  The doubles that read back as v
are those within H = 2^(e - 1) 10^K of W, on the scale of W; H is a double in
(0.55, 11.1).  The (17 - j)-digit candidate nearest W lies R or 10^j - R
from it, R = (I mod 10^j) + F, and each of those is one rounding of an exact
value.  Rounding is monotone and H is a double, so "distance < H" is decided
right whenever the rounded distance differs from H, and a rounded distance
equal to H goes to ``repr``.  The 17-digit candidate always reads back (its
distance is at most 1/2 < H).  A candidate that reads back also does with
one more digit, so the shortest is the one at the largest j <= 16 that does,
and it is the nearest at its length, a tie rounded to the even digit.  Such
a tie at j = 1 needs H > 5, so 2^(e + K) > 10 5^-K > 2^-48, and then the
distances, below 10, are exact.  No candidate rounds up to 10^17: it would
read back only for a v that is the double of 10^(17 - K) and lies below it,
and of 10^-5 .. 10^17 none does.

Fallback.  These take ``repr``, one value at a time: infinities, nan,
subnormals, powers of two (whose interval below v is half the one above),
any v with K outside [0, 22] (|v| below about 1e-6 or from 1e17 on), and any
v with a rounded distance equal to H (``repr`` keeps an exact one when m is
even).  The int64 minimum, whose absolute value wraps, takes ``str``.  Zeros
are written directly.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

_POW10 = np.array([10**k for k in range(19)], dtype=np.int64)
_SCALE = np.array([float(10**k) for k in range(23)])  # the exact doubles 10^0 .. 10^22
# the four digit characters of each of 0000 .. 9999 in one little-endian word
_GROUPS = (48 + np.arange(10**4)[:, None] // np.array([1000, 100, 10, 1]) % 10).astype(np.uint8)
_GROUPS = _GROUPS.view("<u4").ravel()
# [g, c]: the mask of the g-th word of a run of 20 characters that shows only its last
# (_LEAD) or its first (_TAIL) c characters
_SLOT = np.arange(20).reshape(5, 4, 1)
_LEAD = (np.where(_SLOT >= 20 - np.arange(21), 0xFF, 0) << np.arange(0, 32, 8)[:, None]).sum(1)
_TAIL = (np.where(_SLOT < np.arange(21), 0xFF, 0) << np.arange(0, 32, 8)[:, None]).sum(1)
_LEAD, _TAIL = _LEAD.astype("<u4"), _TAIL.astype("<u4")
_SIGN, _DOT, _COMMA, _LF, _E, _PLUS = b"-.,\ne+"


def _split(x):
    """Veltkamp's split of doubles into halves of at most 26 bits each."""
    t = x * 134217729.0  # 2^27 + 1
    hi = t - (t - x)
    return hi, x - hi


_SCALE_HI, _SCALE_LO = _split(_SCALE)


def _scaled(a: np.ndarray, K: np.ndarray):
    """``p + err = a 10^K`` exactly, both doubles (TwoProduct)."""
    p = a * _SCALE[K]
    ah, al = _split(a)
    ch, cl = _SCALE_HI[K], _SCALE_LO[K]
    return p, ((ah * ch - p) + ah * cl + al * ch) + al * cl


def _digit_words(value: np.ndarray, masks: np.ndarray, shown: np.ndarray) -> np.ndarray:
    """Words of the last 4 ``len(masks)`` digits of nonnegative int64s, masked.

    ``masks`` are rows of ``_LEAD`` or ``_TAIL``, one per word, and ``shown``
    is each value's number of characters left unmasked in their run of 20.
    """
    words = np.empty((len(masks), len(value)), dtype="<u4")
    for word, mask in zip(words[::-1], masks[::-1]):
        above = value // 10**4
        np.bitwise_and(_GROUPS[value - above * 10**4], mask[shown], out=word)
        value = above
    return words


def _write(words: np.ndarray, text: str) -> None:
    """One field's words for ``text``, after the comma as the first word holds it."""
    raw = bytearray(4 * len(words))
    raw[0] = words[0] & 0xFF
    raw[1:1 + len(text)] = text.encode("ascii")
    words[:] = np.frombuffer(bytes(raw), dtype="<u4")


def _int_field(col: np.ndarray, first: bool) -> np.ndarray:
    """The words of the ints of ``col``: the comma and sign, then the digits right-aligned."""
    a = np.abs(col)
    digits = np.searchsorted(_POW10[1:], a, side="right") + 1
    digits[a < 0] = 19  # the minimum, whose absolute value wraps; room for its 20 characters
    groups = -(-int(digits.max()) // 4)
    words = np.empty((1 + groups, len(col)), dtype="<u4")
    words[0] = np.where(col < 0, np.uint32(_SIGN << 8), np.uint32(0)) | (0 if first else _COMMA)
    words[1:] = _digit_words(a, _LEAD[5 - groups:], digits)
    for i in np.flatnonzero(a < 0):
        _write(words[:, i], str(int(col[i])))
    return words


def _shortest(col: np.ndarray):
    """``repr``'s digits of the doubles of ``col`` (module docstring), and which it leaves out.

    Returns int64 ``G``, the digits as one 17-digit integer (zero-padded on the
    right), their number ``width`` and ``decpt``, with |v| = 0.d_1 d_2 ... x
    10^decpt, and a bool mask ``fallback`` of the values to take ``repr``.
    """
    n = len(col)
    with np.errstate(all="ignore"):
        a = np.abs(col)
        zero = a == 0
        normal = ((a >= 2.2250738585072014e-308) & (a <= 1.7976931348623157e308)
                  & (np.frexp(a)[0] != 0.5))
        a = np.where(normal, a, 1.5)  # keeps the arithmetic of the others harmless
        ex = np.frexp(a)[1]
        K = np.clip(16 - np.floor(np.log10(a)).astype(np.int64), 0, 22)
        p, err = _scaled(a, K)
        # one step of K puts W in [10^16, 10^17); the tests are exact, since p = fl(W)
        step = (((p < 1e16) | ((p == 1e16) & (err < 0))).astype(np.int64)
                - ((p > 1e17) | ((p == 1e17) & (err >= 0))))
        moved = np.flatnonzero(step)
        if moved.size:
            K[moved] += step[moved]
            normal[moved] &= (K[moved] >= 0) & (K[moved] <= 22)
            K[moved] = np.clip(K[moved], 0, 22)
            p[moved], err[moved] = _scaled(a[moved], K[moved])
        floor_err = np.floor(err)
        I = p.astype(np.int64) + floor_err.astype(np.int64)
        F = err - floor_err
        H = np.ldexp(_SCALE[K], ex - 54)

    # the 17-digit candidate, W rounded half to even, always reads back as v
    G = I + ((F > 0.5) | ((F == 0.5) & (I & 1 == 1)))
    width = np.full(n, 17)  # 17 - j for the largest j whose candidate reads back as v
    fallback = ~(normal | zero)
    alive = np.flatnonzero(normal)
    Ia, Fa, Ha = I[alive], F[alive], H[alive]
    for j in range(1, 17):
        unit = _POW10[j]
        above = Ia // unit
        r = Ia - above * unit
        down, up = r + Fa, (unit - r) - Fa
        distance = np.minimum(down, up)
        tie = distance == Ha
        if tie.any():
            fallback[alive[tie]] = True
        keep = np.flatnonzero(distance < Ha)
        if not keep.size:
            break
        alive, Ia, Fa, Ha = alive[keep], Ia[keep], Fa[keep], Ha[keep]
        above, down, up = above[keep], down[keep], up[keep]
        width[alive] = 17 - j
        G[alive] = (above + ((down > up) | ((down == up) & (above & 1 == 1)))) * unit
    decpt = 17 - K  # v = 0.d_1 d_2 ... x 10^decpt
    G[zero], width[zero], decpt[zero] = 0, 1, 1
    return G, width, decpt, fallback


def _float_field(col: np.ndarray, first: bool) -> np.ndarray:
    """The words of the ``repr`` of every double of ``col``.

    They hold the comma and the sign; the digits before the point,
    right-aligned; the point; the digits after it, left-aligned; and "e",
    the exponent's sign and its two digits.
    """
    n = len(col)
    G, width, decpt, fallback = _shortest(col)
    expo = (decpt <= -4) | (decpt > 16)
    point = np.where(expo, 1, decpt)  # digits before the point, or zeros after it if <= 0
    after = np.where(expo, width - 1, np.maximum(width - point, 1))  # digits after it
    whole, frac = np.divmod(G, _POW10[17 - np.maximum(point, 0)])
    # the 20 digits after the point, frac 10^(3 + point): 8 high and 12 low
    s = 3 + point
    low = np.minimum(s, 12)
    high, rest = np.divmod(frac, _POW10[12 - low])
    high *= _POW10[s - low]
    rest *= _POW10[low]
    before = np.maximum(point, 1)
    whole_groups, after_groups = -(-int(before.max()) // 4), -(-int(after.max()) // 4)
    parts = [np.where(np.signbit(col), np.uint32(_SIGN << 8), np.uint32(0)) | (0 if first else _COMMA),
             _digit_words(whole, _LEAD[5 - whole_groups:], before),
             np.where(after > 0, np.uint32(_DOT), np.uint32(0))]
    if after_groups:
        tail = np.empty((5, n), dtype="<u4")
        tail[:2] = _digit_words(high, _TAIL[:2], after)
        tail[2:] = _digit_words(rest, _TAIL[2:], after)
        parts.append(tail[:after_groups])
    if expo.any():
        power = decpt - 1
        exponent = (_E | np.where(power < 0, _SIGN, _PLUS) << 8
                    | (48 + np.abs(power) // 10) << 16 | (48 + np.abs(power) % 10) << 24)
        parts.append(np.where(expo, exponent, 0).astype("<u4"))
    words = np.vstack(parts)
    # room enough: a row not normal is laid out as 1.5's 17 digits, 27 characters after
    # the comma, and a tie as a candidate of as many digits as its repr or more
    for i in np.flatnonzero(fallback):
        _write(words[:, i], repr(float(col[i])))
    return words


def csv_text(columns: Sequence[np.ndarray]) -> str:
    """The CSV lines, each ending in LF, of equal-length int64 or float64 columns."""
    n = len(columns[0])
    if not n:
        return ""
    words = np.vstack([(_float_field if col.dtype.kind == "f" else _int_field)(col, k == 0)
                       for k, col in enumerate(columns)] + [np.full(n, _LF, dtype="<u4")])
    data = words.T.tobytes()  # a field's words, row after row
    del words  # at most two copies of the run's text at a time
    data = data.translate(None, b"\0")
    return data.decode("ascii")


def _runs(blocks: Iterable[np.ndarray], size: int) -> Iterator[np.ndarray]:
    """The rows of the blocks, in order, in runs of ``size`` rows and then the rest; a lone block's as views."""
    held, rows = [], 0
    for block in blocks:
        held.append(block)
        rows += len(block)
        if rows >= size:
            joined, cut = np.concatenate(held) if len(held) > 1 else block, rows - rows % size
            yield from (joined[start:start + size] for start in range(0, cut, size))
            held, rows = [joined[cut:]], rows - cut
    if rows:
        yield np.concatenate(held)

