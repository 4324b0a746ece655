"""`repr` of whole float64 arrays in numpy, and rows of such texts as bytes.

`text_rows` joins `repr(float(v))` of the values of several float columns
into rows between fixed separators, a block of BLOCK values at a time. The
writers in `mot1d` and `cli` build their files from it: a file of floats
costs a fixed number of numpy passes per block, and no Python work per
value or row.

Digits (after Loitsch, PLDI 2010, and Adams, PLDI 2018). A finite normal
v != 0 has |v| = M * 2**q with M an integer in [2**52, 2**53). With
E0 = floor(log10(2**(q + 52))), the decimal exponent E of |v| is E0 or
E0 + 1, and t = |v| * 10**(16 - E0) lies in [1e16, 2e17). t is formed as a
double-double in plain float64 arithmetic, so one code path serves every
platform: a table holds 10**(16 - E0), scaled by a power of two, as two
doubles ph + pl (within 2**-106 of it, relative), Dekker's exact product
gives M * ph = p + err, and t = p + (err + M * pl). The computed t is within
2**-46 of the exact product, and each rounding and round-trip decision
below is computed within 2**-41 of its exact value, in units of the 17th
digit. A decision closer than EPS = 2**-32 to its boundary sends the value
to the fallback.

Choice. repr prints the shortest decimal string that reads back as v and,
of those, the one nearest to v. Any string of at most 15 significant digits
that reads back as v is v correctly rounded to 15 digits (15 is DBL_DIG),
so if that candidate lies strictly inside v's rounding interval it is
repr's string, its trailing zeros dropped. Otherwise, if the correctly
rounded 16-digit number lies inside, it is the nearest 16-digit string,
hence repr's; if it does not, no 16-digit number does, as the interval is
symmetric about v. Failing both, the correctly rounded 17-digit number is
repr's: half its spacing, at most 5e-17 |v|, is less than half an ulp, more
than 5.55e-17 |v|. A tie in rounding to 16 or 17 digits, where the nearest
string is not unique, matters only if the candidates on both sides could be
inside the interval, and only if the shorter candidates are outside.

Fallback. These values get `repr` itself: a value with a decision that
matters within EPS of its boundary; zeros, subnormals, infinities and NaN;
and powers of two whose 15-digit candidate is not inside the narrower half
of their interval (below v it is half as wide, so the nearest longer
candidate need not be the one repr picks). The table spans every normal
exponent. On 10**6 random bit patterns the fallback takes about 0.2 % of
the values, half of them zeros, subnormals, infinities and NaN.

Layout, as repr: positional for decimal exponents -4 <= E < 16, with ".0"
after an integer; otherwise d.ddde+XX with at least two exponent digits.
Each value's text is built in five uint64 words and picked out by a mask
(see WORDS). The intermediates live in per-thread scratch buffers of BLOCK
values (about 1.2 MB), reused from block to block and call to call.
"""

from __future__ import annotations

import threading
from functools import cache

import numpy as np

EPS = 2.0 ** -32
WIDTH = 24                # the longest repr of a float64: '-2.2250738585072014e-308'
BLOCK = 1 << 12           # values per block of text_rows
_U = np.uint64
_SPLIT = 134217729.0      # 2**27 + 1, Veltkamp's splitter

# Each value's text is written into four little-endian uint64 words, and
# its exponent into a fifth; a mask picks the characters of its repr. The
# sign and the "0." and zeros of a positional E < 0 end at byte 6, the
# first digit is byte 7 and the other sixteen follow, with a point inserted
# where the layout has one: one run of characters. The fifth word holds
# "e+XX" or "e+XXX", the second run of the exponent form.
WORDS = 5
_CLASSES = 22             # E = -4..15 positional, then exponents of 2 and 3 digits
_E_MIN = -308             # the least decimal exponent of a normal float64
_H_MAX = 1e17 / 2 ** 53   # half an ulp is below t / 2**53, in units of the 17th digit


@cache
def _scales():
    """Per biased exponent of |v|: 10**(16 - E0) times the power of two that
    brings M * 10**(16 - E0) * 2**q to M * (ph + pl): ph, the two halves of
    ph, pl and E0. Zeros, subnormals, infinities and NaN (biased exponents 0
    and 2047, left to the fallback) get the entries of 1.0."""
    ks = np.arange(-291, 325)
    ph, pl, s = [], [], []
    for k in ks.tolist():
        num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
        sk = num.bit_length() - den.bit_length()
        if num << max(-sk, 0) < den << max(sk, 0):
            sk -= 1
        num, den = num << max(-sk, 0), den << max(sk, 0)
        hi = num / den                      # int division rounds correctly
        hn, hd = hi.as_integer_ratio()
        ph.append(hi)
        pl.append((num * hd - hn * den) / (den * hd))
        s.append(sk)
    be = np.arange(2048)
    be[[0, 2047]] = 1023
    E0 = np.floor((be - 1023) * np.log10(2.0)).astype(np.int64)
    i = 16 - E0 - ks[0]
    sh = be - 1075 + np.array(s)[i]
    hi = np.ldexp(np.array(ph)[i], sh)
    top = hi * _SPLIT
    top = top - (top - hi)
    tables = hi, top, hi - top, np.ldexp(np.array(pl)[i], sh), E0
    for table in tables:
        table.setflags(write=False)
    return tables


class _Layouts:
    """Tables of the layout, built on first use.

    By exponent E (from _E_MIN up): cls, the class of E, and suffix, the
    fifth word. By sc = sign * _CLASSES + class: prefix, the sign and
    "0.000" ending at byte 6; insert[kind, word - 1], for words 1-3, the
    bytes before the point, the point and the bytes after it. By
    sc * 17 + digit count - 1: masks, the characters of the five words. By
    text length: fallback, the mask of a text in words 0-2."""

    def __init__(self):
        E = np.arange(_E_MIN, -_E_MIN + 1)
        self.cls = np.where((E >= -4) & (E < 16), E + 4, 20 + (np.abs(E) >= 100))
        self.suffix = np.frombuffer(b"".join(b"e%+03d\0\0\0\0" % e if abs(e) < 100 else
                                             b"e%+04d\0\0\0" % e for e in E.tolist()),
                                    dtype="<u8").astype(np.uint64)
        neg, cls = np.divmod(np.arange(2 * _CLASSES), _CLASSES)
        E = cls - 4                         # 16 and 17 stand for the exponent form
        lead = [b"-" * s + (b"0." + b"0" * (-e - 1) if e < 0 else b"")
                for s, e in zip(neg.tolist(), E.tolist())]
        self.prefix = np.frombuffer(b"".join(t.rjust(7, b"\0") + b"\0" for t in lead),
                                    dtype="<u8").astype(np.uint64)
        # the point goes to byte 8 + E, 8 in the exponent form, nowhere for E < 0
        at = np.where(E < 0, 64, np.where(E < 16, 8 + E, 8))[:, None]
        byte = np.arange(8, 32)
        ins = np.stack([np.where(byte < at, 255, 0), np.where(byte == at, ord("."), 0),
                        np.where(byte > at, 255, 0)], axis=1).astype(np.uint8)
        ins = ins.reshape(len(E), 9, 8).view("<u8")[..., 0].T.reshape(3, 3, -1)
        self.insert = ins.astype(np.uint64)
        n = np.arange(1, 18)[None, :]
        E, neg = E[:, None], neg[:, None]
        shown = np.where(E < 0, n, np.where(E < 16, np.maximum(n, E + 2) + 1, n + (n > 1)))
        start = 7 - neg - np.where(E < 0, 1 - E, 0)
        col = np.arange(8 * WORDS)[None, None, :]
        masks = ((col >= start[..., None]) & (col < (7 + shown)[..., None])) \
            | ((E[..., None] >= 16) & (col >= 32) & (col < 32 + 4 + (E[..., None] > 16)))
        self.masks = masks.reshape(-1, 8 * WORDS).view(np.uint64)
        self.fallback = (np.arange(8 * WORDS) < np.arange(25)[:, None]).view(np.uint64)
        for table in vars(self).values():
            table.setflags(write=False)


_layouts = cache(_Layouts)


class _Scratch(threading.local):
    """Buffers of BLOCK values by name, kept per thread from call to call.
    The kernel writes its intermediates into them: a fresh array per step
    would take fresh pages from the system for every block, and those page
    faults cost more than the arithmetic."""

    def __init__(self):
        self.buffers = {}

    def __call__(self, name, n, dtype=np.float64, rows=None, cols=None):
        """The first n values of buffer `name`: (n,), (rows, n) or (n, cols)."""
        key = name, dtype, rows, cols
        buf = self.buffers.get(key)
        if buf is None:
            shape = (BLOCK,) if rows is None else (rows, BLOCK)
            buf = self.buffers[key] = np.empty(shape + ((cols,) if cols else ()), dtype=dtype)
        return buf[:, :n] if rows else buf[:n]


_scratch = _Scratch()


def _take(table, index, out):
    """table[index] along the first axis into out; "clip" spares numpy the
    buffered copy it makes of out to check the indices."""
    return table.take(index, axis=0, out=out, mode="clip")


def _candidate(y, m, h, unsure, V, inside, D, W, near, wide):
    """Into V, y rounded to a multiple of m; into inside, whether that lies
    within h of y. Flags in unsure the decisions within EPS of their
    boundary; D, W, near and wide are scratch. A tie in the rounding
    matters only if the two candidates could be inside, within h."""
    np.multiply(y, 1.0 / m, out=V)
    np.rint(V, out=V)
    V *= m
    np.subtract(V, y, out=D)
    np.abs(D, out=D)
    np.less(D, h, out=inside)
    np.abs(np.subtract(D, h, out=W), out=W)
    unsure |= np.less_equal(W, EPS, out=near)
    if 0.5 * m < _H_MAX:
        D -= 0.5 * m
        np.abs(D, out=D)
        np.less_equal(D, EPS, out=near)
        near &= np.greater_equal(h, 0.5 * m - EPS, out=wide)
        unsure |= near


def _ascii8(x, q, t):
    """The eight decimal digits of each x < 10**8 (uint64), in place, as the
    bytes of a little-endian uint64, first digit lowest; q and t are
    scratch."""
    np.multiply(x, _U(3518437209), out=q)
    q >>= _U(45)                                    # x // 10**4
    x <<= _U(32)
    x -= np.multiply(q, _U((10000 << 32) - 1), out=t)  # x // 10**4, then x % 10**4 << 32
    for mul, shift, mask, base, width in ((5243, 19, 0x7F0000007F, 100, 16),
                                          (103, 10, 0x000F000F000F000F, 10, 8)):
        np.multiply(x, _U(mul), out=q)
        q >>= _U(shift)
        q &= _U(mask)                               # // base in each lane
        x <<= _U(width)
        x -= np.multiply(q, _U((base << width) - 1), out=t)


def _digits(mag):
    """Per |v|, given as float64 bits: its first significant digit, the next
    eight digits and the eight after (as bytes of uint64s, digit values, not
    ASCII), the significant digit count, the decimal exponent, and whether a
    decision was in doubt. The arrays are scratch buffers; a dead array's
    buffer takes a later intermediate, so the footprint stays small."""
    n = len(mag)
    M, mh, ml, hi, lo, p, tl, h, fl = _scratch("float", n, np.float64, rows=9)
    be, T, top, tmp, high = _scratch("int", n, np.int64, rows=5)
    (pow2, g, carry, unsure, doubt16, doubt17, near, wide, in15,
     in16) = _scratch("bool", n, bool, rows=10)
    ph, ph_hi, ph_lo, pl, E0 = _scales()
    np.right_shift(mag, _U(52), out=be)
    bits = np.bitwise_and(mag, _U((1 << 52) - 1), out=_scratch("bits", n, np.uint64))
    np.equal(bits, 0, out=pow2)
    bits |= _U(1 << 52)
    M[:] = bits
    bits &= _U(-1 << 26 & (1 << 64) - 1)
    mh[:] = bits                                    # M's top 27 bits
    np.subtract(M, mh, out=ml)
    _take(ph_hi, be, out=hi)
    _take(ph_lo, be, out=lo)
    _take(ph, be, out=p)
    p *= M
    # Dekker: M * ph = p + ((mh*hi - p) + mh*lo + ml*hi) + ml*lo, exactly
    np.multiply(mh, hi, out=tl)
    tl -= p
    tl += np.multiply(mh, lo, out=mh)
    tl += np.multiply(ml, hi, out=hi)
    tl += np.multiply(ml, lo, out=ml)
    np.divide(p, M, out=h)                          # an ulp of v, in units of t
    tl += np.multiply(M, _take(pl, be, out=lo), out=M)
    np.floor(tl, out=fl)
    tl -= fl                                        # t = p + fl + tl, 0 <= tl < 1
    T[:] = p                                        # p >= 2**53 is an integer
    top[:] = fl
    T += top
    np.greater_equal(T, 10 ** 17, out=g)            # the exponent is E0 + 1
    np.floor_divide(T, 1000, out=top)
    T -= np.multiply(top, 1000, out=tmp)
    y, unit = fl, p                                 # fl and p are spent
    y[:] = T
    y += tl
    np.multiply(g, -0.9, out=unit)
    unit += 1.0                                     # y and h in units of 10**g
    y *= unit                                       # t = 1000 * top + y / unit
    np.multiply(pow2, -0.25, out=tl)
    tl += 0.5
    tl *= unit
    h *= tl                                         # half an ulp, the lesser below 2**k
    # a later candidate's doubts count only if the earlier ones are outside
    for flags in (unsure, doubt16, doubt17):
        flags[:] = False
    D, W, V15, V16, V = mh, ml, hi, lo, M
    _candidate(y, 100.0, h, unsure, V15, in15, D, W, near, wide)
    _candidate(y, 10.0, h, doubt16, V16, in16, D, W, near, wide)
    np.rint(y, out=V)
    np.subtract(y, V, out=D)
    np.abs(D, out=D)
    D -= 0.5
    np.abs(D, out=D)
    np.less_equal(D, EPS, out=doubt17)
    unsure |= np.greater(doubt16, in15, out=doubt16)
    unsure |= np.greater(doubt17, np.logical_or(in15, in16, out=near), out=doubt17)
    unsure |= np.greater(pow2, in15, out=near)
    V16 -= V
    V16 *= in16
    V += V16
    V15 -= V
    V15 *= in15
    V += V15
    np.multiply(g, -900, out=tmp)
    tmp += 1000
    top *= tmp
    T[:] = V
    top += T                                        # the 17 digits
    np.equal(top, 10 ** 17, out=carry)              # rounded up to 10**(E0 + 1)
    top -= np.multiply(carry, 9 * 10 ** 16, out=tmp)
    np.floor_divide(top, 10 ** 8, out=high)
    first = np.floor_divide(high, 10 ** 8, out=T)
    # every float intermediate is spent: their buffers take the digit groups
    eights, q, t = np.split(_scratch("float", n, np.float64, rows=9)[:6].view(np.uint64), 3)
    np.subtract(high, np.multiply(first, 10 ** 8, out=tmp), out=eights[0], casting="unsafe")
    np.subtract(top, np.multiply(high, 10 ** 8, out=tmp), out=eights[1], casting="unsafe")
    _ascii8(eights, q, t)
    # the last nonzero digit of each eight, from the bit length of its value
    q.view(np.float64)[:] = eights
    last = q.view(np.int64)
    last >>= 52
    last -= 1023
    last >>= 3                                      # -128 for no nonzero digit
    nsig = np.add(last[0], 2, out=top)
    np.maximum(nsig, np.add(last[1], 10, out=tmp), out=nsig)
    np.maximum(nsig, 1, out=nsig)
    E = _take(E0, be, out=high)
    E += g
    E += carry
    return first, eights[0], eights[1], nsig, E, unsure


def _slots(v, words):
    """Write the five words (see WORDS) of `repr` of each value of the
    float64 vector v into the columns of the (len(v), >= WORDS) uint64
    matrix words; return the row of `_layouts().masks` of each value, and
    the rows and lengths of the texts left to `repr`, which stand in words
    0-2."""
    n = len(v)
    mag, w, s, low, dot, high = _scratch("uint", n, np.uint64, rows=6)
    bits = v.view(np.uint64)
    np.bitwise_and(bits, _U((1 << 63) - 1), out=mag)
    fallback = np.right_shift(mag, _U(52), out=w)
    fallback -= _U(1)                               # a biased exponent 0 wraps around
    # zeros, subnormals, infinities and NaN
    fallback = np.greater_equal(fallback, _U(2046), out=_scratch("fallback", n, bool))
    first, w1, w2, nsig, E, unsure = _digits(mag)
    fallback |= unsure
    lay = _layouts()
    E -= _E_MIN
    words[:, 4] = _take(lay.suffix, E, out=w)
    sc = _take(lay.cls, E, out=_scratch("sc", n, np.int64))
    sc += np.multiply(np.right_shift(bits, _U(63), out=mag), _CLASSES, out=E, casting="unsafe")
    w0 = _take(lay.prefix, sc, out=mag)
    first += ord("0")
    first <<= 56
    w0 |= first.view(np.uint64)
    words[:, 0] = w0
    w1 |= _U(0x3030303030303030)
    w2 |= _U(0x3030303030303030)
    for k, (a, before) in enumerate(((w1, w0), (w2, w1), (None, w2))):
        for t, out in zip(lay.insert[:, k], (low, dot, high)):
            _take(t, sc, out=out)
        np.right_shift(before, _U(56), out=s)
        if a is not None:
            s |= np.left_shift(a, _U(8), out=w)
        s &= high
        s |= dot
        if a is not None:
            s |= np.bitwise_and(a, low, out=w)
        words[:, 1 + k] = s
    sc *= 17
    sc += nsig
    sc -= 1
    rows = np.flatnonzero(fallback)
    texts = [repr(x).encode() for x in v[rows].tolist()]
    if texts:
        words[rows, :3] = np.frombuffer(b"".join(t.ljust(WIDTH) for t in texts),
                                        dtype="<u8").reshape(-1, 3)
    return sc, rows, [len(t) for t in texts]


@cache
def _row_layout(tails):
    """For rows whose values are followed by these tails: the tail words, the
    masks of a value's words and tail by (column * len(_layouts().masks) +
    layout), and the first term of that index for the values of a block."""
    lay = _layouts()
    masks = np.empty((len(tails), len(lay.masks), WORDS + 1), dtype=np.uint64)
    masks[:, :, :WORDS] = lay.masks
    masks[:, :, WORDS] = np.frombuffer(b"".join(b"\1" * len(t) + b"\0" * (8 - len(t))
                                                for t in tails), dtype=np.uint64)[:, None]
    tail = np.frombuffer(b"".join(t.ljust(8, b"\0") for t in tails), dtype="<u8")
    column = np.arange(BLOCK) % len(tails) * len(lay.masks)
    tables = tail, masks.reshape(-1, WORDS + 1), column
    for table in tables:
        table.setflags(write=False)
    return tables


def text_rows(columns, lead: bytes, sep: bytes, end: bytes, between: bytes = b""):
    """Yield, a block at a time, the bytes of the rows lead + sep.join(texts)
    + end, joined by `between`, where the texts of a row are `repr` of its
    values in the float columns. Each block's bytes are copied out of the
    scratch buffers before they are yielded, so generators read in turn do
    not disturb each other. The buffers are per thread: a generator is read
    by one thread, not by several concurrently.

    Each value's words are followed by a tail word: sep after a value, and
    end + between + lead after a row's last value. The stream starts with
    lead, and the last tail's between + lead is dropped."""
    columns = [np.asarray(c, dtype=np.float64).ravel() for c in columns]
    tails = (sep,) * (len(columns) - 1) + (end + between + lead,)
    tail, masks, column = _row_layout(tails)
    rows = BLOCK // len(columns)
    n = min(rows, len(columns[0])) * len(columns)
    words = _scratch("words", n, "<u8", cols=WORDS + 1)
    keep = _scratch("keep", n, np.uint64, cols=WORDS + 1)
    chars, picks = words.view(np.uint8), keep.view(bool)
    fallback_masks = _layouts().fallback
    last = None
    for start in range(0, len(columns[0]), rows):
        v = np.column_stack([c[start:start + rows] for c in columns]).ravel()
        words.reshape(-1, len(tails), WORDS + 1)[:, :, WORDS] = tail
        key, fallback, lengths = _slots(v, words[:len(v)])
        key += column[:len(v)]
        _take(masks, key, out=keep[:len(v)])
        keep[fallback, :WORDS] = fallback_masks[lengths]
        text = chars[:len(v)][picks[:len(v)]]
        yield lead if last is None else last
        last = text
    if last is not None:
        yield last[:len(last) - len(between + lead)]
