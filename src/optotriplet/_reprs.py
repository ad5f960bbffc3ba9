"""Float64 arrays as text, byte for byte as ``repr(float(v))`` writes each value.

:func:`cells` finds the shortest decimal digits that read back as each value
with Ryū (Adams, "Ryū: fast float-to-string conversion", PLDI 2018), which
needs only 64-bit integer arithmetic, on whole ``uint64`` arrays at once, and
lays them out by the rules of CPython's ``float.__repr__``.  :func:`rows`
joins cells into CSV rows.  Only numpy is used.  Every ``uint64`` operand of
the integer kernel is explicit: numpy 1.x casts Python ints and numpy scalars
by value and numpy 2 does not (NEP 50), and ``uint64`` mixed with ``int64``
gives ``float64`` in both.  Python ints enter arithmetic only with signed
``int64`` or ``intp`` arrays (``point * 18``, ``removed - 1``), where both
rules keep the array's type, and meet ``uint64`` arrays only in comparisons
and assignments.
"""

from __future__ import annotations

import numpy as np

# bytes of one value's cell, unused ones NUL: 0 the sign; 1-5 "0." and three
# zeros; 7-24 the digits and the point; 25-29 ".0" or the exponent ("e-308");
# 31 the separator that :func:`rows` sets.  A cell is built as four
# little-endian words.
WIDTH = 32
_MANTISSA_SLOT, _TAIL_SLOT = 7, 25
_WORD = np.dtype("<u8")
# values formatted at once, at most: more cost more per value, in cache misses
# and in page faults on their working arrays, fewer cost more in numpy calls
_CHUNK = 4096

_U = np.uint64
_ONE, _TWO, _TEN = _U(1), _U(2), _U(10)
_8, _32, _52, _56, _63 = _U(8), _U(32), _U(52), _U(56), _U(63)
_LOW32 = _U(0xFFFFFFFF)
_MANTISSA = _U((1 << 52) - 1)
_ABS = _U((1 << 63) - 1)
_NONFINITE = _U(0x7FF)
_P10 = np.array([10**k for k in range(20)], dtype=np.uint64)
# the float sums that place vp and vm are within 2**-42 of the exact ones
_SURE = 2.0**-40

# columns of the per-exponent table
_W0, _W1, _W2, _W3, _W4, _W34, _HIDDEN, _LOW_BITS, _STEP, _E10, _SPECIAL = range(11)


def _pow5bits(e):
    """Bits of ``5**e`` (1 for ``e = 0``)."""
    return ((e * np.int64(1217359)) >> np.int64(19)) + np.int64(1)


def _exponent_table():
    """Ryū's constants of each biased exponent 0..2046, one row each (0,
    the subnormals', has exponent 1's but no hidden bit), and the two columns
    that its exact-bound cases need.

    For the binary exponent ``e2`` of ``4 * m2`` Ryū picks a decimal exponent
    ``q`` and a 125-bit multiplier ``w``, ``5**-q`` scaled up when
    ``e2 >= 0`` and ``5**(-e2-q)`` scaled down when not, with a shift ``j`` in
    118..125, so that ``floor(m * w / 2**j)`` is ``m * 2**e2`` in units of
    ``10**e10``.  The multipliers come from Python ints.  Each is stored
    shifted left by ``128 - j``, so that every product is cut at bit 128, as
    five 32-bit limbs and the last two joined (``w3 + w4 * 2**32``).
    """
    e2 = np.arange(0, 2047, dtype=np.int64) - np.int64(1023 + 52 + 2)
    e2[0] = e2[1]
    big = e2 >= 0
    # floor(e2 * log10(2)) and floor(-e2 * log10(5)), Ryū's log approximations
    q_big = ((e2 * np.int64(78913)) >> np.int64(18)) - (e2 > 3)
    q_small = ((-e2 * np.int64(732923)) >> np.int64(20)) - (-e2 > 1)
    q = np.where(big, q_big, q_small)
    i = -e2 - q
    j = np.where(big, -e2 + q + np.int64(124) + _pow5bits(q),
                 q - _pow5bits(i) + np.int64(125))
    inverse, power, p = [], [], 1
    for k in range(max(int(q[big].max()), int(i[~big].max())) + 1):
        bits = p.bit_length()
        inverse.append((1 << (bits - 1 + 125)) // p + 1)
        power.append(p >> (bits - 125) if bits >= 125 else p << (125 - bits))
        p *= 5
    w = [(inverse[q_k] if b else power[i_k]) << (128 - j_k)
         for b, q_k, i_k, j_k in zip(big.tolist(), q.tolist(), i.tolist(), j.tolist())]
    table = np.zeros((e2.size, 11), dtype=np.uint64)
    table[:, :5] = np.frombuffer(b"".join(x.to_bytes(20, "little") for x in w),
                                 dtype=np.uint32).reshape(-1, 5)
    table[:, _W34] = table[:, _W3] + (table[:, _W4] << _32)
    table[1:, _HIDDEN] = _U(1 << 52)
    # Ryū's test that the digits below vr are all zero: for e2 < 0, whether
    # 4 * m2 has q trailing zero bits (always for q <= 1, never for q >= 63);
    # all ones makes it false
    low_bits = np.where(~big & (q < 63), (np.ones_like(q) << np.minimum(q, 62)) - 1, -1)
    table[:, _LOW_BITS] = np.where(~big & (q <= 1), 0, low_bits).astype(np.uint64)
    # 2 * w / 2**128: how far vp lies above vr, and vm below it but at a
    # power of two, before the floors
    table[:, _STEP] = np.array([x / 2.0**127 for x in w]).view(np.uint64)
    table[:, _E10] = np.where(big, q, q + e2).astype(np.uint64)
    # the exponents whose zero tests need 5**q (e2 >= 0, q <= 21) or q <= 1 (e2 < 0)
    table[:, _SPECIAL] = np.where(big, q <= 21, q <= 1)
    pow5 = np.array([5**k for k in range(22)], dtype=np.uint64)[np.minimum(q, 21)]
    return table, big, pow5


_BY_EXPONENT, _BIG, _POW5 = _exponent_table()


def _product(m, w):
    """``floor(m * w / 2**128)``, exactly, and the 64 bits below it, of the
    55-bit ``m`` by the multiplier limbs ``w`` (w0, w1, w2, w3, w4, w34),
    in 32-bit limbs."""
    w0, w1, w2, w3, w4, w34 = w
    m0, m1 = m & _LOW32, m >> _32
    p00, p01, p02, p03 = m0 * w0, m0 * w1, m0 * w2, m0 * w3
    p10, p11, p12 = m1 * w0, m1 * w1, m1 * w2
    c1 = (p00 >> _32) + (p01 & _LOW32) + (p10 & _LOW32)
    c2 = (c1 >> _32) + (p01 >> _32) + (p10 >> _32) + (p02 & _LOW32) + (p11 & _LOW32)
    c3 = (c2 >> _32) + (p02 >> _32) + (p11 >> _32) + (p03 & _LOW32) + (p12 & _LOW32)
    # the columns from bit 128 up, modulo 2**64, which the result never reaches
    top = (c3 >> _32) + (p03 >> _32) + (p12 >> _32) + m0 * w4 + m1 * w34
    return top, (c3 << _32) | (c2 & _LOW32)


def _mm_shift(mantissa, exponent):
    """Ryū's ``mmShift``: 0 at a power of two, where the gap below the value
    is half the gap above, else 1."""
    return ((mantissa != 0) | (exponent <= _ONE)).astype(np.uint64)


def _shortest(bits):
    """Ryū's shortest digits ``(digits, e10)`` of positive, finite, nonzero
    float64 bit patterns: each value reads back from ``digits * 10**e10``,
    and no shorter ``digits`` does; of two, the nearer, even on a tie.
    ``digits`` has no trailing zero: the last digit removed leaves no
    multiple of 10 between the bounds, and the value stays within them."""
    exponent = bits >> _52
    row = _BY_EXPONENT.take(exponent, axis=0)
    w = [row[:, k] for k in (_W0, _W1, _W2, _W3, _W4, _W34)]
    mantissa = bits & _MANTISSA
    mv = (mantissa | row[:, _HIDDEN]) << _TWO
    accept = (mantissa & _ONE) == 0  # an even mantissa owns its interval's bounds
    vr, below = _product(mv, w)
    # vp and vm are vr plus the floors of the fraction below vr plus or minus
    # a step; in floats, but recomputed exactly where a sum is too near an
    # integer for its floor to be sure, and at powers of two, where the step
    # below is half of it
    fraction = below.astype(np.float64) * 2.0**-64
    step = row[:, _STEP].view(np.float64)
    up, down = fraction + step, fraction - step
    up_floor, down_floor = np.floor(up), np.floor(down)
    vp = vr + up_floor.astype(np.uint64)
    vm = vr + down_floor.astype(np.int64).view(np.uint64)  # modulo 2**64: vr minus a few
    up, down = up - up_floor, down - down_floor
    at = np.flatnonzero((np.minimum(up, down) < _SURE) | (np.maximum(up, down) > 1.0 - _SURE)
                        | (mantissa == 0))
    if at.size:
        w_at, mv_at = [x[at] for x in w], mv[at]
        vp[at] = _product(mv_at + _TWO, w_at)[0]
        vm[at] = _product(mv_at - _ONE - _mm_shift(mantissa[at], exponent[at]), w_at)[0]
    vr_zeros = (mv & row[:, _LOW_BITS]) == 0
    vm_zeros = None
    at = np.flatnonzero(row[:, _SPECIAL])
    if at.size:  # Ryū's exact-bound cases, all near or above 2**52
        e, v, a = exponent[at], mv[at], accept[at]
        s = _mm_shift(mantissa[at], e)
        p5, big = _POW5[e], _BIG[e]
        five = v % _U(5) == 0
        vr_zeros[at] = np.where(big, five & (v % p5 == 0), True)
        vm_zeros = np.zeros(bits.shape, dtype=bool)
        vm_zeros[at] = np.where(big, ~five & a & ((v - _ONE - s) % p5 == 0), a & (s == _ONE))
        vp[at] -= np.where(big, ~five & ~a & ((v + _TWO) % p5 == 0), ~a).astype(np.uint64)
    # digits removed while the interval still holds a shorter number: most
    # values lose one to three
    removed = np.zeros(bits.shape, dtype=np.int64)
    hi, lo = vp, vm
    for _ in range(3):
        hi, lo = hi // _TEN, lo // _TEN
        removed += hi > lo
    at = np.flatnonzero(hi > lo)
    hi, lo = hi[at], lo[at]
    while at.size:
        hi, lo = hi // _TEN, lo // _TEN
        more = np.flatnonzero(hi > lo)
        at, hi, lo = at[more], hi[more], lo[more]
        removed[at] += 1
    if vm_zeros is not None and vm_zeros.any():
        # an exact lower bound: its removed digits must be zeros, and it is
        # then shortened to its last nonzero digit
        at = np.flatnonzero(vm_zeros)
        vm_at = vm[at] // _P10[removed[at]]
        exact = vm[at] == vm_at * _P10[removed[at]]
        vm_zeros[at] = exact
        at, vm_at = at[exact], vm_at[exact]
        while at.size:
            tail = vm_at // _TEN
            more = np.flatnonzero(vm_at == tail * _TEN)
            at, vm_at = at[more], tail[more]
            removed[at] += 1
    scale = _P10[removed - 1]  # 10**19 where nothing was removed, fixed below
    head = vr // scale
    out = head // _TEN
    last = head - out * _TEN  # the last digit removed
    at = np.flatnonzero(removed == 0)
    if at.size:
        out[at], last[at] = vr[at], 0
    at = np.flatnonzero(vr_zeros)
    if at.size:  # vr is exact: so are the removed digits but the last; a tie rounds to even
        tie = (vr[at] == head[at] * scale[at]) & (last[at] == 5) & ((out[at] & _ONE) == 0)
        last[at[tie]] = 4
    round_up = (out == vm // _P10[removed]) | (last >= 5)
    if vm_zeros is not None:  # an exact lower bound that the value owns is a digit string itself
        at = np.flatnonzero(vm_zeros & accept)
        round_up[at] = last[at] >= 5
    out += round_up
    return out, row[:, _E10].view(np.int64) + removed


# the decimal point's positions (the value is 0.ddd * 10**point) of finite
# nonzero floats, 5e-324 to 1.7976931348623157e+308, and those written in
# fixed notation
_POINT_MIN, _POINT_MAX = -323, 309
_FIXED_MIN, _FIXED_MAX = -3, 16


def _layouts():
    """The layout classes' words, the class of each point and digit count,
    and the exponent word of each point.

    A class fixes a cell's bytes but its digits and exponent: for fixed
    notation, the point and the number of digits; for scientific notation,
    the number of digits; and then "0.0", "inf" and "nan".  The digits before
    the point go to the digit slots from the first, those after it one slot
    further on, past the point.  Each class's row holds the cell's other
    bytes, and two masks that pick its digits out of the 17 left-aligned
    digits at the first slot and at the next (all digits up to the point,
    for an integral value).
    """
    entries = []

    def layout(text, shown=0, split=17):
        cell, before, after = bytearray(WIDTH), bytearray(WIDTH), bytearray(WIDTH)
        for slot, char in text:
            cell[slot] = ord(char)
        for i in range(shown):
            (before if i < split else after)[_MANTISSA_SLOT + i + (i >= split)] = 0xFF
        entries.append(bytes(cell + before + after))
        return len(entries) - 1

    cls = np.zeros((_POINT_MAX - _POINT_MIN + 1, 18), dtype=np.intp)
    words = bytearray()
    for length in range(1, 18):
        cls[:, length] = layout([(_MANTISSA_SLOT + 1, ".")] if length > 1 else [], length, 1)
    for point in range(_FIXED_MIN, _FIXED_MAX + 1):
        for length in range(1, 18):
            if point <= 0:  # 0.000ddd
                c = layout([(1, "0"), (2, ".")] + [(3 + z, "0") for z in range(-point)], length)
            elif point >= length:  # ddd000.0
                c = layout([(_TAIL_SLOT, "."), (_TAIL_SLOT + 1, "0")], point)
            else:
                c = layout([(_MANTISSA_SLOT + point, ".")], length, point)
            cls[point - _POINT_MIN, length] = c
    for point in range(_POINT_MIN, _POINT_MAX + 1):  # the last word: bytes 24-31
        text = b""
        if not _FIXED_MIN <= point <= _FIXED_MAX:
            x = point - 1
            sign = b"-" if x < 0 else b"+"
            text = b"e%s%s%02d" % (sign, b"" if abs(x) >= 100 else b"\0", abs(x))
        words += bytes(_TAIL_SLOT - 24) + text.ljust(8 - (_TAIL_SLOT - 24), b"\0")
    special = len(entries)
    for word in ("0.0", "inf", "nan"):
        layout(enumerate(word, start=1))
    table = np.frombuffer(b"".join(entries), dtype=_WORD).reshape(len(entries), 3, 4)
    return (*(np.ascontiguousarray(table[:, k]) for k in range(3)),
            cls.reshape(-1), np.frombuffer(bytes(words), dtype=_WORD), special)


_LAYOUTS, _BEFORE, _AFTER, _CLASS_OF, _EXPONENT_WORDS, _ZERO_CLASS = _layouts()
_ONE_BITS = np.float64(1.0).view(np.uint64)
# "0000" to "9999", four ASCII digits in each, and a last entry of NULs
_QUADS = np.zeros((10001, 4), dtype=np.uint8)
_QUADS[:-1] = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")
_QUADS = _QUADS.view("<u4").reshape(-1)
_10K = _U(10000)


def _chars(y):
    """The 17 digits of each of ``y``, which is below ``10**17``, as ASCII
    bytes 7-23 of a ``(y.size, 4)`` uint64 array, most significant first."""
    quads = np.full((y.size, 8), 10000, dtype=np.intp)
    for k in range(5, 1, -1):
        head = y // _10K
        np.subtract(y, head * _10K, out=quads[:, k], casting="unsafe")
        y = head
    quads[:, 1] = y
    return _QUADS.take(quads).view(_WORD)


def cells(values):
    """Each value of ``values`` as ``repr(float(v))`` writes it, in a uint8
    array of shape ``values.shape + (WIDTH,)``: the text's bytes in order,
    with NUL bytes between them, and the last byte NUL.  The values are
    formatted ``_CHUNK`` at a time, which bounds the working arrays."""
    values = np.asarray(values, dtype=np.float64)
    bits = values.reshape(-1).view(np.uint64)
    out = np.empty((bits.size, WIDTH // 8), dtype=_WORD)
    chunks = -(-bits.size // _CHUNK)
    size = -(-bits.size // chunks) if chunks else 1  # chunks of equal size
    for start in range(0, bits.size, size):
        _format(bits[start:start + size], out[start:start + size])
    return out.view(np.uint8).reshape(values.shape + (WIDTH,))


def _format(bits, out):
    """Write the cells of the float64 bit patterns ``bits`` to ``out``, four
    words each."""
    negative = bits >> _63
    bits = bits & _ABS
    exponent = bits >> _52
    nonfinite = exponent == _NONFINITE
    special = nonfinite | (bits == 0)
    some_special = special.any()
    if some_special:  # formatted as 1.0, then given their own class
        nan = nonfinite & ((bits & _MANTISSA) != 0)
        negative[nan] = 0  # repr writes every NaN as "nan"
        bits = np.where(special, _ONE_BITS, bits)
    digits, e10 = _shortest(bits)
    length = np.searchsorted(_P10, digits, side="right")  # digits in `digits`
    point = length + e10 - _POINT_MIN  # the value is 0.ddd * 10**point
    cls = _CLASS_OF.take(point * 18 + length)
    if some_special:
        cls[special] = _ZERO_CLASS + nonfinite[special] + nan[special]
    chars = _chars(digits * _P10[17 - length]).reshape(-1)
    # the digits one byte on; every cell's last byte is NUL, so nothing
    # crosses into the next cell
    shifted = chars << _8
    shifted[1:] |= chars[:-1] >> _56
    flat = out.reshape(-1)
    _LAYOUTS.take(cls, axis=0, out=out)
    flat |= chars & _BEFORE.take(cls, axis=0).reshape(-1)
    flat |= shifted & _AFTER.take(cls, axis=0).reshape(-1)
    out[:, 3] |= _EXPONENT_WORDS.take(point)
    out[:, 0] |= negative * _U(ord("-"))


def rows(fields):
    """The CSV text of ``fields``, arrays of cells of shape ``(rows, k,
    WIDTH)`` side by side, as a bytearray: each row's cells joined by ``,``
    and ended by a newline."""
    n, width = len(fields[0]), sum(field.shape[1] for field in fields)
    text = bytearray(n * width * WIDTH)
    block = np.frombuffer(text, dtype=np.uint8).reshape(n, width, WIDTH)
    np.concatenate(fields, axis=1, out=block)
    block[:, :-1, -1] = ord(",")
    block[:, -1, -1] = ord("\n")
    return text.translate(None, b"\0")
