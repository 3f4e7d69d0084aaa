"""Shortest round-trip text of float64 arrays, byte for byte as ``repr``.

``repr(float)`` prints the shortest decimal that reads back as the same
double, and of those the one nearest the double. It uses fixed notation
when the decimal point position ``decpt`` (value = 0.d1d2... * 10**decpt)
satisfies -4 < decpt <= 16, and ``d[.ddd]e±XX`` otherwise. Formatting
each density value that way in Python is most of the cost of writing
the ``t,x,rho`` CSVs, so this module does it on whole arrays:

* The digits come from Giulietti's Schubfach algorithm ("The Schubfach
  way to render doubles", 2020). The double and the ends of its
  rounding interval are scaled by a 128-bit upper approximation of a
  power of ten, with round-to-odd products computed in 32-bit limbs;
  the shortest decimal in the interval is then picked by integer
  comparisons.
* Each value's text is one row of bytes, NUL where it has no character:
  its digits, NUL padded and followed by the zeros or exponent it needs,
  are cut from a wider row by a window aligned on the decimal point, and
  the point is put in. Dropping the NULs of a block of rows gives the
  text of all of them at once.

Values are formatted in blocks of at most ``BLOCK``, so memory does not
grow with the array length. Every integer array is ``uint64`` or
``int64``, and every constant mixed into ``uint64`` arithmetic is an
explicit ``np.uint64``, so results do not depend on numpy's integer
promotion rules (they changed with NEP 50 in numpy 2).
"""

from __future__ import annotations

import functools

import numpy as np

BLOCK = 4096

_U = np.uint64
_LOW32 = _U(0xFFFFFFFF)
_FRACTION = _U((1 << 52) - 1)
_HIDDEN = _U(1 << 52)
_EXPONENT = _U(0x7FF)
_POW10 = np.array([10**i for i in range(18)], dtype=np.uint64)
# 10**e is tabulated for e = -k over every decimal exponent k a double needs
_POW10_MIN, _POW10_MAX = -292, 326
# exponents of scientific notation
_EXP_MIN, _EXP_MAX = -324, 308

_POINT, _MINUS = b".-"
# a value's digits end a field of _FIELD columns, after the zeros (at
# most 4) a fixed-notation value puts between its point and its digits;
# then come up to _SUFFIX zeros or exponent characters and the end byte
_FIELD, _SUFFIX = 24, 17


@functools.lru_cache(maxsize=None)
def _pow10_table() -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """For each e in [_POW10_MIN, _POW10_MAX]: the four 32-bit limbs
    (lowest first) of g = ceil(10**e / 2**b) with 2**127 <= g < 2**128,
    and floor(log2(10**e)) = b + 127. Built from exact integers."""
    gs, log2 = [], []
    for e in range(_POW10_MIN, _POW10_MAX + 1):
        if e >= 0:
            p = 10**e
            b = p.bit_length() - 128
            g = -(-p >> b) if b >= 0 else p << -b
        else:
            p = 10**-e
            b = 1 - p.bit_length() - 128
            g = -(-(1 << -b) // p)
        gs.append(g)
        log2.append(b + 127)
    limbs = tuple(
        np.array([(g >> (32 * j)) & 0xFFFFFFFF for g in gs], dtype=np.uint64) for j in range(4)
    )
    return limbs, np.array(log2, dtype=np.int64)


@functools.lru_cache(maxsize=None)
def _digit_quads() -> np.ndarray:
    """The four ASCII digits of 0..9999, one uint32 each in memory order."""
    text = "".join(f"{i:04d}" for i in range(10000)).encode()
    return np.frombuffer(text, dtype=np.uint32)


def _row_items(table: np.ndarray) -> np.ndarray:
    """A 2-D uint8 table viewed as one opaque item per row, for fast ``take``."""
    table = np.ascontiguousarray(table)
    return table.view(np.dtype((np.void, table.shape[1]))).ravel()


@functools.lru_cache(maxsize=None)
def _lead_masks() -> np.ndarray:
    """Row m zeroes the first m columns of a digit field."""
    return _row_items((np.arange(_FIELD) >= np.arange(_FIELD + 1)[:, None]).astype(np.uint8))


@functools.lru_cache(maxsize=None)
def _suffixes(end: bytes) -> tuple[np.ndarray, np.ndarray]:
    """What follows the last digit, then ``end``, NUL padded: row m <
    _SUFFIX holds m zeros (of a fixed-notation value), row _SUFFIX + i
    the exponent _EXP_MIN + i of a scientific one. Also their lengths."""
    texts = ["0" * m for m in range(_SUFFIX)]
    texts += [f"e{e:+03d}" for e in range(_EXP_MIN, _EXP_MAX + 1)]
    table = np.zeros((len(texts), _SUFFIX + 1), dtype=np.uint8)
    for row, text in zip(table, texts):
        row[: len(text) + 1] = np.frombuffer(text.encode() + end, dtype=np.uint8)
    lengths = np.array([len(text) + 1 for text in texts], dtype=np.int64)
    return _row_items(table), lengths


def _round_to_odd(g, cp):
    """floor(g * cp / 2**128), its lowest bit set when the exact
    quotient, with the power g approximates, is not an integer; g is
    four 32-bit limbs, cp < 2**61."""
    g0, g1, g2, g3 = g
    s32 = _U(32)
    low = cp & _LOW32
    high = cp >> s32  # high * g_j < 2**61 leaves room to add carries
    l0, l1, l2, l3 = low * g0, low * g1, low * g2, low * g3
    col1 = (l0 >> s32) + (l1 & _LOW32) + high * g0
    col2 = (col1 >> s32) + (l1 >> s32) + (l2 & _LOW32) + high * g1
    col3 = (col2 >> s32) + (l2 >> s32) + (l3 & _LOW32) + high * g2
    top = (col3 >> s32) + (l3 >> s32) + high * g3
    # g exceeds the power by less than 1, which adds less than 2**64 + 1
    # to the product; an exact product has no other remainder
    inexact = ((col3 << s32) != _U(0)) | ((col2 << s32) > _U(1 << 32))
    return top | inexact


def _shortest(c, q):
    """(digits, exponent): the shortest decimal digits * 10**exponent
    that reads back as c * 2**q, the nearest one if several, digits
    without trailing zeros. c >= 1 and q are the significand and
    exponent of a positive finite double."""
    closer = (c == _HIDDEN) & (q > -1074)  # the interval is narrower below
    k = (q * 1262611 - np.where(closer, 524031, 0)) >> 22  # floor(log10 of its width)
    index = -k - _POW10_MIN
    limbs, log2 = _pow10_table()
    g = [limb.take(index) for limb in limbs]
    h = (q + log2.take(index) + 1).astype(np.uint64)
    cb = c << _U(2)
    vb = _round_to_odd(g, cb << h)
    lower = _round_to_odd(g, (cb - _U(2) + closer.astype(np.uint64)) << h)
    upper = _round_to_odd(g, (cb + _U(2)) << h)
    # the ends of the interval belong to it when c is even
    odd = c & _U(1)
    lower += odd
    upper -= odd

    s = vb >> _U(2)
    # one digit fewer: at most one multiple of 10 * 10**k is in the interval
    short = s // _U(10)
    short4 = short * _U(40)
    short_high = upper >= short4 + _U(40)
    use_short = (s >= _U(10)) & ((lower <= short4) != short_high)
    # else the nearer of s and s + 1 in the interval, the even one on a tie
    s4 = s << _U(2)
    high_in = upper >= s4 + _U(4)
    mid = s4 + _U(2)
    round_up = (vb > mid) | ((vb == mid) & (s & _U(1)).astype(bool))
    up = np.where((lower <= s4) != high_in, high_in, round_up)
    digits = np.where(use_short, short + short_high, s + up)
    exponent = k + use_short

    zeros = np.flatnonzero(digits % _U(10) == _U(0))
    if zeros.size:
        d, e = digits[zeros], exponent[zeros]
        for p in (16, 8, 4, 2, 1):
            scaled = d // _POW10[p]
            strip = scaled * _POW10[p] == d
            d = np.where(strip, scaled, d)
            e += strip * p
        digits[zeros], exponent[zeros] = d, e
    return digits, exponent


def _cells(values: np.ndarray, end: bytes) -> np.ndarray:
    """uint8 rows, one per float64 value (at most BLOCK of them), whose
    non-NUL bytes are ``repr(float(v))`` followed by ``end``."""
    rows = len(values)
    bits = values.view(np.uint64)
    biased = (bits >> _U(52)) & _EXPONENT
    fraction = bits & _FRACTION
    finite = biased != _EXPONENT
    nonzero = finite & ((biased | fraction) != _U(0))
    normal = biased != _U(0)
    c = np.where(normal, fraction | _HIDDEN, fraction)
    q = np.where(normal, biased.astype(np.int64), 1) - 1075
    # zero, inf and nan are laid out as 0.0, then the latter two rewritten
    digits = np.zeros(rows, dtype=np.uint64)
    last = np.zeros(rows, dtype=np.int64)  # exponent of the last digit
    if nonzero.all():
        digits, last = _shortest(c, q)
    elif nonzero.any():
        digits[nonzero], last[nonzero] = _shortest(c[nonzero], q[nonzero])
    n = np.maximum(np.searchsorted(_POW10, digits, side="right"), 1)
    decpt = n + last
    sci = (decpt <= -4) | (decpt > 16)
    lone = sci & (n == 1)  # d e±XX, no point
    # weights (powers of ten) of the first and last digit as laid out:
    # the point follows weight 0, and d.ddde±XX is laid out as d.ddd
    top = np.where(sci, -lone.astype(np.int64), np.maximum(decpt, 1) - 1)
    last = np.where(sci, top + 1 - n, last)
    suffix = np.where(sci, _SUFFIX - _EXP_MIN + decpt - 1, np.maximum(last + 1, 0))
    table, lengths = _suffixes(end)

    # one line per value: its digits right aligned in _FIELD columns,
    # after the zeros between a fixed-notation value's point and its
    # digits, then the suffix; NUL elsewhere
    int_w = int(top.max()) + 1
    width = int_w + int((lengths.take(suffix) - last).max())
    left = max(int_w - int(last.min()) - _FIELD, 0)
    right = max(int(last.max()) + width - int_w - _SUFFIX - 1, 0)
    line = np.zeros((rows, left + _FIELD + _SUFFIX + 1 + right), dtype=np.uint8)
    high, low = np.divmod(digits, _POW10[16])
    middle, low = np.divmod(low, _POW10[8])
    quads = np.empty((rows, _FIELD // 4), dtype=np.intp)
    quads[:, 0] = 0
    quads[:, 1] = high
    quads[:, 2], quads[:, 3] = np.divmod(middle.astype(np.intp), 10**4)
    quads[:, 4], quads[:, 5] = np.divmod(low.astype(np.intp), 10**4)
    field = line[:, left : left + _FIELD]
    field[...] = _digit_quads().take(quads).view(np.uint8)
    field *= _lead_masks().take(_FIELD - 1 - top + last).view(np.uint8).reshape(rows, _FIELD)
    tail = table.take(suffix).view(np.uint8).reshape(rows, _SUFFIX + 1)
    line[:, left + _FIELD : left + _FIELD + _SUFFIX + 1] = tail
    # the window of weights int_w - 1 down to int_w - width, one opaque
    # item per line; weight last is at column left + _FIELD - 1
    start = left + _FIELD - int_w + last
    windows = np.ndarray(
        (rows, line.shape[1] - width + 1),
        dtype=np.dtype((np.void, width)),
        buffer=line,
        strides=(line.shape[1], 1),
    )
    window = windows[np.arange(rows), start].view(np.uint8).reshape(rows, width)

    # a sign column, the integer digits, the point, the rest
    cells = np.empty((rows, width + 2), dtype=np.uint8)
    cells[:, 0] = 0
    cells[:, 1 : int_w + 1] = window[:, :int_w]
    cells[:, int_w + 1] = _POINT
    cells[:, int_w + 2 :] = window[:, int_w:]
    cells[lone, int_w + 1] = 0
    nan = ~finite & (fraction != _U(0))
    special = np.flatnonzero(~finite)
    if special.size:
        words = np.frombuffer(b"naninf", dtype=np.uint8).reshape(2, 3)
        cells[special, int_w : int_w + 3] = np.where(nan[special, None], *words)
    # the sign goes just before the first character
    minus = np.flatnonzero((bits >> _U(63)).astype(bool) & ~nan)
    cells[minus, int_w - 1 - top[minus] + lone[minus]] = _MINUS
    return cells


def _float64(values) -> np.ndarray:
    return np.ascontiguousarray(values, dtype=np.float64).ravel()


class DensityRows:
    """The ``t,x,rho`` CSV rows of density frames on the points ``x``."""

    def __init__(self, x):
        x = _float64(x)
        self._x_cells = [_cells(x[i : i + BLOCK], b",") for i in range(0, len(x), BLOCK)]

    def frame(self, t: float, rho) -> bytes:
        """One ``repr(t),repr(x),repr(rho)`` row per point, joined; ``rho``
        holds one value per point."""
        t_cell = np.frombuffer(repr(float(t)).encode() + b",", dtype=np.uint8)
        rho = _float64(rho)
        out = []
        for i, x_cells in zip(range(0, len(rho), BLOCK), self._x_cells):
            t_cells = np.broadcast_to(t_cell, (len(x_cells), len(t_cell)))
            rows = np.hstack([t_cells, x_cells, _cells(rho[i : i + BLOCK], b"\n")])
            out.append(rows[rows != 0].tobytes())
        return b"".join(out)
