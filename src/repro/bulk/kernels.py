"""Vectorised word kernels for the bulk SIMT engine.

Every function here is an array expression over the *pair* (column) axis;
loops run only over word indices (``capacity`` iterations), never over
pairs.  Words are ``d``-bit values in uint64 lanes with ``d ≤ 32``, so a
multiply-accumulate ``α·y + borrow`` can never overflow 64 bits — the same
headroom argument the paper uses for its 64-bit ``z`` register in
Section IV.

The word-matrix kernels work **in place**, the way the paper's kernel
streams its operands: ``X ← X − α·Y`` reads a row of X and a row of Y and
writes the row of X back; the right shift that follows rewrites X row by
row in ascending order.  Scratch is per-lane (one word per column), never
a second matrix.  Each takes a numpy-style ``out=``; without it the kernel
works on a copy and leaves its input alone.

Masking convention: there is no commit step.  A lane that must not move
gets the identity operation — α = 0 in the subtract-multiply, a shift of 0
bits in the right shift — so every column runs the same instruction
stream and inactive lanes ride along unchanged.  That is exactly the cost
model of a SIMT machine: inactive lanes ride along for free but are never
written back.
"""

from __future__ import annotations

import numpy as np

from repro.bulk.layout import BulkOperands

__all__ = [
    "bit_length_u64",
    "word_bit_length",
    "trailing_zeros_u64",
    "lengths_from_words",
    "trim_lengths",
    "compare_bulk",
    "swap_columns",
    "subtract_mul_bulk",
    "rshift_strip_bulk",
    "shift_right_one_bulk",
    "halve_columns",
    "approx_bulk",
]

_ONE = np.uint64(1)
_LOW32 = np.uint64(0xFFFFFFFF)
_32 = np.uint64(32)


def word_bit_length(v: np.ndarray) -> np.ndarray:
    """Per-element bit length of values below ``2^53`` (0 for 0).

    ``frexp`` writes ``v = m·2^e`` with ``½ ≤ m < 1``, so ``e`` is the bit
    length — exact while ``v`` converts to float64 without rounding, which
    covers every ``d ≤ 32``-bit word.
    """
    return np.frexp(v.astype(np.float64))[1].astype(np.int64)


def bit_length_u64(v: np.ndarray) -> np.ndarray:
    """Per-element bit length of a uint64 array (0 for 0), exact to 64 bits."""
    v = np.asarray(v, dtype=np.uint64)
    hi = v >> _32
    return np.where(hi != 0, word_bit_length(hi) + 32, word_bit_length(v & _LOW32))


def trailing_zeros_u64(v: np.ndarray) -> np.ndarray:
    """Per-element count of trailing zero bits (0 for 0, by convention).

    The lowest set bit ``v & −v`` is a power of two, which float64 holds
    exactly for any 64-bit input, so its ``frexp`` exponent is exact too.
    """
    v = np.asarray(v, dtype=np.uint64)
    low = v & (~v + _ONE)
    return np.maximum(word_bit_length(low) - 1, 0)


def lengths_from_words(words: np.ndarray) -> np.ndarray:
    """Significant word count per column of a zero-tailed word matrix."""
    cap = words.shape[0]
    nz = words != 0
    any_nz = nz.any(axis=0)
    return np.where(any_nz, cap - np.argmax(nz[::-1, :], axis=0), 0).astype(np.int64)


def trim_lengths(words: np.ndarray, bound: np.ndarray) -> np.ndarray:
    """Significant word counts, given a per-column upper bound.

    Lengths only shrink under subtraction and right shifts, so the engine
    passes the lengths from before the step and this drops zero top words
    until every column's top word is nonzero — a handful of per-lane
    gathers instead of a rescan of the whole matrix.  Equals
    :func:`lengths_from_words` whenever ``bound`` is a valid upper bound.
    """
    lengths = np.array(bound, dtype=np.int64)
    lanes = np.arange(words.shape[1])
    while True:
        top = words[np.maximum(lengths - 1, 0), lanes]
        drop = (top == 0) & (lengths > 0)
        if not drop.any():
            return lengths
        lengths -= drop


def compare_bulk(x: BulkOperands, y: BulkOperands) -> np.ndarray:
    """Column-wise three-way compare (int8: −1, 0, +1).

    Lengths decide first (registers); ties fall to a top-down word sweep —
    the zero-tail invariant makes the sweep valid for equal lengths.
    """
    cmp = np.sign(x.lengths - y.lengths).astype(np.int8)
    undecided = cmp == 0
    top = min(
        x.capacity,
        max(int(x.lengths.max(initial=0)), int(y.lengths.max(initial=0)), 1),
    )
    for i in range(top - 1, -1, -1):
        if not undecided.any():
            break
        xi = x.words[i]
        yi = y.words[i]
        c = (xi > yi).astype(np.int8) - (xi < yi).astype(np.int8)
        cmp = np.where(undecided, c, cmp)
        undecided &= c == 0
    return cmp


def swap_columns(x: BulkOperands, y: BulkOperands, mask: np.ndarray) -> None:
    """Exchange X and Y in the masked columns.

    The scalar implementation swaps pointers; so does this one when most
    columns swap (after an approx step nearly all of them do): the two
    word matrices trade places, which moves no data, and the columns that
    must *not* swap are then swapped back.  The remaining columns exchange
    in place with three masked XOR passes — no copy of either matrix.  Only
    rows below the highest significant word are touched (the tails are
    zero in both operands, so swapping them would be a no-op).
    """
    count = int(np.count_nonzero(mask))
    if count == 0:
        return
    if 2 * count > mask.size and x.words.shape == y.words.shape:
        x.words, y.words = y.words, x.words
        x.lengths, y.lengths = y.lengths, x.lengths
        mask = ~mask
        if count == mask.size:
            return
    hi = max(int(x.lengths.max(initial=0)), int(y.lengths.max(initial=0)), 1)
    xs = x.words[:hi]
    ys = y.words[:hi]
    np.bitwise_xor(xs, ys, out=xs, where=mask)
    np.bitwise_xor(ys, xs, out=ys, where=mask)
    np.bitwise_xor(xs, ys, out=xs, where=mask)
    lx = x.lengths
    x.lengths = np.where(mask, y.lengths, lx)
    y.lengths = np.where(mask, lx, y.lengths)


def _working_copy(words: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    """``out`` holding ``words`` (a fresh copy when ``out`` is None)."""
    if out is None:
        return words.copy()
    if out is not words:
        np.copyto(out, words)
    return out


def subtract_mul_bulk(
    xw: np.ndarray,
    yw: np.ndarray,
    alpha: np.ndarray,
    d: int,
    *,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """``X − α·Y`` column-wise with a fused multiply-borrow chain.

    ``alpha`` is per-column (uint64, ``< 2^d``; 0 leaves a lane
    bit-identical).  Pass ``out=xw`` to update X in place, one row at a
    time as the borrow climbs.  Returns ``(out, final_borrow)``; a nonzero
    final borrow marks a lane whose precondition ``X ≥ α·Y`` did not hold
    (the engine asserts it is zero on every lane it moves).
    """
    t = _working_copy(xw, out)
    du = np.uint64(d)
    mask = (_ONE << du) - _ONE
    n = t.shape[1]
    borrow = np.zeros(n, dtype=np.uint64)
    m = np.empty(n, dtype=np.uint64)
    for i in range(t.shape[0]):
        ti = t[i]
        # ti − (α·y + borrow) wraps mod 2^64; its low d bits are the digit
        # and the borrow out is ⌈(α·y + borrow − x)/2^d⌉, which is
        # (mask − wrapped difference) >> d with no overflow (see Section IV
        # headroom: α·y + borrow < 2^(2d))
        np.multiply(alpha, yw[i], out=m)
        m += borrow
        ti -= m
        np.subtract(mask, ti, out=borrow)
        borrow >>= du
    t &= mask
    return t, borrow


def _shift_right_columns(t: np.ndarray, shift: np.ndarray, d: int) -> None:
    """``T >> shift`` per column, in place, for shifts in ``[0, d)``.

    Rows are rewritten in ascending order, so row ``i`` reads row ``i+1``
    before row ``i+1`` is itself rewritten — the vector form of the
    paper's streamed ``z``/``r`` shift.  A shift of 0 is the identity.
    """
    du = np.uint64(d)
    rows = t.shape[0]
    carry = np.empty(t.shape[1], dtype=np.uint64)
    for i in range(rows - 1):
        ti = t[i]
        np.left_shift(t[i + 1], du, out=carry)
        ti |= carry
        ti >>= shift
    t[rows - 1] >>= shift
    t &= (_ONE << du) - _ONE


def _strip_zero_low_words(t: np.ndarray, lanes: np.ndarray, d: int) -> None:
    """Strip trailing zeros of columns whose low word is entirely zero.

    The per-column shift is ``k·d + tz``: ``k`` whole zero words (found
    with one argmax) plus ``tz`` bits inside the first nonzero word, built
    from gathered rows ``i+k`` and ``i+k+1`` of a copy of those columns.
    Such columns are rare (about ``2^-d`` per lane-trip), so the copy is
    small.  All-zero columns stay zero.
    """
    cap = t.shape[0]
    du = np.uint64(d)
    mask = (_ONE << du) - _ONE
    sub = t[:, lanes]
    n = sub.shape[1]
    nz = sub != 0
    any_nz = nz.any(axis=0)
    k = np.argmax(nz, axis=0)  # index of first nonzero word (0 if none)
    first = sub[k, np.arange(n)]
    tz = trailing_zeros_u64(np.where(any_nz, first, _ONE)).astype(np.uint64)
    pad = np.vstack([sub, np.zeros((1, n), dtype=np.uint64)])
    rows = np.arange(cap)[:, None] + k[None, :]
    np.minimum(rows, cap, out=rows)
    a = np.take_along_axis(pad, rows, axis=0)
    b = np.take_along_axis(pad, np.minimum(rows + 1, cap), axis=0)
    res = ((a >> tz) | ((b << (du - tz)) & mask)) & mask
    t[:, lanes] = np.where(any_nz[None, :], res, np.uint64(0))


def rshift_strip_bulk(
    t: np.ndarray,
    d: int,
    *,
    out: np.ndarray | None = None,
    lengths: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Strip all trailing zero bits from each column of ``T``.

    Odd and all-zero columns are left as they are.  Pass ``out=t`` to shift
    in place; ``lengths`` is a per-column upper bound on the significant
    words of ``T`` (default: the full height), from which the new lengths
    are trimmed.  Returns ``(out, new_lengths)``.
    """
    out = _working_copy(t, out)
    zero_low = np.flatnonzero(out[0] == 0)
    _shift_right_columns(out, trailing_zeros_u64(out[0]).astype(np.uint64), d)
    if zero_low.size:
        # only reached when some difference is ≡ 0 mod 2^d: the in-place
        # pass left those columns alone (their shift was 0)
        _strip_zero_low_words(out, zero_low, d)
    if lengths is None:
        lengths = np.full(out.shape[1], out.shape[0], dtype=np.int64)
    return out, trim_lengths(out, lengths)


def shift_right_one_bulk(
    t: np.ndarray, d: int, *, out: np.ndarray | None = None
) -> np.ndarray:
    """Column-wise exact halving of even values: ``T >> 1`` across words."""
    out = _working_copy(t, out)
    _shift_right_columns(out, np.ones(out.shape[1], dtype=np.uint64), d)
    return out


def halve_columns(x: BulkOperands, mask: np.ndarray) -> None:
    """``X ← X/2`` in the masked columns (values there must be even)."""
    hi = max(int(x.lengths.max(initial=0)), 1)
    _shift_right_columns(x.words[:hi], mask.astype(np.uint64), x.d)
    x.lengths = trim_lengths(x.words, x.lengths)


#: integer codes for the approx cases, indexable by the engine's stats
CASE_CODES = {
    0: "1",
    1: "2-A",
    2: "2-B",
    3: "3-A",
    4: "3-B",
    5: "4-A",
    6: "4-B",
    7: "4-C",
}


def approx_bulk(
    x: BulkOperands, y: BulkOperands
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorised ``approx(X, Y)`` (paper Section III) for every column.

    Returns ``(alpha, beta, case_code)``.  Columns where ``l_X ≤ 2``
    (Case 1) get code 0 and placeholder α/β — the engine finishes those in
    its scalar endgame, as the paper's RSA kernel simply omits them.  Lanes
    with ``l_Y = 0`` produce garbage; the engine gives them α = 0.
    """
    d = x.d
    du = np.uint64(d)
    n = x.n
    ar = np.arange(n)
    lx = x.lengths
    ly = y.lengths

    xw, yw = x.words, y.words
    x1 = xw[np.maximum(lx - 1, 0), ar]
    x2 = xw[np.maximum(lx - 2, 0), ar]
    x12 = (x1 << du) | x2
    y1 = yw[np.maximum(ly - 1, 0), ar]
    y2 = yw[np.maximum(ly - 2, 0), ar]
    y12 = (y1 << du) | y2

    one = np.uint64(1)

    def div(num, den):
        return num // np.maximum(den, one)

    # Case 4 (both ≥ 3 words) is the RSA common case: compute it for every
    # column, then overlay the rarer cases where they occur
    # y12+1 can only wrap when 4-A is impossible
    c4a = x12 > y12
    c4b = ~c4a & (lx > ly)
    alpha = np.where(
        c4a, div(x12, y12 + one), np.where(c4b, div(x12, y1 + one), one)
    )
    beta = np.where(c4a, lx - ly, np.where(c4b, lx - ly - 1, 0)).astype(np.int64)
    code = np.where(c4a, 5, np.where(c4b, 6, 7)).astype(np.int8)

    is_case1 = lx <= 2
    is_case2 = ~is_case1 & (ly == 1)
    if is_case2.any():
        # Case 2 (l_Y == 1): y1 is Y itself
        c2a = x1 >= y1
        np.copyto(alpha, np.where(c2a, div(x1, y1), div(x12, y1)), where=is_case2)
        np.copyto(beta, np.where(c2a, lx - 1, lx - 2), where=is_case2)
        np.copyto(code, np.where(c2a, 1, 2), where=is_case2, casting="unsafe")
    is_case3 = ~is_case1 & (ly == 2)
    if is_case3.any():
        # Case 3 (l_Y == 2): y12 is Y itself
        c3a = x12 >= y12
        np.copyto(alpha, np.where(c3a, div(x12, y12), div(x12, y1 + one)), where=is_case3)
        np.copyto(beta, np.where(c3a, lx - 2, lx - 3), where=is_case3)
        np.copyto(code, np.where(c3a, 3, 4), where=is_case3, casting="unsafe")
    if is_case1.any():
        alpha[is_case1] = one
        beta[is_case1] = 0
        code[is_case1] = 0
    return alpha, beta, code
