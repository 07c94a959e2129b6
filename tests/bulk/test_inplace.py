"""The in-place lock-step trip: parity with the scalar reference, identity
lanes, the rare paths, and a bound on what one bulk run allocates."""

import math
import random
import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bulk.engine import BulkGcdEngine
from repro.bulk.kernels import (
    lengths_from_words,
    rshift_strip_bulk,
    subtract_mul_bulk,
    swap_columns,
    trim_lengths,
)
from repro.bulk.layout import BulkOperands
from repro.gcd.reference import GcdStats, gcd_approx, gcd_binary, gcd_fast_binary
from repro.util.bits import rshift_to_odd

REFERENCE = {
    "approx": gcd_approx,
    "fast_binary": gcd_fast_binary,
    "binary": gcd_binary,
}

odd_operand = st.integers(min_value=2, max_value=300).flatmap(
    lambda bits: st.integers(min_value=1 << (bits - 1), max_value=(1 << bits) - 1)
).map(lambda v: v | 1)


def _reference(algorithm, a, b, d, stop_bits):
    stats = GcdStats()
    fn = REFERENCE[algorithm]
    kwargs = {"d": d} if algorithm == "approx" else {}
    g = fn(a, b, stop_bits=stop_bits, stats=stats, **kwargs)
    return g, stats.iterations, stats.early_terminated


@given(
    pairs=st.lists(st.tuples(odd_operand, odd_operand), min_size=1, max_size=12),
    d=st.integers(min_value=2, max_value=32),
    algorithm=st.sampled_from(sorted(REFERENCE)),
    compact=st.booleans(),
    stop_bits=st.one_of(st.none(), st.integers(min_value=2, max_value=150)),
)
@settings(max_examples=40, deadline=None)
def test_engine_matches_scalar_reference(pairs, d, algorithm, compact, stop_bits):
    r = BulkGcdEngine(d=d, algorithm=algorithm).run_pairs(
        pairs, stop_bits=stop_bits, compact=compact
    )
    for j, (a, b) in enumerate(pairs):
        g, iters, early = _reference(algorithm, a, b, d, stop_bits)
        assert r.gcds[j] == g
        if not early:
            assert g == math.gcd(a, b)
        assert int(r.iterations[j]) == iters
        assert bool(r.early_terminated[j]) == early
    assert r.loop_trips == int(r.iterations.max())


def _ops(values, d, cap):
    return BulkOperands.from_ints(values, d, cap)


def test_alpha_zero_lanes_are_bit_identical():
    rng = random.Random("alpha-zero")
    d, cap, n = 32, 10, 64
    ys = [rng.getrandbits(200) | 1 for _ in range(n)]
    alphas = [rng.getrandbits(d) | 1 if j % 3 else 0 for j in range(n)]
    xs = [a * y + rng.getrandbits(150) for a, y in zip(alphas, ys)]
    x = _ops(xs, d, cap)
    y = _ops(ys, d, cap)
    before = x.words.copy()
    alpha = np.array(alphas, dtype=np.uint64)
    out, borrow = subtract_mul_bulk(x.words, y.words, alpha, d, out=x.words)
    assert out is x.words
    assert (borrow == 0).all()
    idle = alpha == 0
    assert np.array_equal(x.words[:, idle], before[:, idle])
    x.lengths = lengths_from_words(x.words)
    assert x.to_ints() == [xv - a * yv for xv, yv, a in zip(xs, ys, alphas)]


def test_whole_zero_low_word_in_place():
    # X − α·Y ≡ 0 mod 2^d: the low difference word is all zero (twice over
    # in the first column), which the in-place shift hands to the gather path
    d = 8
    ys = [0xB7, 0x1_2345, 0xABCDEF]
    alphas = [3, 5, 1]
    tails = [7 << (2 * d), 3 << d, 0x35]
    xs = [a * y + t for a, y, t in zip(alphas, ys, tails)]
    cap = 5
    x = _ops(xs, d, cap)
    y = _ops(ys, d, cap)
    bound = x.lengths.copy()
    subtract_mul_bulk(x.words, y.words, np.array(alphas, dtype=np.uint64), d, out=x.words)
    assert x.words[0, 0] == 0 and x.words[0, 1] == 0 and x.words[0, 2] != 0
    _, x.lengths = rshift_strip_bulk(x.words, d, out=x.words, lengths=bound)
    assert x.to_ints() == [rshift_to_odd(t) for t in tails]
    x.check()


def test_whole_zero_low_word_through_the_engine():
    d = 8
    y = 0x9D_4F_13
    pairs = [(y + (3 << (2 * d)), y), (y + (5 << d), y), (0xF00D1, 0xBEE5)]
    for algorithm in REFERENCE:
        r = BulkGcdEngine(d=d, algorithm=algorithm).run_pairs(pairs)
        assert r.gcds == [math.gcd(a, b) for a, b in pairs]
        for j, (a, b) in enumerate(pairs):
            assert int(r.iterations[j]) == _reference(algorithm, a, b, d, None)[1]


class TestXorSwap:
    XS = [1, 2 << 40, 3, 4 << 70, 5, 6]
    YS = [10 << 80, 20, 30 << 33, 40, 50, 60 << 9]

    def _swap(self, mask):
        x = _ops(self.XS, 16, 7)
        y = _ops(self.YS, 16, 7)
        swap_columns(x, y, np.array(mask))
        x.check()
        y.check()
        return x.to_ints(), y.to_ints()

    def _expected(self, mask):
        return (
            [b if m else a for a, b, m in zip(self.XS, self.YS, mask)],
            [a if m else b for a, b, m in zip(self.XS, self.YS, mask)],
        )

    def test_all(self):
        mask = [True] * 6
        assert self._swap(mask) == self._expected(mask)

    def test_none(self):
        mask = [False] * 6
        assert self._swap(mask) == (self.XS, self.YS)

    def test_alternating(self):
        for mask in ([True, False] * 3, [False, True] * 3):
            assert self._swap(mask) == self._expected(mask)

    def test_most(self):
        mask = [True, True, False, True, True, True]
        assert self._swap(mask) == self._expected(mask)


@given(
    st.lists(st.integers(min_value=0, max_value=1 << 250), min_size=1, max_size=20),
    st.sampled_from([2, 7, 16, 32]),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_incremental_lengths_equal_rescan(values, d, data):
    ops = BulkOperands.from_ints(values, d)
    cap = ops.capacity
    bound = [
        data.draw(st.integers(min_value=int(ln), max_value=cap)) for ln in ops.lengths
    ]
    got = trim_lengths(ops.words, np.array(bound, dtype=np.int64))
    assert got.tolist() == lengths_from_words(ops.words).tolist()


def test_run_allocates_at_most_twice_the_operands():
    # one paper-sized block: all 2016 pairs of 64 moduli of 1024 bits,
    # early-terminated and compacted as the scan runs it
    rng = random.Random("alloc-guard")
    moduli = [rng.getrandbits(1024) | (1 << 1023) | 1 for _ in range(64)]
    pairs = [(a, b) for i, a in enumerate(moduli) for b in moduli[i + 1 :]]
    operand_bytes = 2 * (1024 // 32) * len(pairs) * 8
    engine = BulkGcdEngine(d=32)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        r = engine.run_pairs(pairs, stop_bits=512, compact=True)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(r.gcds) == 2016
    assert peak <= 2 * operand_bytes, f"peak {peak / operand_bytes:.2f}x of X + Y"
