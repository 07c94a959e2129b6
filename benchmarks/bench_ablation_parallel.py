"""Ablation: multicore scaling of the all-pairs attack.

The paper contrasts GPUs with multicore CPUs; here the same Section VI
block schedule fans out over worker processes.  Blocks are independent, so
speedup should track core count until per-block batches get too small.
Also covers the incremental (streamed) scanner's overhead vs a one-shot
scan of the same corpus.
"""

import os
import time

from conftest import weak_corpus

from repro.core.attack import find_shared_primes
from repro.core.incremental import IncrementalScanner
from repro.core.parallel import find_shared_primes_parallel

BITS = 128
M = 128


def test_multicore_scaling(report):
    corpus = weak_corpus(M, BITS, groups=(2,))
    expected = corpus.weak_pair_set()
    lines = ["", f"== Ablation: multicore scaling (m={M}, {BITS}-bit) =="]
    t0 = time.perf_counter()
    serial = find_shared_primes(corpus.moduli, backend="bulk", group_size=64)
    t_serial = time.perf_counter() - t0
    assert serial.hit_pairs == expected
    lines.append(f"{'workers':>8} {'seconds':>9} {'speedup':>9}")
    lines.append(f"{'serial':>8} {t_serial:>9.3f} {1.0:>9.2f}")
    cores = os.cpu_count() or 1
    times = {}
    for workers in sorted({1, 2, min(4, cores)}):
        t0 = time.perf_counter()
        rep = find_shared_primes_parallel(
            corpus.moduli, processes=workers, group_size=64
        )
        times[workers] = time.perf_counter() - t0
        assert rep.hit_pairs == expected
        lines.append(f"{workers:>8} {times[workers]:>9.3f} {t_serial / times[workers]:>9.2f}")
    report(*lines)
    if cores >= 2:
        # more workers must not be dramatically slower than one worker
        assert times[min(4, cores)] < times[1] * 1.5


def test_incremental_vs_snapshot(report):
    corpus = weak_corpus(96, BITS, groups=(2, 2))
    expected = corpus.weak_pair_set()

    t0 = time.perf_counter()
    snap = find_shared_primes(corpus.moduli, backend="bulk", group_size=48)
    t_snap = time.perf_counter() - t0
    assert snap.hit_pairs == expected

    t0 = time.perf_counter()
    scanner = IncrementalScanner(bits=BITS)
    found = set()
    for start in range(0, corpus.n_keys, 16):
        found |= scanner.add_batch(corpus.moduli[start : start + 16]).hit_pairs
    t_inc = time.perf_counter() - t0
    assert found == expected
    assert scanner.coverage_is_complete()

    report(
        "",
        "== Ablation: streamed vs snapshot scanning ==",
        f"snapshot: {t_snap:.3f}s; streamed in 6 batches: {t_inc:.3f}s "
        f"({t_inc / t_snap:.2f}x)",
        "same pair coverage, hits surfaced at batch arrival time",
    )


def test_bench_parallel_attack(benchmark):
    corpus = weak_corpus(64, BITS, groups=(2,))
    rep = benchmark.pedantic(
        find_shared_primes_parallel,
        args=(corpus.moduli,),
        kwargs={"processes": 2, "group_size": 32},
        rounds=3,
        iterations=1,
    )
    assert rep.hit_pairs == corpus.weak_pair_set()
