"""Tests for the multiprocessing all-pairs attack backend."""

import pytest

from repro.core.attack import find_shared_primes
from repro.core.parallel import find_shared_primes_parallel
from repro.rsa.corpus import generate_weak_corpus

BITS = 64


@pytest.fixture(scope="module")
def corpus():
    return generate_weak_corpus(20, BITS, shared_groups=(2, 2), seed=21)


class TestParallelBackend:
    def test_matches_serial_results(self, corpus):
        serial = find_shared_primes(corpus.moduli, backend="bulk", group_size=8)
        parallel = find_shared_primes_parallel(corpus.moduli, processes=2, group_size=8)
        assert parallel.hit_pairs == serial.hit_pairs == corpus.weak_pair_set()
        assert parallel.pairs_tested == serial.pairs_tested
        assert [h.prime for h in parallel.hits] == [h.prime for h in serial.hits]

    def test_single_process(self, corpus):
        rep = find_shared_primes_parallel(corpus.moduli, processes=1, group_size=8)
        assert rep.hit_pairs == corpus.weak_pair_set()

    def test_group_size_invariance(self, corpus):
        a = find_shared_primes_parallel(corpus.moduli, processes=2, group_size=3)
        b = find_shared_primes_parallel(corpus.moduli, processes=2, group_size=20)
        assert a.hit_pairs == b.hit_pairs

    def test_no_early_terminate(self, corpus):
        rep = find_shared_primes_parallel(
            corpus.moduli, processes=2, group_size=8, early_terminate=False
        )
        assert rep.hit_pairs == corpus.weak_pair_set()

    def test_accounting(self, corpus):
        rep = find_shared_primes_parallel(corpus.moduli, processes=2, group_size=8)
        m = corpus.n_keys
        assert rep.m == m
        assert rep.pairs_tested == m * (m - 1) // 2
        assert rep.backend == "parallel"
        assert rep.blocks > 0
        assert rep.loop_trips > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            find_shared_primes_parallel([15])
        with pytest.raises(ValueError):
            find_shared_primes_parallel([15, 22])
