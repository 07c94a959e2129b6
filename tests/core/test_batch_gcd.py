"""Tests for the product-tree + cofactor-descent batch GCD baseline."""

import math
import operator
import random
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.batch_gcd import batch_gcd, cofactor_tree, product_tree
from repro.core.pipeline import PipelineConfig, run_pipeline
from repro.core.spool import read_blob
from repro.telemetry import Telemetry


class TestProductTree:
    @given(st.lists(st.integers(min_value=1, max_value=1 << 64), min_size=1, max_size=30))
    @settings(max_examples=100)
    def test_root_is_total_product(self, values):
        levels = product_tree(values)
        assert levels[-1][0] == math.prod(values)
        assert levels[0] == values

    def test_odd_level_carries_last(self):
        levels = product_tree([2, 3, 5])
        assert levels[1] == [6, 5]
        assert levels[2] == [30]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            product_tree([])

    def test_keep_levels_false_returns_root_only(self):
        values = [3, 5, 7, 11]
        assert product_tree(values, keep_levels=False) == [[3 * 5 * 7 * 11]]

    @given(st.lists(st.integers(min_value=1, max_value=1 << 32), min_size=1, max_size=25))
    @settings(max_examples=50)
    def test_keep_levels_false_same_root(self, values):
        full = product_tree(values)
        assert product_tree(values, keep_levels=False) == [full[-1]]

    @pytest.mark.parametrize("m", [4, 8, 16, 64])
    def test_peak_retained_nodes_regression(self, m):
        # keep_levels=True retains the whole tree: 2m-1 nodes for power-of-two
        # m.  The root-only path holds only the current level plus the one
        # being built: m + m/2 at its peak — the regression this guards.
        tel_full = Telemetry.create()
        product_tree([3] * m, telemetry=tel_full)
        tel_lean = Telemetry.create()
        product_tree([3] * m, keep_levels=False, telemetry=tel_lean)
        peak = lambda t: t.registry.gauge("batch.peak_retained_nodes").value
        assert peak(tel_full) == 2 * m - 1
        assert peak(tel_lean) == m + m // 2
        assert peak(tel_lean) < peak(tel_full)


class TestCofactorTree:
    @given(st.lists(st.integers(min_value=2, max_value=1 << 48), min_size=1, max_size=20))
    @settings(max_examples=100)
    def test_leaves_are_cofactor_residues(self, values):
        levels = product_tree(values)
        n = levels[-1][0]
        assert cofactor_tree(levels) == [(n // v) % v for v in values]


#: small odd primes (so random draws collide: shared primes and duplicated
#: moduli) plus two Mersenne primes for multi-word operands
_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, (1 << 61) - 1, (1 << 89) - 1]
_MODULI = st.builds(operator.mul, st.sampled_from(_PRIMES), st.sampled_from(_PRIMES))


class TestCofactorDescentProperty:
    """The cofactor descent gives the squared remainder tree's leaf GCDs,
    in memory and through the disk-streamed pipeline alike."""

    @given(st.lists(_MODULI, min_size=1, max_size=40))
    @example([15])
    @example([15, 21])  # two moduli: the root's children are the leaves
    @example([33, 33])  # duplicated modulus: u = 0, so gcd = n
    @example([15, 21, 35])  # odd level: the carried node keeps its residue
    @example([3 * 5, 7 * 11, 13 * 17, 19 * 23, 29 * 31])  # odd twice, no shares
    @settings(max_examples=100, deadline=None)
    def test_batch_gcd_and_pipeline_match_squared_oracle(self, moduli):
        with tempfile.TemporaryDirectory() as spool:
            config = PipelineConfig(spool_dir=spool, retries=0)
            if len(moduli) < 2:
                with pytest.raises(ValueError):
                    batch_gcd(moduli)
                with pytest.raises(ValueError):
                    run_pipeline(moduli, config)
                return
            n_total = math.prod(moduli)
            oracle = [math.gcd(n, (n_total % (n * n)) // n) for n in moduli]
            assert batch_gcd(moduli) == oracle
            run_pipeline(moduli, config)
            assert read_blob(f"{spool}/gcds.bin") == oracle


class TestBatchGcd:
    def test_disjoint_moduli_all_one(self):
        ns = [7 * 11, 13 * 17, 19 * 23]
        assert batch_gcd(ns) == [1, 1, 1]

    def test_single_shared_prime(self):
        p, q1, q2, r1, r2 = 101, 103, 107, 109, 113
        ns = [p * q1, p * q2, r1 * r2]
        assert batch_gcd(ns) == [p, p, 1]

    def test_three_way_share(self):
        p = 1009
        ns = [p * 1013, p * 1019, p * 1021]
        assert batch_gcd(ns) == [p, p, p]

    def test_duplicate_modulus_returns_itself(self):
        n = 101 * 103
        out = batch_gcd([n, n, 107 * 109])
        assert out[0] == n and out[1] == n and out[2] == 1

    def test_matches_pairwise_definition(self):
        rng = random.Random(0)
        primes = [1009, 1013, 1019, 1021, 1031, 1033, 1039, 1049]
        ns = [rng.choice(primes) * rng.choice(primes) for _ in range(10)]
        got = batch_gcd(ns)
        for i, n in enumerate(ns):
            others = math.prod(ns[:i] + ns[i + 1 :])
            assert got[i] == math.gcd(n, (others % n)) or got[i] == math.gcd(n, others)

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_agrees_with_allpairs_on_random_weak_corpora(self, data):
        primes = [10007, 10009, 10037, 10039, 10061, 10067, 10069, 10079, 10091, 10093]
        k = data.draw(st.integers(min_value=2, max_value=8))
        pairs = [
            tuple(data.draw(st.sampled_from(primes)) for _ in range(2)) for _ in range(k)
        ]
        ns = [a * b for a, b in pairs if a != b]
        if len(ns) < 2:
            return
        got = batch_gcd(ns)
        for i, n in enumerate(ns):
            expect = 1
            for j, m in enumerate(ns):
                if i != j:
                    expect = math.lcm(expect, math.gcd(n, m)) if expect else math.gcd(n, m)
            # batch value divides n and is divisible by every pairwise gcd
            assert got[i] % expect == 0
            assert n % got[i] == 0

    def test_too_few_moduli(self):
        with pytest.raises(ValueError):
            batch_gcd([15])

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            batch_gcd([15, 0])
