"""Differential tests: the python and gmpy2 int backends agree everywhere.

The backend seam (:mod:`repro.util.intops`) promises that every public
result — tree levels, batch-GCD vectors, pipeline hit lists, spool bytes,
generated primes — is *byte-identical* whichever backend computed it.
These tests hold that line by running each entry point under both backends
and comparing outputs exactly.  They are skipped (not passed vacuously)
when gmpy2 is absent; the CI matrix has a leg with gmpy2 installed so the
comparisons really run somewhere.

The tests at the bottom are backend-independent and always run: the
cofactor descent records one timing per level and reproduces the
textbook squared descent's leaves.
"""

import random

import pytest

from repro.core.attack import find_shared_primes
from repro.core.batch_gcd import batch_gcd, cofactor_tree, product_tree
from repro.core.pipeline import (
    PipelineConfig,
    quick_check,
    run_pipeline,
    stage_plan,
)
from repro.rsa.corpus import generate_weak_corpus
from repro.rsa.primes import generate_prime, is_prime
from repro.telemetry import Telemetry
from repro.util.intops import BACKEND_ENV, available_backends

GMPY2_AVAILABLE = "gmpy2" in available_backends()
needs_gmpy2 = pytest.mark.skipif(not GMPY2_AVAILABLE, reason="gmpy2 not installed")


@pytest.fixture(scope="module")
def corpus():
    return generate_weak_corpus(
        14, 96, shared_groups=(2, 3), duplicates=1, seed="parity"
    )


def _hit_triples(result):
    return sorted((h.i, h.j, h.prime) for h in result.hits)


# ------------------------------------------------------------ tree parity


@needs_gmpy2
def test_product_tree_levels_identical(corpus):
    py = product_tree(corpus.moduli, backend="python")
    gm = product_tree(corpus.moduli, backend="gmpy2")
    assert py == gm
    # public (non-native) results are plain ints under either backend
    assert all(type(v) is int for level in gm for v in level)


@needs_gmpy2
def test_cofactor_tree_identical(corpus):
    levels_py = product_tree(corpus.moduli, backend="python")
    assert cofactor_tree(levels_py, backend="python") == \
        cofactor_tree(levels_py, backend="gmpy2")


@needs_gmpy2
def test_batch_gcd_identical(corpus):
    py = batch_gcd(corpus.moduli, backend="python")
    gm = batch_gcd(corpus.moduli, backend="gmpy2")
    assert py == gm
    assert all(type(v) is int for v in gm)


@needs_gmpy2
def test_attack_reports_identical(corpus):
    py = find_shared_primes(corpus.moduli, backend="batch", int_backend="python")
    gm = find_shared_primes(corpus.moduli, backend="batch", int_backend="gmpy2")
    assert _hit_triples(py) == _hit_triples(gm)
    assert py.hit_pairs >= corpus.weak_pair_set()


# -------------------------------------------------------- pipeline parity


@needs_gmpy2
def test_pipeline_spools_byte_identical(corpus, tmp_path):
    """Not just the hits: every stage blob on disk matches byte-for-byte,
    so a spool written by one backend is a valid checkpoint for the other."""
    dirs = {}
    for name in ("python", "gmpy2"):
        d = tmp_path / name
        run_pipeline(
            corpus.moduli, PipelineConfig(spool_dir=d, backend=name)
        )
        dirs[name] = d
    for _, blob in stage_plan(len(corpus.moduli)):
        py_bytes = (dirs["python"] / blob).read_bytes()
        gm_bytes = (dirs["gmpy2"] / blob).read_bytes()
        assert py_bytes == gm_bytes, f"{blob} differs between backends"


@needs_gmpy2
def test_resume_across_backends(corpus, tmp_path):
    """A run started under python can be finished under gmpy2 (and vice
    versa) — the checkpoint format is backend-neutral."""

    class _Kill(RuntimeError):
        pass

    def kill_after(stage_name):
        def hook(stage):
            if stage == stage_name:
                raise _Kill(stage)
        return hook

    oracle = run_pipeline(
        corpus.moduli, PipelineConfig(spool_dir=tmp_path / "oracle")
    )
    for first, second in (("python", "gmpy2"), ("gmpy2", "python")):
        d = tmp_path / f"{first}-then-{second}"
        with pytest.raises(_Kill):
            run_pipeline(
                corpus.moduli,
                PipelineConfig(spool_dir=d, backend=first),
                _stage_hook=kill_after("product.2"),
            )
        resumed = run_pipeline(
            corpus.moduli,
            PipelineConfig(spool_dir=d, resume=True, backend=second),
        )
        assert resumed.resumed
        assert _hit_triples(resumed) == _hit_triples(oracle)


@needs_gmpy2
def test_quick_check_identical(corpus, tmp_path):
    run_pipeline(corpus.moduli, PipelineConfig(spool_dir=tmp_path, backend="python"))
    arrivals = [corpus.moduli[0], 7 * 11, 97 * 89]
    from_spool_py = quick_check(arrivals, spool_dir=tmp_path, backend="python")
    from_spool_gm = quick_check(arrivals, spool_dir=tmp_path, backend="gmpy2")
    in_memory_gm = quick_check(
        arrivals, corpus_moduli=corpus.moduli, backend="gmpy2"
    )
    assert from_spool_py == from_spool_gm == in_memory_gm
    # membership semantics survive the backend swap
    assert from_spool_gm[0] == corpus.moduli[0]
    assert all(type(v) is int for v in from_spool_gm)


# ------------------------------------------------------ prime-gen parity


@needs_gmpy2
def test_is_prime_verdicts_identical():
    mersenne = 2**127 - 1  # above the deterministic-base limit
    values = [mersenne, mersenne * (2**89 - 1), 2**128 + 51, 97, 91]
    for n in values:
        assert is_prime(n, backend="python") == is_prime(n, backend="gmpy2")


@needs_gmpy2
def test_generated_primes_identical_for_fixed_seed(monkeypatch):
    outs = {}
    for name in ("python", "gmpy2"):
        monkeypatch.setenv(BACKEND_ENV, name)
        outs[name] = [generate_prime(96, random.Random(1337)) for _ in range(4)]
    assert outs["python"] == outs["gmpy2"]


# ------------------------------------- backend-independent descent tests


def test_level_histograms_one_observation_per_level():
    moduli = generate_weak_corpus(8, 64, shared_groups=(2,), seed=5).moduli
    tel = Telemetry.create()
    batch_gcd(moduli, telemetry=tel)
    snap = tel.registry.snapshot()
    # 8 leaves -> levels [8, 4, 2, 1]: 3 product builds, 3 descents
    assert snap["histograms"]["batch.product_level_seconds"]["count"] == 3
    assert snap["histograms"]["batch.remainder_level_seconds"]["count"] == 3
    assert snap["gauges"]["batch.levels"] == 4


def test_cofactor_tree_matches_squared_descent():
    # the textbook descent carries N mod v² down the tree; its leaf value is
    # n times the cofactor residue (N/n) mod n the cofactor descent carries
    moduli = generate_weak_corpus(9, 64, shared_groups=(2,), seed=6).moduli
    levels = product_tree(moduli)
    N = levels[-1][0]
    naive = [N]
    for level in reversed(levels[:-1]):
        naive = [naive[k // 2] % (v * v) for k, v in enumerate(level)]
    assert cofactor_tree(levels) == [r // n for r, n in zip(naive, moduli)]
