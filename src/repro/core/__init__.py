"""The paper's contribution, assembled: the all-pairs weak-RSA-key attack.

Pipeline: take ``m`` public moduli, schedule all ``m(m−1)/2`` pairs the way
Section VI assigns them to CUDA blocks (:mod:`repro.core.pairing`), compute
every pair's GCD with early-terminating Approximate Euclid on the bulk SIMT
engine (:mod:`repro.core.attack`), and turn every non-trivial GCD into a
fully recovered private key (:func:`repro.rsa.keys.recover_key`).

:mod:`repro.core.batch_gcd` implements the Bernstein product/remainder-tree
batch GCD — the approach of the "fastgcd" tooling used by Heninger et al. —
as the modern baseline the all-pairs method is traded off against: batch GCD
is asymptotically far cheaper but needs big-integer multiplication machinery
and large memory, while all-pairs GCD is embarrassingly parallel with tiny
working state, which is exactly the niche the paper's GPU kernel targets.
"""

from repro.core.attack import (
    AttackReport,
    WeakHit,
    break_keys,
    find_shared_primes,
    group_batch_hits,
)
from repro.core.batch_gcd import batch_gcd, product_tree
from repro.core.incremental import BatchReport, IncrementalScanner
from repro.core.pairing import BlockTask, all_pair_count, block_schedule, block_pairs
from repro.core.parallel import find_shared_primes_parallel
from repro.core.pipeline import (
    PipelineConfig,
    PipelineResult,
    quick_check,
    run_pipeline,
)

__all__ = [
    "AttackReport",
    "BatchReport",
    "BlockTask",
    "IncrementalScanner",
    "PipelineConfig",
    "PipelineResult",
    "WeakHit",
    "all_pair_count",
    "batch_gcd",
    "block_pairs",
    "block_schedule",
    "break_keys",
    "find_shared_primes",
    "find_shared_primes_parallel",
    "group_batch_hits",
    "product_tree",
    "quick_check",
    "run_pipeline",
]
