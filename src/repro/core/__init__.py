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

from repro._lazy import lazy_exports

# ``batch_gcd`` is also the name of a submodule: bind the functions eagerly,
# or the first import of ``repro.core.batch_gcd`` (``repro.cli`` makes it
# through ``repro.core.attack``) would rebind the name to the module
from repro.core.batch_gcd import batch_gcd, product_tree

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

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.core.attack": (
        "AttackReport", "WeakHit", "break_keys", "find_shared_primes", "group_batch_hits",
    ),
    "repro.core.incremental": ("BatchReport", "IncrementalScanner"),
    "repro.core.pairing": ("BlockTask", "all_pair_count", "block_schedule", "block_pairs"),
    "repro.core.parallel": ("find_shared_primes_parallel",),
    "repro.core.pipeline": ("PipelineConfig", "PipelineResult", "quick_check", "run_pipeline"),
})
