"""repro — reproduction of "Bulk GCD Computation Using a GPU to Break Weak
RSA Keys" (Fujita, Nakano, Ito; IPDPSW 2015).

Top-level convenience API; see README.md for the tour, DESIGN.md for the
system inventory and EXPERIMENTS.md for paper-vs-measured results.

>>> from repro import gcd
>>> gcd(1043915, 768955)            # Approximate Euclid (algorithm E)
5

The heavy lifting lives in the subpackages:

* :mod:`repro.gcd`    — the five Euclidean algorithms and the approx estimator
* :mod:`repro.mp`     — instrumented word-array multiprecision substrate
* :mod:`repro.rsa`    — primes, keygen, weak-key corpora
* :mod:`repro.bulk`   — the NumPy SIMT bulk engine (GPU analog)
* :mod:`repro.gpusim` — the UMM memory-model simulator
* :mod:`repro.core`   — the all-pairs attack and the batch-GCD baseline
* :mod:`repro.telemetry` — metrics, stage timing, progress, JSONL events

The top-level names are lazy (PEP 562): ``import repro`` loads only the
GCD suite, and ``repro.BulkGcdEngine`` or ``from repro import
find_shared_primes`` import their subpackage on first use.  So a command
pays only for the code it runs; ``batchscan``, for one, never loads the
bulk engine or NumPy.
"""

from repro._lazy import lazy_exports

# ``gcd`` is also the name of the subpackage: bind the function eagerly,
# or the first import of ``repro.gcd`` would rebind the name to the module
from repro.gcd import approx, gcd, gcd_approx

__version__ = "1.0.0"

__all__ = [
    "BulkGcdEngine",
    "RSAKey",
    "Telemetry",
    "approx",
    "batch_gcd",
    "break_keys",
    "find_shared_primes",
    "gcd",
    "gcd_approx",
    "generate_key",
    "generate_weak_corpus",
    "recover_key",
    "__version__",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.bulk": ("BulkGcdEngine",),
    "repro.core": ("batch_gcd", "break_keys", "find_shared_primes"),
    "repro.rsa": ("RSAKey", "generate_key", "generate_weak_corpus", "recover_key"),
    "repro.telemetry": ("Telemetry",),
})
