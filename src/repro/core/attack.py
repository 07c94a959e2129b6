"""The weak-RSA-key attack driver: all-pairs GCD over a modulus collection.

``find_shared_primes`` runs the paper's pipeline end to end: Section VI
block schedule → per-block bulk (or scalar) early-terminating GCD →
non-trivial GCDs reported as :class:`WeakHit`.  ``break_keys`` then turns
hits into full private keys.

Backends:

* ``"bulk"`` — the SIMT engine (:class:`repro.bulk.BulkGcdEngine`), one
  batch per block; the GPU-analog production path;
* ``"scalar"`` — the Python-int reference loop, the paper's CPU side;
* ``"batch"`` — not pairwise at all: Bernstein's product/remainder-tree
  batch GCD (:mod:`repro.core.batch_gcd`), included as the modern baseline.
  It reports hits only as (index, prime) pairs grouped post hoc, since the
  tree computes per-modulus GCDs against all others at once.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from repro.bulk.engine import BulkGcdEngine
from repro.core.batch_gcd import batch_gcd
from repro.core.pairing import all_pair_count, block_schedule
from repro.gcd.reference import ALGORITHMS, gcd_approx
from repro.gcd.word import (
    gcd_approx_words,
    gcd_binary_words,
    gcd_fast_binary_words,
)
from repro.mp.memlog import CountingMemLog
from repro.mp.wordint import WordInt
from repro.rsa.keys import RSAKey, recover_key
from repro.telemetry import Telemetry, record_memlog
from repro.util.intops import IntBackend, resolve_backend

__all__ = [
    "WeakHit",
    "AttackReport",
    "find_shared_primes",
    "group_batch_hits",
    "break_keys",
]

_BACKENDS = ("bulk", "scalar", "batch")


@dataclass(frozen=True)
class WeakHit:
    """Moduli ``i`` and ``j`` (i < j) share the factor ``prime``.

    ``prime`` equal to the full modulus marks a *duplicate key* (both prime
    factors shared — the same key deployed twice).  Duplicates break both
    deployments' confidentiality jointly but do not factor the modulus, so
    :func:`break_keys` reports rather than factors them.

    >>> WeakHit(0, 2, 11).is_duplicate([33, 35, 55])
    False
    >>> WeakHit(0, 1, 33).is_duplicate([33, 33, 55])
    True
    """

    i: int
    j: int
    prime: int

    def is_duplicate(self, moduli: list[int]) -> bool:
        """True iff this hit is a duplicated modulus rather than one shared prime."""
        return self.prime == moduli[self.i]


@dataclass
class AttackReport:
    """Everything one attack run learned, plus its accounting.

    >>> r = AttackReport(m=3, bits=6, backend="scalar", algorithm="approx",
    ...                  pairs_tested=3, elapsed_seconds=0.003)
    >>> r.microseconds_per_gcd
    1000.0
    """

    m: int
    bits: int
    backend: str
    algorithm: str
    hits: list[WeakHit] = field(default_factory=list)
    pairs_tested: int = 0
    blocks: int = 0
    elapsed_seconds: float = 0.0
    #: lock-step loop trips summed over blocks (bulk backend only)
    loop_trips: int = 0
    #: telemetry snapshot: counters/gauges/histograms/stages
    #: (see docs/OBSERVABILITY.md); always populated by the pipeline
    metrics: dict = field(default_factory=dict)

    @property
    def hit_pairs(self) -> set[tuple[int, int]]:
        return {(h.i, h.j) for h in self.hits}

    @property
    def microseconds_per_gcd(self) -> float:
        """The Table V unit: attack wall time divided by pairs covered."""
        if self.pairs_tested == 0:
            return 0.0
        return self.elapsed_seconds * 1e6 / self.pairs_tested


def find_shared_primes(
    moduli: list[int],
    *,
    backend: str = "bulk",
    algorithm: str = "approx",
    d: int = 32,
    group_size: int = 64,
    early_terminate: bool = True,
    telemetry: Telemetry | None = None,
    memlog: CountingMemLog | None = None,
    int_backend: str | IntBackend | None = None,
) -> AttackReport:
    """Find every pair of moduli sharing a prime factor.

    ``group_size`` is the paper's ``r``: each block contributes one bulk
    batch of at most ``r²`` pairs.  ``early_terminate`` applies the
    Section V rule with ``stop_bits = s/2`` where ``s`` is the common
    modulus bit length (required to hold for all moduli when enabled).

    ``int_backend`` selects the big-integer implementation
    (:mod:`repro.util.intops`) for the ``batch`` backend's trees and the
    hit-grouping pass; the ``bulk``/``scalar`` backends deliberately keep
    their word-level arithmetic (it is the paper's measurement subject).
    The resolved name lands in the ``backend.name`` gauge and the
    ``scan.start`` event either way, so reports are self-describing.

    ``telemetry`` supplies the measurement bundle (a private one is created
    otherwise); the run's snapshot always lands in ``report.metrics``, and
    ``report.elapsed_seconds`` stays populated for compatibility.
    ``memlog`` (scalar backend only) routes every GCD through the
    word-array tier with Section IV access instrumentation, folding the
    word-traffic counts into the same metrics snapshot.

    >>> report = find_shared_primes([33, 35, 55], backend="scalar",
    ...                             early_terminate=False)
    >>> [(h.i, h.j, h.prime) for h in report.hits]
    [(0, 2, 11), (1, 2, 5)]
    >>> report.pairs_tested
    3
    """
    if backend not in _BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; expected one of {_BACKENDS}")
    if len(moduli) < 2:
        raise ValueError("need at least two moduli")
    if any(n <= 1 or n % 2 == 0 for n in moduli):
        raise ValueError("RSA moduli must be odd and > 1")
    if memlog is not None and backend != "scalar":
        raise ValueError(
            "memlog instrumentation requires the scalar backend (word-array tier)"
        )
    bits = max(n.bit_length() for n in moduli)
    stop_bits = bits // 2 if early_terminate else None
    if early_terminate and any(n.bit_length() != bits for n in moduli):
        raise ValueError(
            "early termination assumes equal-size moduli; normalise the corpus "
            "or pass early_terminate=False"
        )

    B = resolve_backend(int_backend)
    tel = telemetry if telemetry is not None else Telemetry.create()
    report = AttackReport(m=len(moduli), bits=bits, backend=backend, algorithm=algorithm)
    tel.registry.gauge("scan.moduli").set(len(moduli))
    tel.registry.gauge("scan.bits").set(bits)
    tel.registry.gauge("backend.name").set(B.name)
    tel.emit("scan.start", backend=backend, algorithm=algorithm,
             moduli=len(moduli), bits=bits, int_backend=B.name)

    with tel.timer.span("scan"):
        if backend == "batch":
            _run_batch(moduli, report, tel, B)
        else:
            _run_pairwise(
                moduli, report, backend, algorithm, d, group_size, stop_bits,
                tel, memlog,
            )

    report.elapsed_seconds = tel.timer.total_seconds("scan")
    report.hits.sort(key=lambda h: (h.i, h.j))
    reg = tel.registry
    reg.counter("scan.pairs_tested").inc(report.pairs_tested)
    reg.counter("scan.hits").inc(len(report.hits))
    if report.elapsed_seconds > 0:
        reg.gauge("scan.pairs_per_second").set(
            report.pairs_tested / report.elapsed_seconds
        )
    if memlog is not None:
        record_memlog(reg, memlog)
    report.metrics = tel.snapshot()
    tel.emit("scan.done", pairs_tested=report.pairs_tested,
             hits=len(report.hits), elapsed_seconds=report.elapsed_seconds)
    return report


_WORD_TIER = {
    "approx": gcd_approx_words,
    "binary": gcd_binary_words,
    "fast_binary": gcd_fast_binary_words,
}


def _run_pairwise(
    moduli: list[int],
    report: AttackReport,
    backend: str,
    algorithm: str,
    d: int,
    group_size: int,
    stop_bits: int | None,
    tel: Telemetry,
    memlog: CountingMemLog | None,
) -> None:
    schedule = block_schedule(len(moduli), group_size)
    report.blocks = len(schedule)
    tel.registry.gauge("scan.blocks").set(len(schedule))
    tel.set_progress_total(all_pair_count(len(moduli)))
    engine = BulkGcdEngine(d=d, algorithm=algorithm) if backend == "bulk" else None
    letter = {"approx": "E", "fast_binary": "D", "binary": "C"}.get(algorithm)
    if backend == "scalar" and letter is None:
        raise ValueError(f"scalar backend has no algorithm {algorithm!r}")
    for block in schedule:
        idx = list(block.pairs())
        if not idx:
            continue
        values = [(moduli[a], moduli[b]) for a, b in idx]
        with tel.timer.span("block"):
            if engine is not None:
                result = engine.run_pairs(
                    values, stop_bits=stop_bits, compact=True, telemetry=tel
                )
                gcds = result.gcds
                report.loop_trips += result.loop_trips
            elif memlog is not None:
                word_gcd = _WORD_TIER[algorithm]
                gcds = [
                    word_gcd(
                        WordInt.from_int(a, d, name="X"),
                        WordInt.from_int(b, d, name="Y"),
                        stop_bits=stop_bits,
                        log=memlog,
                    )
                    for a, b in values
                ]
            elif algorithm == "approx":
                gcds = [gcd_approx(a, b, d=d, stop_bits=stop_bits) for a, b in values]
            else:
                fn = ALGORITHMS[letter]
                gcds = [fn(a, b, stop_bits=stop_bits) for a, b in values]
        report.pairs_tested += len(idx)
        tel.registry.histogram("scan.block_pairs").observe(len(idx))
        block_hits = 0
        for (a, b), g in zip(idx, gcds):
            if g > 1:
                report.hits.append(WeakHit(a, b, g))
                block_hits += 1
        tel.advance(len(idx))
        tel.emit("block.done", i=block.i, j=block.j, pairs=len(idx), hits=block_hits)


def _run_batch(
    moduli: list[int], report: AttackReport, tel: Telemetry, B: IntBackend
) -> None:
    """Bernstein batch GCD, then group per-modulus factors into pairs."""
    per_modulus = batch_gcd(moduli, telemetry=tel, backend=B)
    report.pairs_tested = all_pair_count(len(moduli))  # covered implicitly
    report.blocks = 0
    flagged = [
        (idx, moduli[idx], g) for idx, g in enumerate(per_modulus) if g > 1
    ]
    report.hits.extend(group_batch_hits(flagged, backend=B))


def group_batch_hits(
    flagged: list[tuple[int, int, int]],
    *,
    backend: str | IntBackend | None = None,
) -> list[WeakHit]:
    """Turn per-modulus batch-GCD results into explicit weak *pairs*.

    ``flagged`` holds ``(index, modulus, gcd)`` triples for every modulus
    whose batch GCD came back non-trivial — the only moduli a pairing pass
    needs, which is why the disk-streamed pipeline can stream everything else
    straight to disk.  A gcd equal to the full modulus (both primes shared
    elsewhere, e.g. a duplicated key) is split by pairwise GCD against the
    other flagged moduli; everything else groups by the shared prime, and
    each group of ``k`` moduli yields its ``k·(k−1)/2`` pairs.  Hit primes
    are plain ``int`` whatever ``backend`` computes the splitting GCDs.

    >>> hits = group_batch_hits([(0, 33, 11), (2, 55, 55), (4, 35, 5)])
    >>> [(h.i, h.j, h.prime) for h in sorted(hits, key=lambda h: (h.i, h.j))]
    [(0, 2, 11), (2, 4, 5)]
    """
    B = resolve_backend(backend)
    gcd, to_int = B.gcd, B.to_int
    by_prime: dict[int, list[int]] = defaultdict(list)
    for idx, n, g in flagged:
        if g == n:
            # modulus shares both primes (e.g. a duplicated key); split it by
            # pairwise gcd against the other flagged moduli
            for jdx, n2, _ in flagged:
                if jdx != idx:
                    shared = to_int(gcd(n, n2))
                    if shared > 1:
                        by_prime[shared].append(idx)
            continue
        by_prime[to_int(g)].append(idx)
    hits = []
    for prime, members in by_prime.items():
        members = sorted(set(members))
        for a_pos, a in enumerate(members):
            for b in members[a_pos + 1 :]:
                hits.append(WeakHit(a, b, prime))
    return hits


def break_keys(
    keys: list[RSAKey], report: AttackReport
) -> dict[int, RSAKey]:
    """Recover full private keys for every modulus named in the report.

    Returns ``{modulus index: private key}``.  Duplicate-key hits (the
    shared "prime" is the whole modulus) are skipped — they flag a reused
    key but yield no factorisation.  Raises if a hit's prime does not
    actually divide the corresponding modulus (corrupt report).

    >>> from repro.rsa.keys import key_from_primes
    >>> keys = [key_from_primes(101, 103), key_from_primes(101, 107),
    ...         key_from_primes(109, 113)]
    >>> report = find_shared_primes([k.n for k in keys], backend="scalar",
    ...                             early_terminate=False)
    >>> broken = break_keys(keys, report)
    >>> sorted(broken), broken[0].p
    ([0, 1], 101)
    """
    broken: dict[int, RSAKey] = {}
    for hit in report.hits:
        if hit.prime == keys[hit.i].n:  # duplicated modulus: nothing to factor
            continue
        for idx in (hit.i, hit.j):
            if idx not in broken:
                pub = keys[idx]
                broken[idx] = recover_key(pub.n, pub.e, hit.prime)
    return broken
