"""Stateful property tests: the tree scanner differentially, and vs an oracle.

Hypothesis drives an arbitrary interleaving of key-batch arrivals (weak
and healthy keys mixed) and restarts through two scanners at once: one
keeps its product tree in memory, the other spools it to disk.  A
restart constructs a new scanner over the ingested corpus, as the
service does over its registry.  After every step they must agree on
everything observable: identical hit triples ``(i, j, prime)``,
identical ``pairs_tested`` accounting, and ``coverage_is_complete()`` —
and the hits every scanner reported must equal the brute-force
all-pairs oracle over everything ingested so far.  This is the proof that the amortized engine
is a drop-in replacement for the paper's pairwise scan.
"""

import math
import shutil
import tempfile
from pathlib import Path

from hypothesis import event, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.core.incremental import IncrementalScanner

BITS = 32  # tiny "moduli" keep the oracle cheap; scanner logic is size-blind

#: where each scanner keeps its product tree
STORAGES = ("memory", "spool")

# 16-bit primes with the top two bits set, so every product has 32 bits.
# Weak keys draw both halves from a small pool, so they often share one;
# healthy keys draw from a disjoint, larger pool and seed the corpus, so
# segments of the ptree grow large enough to screen a batch, and many of
# them screen negative.
_WEAK = [49157, 49169, 49171, 49177, 49193, 49199, 49201, 49207, 49211, 49223]
_HEALTHY = [
    p for p in range(60001, 65536, 2)
    if all(p % d for d in range(3, int(p ** 0.5) + 1, 2))
][:60]
_POOLS = (_WEAK, _HEALTHY)


def _modulus(pool: int, i: int, j: int) -> int:
    return _POOLS[pool][i] * _POOLS[pool][j]


def _pick(pool: int):
    """``(pool, i, j)`` with ``i != j``: ``j`` is ``i`` plus a nonzero offset."""
    size = len(_POOLS[pool])
    return st.tuples(
        st.integers(min_value=0, max_value=size - 1),
        st.integers(min_value=1, max_value=size - 1),
    ).map(lambda t: (pool, t[0], (t[0] + t[1]) % size))


def _picks():
    return st.lists(st.one_of(_pick(0), _pick(1)), min_size=0, max_size=4)


class EngineDifferentialMachine(RuleBasedStateMachine):
    """Both tree storages fed the same stream must stay indistinguishable."""

    def __init__(self):
        super().__init__()
        self.tmp = Path(tempfile.mkdtemp(prefix="ptree-stateful-"))
        self.scanners = {
            "memory": IncrementalScanner(bits=BITS),
            "spool": IncrementalScanner(bits=BITS, spool_dir=self.tmp / "ptree"),
        }
        self.ingested: list[int] = []
        #: every hit each storage's scanners reported, across restarts
        self.hits: dict[str, list] = {storage: [] for storage in STORAGES}

    def teardown(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    @initialize(n=st.integers(min_value=0, max_value=len(_HEALTHY) // 2))
    def seed_corpus(self, n):
        """Start from up to 30 pairwise coprime healthy keys: segments big
        enough that the ptree screens the small batches that follow."""
        self.add_batch([(1, 2 * i, 2 * i + 1) for i in range(n)])

    @rule(picks=_picks())
    def add_batch(self, picks):
        batch = [_modulus(*pick) for pick in picks]
        base = len(self.ingested)
        spooled = self.scanners["spool"]
        counters = spooled.telemetry.registry.counter
        segments = len(spooled._ptree.segments) if base and batch else 0
        screened = counters("ptree.segments_screened").value
        flagged = counters("ptree.segments_flagged").value
        reports = {
            storage: scanner.add_batch(list(batch))
            for storage, scanner in self.scanners.items()
        }
        screened = counters("ptree.segments_screened").value - screened
        flagged = counters("ptree.segments_flagged").value - flagged
        # segments too small for the batch are descended unscreened and
        # count as flagged; the rest took a root GCD
        unscreened = segments - screened
        if flagged > unscreened:
            event("ptree screen: segment flagged")
        if screened > flagged - unscreened:
            event("ptree screen: segment cleared")
        if unscreened:
            event("ptree screen: segment too small to screen")
        self.ingested.extend(batch)
        for storage, r in reports.items():
            self.hits[storage].extend(r.hits)
        observable = {
            storage: (
                r.pairs_tested,
                r.new_keys,
                r.total_keys,
                [(h.i, h.j, h.prime) for h in r.hits],
            )
            for storage, r in reports.items()
        }
        assert len(set(map(str, observable.values()))) == 1, observable
        for h in reports["memory"].hits:
            assert h.j >= base  # every hit involves at least one new key
            assert math.gcd(self.ingested[h.i], self.ingested[h.j]) % h.prime == 0
            assert h.prime > 1

    @rule(storage=st.sampled_from(STORAGES))
    def resume(self, storage):
        """Restart one scanner over the ingested corpus; with a spool its
        tree loads from disk.  Nothing observable may change."""
        scanner = self.scanners[storage]
        resumed = IncrementalScanner(
            bits=BITS, moduli=self.ingested, spool_dir=scanner.spool_dir,
        )
        assert resumed.moduli == scanner.moduli
        assert resumed.total_pairs_tested == scanner.total_pairs_tested
        if scanner.spool_dir is not None and self.ingested:
            assert resumed.telemetry.registry.counter("ptree.rebuilds").value == 0
        self.scanners[storage] = resumed

    @invariant()
    def storages_agree(self):
        states = {
            storage: (
                [(h.i, h.j, h.prime) for h in self.hits[storage]],
                s.total_pairs_tested,
                s.n_keys,
            )
            for storage, s in self.scanners.items()
        }
        assert len(set(map(str, states.values()))) == 1, states

    @invariant()
    def matches_oracle(self):
        oracle = set()
        for i in range(len(self.ingested)):
            for j in range(i + 1, len(self.ingested)):
                if math.gcd(self.ingested[i], self.ingested[j]) > 1:
                    oracle.add((i, j))
        for hits in self.hits.values():
            assert sorted((h.i, h.j) for h in hits) == sorted(oracle)

    @invariant()
    def coverage_complete(self):
        for scanner in self.scanners.values():
            assert scanner.coverage_is_complete()


EngineDifferentialMachine.TestCase.settings = settings(
    max_examples=20, stateful_step_count=8, deadline=None
)
TestEngineDifferentialMachine = EngineDifferentialMachine.TestCase
