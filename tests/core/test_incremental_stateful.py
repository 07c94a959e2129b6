"""Stateful property tests: engine tiers differentially, and vs an oracle.

Hypothesis drives an arbitrary interleaving of key-batch arrivals (weak
and healthy keys mixed) and snapshot/restore round-trips across *every*
engine tier at once — ``native``, ``ptree`` (spool-backed), and ``auto``
(with its threshold lowered so it really mixes the two).  After every
step the tiers must agree on everything observable: identical hit
triples ``(i, j, prime)``, identical ``pairs_tested`` accounting, and
``coverage_is_complete()`` — and the shared hit set must equal the
brute-force all-pairs oracle over everything ingested so far.  This is
the proof that the amortized engine is a drop-in replacement for the
paper's pairwise scan.
"""

import math
import shutil
import tempfile
from pathlib import Path

from hypothesis import event, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.core import incremental
from repro.core.incremental import IncrementalScanner

BITS = 32  # tiny "moduli" keep the oracle cheap; scanner logic is size-blind

ENGINES = ("native", "ptree", "auto")
#: cross pairs at which ``auto`` switches to ``ptree`` inside the machine:
#: low enough that the machine's small batches land on both sides
AUTO_THRESHOLD = 6

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
    """Every engine fed the same stream must stay indistinguishable."""

    def __init__(self):
        super().__init__()
        self.tmp = Path(tempfile.mkdtemp(prefix="ptree-stateful-"))
        self.saved_threshold = incremental.AUTO_MIN_CROSS_PAIRS
        incremental.AUTO_MIN_CROSS_PAIRS = AUTO_THRESHOLD
        self.scanners = {
            engine: IncrementalScanner(
                bits=BITS, engine=engine,
                spool_dir=self.tmp / "ptree" if engine == "ptree" else None,
            )
            for engine in ENGINES
        }
        self.ingested: list[int] = []

    def teardown(self):
        incremental.AUTO_MIN_CROSS_PAIRS = self.saved_threshold
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
        ptree = self.scanners["ptree"]
        counters = ptree.telemetry.registry.counter
        segments = len(ptree._ptree.segments) if base and batch else 0
        screened = counters("ptree.segments_screened").value
        flagged = counters("ptree.segments_flagged").value
        reports = {
            engine: scanner.add_batch(list(batch))
            for engine, scanner in self.scanners.items()
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
        observable = {
            engine: (
                r.pairs_tested,
                r.new_keys,
                r.total_keys,
                [(h.i, h.j, h.prime) for h in r.hits],
            )
            for engine, r in reports.items()
        }
        assert len(set(map(str, observable.values()))) == 1, observable
        for h in reports["native"].hits:
            assert h.j >= base  # every hit involves at least one new key
            assert math.gcd(self.ingested[h.i], self.ingested[h.j]) % h.prime == 0
            assert h.prime > 1

    @rule(engine=st.sampled_from(ENGINES))
    def snapshot_restore(self, engine):
        """Round-trip one engine through its snapshot; nothing may change."""
        scanner = self.scanners[engine]
        snap = scanner.snapshot()
        restored = IncrementalScanner.restore(
            snap, spool_dir=scanner.spool_dir,
        )
        assert restored.engine_name == engine
        assert restored.moduli == scanner.moduli
        assert restored.all_hits == scanner.all_hits
        assert restored.total_pairs_tested == scanner.total_pairs_tested
        self.scanners[engine] = restored

    @rule(source=st.sampled_from(ENGINES), dest=st.sampled_from(ENGINES))
    def restore_cross_engine(self, source, dest):
        """A snapshot from any tier restores into any other tier."""
        snap = self.scanners[source].snapshot()
        restored = IncrementalScanner.restore(
            snap, engine=dest,
            spool_dir=self.scanners[dest].spool_dir,
        )
        assert restored.all_hits == self.scanners[source].all_hits
        self.scanners[dest] = restored

    @invariant()
    def engines_agree(self):
        states = {
            engine: (
                [(h.i, h.j, h.prime) for h in s.all_hits],
                s.total_pairs_tested,
                s.n_keys,
            )
            for engine, s in self.scanners.items()
        }
        assert len(set(map(str, states.values()))) == 1, states

    @invariant()
    def matches_oracle(self):
        oracle = set()
        for i in range(len(self.ingested)):
            for j in range(i + 1, len(self.ingested)):
                if math.gcd(self.ingested[i], self.ingested[j]) > 1:
                    oracle.add((i, j))
        scanner = self.scanners["native"]
        assert {(h.i, h.j) for h in scanner.all_hits} == oracle

    @invariant()
    def coverage_complete(self):
        for scanner in self.scanners.values():
            assert scanner.coverage_is_complete()


EngineDifferentialMachine.TestCase.settings = settings(
    max_examples=20, stateful_step_count=8, deadline=None
)
TestEngineDifferentialMachine = EngineDifferentialMachine.TestCase
