"""Incremental weak-key scanning: keys arrive in batches.

The paper's motivating scenario — keys scraped from the Web — is a stream,
not a snapshot.  Rescanning all ``m(m−1)/2`` pairs on every arrival wastes
quadratic work; an arriving batch of ``k`` keys only creates ``k·m_old``
cross pairs plus ``k(k−1)/2`` internal ones.  :class:`IncrementalScanner`
maintains the corpus and covers exactly those new pairs, reporting hits in
*global* key indices.

The cross pairs go through a
:class:`~repro.core.ptree.PersistentProductTree` over the old corpus: the
batch is screened against *all* old keys with one GCD per segment root
against ``Π new``, and only the segments that share a prime with the
batch, or are too small for a screen to pay, are descended (no squaring
needed — new keys are never in the tree).  A small flush that shares
nothing costs one GCD per segment instead of ``k·m`` independent ones.  The
internal pairs take one direct ``k(k−1)/2`` pass.  Hit sets equal a
brute-force all-pairs oracle (property-tested in
``tests/core/test_incremental_stateful.py``).

The tree lives in memory, or with ``spool_dir`` in a tree log that a
restarted scanner reloads.  The paper's SIMT engine is not used here: it
is the subject of ``repro scan --backend bulk``.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.attack import WeakHit
from repro.core.ptree import PersistentProductTree
from repro.telemetry import Telemetry
from repro.util.intops import IntBackend, resolve_backend

__all__ = ["BatchReport", "IncrementalScanner"]


@dataclass
class BatchReport:
    """What one arriving batch revealed.

    >>> from repro.core.attack import WeakHit
    >>> BatchReport(batch_index=0, new_keys=2, total_keys=5,
    ...             hits=[WeakHit(1, 3, 7)]).hit_pairs
    {(1, 3)}
    """

    batch_index: int
    new_keys: int
    total_keys: int
    pairs_tested: int = 0
    hits: list[WeakHit] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    #: the tier that covered this batch; the product tree is the only one
    engine: str = "ptree"

    @property
    def hit_pairs(self) -> set[tuple[int, int]]:
        return {(h.i, h.j) for h in self.hits}


class IncrementalScanner:
    """Streamed all-pairs scanning over an append-only modulus collection.

    >>> scanner = IncrementalScanner(bits=16)
    >>> first = scanner.add_batch([193 * 197, 211 * 227])
    >>> (first.pairs_tested, first.hits)
    (1, [])
    >>> second = scanner.add_batch([193 * 199])  # only 2 new pairs scanned
    >>> [(h.i, h.j, h.prime) for h in second.hits]
    [(0, 2, 193)]
    >>> scanner.coverage_is_complete()
    True

    A scanner constructed over a covered corpus scans only new pairs:

    >>> resumed = IncrementalScanner(bits=16, moduli=scanner.moduli)
    >>> third = resumed.add_batch([197 * 211])
    >>> (third.pairs_tested, sorted(third.hit_pairs), resumed.coverage_is_complete())
    (3, [(0, 3), (1, 3)], True)
    """

    def __init__(
        self,
        *,
        bits: int,
        moduli: Sequence[int] = (),
        int_backend: str | IntBackend | None = None,
        spool_dir: str | Path | None = None,
        telemetry: Telemetry | None = None,
        indices: Sequence[int] | None = None,
    ) -> None:
        """``bits`` fixes the modulus size up front.  ``telemetry``
        persists across batches — the scanner is long-lived, so its
        counters tell the stream's whole story.

        ``moduli`` is the corpus the scanner starts from, already covered:
        its pairs count as tested (``m(m−1)/2``), so the next batch scans
        only the pairs it creates.  That is the registry's commit contract,
        which is how a restarted service resumes without rescanning.

        ``int_backend`` selects the big-integer implementation.
        ``spool_dir`` keeps the product tree's log on disk; the tree over
        ``moduli`` loads from it here, appending whatever the log does not
        hold.  Without it the tree lives in memory only.  ``indices`` are
        the global indices of ``moduli`` the log records (default: their
        positions; a shard's slice passes its own)."""
        if bits < 16 or bits % 2:
            raise ValueError(f"bits must be an even size >= 16, got {bits}")
        self.bits = bits
        self.spool_dir = Path(spool_dir) if spool_dir is not None else None
        self.backend = resolve_backend(int_backend)
        self.telemetry = telemetry if telemetry is not None else Telemetry.create()
        self.moduli: list[int] = list(moduli)
        self._check(self.moduli)
        m = len(self.moduli)
        self.total_pairs_tested = m * (m - 1) // 2
        self._batches = 0
        self._ptree = PersistentProductTree(
            backend=self.backend, spool_dir=self.spool_dir, telemetry=self.telemetry,
        )
        self._ptree.load_or_rebuild(self.moduli, indices)

    def _check(self, new_moduli: list[int]) -> None:
        for n in new_moduli:
            if n <= 1 or n % 2 == 0:
                raise ValueError("RSA moduli must be odd and > 1")
            if n.bit_length() != self.bits:
                raise ValueError(
                    f"modulus of {n.bit_length()} bits in a {self.bits}-bit scanner"
                )

    # -- scanning --------------------------------------------------------------

    def add_batch(self, new_moduli: list[int]) -> BatchReport:
        """Ingest a batch, covering only the pairs it creates.

        The composition of the two halves a caller may also run apart:
        the pure :meth:`cross_scan` (internal pairs included), then
        :meth:`adopt` crediting the pairs it covered.  The service runs
        them with its registry commit in between."""
        self._check(new_moduli)
        tel = self.telemetry
        base = len(self.moduli)
        k = len(new_moduli)
        batch = self._batches
        self._batches += 1
        tel.emit("batch.start", batch=batch, new_keys=k, total_keys=base + k)
        clock = tel.timer.clock
        started = clock()
        with tel.timer.span("batch"):
            report = self.cross_scan(new_moduli, include_internal=True)
            self.adopt(new_moduli, pairs=report.pairs_tested)
        report.batch_index = batch
        # each batch owns its own span measurement: deriving it from the
        # shared "batch" timer total mis-attributes time under nested or
        # concurrent spans (the timer keys by slash-joined path)
        report.elapsed_seconds = clock() - started
        reg = tel.registry
        reg.counter("incremental.batches").inc()
        reg.counter("incremental.keys").inc(k)
        reg.histogram("incremental.batch_pairs").observe(report.pairs_tested)
        tel.emit("batch.done", batch=batch,
                 pairs=report.pairs_tested, hits=len(report.hits),
                 elapsed_seconds=report.elapsed_seconds)
        return report

    def cross_scan(
        self, new_moduli: list[int], *, include_internal: bool = False
    ) -> BatchReport:
        """Test an external batch against the corpus **without adopting it**.

        The scan half of :meth:`add_batch`.  Hits are reported as
        ``(corpus_index, base + batch_position)`` and neither the corpus,
        the product tree, nor the pairs accounting is mutated, so a scan
        whose batch is then refused leaves nothing to undo.  The sharded
        service (``repro.service.shard``) partitions each batch's pairs
        across workers: every shard cross-scans the full batch against its
        local slice and exactly one shard also covers the batch's internal
        pairs (``include_internal=True``).

        >>> s = IncrementalScanner(bits=16)
        >>> _ = s.add_batch([193 * 197])
        >>> r = s.cross_scan([193 * 199, 211 * 227], include_internal=True)
        >>> ([(h.i, h.j, h.prime) for h in r.hits], r.pairs_tested, s.n_keys)
        ([(0, 1, 193)], 3, 1)
        """
        self._check(new_moduli)
        tel = self.telemetry
        base = len(self.moduli)
        k = len(new_moduli)
        report = BatchReport(batch_index=-1, new_keys=k, total_keys=base + k)
        clock = tel.timer.clock
        started = clock()
        with tel.timer.span("cross"):
            self._cover(new_moduli, base, report, include_internal=include_internal)
        report.elapsed_seconds = clock() - started
        report.hits.sort(key=lambda h: (h.i, h.j))
        report.pairs_tested = base * k + (k * (k - 1) // 2 if include_internal else 0)
        reg = tel.registry
        reg.counter("incremental.cross_scans").inc()
        reg.counter("scan.pairs_tested").inc(report.pairs_tested)
        reg.counter("scan.hits").inc(len(report.hits))
        return report

    def adopt(
        self, new_moduli: list[int], *, pairs: int = 0, indices: Sequence[int] | None = None
    ) -> None:
        """Extend the corpus (and its product tree) **without scanning**.

        The apply half of :meth:`add_batch`: the keys join the corpus (the
        ptree carry-merges the new leaves) and ``pairs``, the pairs a
        :meth:`cross_scan` of them covered, are credited.  A shard adopts
        only the keys it owns, with their global ``indices``, and credits
        nothing: its router keeps the fleet's pair watermarks.

        >>> s = IncrementalScanner(bits=16)
        >>> s.adopt([193 * 197, 193 * 199])
        >>> (s.n_keys, s.total_pairs_tested)
        (2, 0)
        """
        self._check(new_moduli)
        if new_moduli:
            self._ptree.append(new_moduli, indices)
            self.moduli.extend(new_moduli)
            self.telemetry.registry.counter("incremental.adopted_keys").inc(len(new_moduli))
        self.total_pairs_tested += pairs

    def _cover(
        self, new_moduli: list[int], base: int, report: BatchReport,
        *, include_internal: bool,
    ) -> None:
        """Cross pairs via the persistent tree, then (optionally) the
        internal pairs.  Progress advances by pairs covered.

        The tree screens each large segment root against ``Π new`` with
        one GCD and descends only the segments the screen did not clear;
        flagged old keys are attributed to their partners with small GCDs
        against the flag value."""
        tel = self.telemetry
        B = self.backend
        gcd, to_int, from_int = B.gcd, B.to_int, B.from_int
        native_new = [from_int(n) for n in new_moduli]
        if base and new_moduli:
            with tel.timer.span("descend"):
                p_new = B.prod(native_new)
                flagged = self._ptree.batch_remainders(p_new)
            for start, leaves, rems in flagged:
                for i, (leaf, r) in enumerate(zip(leaves, rems), start):
                    g = gcd(leaf, r)
                    if g == 1:
                        continue
                    # g = gcd(n_i, Π new) holds every prime key i shares
                    # with the batch, so candidate partners filter on
                    # gcd(g, n_k) — and every candidate is a genuine hit
                    for t, nk in enumerate(native_new):
                        if to_int(gcd(g, nk)) > 1:
                            report.hits.append(
                                WeakHit(i, base + t, to_int(gcd(leaf, nk)))
                            )
            tel.advance(base * len(new_moduli))
        if include_internal:
            # the k(k−1)/2 new-new pairs, directly (batches are small)
            for t in range(1, len(native_new)):
                for u in range(t):
                    g = to_int(gcd(native_new[u], native_new[t]))
                    if g > 1:
                        report.hits.append(WeakHit(base + u, base + t, g))
            k = len(native_new)
            tel.advance(k * (k - 1) // 2)

    # -- accounting ------------------------------------------------------------

    @property
    def n_keys(self) -> int:
        return len(self.moduli)

    def coverage_is_complete(self) -> bool:
        """True iff the pairs covered so far equal all pairs of the corpus —
        the invariant that incremental scanning never misses a pair."""
        m = len(self.moduli)
        return self.total_pairs_tested == m * (m - 1) // 2
