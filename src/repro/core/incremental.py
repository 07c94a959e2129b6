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
nothing costs O(log m) GCDs instead of ``k·m`` independent ones.  The
internal pairs take one direct ``k(k−1)/2`` pass.  Hit sets equal a
brute-force all-pairs oracle (property-tested in
``tests/core/test_incremental_stateful.py``).

The tree lives in memory, or with ``spool_dir`` in RGSPOOL1 blobs that a
restarted scanner reloads.  The paper's SIMT engine is not used here: it
is the subject of ``repro scan --backend bulk``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.core.attack import WeakHit
from repro.core.ptree import PersistentProductTree
from repro.telemetry import Telemetry
from repro.util.intops import IntBackend, resolve_backend

__all__ = [
    "BatchReport",
    "IncrementalScanner",
    "SNAPSHOT_VERSION",
]

#: bump when the :meth:`IncrementalScanner.snapshot` payload changes shape
SNAPSHOT_VERSION = 4


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


def _merge_hits(existing: list[WeakHit], new: list[WeakHit]) -> list[WeakHit]:
    """Merge two (i, j)-sorted hit lists — O(total), no full re-sort."""
    if not new:
        return existing
    if not existing:
        return list(new)
    out: list[WeakHit] = []
    a = b = 0
    while a < len(existing) and b < len(new):
        if (existing[a].i, existing[a].j) <= (new[b].i, new[b].j):
            out.append(existing[a])
            a += 1
        else:
            out.append(new[b])
            b += 1
    out.extend(existing[a:])
    out.extend(new[b:])
    return out


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
    """

    def __init__(
        self,
        *,
        bits: int,
        int_backend: str | IntBackend | None = None,
        spool_dir: str | Path | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        """``bits`` fixes the modulus size up front.  ``telemetry``
        persists across batches — the scanner is long-lived, so its
        counters tell the stream's whole story.

        ``int_backend`` selects the big-integer implementation.
        ``spool_dir`` checkpoints the product tree on disk (RGSPOOL1 blobs
        + pinned manifest), so a restarted scanner reloads it instead of
        re-multiplying the corpus; without it the tree lives in memory
        only."""
        if bits < 16 or bits % 2:
            raise ValueError(f"bits must be an even size >= 16, got {bits}")
        self.bits = bits
        self.spool_dir = Path(spool_dir) if spool_dir is not None else None
        self.backend = resolve_backend(int_backend)
        self.telemetry = telemetry if telemetry is not None else Telemetry.create()
        self.moduli: list[int] = []
        self.all_hits: list[WeakHit] = []
        self.total_pairs_tested = 0
        self._batches = 0
        #: built lazily (restore swaps the corpus in first)
        self._ptree: PersistentProductTree | None = None

    def _tree(self) -> PersistentProductTree:
        """The product tree over the current corpus, built on first use."""
        if self._ptree is None:
            tree = PersistentProductTree(
                backend=self.backend, spool_dir=self.spool_dir,
                telemetry=self.telemetry,
            )
            tree.load_or_rebuild(self.moduli)
            self._ptree = tree
        return self._ptree

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
        """Ingest a batch, covering only the pairs it creates."""
        self._check(new_moduli)
        tel = self.telemetry
        base = len(self.moduli)
        k = len(new_moduli)
        report = BatchReport(batch_index=self._batches, new_keys=k, total_keys=base + k)
        self._batches += 1
        tel.emit("batch.start", batch=report.batch_index,
                 new_keys=report.new_keys, total_keys=report.total_keys)

        pairs = base * k + k * (k - 1) // 2
        clock = tel.timer.clock
        started = clock()
        with tel.timer.span("batch"):
            self._cover(new_moduli, base, report, include_internal=True)
            self._tree().append(new_moduli)
        self.moduli.extend(new_moduli)
        # each batch owns its own span measurement: deriving it from the
        # shared "batch" timer total mis-attributes time under nested or
        # concurrent spans (the timer keys by slash-joined path)
        report.elapsed_seconds = clock() - started
        report.hits.sort(key=lambda h: (h.i, h.j))
        report.pairs_tested = pairs
        self.total_pairs_tested += pairs
        self.all_hits = _merge_hits(self.all_hits, report.hits)
        reg = tel.registry
        reg.counter("incremental.batches").inc()
        reg.counter("incremental.keys").inc(k)
        reg.counter("scan.pairs_tested").inc(report.pairs_tested)
        reg.counter("scan.hits").inc(len(report.hits))
        reg.histogram("incremental.batch_pairs").observe(report.pairs_tested)
        tel.emit("batch.done", batch=report.batch_index,
                 pairs=report.pairs_tested, hits=len(report.hits),
                 elapsed_seconds=report.elapsed_seconds)
        return report

    def cross_scan(
        self, new_moduli: list[int], *, include_internal: bool = False
    ) -> BatchReport:
        """Test an external batch against the corpus **without adopting it**.

        The sharded service (``repro.service.shard``) partitions each
        admitted batch's pairs across workers: every shard cross-scans the
        full batch against its local slice, exactly one shard also covers
        the batch's internal pairs (``include_internal=True``), and each
        shard then :meth:`adopt`\\ s only the keys it owns.  Hits are
        reported as ``(corpus_index, base + batch_position)`` — the same
        shape :meth:`add_batch` uses — and neither the corpus, the product
        tree, nor the pairs accounting is mutated.

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

    def adopt(self, new_moduli: list[int]) -> None:
        """Extend the corpus (and its product tree) **without scanning**.

        The dual of :meth:`cross_scan`: pairs involving these keys were
        covered elsewhere (by this scanner's own cross-scan against them,
        or by a sibling shard), so only membership changes — the ptree
        carry-merges the new leaves and ``total_pairs_tested`` is
        untouched.

        >>> s = IncrementalScanner(bits=16)
        >>> s.adopt([193 * 197, 193 * 199])
        >>> (s.n_keys, s.total_pairs_tested)
        (2, 0)
        """
        self._check(new_moduli)
        if not new_moduli:
            return
        self._tree().append(new_moduli)
        self.moduli.extend(new_moduli)
        self.telemetry.registry.counter("incremental.adopted_keys").inc(len(new_moduli))

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
                flagged = self._tree().batch_remainders(p_new)
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

    def snapshot(self) -> dict:
        """The scanner's whole state as a JSON-ready dict.

        Everything :meth:`restore` needs to resume the stream without
        rescanning a single old-vs-old pair: the corpus, every hit found so
        far, the pairs-tested accounting, and the *resolved* big-integer
        backend, so a restore on a host missing that backend fails loudly
        instead of silently switching arithmetic.  The registry service
        persists an equivalent of this across restarts.

        >>> s = IncrementalScanner(bits=16)
        >>> _ = s.add_batch([193 * 197, 193 * 199])
        >>> s2 = IncrementalScanner.restore(s.snapshot())
        >>> (s2.n_keys, [(h.i, h.j) for h in s2.all_hits], s2.coverage_is_complete())
        (2, [(0, 1)], True)
        """
        return {
            "version": SNAPSHOT_VERSION,
            "bits": self.bits,
            "int_backend": self.backend.name,
            "moduli": list(self.moduli),
            "hits": [[h.i, h.j, h.prime] for h in self.all_hits],
            "total_pairs_tested": self.total_pairs_tested,
            "batches": self._batches,
        }

    @classmethod
    def restore(
        cls,
        state: dict,
        *,
        int_backend: str | IntBackend | None = None,
        spool_dir: str | Path | None = None,
        telemetry: Telemetry | None = None,
    ) -> IncrementalScanner:
        """Rebuild a scanner from a :meth:`snapshot` payload.

        The restored scanner picks up exactly where the snapshot left off:
        the next :meth:`add_batch` scans only new-vs-old and new-vs-new
        pairs, and no hit already in the snapshot is ever re-reported.

        Snapshots from version 2 on record the resolved ``int_backend``;
        restoring one resolves the *same* backend unless the caller
        overrides it explicitly, and raises if that backend is not
        importable here.  Version-1 payloads (no backend record) still
        restore.  Versions 1–3 also recorded an ``engine`` tier (``native``,
        ``ptree``, ``auto``, ``all2all`` or ``bulk``) and versions 1–2 the
        knobs of tiers since retired; all of these are ignored, since hit
        sets are identical across tiers.  A missing or stale tree spool is
        rebuilt from the moduli.
        """
        if not isinstance(state, dict):
            raise ValueError("snapshot must be a dict")
        version = state.get("version")
        if version not in (1, 2, 3, SNAPSHOT_VERSION):
            raise ValueError(
                f"unsupported scanner snapshot version {version!r}"
            )
        if int_backend is None:
            # pin to the snapshot's resolved backend: a missing gmpy2 here
            # raises from resolve_backend instead of silently downgrading
            int_backend = state.get("int_backend")
        scanner = cls(
            bits=int(state["bits"]), int_backend=int_backend,
            spool_dir=spool_dir, telemetry=telemetry,
        )
        moduli = [int(n) for n in state["moduli"]]
        for n in moduli:
            if n <= 1 or n % 2 == 0 or n.bit_length() != scanner.bits:
                raise ValueError(f"snapshot modulus {n} invalid for a {scanner.bits}-bit scanner")
        hits = [WeakHit(int(i), int(j), int(p)) for i, j, p in state["hits"]]
        m = len(moduli)
        for h in hits:
            if not (0 <= h.i < h.j < m):
                raise ValueError(f"snapshot hit ({h.i}, {h.j}) out of range for {m} keys")
        total = int(state["total_pairs_tested"])
        if not 0 <= total <= m * (m - 1) // 2:
            raise ValueError(f"snapshot pairs_tested {total} impossible for {m} keys")
        scanner.moduli = moduli
        scanner.all_hits = sorted(hits, key=lambda h: (h.i, h.j))
        scanner.total_pairs_tested = total
        scanner._batches = int(state["batches"])
        scanner._tree()
        return scanner
