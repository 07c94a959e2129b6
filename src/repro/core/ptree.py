"""Persistent, incrementally maintained product tree over a growing corpus.

The incremental scanner's hot path is "test a batch of ``k`` new moduli
against all ``m`` old ones".  Done pairwise that is ``k·m`` GCDs per flush;
done with a product tree it is one GCD per segment root plus a remainder
descent of the flagged segments only.  With ``P = Π new``, a segment is
first *screened*: ``g = gcd(P, root mod P)``, which equals ``gcd(P,
root)``.  A prime that divides both some leaf ``n_i`` and ``P`` divides
the root too, hence ``g``; so ``g == 1`` proves no leaf of the segment
shares a prime with the batch, and the segment is skipped without a
single leaf GCD.  A flagged segment descends ``g`` (not ``P``): since
``n_i`` divides the root, ``gcd(n_i, g mod n_i) = gcd(n_i, P)`` exactly,
and since ``g`` divides the root, that descent is cheap whatever ``k``
is.  No squaring is needed anywhere — unlike classic batch GCD, plain
``mod`` suffices, because ``P`` is built from moduli that are not in the
tree.  Shared primes are rare, so a typical flush pays one GCD per
segment (O(log m) of them) instead of ``m``.

The screen is not free: CPython's ``gcd`` takes time quadratic in the
smaller operand, here ``min(|P|, |root|)`` bits, while the descent it
saves grows about linearly.  So a segment is screened only when its root
has at least :data:`SCREEN_MIN_RATIO` times the bits of ``P``; a smaller
segment descends ``P`` itself and takes a GCD at every leaf, exactly as
an unscreened flush would.  Small flushes against a large corpus (the
service's common case) screen every large segment; a batch of more than
a sixth of the biggest segment's leaves screens nothing and costs what
it did before.

Rebuilding the tree from scratch on every flush would cost ``m − 1``
multiplications each time.  :class:`PersistentProductTree` instead keeps
the tree as a *forest of perfect power-of-two segments* whose sizes are
the binary decomposition of ``m`` (the classic binary-counter shape):
appending a leaf adds a one-leaf segment and carry-merges equal-sized
neighbours, and a merge reuses both children's node arrays wholesale —
one multiplication per merge, ``m − 1`` multiplications *total* over the
corpus lifetime, amortized O(1) per insert with O(log m) segments live.

Persistence rides the exact storage primitives the registry commits with:
each segment is one RGSPOOL1 blob (:mod:`repro.core.spool`, nodes in
bottom-up level order) pinned by SHA-256 in an atomically rewritten
manifest (:mod:`repro.core.checkpoint`).  The commit protocol per flush is
*blobs first, manifest second*; a crash between the two leaves the old
manifest pointing at the old (still present) blobs, so a restarted
scanner resumes at the previous flush boundary without recomputing a
single product.  A spool that holds a *prefix* of the corpus (the service
appends to its tree only after the registry commits, so its spool may
trail the registry by a batch) loads and takes the missing tail as an
ordinary append.  Any other mismatch — corrupt blob, foreign manifest, or
leaves that disagree with the scanner's corpus — falls back to a full
rebuild from the moduli (counted in ``ptree.rebuilds``), which is always
correct and never trusted state over arithmetic.

The ``ptree.commit`` fault point fires before each persist attempt (on
top of the ``spool.write`` / ``manifest.commit`` points inside the
primitives), so chaos tests can kill exactly the tree's commit path.
"""

from __future__ import annotations

from pathlib import Path

from repro.core import durable
from repro.core.checkpoint import CheckpointStore, Manifest, StageRecord
from repro.core.spool import SpoolError, read_blob, write_blob
from repro.resilience import RetryPolicy, faults
from repro.telemetry import Telemetry
from repro.util.intops import IntBackend, resolve_backend

__all__ = ["PersistentProductTree", "PTREE_FORMAT"]

PTREE_FORMAT = "product-tree/1"

#: a segment is screened only when its root has at least this many times
#: the bits of the batch product.  On 2,000 × 2048-bit keys (CPython
#: 3.11, ``python`` backend) every measured segment at ratio ≥ 6 screened
#: 1.28–1.7× faster than its unscreened descent (k = 2…170 keys against
#: 16…1,024-leaf segments); at ratio 4 the gain fell to 1.07× at k = 128
#: and to nothing at k = 256.  A ratio between the powers of two keeps the
#: choice clear of bit-length jitter when ``k`` and the segment size are
#: both powers of two.
SCREEN_MIN_RATIO = 6


class _Segment:
    """One perfect power-of-two subtree: ``levels[0]`` leaves → ``levels[-1]`` root.

    Nodes are backend-native values; ``size`` is the leaf count (a power of
    two) and ``start`` the segment's first global leaf index.
    """

    __slots__ = ("start", "levels")

    def __init__(self, start: int, levels: list[list]) -> None:
        self.start = start
        self.levels = levels

    @property
    def size(self) -> int:
        return len(self.levels[0])

    @property
    def height(self) -> int:
        return len(self.levels) - 1

    @property
    def root(self):
        return self.levels[-1][0]

    def stage_name(self) -> str:
        return f"seg.{self.start}.{self.height}"

    def blob_name(self) -> str:
        return f"seg-{self.start:08d}-h{self.height:02d}.bin"

    def nodes(self) -> list:
        """Every node, bottom-up level order — the blob serialisation."""
        out: list = []
        for level in self.levels:
            out.extend(level)
        return out

    @classmethod
    def from_nodes(cls, start: int, nodes: list) -> "_Segment":
        """Rebuild from a blob payload; raises ``ValueError`` on a bad shape."""
        levels: list[list] = []
        width = (len(nodes) + 1) // 2
        if width & (width - 1) or not nodes:
            raise ValueError(f"segment blob holds {len(nodes)} nodes, not 2s-1")
        pos = 0
        while width >= 1:
            levels.append(nodes[pos : pos + width])
            pos += width
            width //= 2
        if pos != len(nodes):
            raise ValueError("segment blob node count does not form a perfect tree")
        return cls(start, levels)


def _merge(a: _Segment, b: _Segment, mul) -> _Segment:
    """Merge two adjacent equal-sized segments: one multiplication, all
    child nodes reused by reference."""
    levels = [a.levels[i] + b.levels[i] for i in range(len(a.levels))]
    levels.append([mul(a.root, b.root)])
    return _Segment(a.start, levels)


class PersistentProductTree:
    """Incrementally maintained product forest, optionally spool-backed.

    >>> t = PersistentProductTree()
    >>> t.append([3, 5, 7])
    >>> t.n_leaves, t.segment_sizes()
    (3, [2, 1])
    >>> [(start, [int(r) for r in rems]) for start, _, rems in t.batch_remainders(11 * 3)]
    [(0, [0, 3]), (2, [5])]
    """

    def __init__(
        self,
        *,
        backend: str | IntBackend | None = None,
        spool_dir: str | Path | None = None,
        telemetry: Telemetry | None = None,
        retry_policy: RetryPolicy | None = None,
    ) -> None:
        self.backend = resolve_backend(backend)
        self.spool_dir = Path(spool_dir) if spool_dir is not None else None
        self.store = CheckpointStore(self.spool_dir) if self.spool_dir else None
        self.telemetry = telemetry
        self.retry_policy = (
            retry_policy
            if retry_policy is not None
            else RetryPolicy(max_attempts=3, base_delay=0.05, max_delay=2.0)
        )
        self.segments: list[_Segment] = []
        self.n_leaves = 0
        #: blob name -> StageRecord for blobs this tree knows are on disk
        #: (written by us or verified at load); saves re-hashing per flush
        self._committed: dict[str, StageRecord] = {}

    # -- queries ---------------------------------------------------------------

    def segment_sizes(self) -> list[int]:
        """Live segment leaf counts — the binary decomposition of ``n_leaves``."""
        return [seg.size for seg in self.segments]

    def leaves(self):
        """Every leaf (backend-native), in global index order."""
        for seg in self.segments:
            yield from seg.levels[0]

    def batch_remainders(self, value) -> list[tuple[int, list, list]]:
        """Screen the segments against ``value``; descend the flagged ones.

        ``value`` is the product of an arriving batch.  A segment whose
        root has at least :data:`SCREEN_MIN_RATIO` times the bits of
        ``value`` is screened with one GCD, ``g = gcd(value, root mod
        value)`` (the backend's ``mod``, so a large ``value`` reduces by
        recursive division), and skipped when ``g == 1``: then no leaf
        shares a prime with ``value``.  A flagged segment descends ``g``,
        a smaller one descends ``value``; either way the residues ``r_i``
        satisfy ``gcd(n_i, r_i) = gcd(n_i, value)``.  Returns ``(start,
        leaves, residues)`` per descended segment: ``start`` is its first
        global leaf index, ``leaves`` its backend-native leaves.

        >>> t = PersistentProductTree()
        >>> t.append([5 * 7, 11 * 13, 17 * 19, 23 * 29])  # one 31-bit root
        >>> t.batch_remainders(3)  # 2 bits: screened, and cleared
        []
        >>> [(start, [int(r) for r in rems]) for start, _, rems in t.batch_remainders(7)]
        [(0, [7, 7, 7, 7])]
        """
        B = self.backend
        mod, gcd = B.mod, B.gcd
        value = B.from_int(value)
        screen_bits = SCREEN_MIN_RATIO * value.bit_length()
        out: list[tuple[int, list, list]] = []
        screened = 0
        for seg in self.segments:
            top = value
            if seg.root.bit_length() >= screen_bits:
                screened += 1
                top = gcd(value, mod(seg.root, value))
                if top == 1:
                    continue
            rems = [mod(top, seg.root)]
            for level in reversed(seg.levels[:-1]):
                rems = [mod(rems[k // 2], node) for k, node in enumerate(level)]
            out.append((seg.start, seg.levels[0], rems))
        if self.telemetry is not None:
            reg = self.telemetry.registry
            reg.counter("ptree.segments_screened").inc(screened)
            reg.counter("ptree.segments_flagged").inc(len(out))
        return out

    # -- growth ----------------------------------------------------------------

    def append(self, values: list[int]) -> None:
        """Append leaves (carry-merging as needed) and persist the new shape."""
        if not values:
            return
        B = self.backend
        mul, from_int = B.mul, B.from_int
        merges = 0
        for v in values:
            self.segments.append(_Segment(self.n_leaves, [[from_int(v)]]))
            self.n_leaves += 1
            while (
                len(self.segments) >= 2
                and self.segments[-1].size == self.segments[-2].size
            ):
                b = self.segments.pop()
                a = self.segments.pop()
                self.segments.append(_merge(a, b, mul))
                merges += 1
        if self.telemetry is not None:
            reg = self.telemetry.registry
            reg.counter("ptree.node_merges").inc(merges)
            reg.gauge("ptree.leaves").set(self.n_leaves)
            reg.gauge("ptree.segments").set(len(self.segments))
        self._persist()

    # -- persistence -----------------------------------------------------------

    def _manifest(self) -> Manifest:
        return Manifest(
            config={"format": PTREE_FORMAT, "n_leaves": self.n_leaves},
            stages=[],
        )

    def _persist(self) -> None:
        """Commit the live forest: new segment blobs first, manifest second.

        Blob writes are tmp+rename (idempotent under retry); stale blobs
        from superseded segments are unlinked only after the manifest no
        longer references them, so no crash window ever leaves the
        manifest pointing at a missing file.
        """
        if self.store is None:
            return
        store = self.store
        manifest = self._manifest()
        writes = 0

        def commit_blobs() -> list[StageRecord]:
            nonlocal writes
            faults.fire("ptree.commit")
            durable.makedirs(self.spool_dir)
            records = []
            for seg in self.segments:
                blob = seg.blob_name()
                record = self._committed.get(blob)
                if record is None:
                    info = write_blob(self.spool_dir / blob, seg.nodes())
                    faults.corrupt_file("ptree.commit", info.path)
                    record = StageRecord(
                        name=seg.stage_name(), blob=blob, count=info.count,
                        nbytes=info.nbytes, sha256=info.sha256, seconds=0.0,
                    )
                    writes += 1
                records.append(record)
            return records

        manifest.stages = self.retry_policy.run(
            commit_blobs, on_retry=self._on_retry
        )
        self.retry_policy.run(
            lambda: store.save(manifest), on_retry=self._on_retry
        )
        self._committed = {record.blob: record for record in manifest.stages}
        live = set(self._committed)
        for stray in self.spool_dir.glob("seg-*.bin"):
            if stray.name not in live:
                try:
                    stray.unlink()
                except OSError:  # a stray blob is harmless; never fail a commit on it
                    pass
        if self.telemetry is not None:
            self.telemetry.registry.counter("ptree.blob_writes").inc(writes)

    def _on_retry(self, attempt: int, delay: float, exc: BaseException) -> None:
        if self.telemetry is not None:
            self.telemetry.registry.counter("ptree.commit_retries").inc()
            self.telemetry.emit(
                "ptree.commit.retry", attempt=attempt,
                delay=round(delay, 4), error=repr(exc),
            )

    # -- restore ---------------------------------------------------------------

    def load_or_rebuild(self, moduli: list[int]) -> bool:
        """Make this (empty) tree hold exactly ``moduli``.

        Tries the spool first: every referenced blob must re-verify, the
        segment shapes must form a binary-counter forest over contiguous
        leaf ranges, and the stored leaves must equal a prefix of
        ``moduli`` value-for-value.  The rest of ``moduli`` is then
        appended, which writes only the new and merged segments.  Anything
        less falls back to a rebuild from scratch (``ptree.rebuilds``
        counts these).  Returns True when the spool satisfied the load.
        """
        if self.n_leaves:
            raise ValueError("load_or_rebuild requires an empty tree")
        if self.store is not None and self._try_load(moduli):
            if self.telemetry is not None:
                reg = self.telemetry.registry
                reg.gauge("ptree.leaves").set(self.n_leaves)
                reg.gauge("ptree.segments").set(len(self.segments))
            self.append(moduli[self.n_leaves :])
            return True
        if self.store is not None and self.telemetry is not None:
            self.telemetry.registry.counter("ptree.rebuilds").inc()
        self.segments = []
        self.n_leaves = 0
        self.append(moduli)
        return False

    def _try_load(self, moduli: list[int]) -> bool:
        manifest = self.store.load()
        if manifest is None or manifest.config.get("format") != PTREE_FORMAT:
            return False
        n_leaves = manifest.config.get("n_leaves")
        if not isinstance(n_leaves, int) or n_leaves > len(moduli):
            return False
        from_int, to_int = self.backend.from_int, self.backend.to_int
        segments: list[_Segment] = []
        start = 0
        for record in manifest.stages:
            if not self.store.verify(record):
                return False
            try:
                nodes = read_blob(self.spool_dir / record.blob)
                seg = _Segment.from_nodes(start, [from_int(v) for v in nodes])
            except (OSError, SpoolError, ValueError):
                return False
            if record.name != seg.stage_name() or record.blob != seg.blob_name():
                return False
            if segments and seg.size >= segments[-1].size:
                return False  # not a binary-counter forest
            if seg.levels[0] != [from_int(n) for n in moduli[start : start + seg.size]]:
                return False  # leaves disagree with the corpus
            segments.append(seg)
            start += seg.size
        if start != n_leaves:
            return False
        self.segments = segments
        self.n_leaves = start
        self._committed = {record.blob: record for record in manifest.stages}
        return True
