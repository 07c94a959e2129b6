"""Durable weak-key registry: every submitted modulus, every hit, forever.

The registry is the service's source of truth.  It reuses the batch
pipeline's storage primitives — RGSPOOL1 integer blobs
(:mod:`repro.core.spool`) pinned by SHA-256 in an atomically rewritten
manifest (:mod:`repro.core.checkpoint`), all written through
:mod:`repro.core.durable` — so a batch is *committed* only once both of its
blobs and the manifest are durable, directory entries included; anything
less is invisible after a restart, even one forced by power loss.

Layout of one state directory::

    state/
      manifest.json       config + one (keys.N, hits.N) stage pair per batch
      keys-000000.bin     batch 0's fresh moduli, in global-index order
      hits-000000.bin     batch 0's new hits as flat (i, j, prime) triples
      keys-000001.bin     ...

Commit protocol (the order is the durability argument):

1. ``keys-N.bin`` is written via tmp + fsync + rename + directory fsync;
2. ``hits-N.bin`` likewise;
3. ``manifest.json`` is rewritten likewise with both stage records appended.

A crash (``kill -9`` or power loss) between any two steps leaves at
worst stray unreferenced blob files with the *next* batch's names — the
next commit simply overwrites them.  On load, every referenced blob is re-hashed; the first corrupt or
missing blob truncates the registry to the last whole verified batch (and
the manifest is rewritten to match, so the damage never grows).

Dedup semantics: a modulus is an identity.  Submitting one the registry
already holds returns the existing key's index and cached verdict; it is
*never* paired against itself, and the resubmission count is exposed as the
``registry.duplicate_submissions`` gauge (persisted across restarts).  Key
*reuse across deployments* is therefore read off that gauge and the ticket
``duplicate`` statuses — not, as in the one-shot attack, from a hit whose
"prime" is the whole modulus.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

from repro.core import durable
from repro.core.attack import WeakHit
from repro.core.checkpoint import CheckpointStore, Manifest, StageRecord
from repro.core.incremental import SNAPSHOT_VERSION
from repro.core.spool import SpoolError, read_blob, write_blob
from repro.resilience import RetryPolicy, faults
from repro.rsa.keys import DEFAULT_E
from repro.telemetry import Telemetry

__all__ = ["RegistryError", "RegisteredBatch", "WeakKeyRegistry", "REGISTRY_FORMAT"]

REGISTRY_FORMAT = "weak-key-registry/1"

#: minimum seconds between manifest rewrites triggered *only* by duplicate
#: resubmissions.  Committed batches are never throttled; this bounds the
#: fsync rate of all-duplicate traffic (a resubmission storm used to pay
#: one manifest fsync per flushed batch).  At most this much counting can
#: be lost to a hard crash; graceful shutdown folds the exact count in via
#: :meth:`WeakKeyRegistry.sync`.
DUPLICATE_PERSIST_INTERVAL = 1.0


class RegistryError(ValueError):
    """A corrupt registry invariant or an invalid commit."""


@dataclass(frozen=True)
class RegisteredBatch:
    """What one committed batch added.

    >>> RegisteredBatch(index=0, base=0, n_keys=3, n_hits=1).n_keys
    3
    """

    index: int
    base: int
    n_keys: int
    n_hits: int


class WeakKeyRegistry:
    """The service's persistent, deduplicating modulus + hit store.

    >>> import tempfile
    >>> with tempfile.TemporaryDirectory() as d:
    ...     reg = WeakKeyRegistry(d)
    ...     _ = reg.load()
    ...     _ = reg.commit_batch([193 * 197, 193 * 199], [WeakHit(0, 1, 193)])
    ...     reg2 = WeakKeyRegistry(d)
    ...     _ = reg2.load()
    ...     (reg2.n_keys, reg2.index_of(193 * 199), [(h.i, h.j) for h in reg2.hits])
    (2, 1, [(0, 1)])
    """

    def __init__(
        self,
        state_dir: str | Path,
        *,
        telemetry: Telemetry | None = None,
        retry_policy: RetryPolicy | None = None,
    ) -> None:
        self.state_dir = Path(state_dir)
        self.store = CheckpointStore(self.state_dir)
        self.telemetry = telemetry if telemetry is not None else Telemetry.create()
        #: commit-IO retry policy; blob writes are tmp+rename so re-running is safe
        self.retry_policy = (
            retry_policy
            if retry_policy is not None
            else RetryPolicy(max_attempts=3, base_delay=0.05, max_delay=2.0)
        )
        self.moduli: list[int] = []
        self.hits: list[WeakHit] = []
        self.bits: int | None = None
        self.duplicate_submissions = 0
        self._index: dict[int, int] = {}
        self._hits_by_key: dict[int, list[WeakHit]] = defaultdict(list)
        self._exponents: dict[int, int] = {}
        self._batch_sizes: list[int] = []
        #: sharded-fleet watermarks (``repro.service.shard``): which job each
        #: shard had durably applied as of the last manifest write — the
        #: registry is the durable truth the fleet reconciles against
        self._shard_state: dict | None = None
        #: JSON-ready verdict rows by index; rows are shared read-only and
        #: dropped for the indices a committed batch's hits touch
        self._verdict_cache: dict[int, dict] = {}
        self._dup_persist_at = 0.0  # monotonic time of the last dup-only write
        self._manifest = Manifest(config=self._config())
        self._batches = 0
        self._lock = threading.Lock()

    # -- persistence -----------------------------------------------------------

    def _config(self) -> dict:
        config = {
            "format": REGISTRY_FORMAT,
            "bits": self.bits,
            "duplicate_submissions": self.duplicate_submissions,
            "exponents": {str(i): e for i, e in sorted(self._exponents.items())},
        }
        if self._shard_state is not None:
            config["shard_state"] = self._shard_state
        return config

    def load(self) -> int:
        """Restore state from disk; returns the number of batches restored.

        A missing or unparsable manifest means a fresh registry.  A
        parseable manifest of the wrong format raises — this layer refuses
        to clobber, say, a batchscan spool directory.  Verified-prefix
        semantics drop any trailing half-committed or corrupt batch and
        rewrite the manifest so the next run starts from a clean boundary.
        """
        manifest = self.store.load()
        if manifest is None:
            self._manifest = Manifest(config=self._config())
            return 0
        fmt = manifest.config.get("format")
        if fmt != REGISTRY_FORMAT:
            raise RegistryError(
                f"{self.store.path} is not a weak-key registry (format {fmt!r})"
            )
        expected = [record.name for record in manifest.stages]
        prefix = self.store.verified_prefix(manifest, expected)

        moduli: list[int] = []
        hits: list[WeakHit] = []
        batch_sizes: list[int] = []
        batches = 0
        pos = 0
        while pos + 1 < len(prefix):
            keys_rec, hits_rec = prefix[pos], prefix[pos + 1]
            if keys_rec.name != f"keys.{batches}" or hits_rec.name != f"hits.{batches}":
                break
            try:
                batch_moduli = read_blob(self.state_dir / keys_rec.blob)
                flat = read_blob(self.state_dir / hits_rec.blob)
            except (OSError, SpoolError) as exc:
                raise RegistryError(f"verified blob became unreadable: {exc}") from exc
            if len(flat) % 3:
                raise RegistryError(
                    f"{hits_rec.blob}: hit blob holds {len(flat)} records, not triples"
                )
            moduli.extend(batch_moduli)
            batch_sizes.append(len(batch_moduli))
            hits.extend(
                WeakHit(flat[k], flat[k + 1], flat[k + 2])
                for k in range(0, len(flat), 3)
            )
            batches += 1
            pos += 2

        dropped = len(manifest.stages) - 2 * batches
        index: dict[int, int] = {}
        for gidx, n in enumerate(moduli):
            if n in index:
                raise RegistryError(
                    f"registry invariant broken: modulus at index {gidx} "
                    f"duplicates index {index[n]}"
                )
            index[n] = gidx
        for h in hits:
            if not 0 <= h.i < h.j < len(moduli):
                raise RegistryError(f"hit ({h.i}, {h.j}) out of range for {len(moduli)} keys")

        self.moduli = moduli
        self._index = index
        self.hits = sorted(hits, key=lambda h: (h.i, h.j))
        self._hits_by_key = defaultdict(list)
        for h in self.hits:
            self._hits_by_key[h.i].append(h)
            self._hits_by_key[h.j].append(h)
        self.bits = manifest.config.get("bits")
        self.duplicate_submissions = int(manifest.config.get("duplicate_submissions", 0))
        self._exponents = {
            int(i): int(e) for i, e in manifest.config.get("exponents", {}).items()
        }
        self._batch_sizes = batch_sizes
        self._shard_state = manifest.config.get("shard_state")
        self._batches = batches
        if dropped:
            manifest.stages = manifest.stages[: 2 * batches]
            self.telemetry.registry.counter("registry.dropped_stages").inc(dropped)
        manifest.config = self._config()
        self._manifest = manifest
        if dropped:
            self.store.save(manifest)  # self-heal: forget the corrupt tail
        self._update_gauges()
        self.telemetry.emit(
            "registry.loaded", keys=self.n_keys, batches=batches,
            hits=len(self.hits), dropped_stages=dropped,
        )
        return batches

    def commit_batch(
        self,
        new_moduli: list[int],
        new_hits: list[WeakHit],
        *,
        exponents: dict[int, int] | None = None,
        seconds: float = 0.0,
    ) -> RegisteredBatch:
        """Durably append one *scanned* batch: fresh moduli plus their hits.

        The caller guarantees the contract the durability story rests on:
        ``new_moduli`` are deduplicated (against the registry and among
        themselves) and have already been scanned against every registered
        key, and ``new_hits`` are exactly the hits that scan produced (in
        global indices, each touching at least one new key).  ``exponents``
        maps *global* index → public exponent for keys whose ``e`` is not
        65537.  Returns only after blobs and manifest are durable
        (:mod:`repro.core.durable`), so an acked batch survives power loss.
        """
        with self._lock:
            base = len(self.moduli)
            seen: set[int] = set()
            for n in new_moduli:
                if n in self._index or n in seen:
                    raise RegistryError(f"modulus already registered: {n}")
                if self.bits is not None and n.bit_length() != self.bits:
                    raise RegistryError(
                        f"modulus of {n.bit_length()} bits in a {self.bits}-bit registry"
                    )
                seen.add(n)
            total = base + len(new_moduli)
            for h in new_hits:
                if not (0 <= h.i < h.j < total) or h.j < base:
                    raise RegistryError(
                        f"hit ({h.i}, {h.j}) does not touch batch [{base}, {total})"
                    )
            for gidx, e in (exponents or {}).items():
                if not base <= gidx < total:
                    raise RegistryError(f"exponent for index {gidx} outside the batch")

            if self.bits is None and new_moduli:
                self.bits = new_moduli[0].bit_length()

            batch = self._batches
            keys_name = f"keys-{batch:06d}.bin"
            hits_name = f"hits-{batch:06d}.bin"
            flat: list[int] = []
            for h in new_hits:
                flat.extend((h.i, h.j, h.prime))

            # Blob writes go to tmp + rename, so a failed attempt leaves at
            # worst a stray .tmp that the retry overwrites — re-running the
            # whole closure is idempotent.  Manifest stages are appended only
            # after both blobs land, so retries never duplicate records.
            def persist_blobs():
                faults.fire("registry.commit")
                durable.makedirs(self.state_dir)
                k = write_blob(self.state_dir / keys_name, new_moduli)
                faults.corrupt_file("registry.commit", k.path)
                v = write_blob(self.state_dir / hits_name, flat)
                faults.corrupt_file("registry.commit", v.path)
                return k, v

            keys_info, hits_info = self.retry_policy.run(
                persist_blobs, on_retry=self._on_commit_retry
            )

            for gidx, e in (exponents or {}).items():
                if e != DEFAULT_E:
                    self._exponents[gidx] = e
            self._manifest.stages.append(
                StageRecord(
                    name=f"keys.{batch}", blob=keys_name, count=keys_info.count,
                    nbytes=keys_info.nbytes, sha256=keys_info.sha256, seconds=seconds,
                )
            )
            self._manifest.stages.append(
                StageRecord(
                    name=f"hits.{batch}", blob=hits_name, count=hits_info.count,
                    nbytes=hits_info.nbytes, sha256=hits_info.sha256, seconds=0.0,
                )
            )
            self._manifest.config = self._config()
            self.retry_policy.run(
                lambda: self.store.save(self._manifest), on_retry=self._on_commit_retry
            )

            for n in new_moduli:
                self._index[n] = len(self.moduli)
                self.moduli.append(n)
            sorted_new = sorted(new_hits, key=lambda h: (h.i, h.j))
            self.hits.extend(sorted_new)
            self.hits.sort(key=lambda h: (h.i, h.j))
            for h in sorted_new:
                self._hits_by_key[h.i].append(h)
                self._hits_by_key[h.j].append(h)
                # these keys' verdicts just changed; recompute on next read
                self._verdict_cache.pop(h.i, None)
                self._verdict_cache.pop(h.j, None)
            self._batch_sizes.append(len(new_moduli))
            self._batches += 1
            self._update_gauges()
        self.telemetry.emit(
            "registry.commit", batch=batch, new_keys=len(new_moduli),
            new_hits=len(new_hits), total_keys=self.n_keys,
        )
        return RegisteredBatch(
            index=batch, base=base, n_keys=len(new_moduli), n_hits=len(new_hits)
        )

    def _on_commit_retry(self, attempt: int, delay: float, exc: BaseException) -> None:
        self.telemetry.registry.counter("registry.commit_retries").inc()
        self.telemetry.emit(
            "registry.commit.retry",
            attempt=attempt,
            delay=round(delay, 4),
            error=repr(exc),
        )

    def sync(self) -> None:
        """Rewrite the manifest now, folding in any unpersisted config state.

        The graceful-shutdown seam: committed batches are already durable,
        but duplicate-submission counts observed since the last commit live
        only in memory until the next manifest rewrite.  ``sync`` makes the
        on-disk manifest exactly current (idempotent; cheap when nothing
        changed).
        """
        with self._lock:
            self._manifest.config = self._config()
            self.retry_policy.run(
                lambda: self.store.save(self._manifest), on_retry=self._on_commit_retry
            )
        self.telemetry.emit("registry.synced", keys=self.n_keys, batches=self._batches)

    def note_duplicates(self, count: int = 1, *, persist: bool = False) -> None:
        """Count resubmissions of already-registered moduli.

        The count is folded into the manifest config at the next commit;
        ``persist=True`` requests a manifest rewrite now (used for batches
        that turned out to be *all* duplicates, which commit nothing
        else).  Dup-only rewrites are throttled to one per
        :data:`DUPLICATE_PERSIST_INTERVAL` seconds so a resubmission storm
        does not pay a manifest fsync per flushed batch — the counter is
        bookkeeping, and :meth:`sync` (graceful shutdown) always writes
        the exact total.
        """
        if count < 0:
            raise ValueError("duplicate count only moves forward")
        with self._lock:
            self.duplicate_submissions += count
            self._update_gauges()
            now = time.monotonic()
            if (
                persist
                and self._manifest is not None
                and now - self._dup_persist_at >= DUPLICATE_PERSIST_INTERVAL
            ):
                self._dup_persist_at = now
                self._manifest.config = self._config()
                self.store.save(self._manifest)

    def set_shard_state(self, state: dict | None) -> None:
        """Record the fleet's per-shard watermarks for the next manifest write.

        Called by :class:`repro.service.shard.ShardRouter` after every shard
        has durably applied a job and *before* the batch commit, so the
        manifest that lands carries watermarks consistent with the shard
        snapshots already on disk (shards lead, the registry follows —
        never the reverse).  ``None`` clears the record (single-scanner
        mode).
        """
        with self._lock:
            self._shard_state = state

    def shard_state(self) -> dict | None:
        """The last persisted/recorded per-shard watermark payload, if any."""
        return self._shard_state

    def batch_sizes(self) -> list[int]:
        """Per-batch key counts, in commit order.

        Together with ``moduli`` this replays the admission history — how a
        rebuilding shard recomputes its pair-coverage watermark without
        rescanning anything (see ``docs/SHARDING.md``).
        """
        return list(self._batch_sizes)

    # -- queries ---------------------------------------------------------------

    @property
    def n_keys(self) -> int:
        return len(self.moduli)

    @property
    def n_batches(self) -> int:
        return self._batches

    def index_of(self, n: int) -> int | None:
        """The global index of ``n``, or ``None`` if never registered."""
        return self._index.get(n)

    def exponent_of(self, index: int) -> int:
        """The public exponent recorded for key ``index`` (default 65537)."""
        return self._exponents.get(index, DEFAULT_E)

    def hits_for(self, index: int) -> list[WeakHit]:
        """Every hit involving key ``index`` (empty when the key is sound)."""
        return list(self._hits_by_key.get(index, ()))

    def verdict(self, index: int) -> dict:
        """The JSON-ready verdict for one registered key, as of now.

        A verdict can only ever move from sound to weak — future
        submissions may reveal a shared prime, never retract one.  Rows
        are cached until a commit lands a hit touching the index (the only
        event that changes one) and shared between callers: duplicate
        storms resolve to the same dict object.  Treat them as read-only.
        """
        row = self._verdict_cache.get(index)
        if row is None:
            hits = self.hits_for(index)
            row = self._verdict_cache[index] = {
                "index": index,
                "weak": bool(hits),
                "hits": [
                    {"partner": h.j if h.i == index else h.i, "prime": hex(h.prime)}
                    for h in hits
                ],
            }
        return row

    def scanner_snapshot(self) -> dict:
        """An :meth:`IncrementalScanner.restore`-ready snapshot of the corpus.

        Valid because of the commit contract: every committed batch was
        fully scanned against all keys registered before it, so coverage is
        exactly complete — restart never rescans an old-vs-old pair.  It
        pins no int backend: the caller's choice (or the default) applies.
        """
        if self.bits is None:
            raise RegistryError("registry holds no keys yet; nothing to snapshot")
        with self._lock:
            m = len(self.moduli)
            return {
                "version": SNAPSHOT_VERSION,
                "bits": self.bits,
                "int_backend": None,
                "moduli": list(self.moduli),
                "hits": [[h.i, h.j, h.prime] for h in self.hits],
                "total_pairs_tested": m * (m - 1) // 2,
                "batches": self._batches,
            }

    def _update_gauges(self) -> None:
        reg = self.telemetry.registry
        reg.gauge("registry.keys").set(self.n_keys)
        reg.gauge("registry.batches").set(self._batches)
        reg.gauge("registry.hits").set(len(self.hits))
        reg.gauge("registry.duplicate_submissions").set(self.duplicate_submissions)
