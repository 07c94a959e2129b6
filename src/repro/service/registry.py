"""Durable weak-key registry: every submitted modulus, every hit, forever.

The registry is the service's source of truth.  It lives in a
hash-chained segment log (:mod:`repro.core.chainlog`) at the root of the
state directory::

    state/
      registry-000000.log   segment header, then one frame per record
      registry-000001.log   opened once the last frame would take
      ...                   segment 0 past chainlog.SEGMENT_BYTES

A record is one of two kinds:

* a *commit*, one per batch: the batch's fresh moduli and new hits (the
  frame body, pinned by SHA-256 in the header), its non-default public
  exponents, and the duplicate count and shard-fleet shape as of the
  commit;
* a *state* record: the duplicate count and shard-fleet shape alone, from
  a throttled duplicate persist or :meth:`WeakKeyRegistry.sync`.

Commit protocol: each record is one :func:`repro.core.durable.append`
(one write and one fsync, plus a directory fsync when the frame opens a
new segment).  A batch is committed once that append returns, so an
acked batch survives power loss.  The cost does not grow with the
registry's age: nothing already written is rewritten.

Load reads each segment once, in order, and checks the hash chain and
every body's pins.  A torn final frame (an append that never finished,
so was never acknowledged) is truncated.  Any other damage also ends
the verified prefix, as it always has.  The registry keeps the records
before it, moves the damaged segment and those after it to
``quarantine/``, and writes the verified part of the damaged segment
back, so the damage never grows.  ``repro fsck --repair`` can instead
rebuild a damaged body from redundancy (``docs/INTEGRITY.md``); run it
before restarting on a state dir the scrubber reported damaged.

A state dir in the older ``weak-key-registry/1`` layout (a
``manifest.json`` pinning per-batch ``keys-N.bin``/``hits-N.bin`` blobs)
is converted once, inside :meth:`WeakKeyRegistry.load`, the one place
that reads it.  The verified prefix that the older loader would keep is
written as a log; then the manifest is removed, which commits the
conversion; then the converted blobs.  A crash before the manifest is
gone converts again, from scratch, at the next load.

Dedup semantics: a modulus is an identity.  Submitting one the registry
already holds returns the existing key's index and cached verdict; it is
*never* paired against itself, and the resubmission count is exposed as the
``registry.duplicate_submissions`` gauge (persisted across restarts).  Key
*reuse across deployments* is therefore read off that gauge and the ticket
``duplicate`` statuses — not, as in the one-shot attack, from a hit whose
"prime" is the whole modulus.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

from repro.core import chainlog, durable
from repro.core.attack import WeakHit
from repro.core.checkpoint import CheckpointStore, Manifest
# ``write_blob`` stays importable from here: perfbench/launch.py traces it
from repro.core.spool import SpoolError, read_blob, sidecar_path, write_blob  # noqa: F401
from repro.resilience import RetryPolicy, faults
from repro.rsa.keys import DEFAULT_E
from repro.telemetry import Telemetry

__all__ = ["RegistryError", "RegisteredBatch", "WeakKeyRegistry"]

#: the per-batch blob layout that :meth:`WeakKeyRegistry.load` converts
V1_FORMAT = "weak-key-registry/1"

#: minimum seconds between state records written *only* for duplicate
#: resubmissions.  Committed batches are never throttled; this bounds the
#: fsync rate of all-duplicate traffic.  At most this much counting can
#: be lost to a hard crash; graceful shutdown appends the exact count via
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


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _commit_record(
    batch: int,
    moduli: list[int],
    hits: list[WeakHit],
    exponents: dict[int, int],
    state: dict,
) -> tuple[dict, bytes]:
    """The ``(header, body)`` of one batch's commit record."""
    keys = chainlog.pack_ints(moduli)
    flat = chainlog.pack_ints(x for h in hits for x in (h.i, h.j, h.prime))
    header = {
        "kind": "commit", "batch": batch, "keys": len(moduli), "keys_nbytes": len(keys),
        "sha256": [_sha256(keys), _sha256(flat)], **state,
    }
    if exponents:
        header["exponents"] = {str(g): e for g, e in sorted(exponents.items())}
    return header, keys + flat


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
        self.telemetry = telemetry if telemetry is not None else Telemetry.create()
        #: append retry policy; a failed append is cut back before the next
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
        #: the sharded fleet's shape (``repro.service.shard``), recorded so
        #: a restart with another shard count is seen as a rebalance
        self._shard_state: dict | None = None
        #: JSON-ready verdict rows by index; rows are shared read-only and
        #: dropped for the indices a committed batch's hits touch
        self._verdict_cache: dict[int, dict] = {}
        self._dup_persist_at = 0.0  # monotonic time of the last dup-only write
        #: the duplicate count and shard state the log's last record holds
        self._persisted: dict = self._state()
        self._log = chainlog.LogWriter(self.state_dir)
        self._batches = 0
        self._lock = threading.Lock()

    # -- persistence -----------------------------------------------------------

    def _state(self) -> dict:
        return {"duplicates": self.duplicate_submissions, "shard_state": self._shard_state}

    def load(self) -> int:
        """Restore state from disk; returns the number of batches restored.

        No log and no manifest means a fresh registry.  A parseable
        ``manifest.json`` of another format raises — this layer refuses
        to clobber, say, a batchscan spool directory — and one of
        :data:`V1_FORMAT` is converted to the log first.  Verified-prefix
        semantics drop a torn or damaged tail (see the module docstring),
        so the next run starts from a clean boundary.
        """
        manifest = CheckpointStore(self.state_dir).load()
        if manifest is not None:
            fmt = manifest.config.get("format")
            if fmt != V1_FORMAT:
                raise RegistryError(
                    f"{self.state_dir / 'manifest.json'} is not a weak-key "
                    f"registry (format {fmt!r})"
                )
            dropped = self._convert_v1(manifest)
        else:
            dropped = self._load_log()
        if dropped:
            self.telemetry.registry.counter("registry.dropped_records").inc(dropped)
        self._update_gauges()
        self.telemetry.emit(
            "registry.loaded", keys=self.n_keys, batches=self._batches,
            hits=len(self.hits), dropped_records=dropped,
        )
        return self._batches

    def _load_log(self) -> int:
        """Restore the log's verified prefix and cut off what follows it."""
        scan = chainlog.read_log(self.state_dir)
        good = scan.verified()
        self._restore([(f.header, f.body) for f in good])
        self._log = chainlog.LogWriter.after(self.state_dir, good)
        if not scan.faults:
            return 0
        first = scan.faults[0]
        if first.verdict != "torn-tail":  # a torn tail is only ever unacknowledged
            for index, later in reversed(scan.segments):
                if index > first.segment:
                    durable.quarantine(self.state_dir, later)
            path = chainlog.segment_path(self.state_dir, first.segment)
            durable.quarantine(self.state_dir, path, scan.data[first.segment])
        chainlog.cut_back(self.state_dir, good[-1] if good else None)
        return max(1, len(scan.frames) - len(good))

    def _restore(self, records: list[tuple[dict, bytes]]) -> None:
        """Rebuild the in-memory registry from log records, checking invariants."""
        moduli: list[int] = []
        hits: list[WeakHit] = []
        batch_sizes: list[int] = []
        exponents: dict[int, int] = {}
        state = {"duplicates": 0, "shard_state": None}
        for header, body in records:
            if header.get("kind") == "commit":
                if header.get("batch") != len(batch_sizes):
                    raise RegistryError(
                        f"log holds batch {header.get('batch')} where batch "
                        f"{len(batch_sizes)} was due"
                    )
                cut = header["keys_nbytes"]
                keys = chainlog.unpack_ints(body[:cut])
                flat = chainlog.unpack_ints(body[cut:])
                if len(flat) % 3:
                    raise RegistryError(
                        f"batch {header['batch']}: {len(flat)} hit fields, not triples"
                    )
                moduli.extend(keys)
                batch_sizes.append(len(keys))
                hits.extend(
                    WeakHit(flat[k], flat[k + 1], flat[k + 2])
                    for k in range(0, len(flat), 3)
                )
                exponents.update(
                    (int(g), int(e)) for g, e in header.get("exponents", {}).items()
                )
            elif header.get("kind") != "state":
                raise RegistryError(f"unknown log record kind {header.get('kind')!r}")
            state = {"duplicates": int(header["duplicates"]), "shard_state": header["shard_state"]}

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
        self.bits = moduli[0].bit_length() if moduli else None
        self.duplicate_submissions = state["duplicates"]
        self._shard_state = state["shard_state"]
        self._persisted = state
        self._exponents = exponents
        self._batch_sizes = batch_sizes
        self._batches = len(batch_sizes)
        self._verdict_cache = {}

    def _convert_v1(self, manifest: Manifest) -> int:
        """Rewrite a ``weak-key-registry/1`` dir as a log; returns batches dropped.

        Keeps exactly the verified prefix the per-batch loader kept: whole
        ``(keys.N, hits.N)`` stage pairs whose blobs still match their
        pins, in order, up to the first that does not.
        """
        store = CheckpointStore(self.state_dir)
        prefix = store.verified_prefix(manifest, [r.name for r in manifest.stages])
        batches: list[tuple[list[int], list[WeakHit]]] = []
        for keys_rec, hits_rec in zip(prefix[0::2], prefix[1::2]):
            b = len(batches)
            if keys_rec.name != f"keys.{b}" or hits_rec.name != f"hits.{b}":
                break
            try:
                moduli = read_blob(self.state_dir / keys_rec.blob)
                flat = read_blob(self.state_dir / hits_rec.blob)
            except (OSError, SpoolError) as exc:
                raise RegistryError(f"verified blob became unreadable: {exc}") from exc
            if len(flat) % 3:
                raise RegistryError(
                    f"{hits_rec.blob}: hit blob holds {len(flat)} records, not triples"
                )
            hits = [WeakHit(flat[k], flat[k + 1], flat[k + 2]) for k in range(0, len(flat), 3)]
            batches.append((moduli, sorted(hits, key=lambda h: (h.i, h.j))))

        config = manifest.config
        exponents = {int(g): int(e) for g, e in config.get("exponents", {}).items()}
        state = {
            "duplicates": int(config.get("duplicate_submissions", 0)),
            "shard_state": config.get("shard_state"),
        }
        records = []
        base = 0
        for b, (moduli, hits) in enumerate(batches):
            own = {g: e for g, e in exponents.items() if base <= g < base + len(moduli)}
            records.append(_commit_record(b, moduli, hits, own, state))
            base += len(moduli)
        if not records and state != {"duplicates": 0, "shard_state": None}:
            records.append(({"kind": "state", **state}, b""))
        self._restore(records)  # every invariant holds before the disk changes

        for _, stale in chainlog.segment_paths(self.state_dir):
            durable.remove(stale)  # an earlier conversion that did not finish
        self._log = chainlog.LogWriter(self.state_dir)
        if records:
            self._log.append(records)
        durable.remove(store.path)  # the conversion's commit point
        sidecar_path(store.path).unlink(missing_ok=True)
        for record in prefix[: 2 * len(batches)]:
            (self.state_dir / record.blob).unlink(missing_ok=True)
        self.telemetry.emit(
            "registry.converted", source=V1_FORMAT, batches=len(batches),
            keys=self.n_keys,
        )
        return (len(manifest.stages) + 1) // 2 - len(batches)

    def _append(self, header: dict, body: bytes = b"", *, point: str | None = None):
        """One durable append of one record, retried; returns its placement."""

        def write():
            if point is not None:
                faults.fire(point)
            durable.makedirs(self.state_dir)
            return self._log.append([(header, body)])[0]

        placed = self.retry_policy.run(write, on_retry=self._on_commit_retry)
        self._persisted = {"duplicates": header["duplicates"], "shard_state": header["shard_state"]}
        return placed

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
        65537.  ``seconds`` (the scan's wall time) is kept in the record.
        Returns only after the record's append is durable
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
            sorted_new = sorted(new_hits, key=lambda h: (h.i, h.j))
            own = {g: e for g, e in (exponents or {}).items() if e != DEFAULT_E}
            header, body = _commit_record(batch, new_moduli, sorted_new, own, self._state())
            if seconds:
                header["seconds"] = round(seconds, 6)
            path, head_at, body_at = self._append(header, body, point="registry.commit")
            # bit rot after a successful commit: the body, then the header
            faults.corrupt_file("registry.commit", path, region=(body_at, body_at + len(body)))
            faults.corrupt_file("registry.commit", path, region=(head_at, body_at))

            self._exponents.update(own)
            for n in new_moduli:
                self._index[n] = len(self.moduli)
                self.moduli.append(n)
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
        """Append a state record now if the log's last one is out of date.

        The graceful-shutdown seam: committed batches are already durable,
        but a duplicate-submission count or fleet shape recorded since the
        last record lives only in memory until the next one.
        ``sync`` makes the log exactly current, and appends nothing when
        it already is.
        """
        with self._lock:
            if self._state() != self._persisted:
                self._append({"kind": "state", **self._state()})
        self.telemetry.emit("registry.synced", keys=self.n_keys, batches=self._batches)

    def note_duplicates(self, count: int = 1, *, persist: bool = False) -> None:
        """Count resubmissions of already-registered moduli.

        The count rides the next commit record; ``persist=True`` requests
        a state record now (used for batches that turned out to be *all*
        duplicates, which commit nothing else).  Those records are
        throttled to one per :data:`DUPLICATE_PERSIST_INTERVAL` seconds so
        a resubmission storm does not pay an fsync per flushed batch —
        the counter is bookkeeping, and :meth:`sync` (graceful shutdown)
        always writes the exact total.
        """
        if count < 0:
            raise ValueError("duplicate count only moves forward")
        with self._lock:
            self.duplicate_submissions += count
            self._update_gauges()
            now = time.monotonic()
            if persist and now - self._dup_persist_at >= DUPLICATE_PERSIST_INTERVAL:
                self._dup_persist_at = now
                self._append({"kind": "state", **self._state()})

    def set_shard_state(self, state: dict | None) -> None:
        """Record the fleet's shape for the next log record.

        Called by :class:`repro.service.shard.ShardRouter` at start.  The
        per-shard watermarks are not recorded: they follow from the moduli
        and :meth:`batch_sizes`.  ``None`` clears the record.
        """
        with self._lock:
            self._shard_state = state

    def shard_state(self) -> dict | None:
        """The last persisted or recorded fleet shape, if any."""
        return self._shard_state

    def batch_sizes(self) -> list[int]:
        """Per-batch key counts, in commit order.

        Together with ``moduli`` this replays the admission history — how a
        starting shard fleet computes every pair-coverage watermark without
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

    def _update_gauges(self) -> None:
        reg = self.telemetry.registry
        reg.gauge("registry.keys").set(self.n_keys)
        reg.gauge("registry.batches").set(self._batches)
        reg.gauge("registry.hits").set(len(self.hits))
        reg.gauge("registry.duplicate_submissions").set(self.duplicate_submissions)
