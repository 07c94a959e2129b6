"""The sharded scanner fleet: a consistent-hash router over N worker processes.

The paper's §VI group schedule blocks the all-pairs workload into ``(i, j)``
tiles over groups of ``r`` moduli precisely so independent compute units can
own disjoint slices.  This module generalises that schedule to the serving
path: a :class:`ShardRouter` owns ``N`` supervised worker processes, each
running its own :class:`~repro.core.incremental.IncrementalScanner` (its
product tree spooled under the shard's directory) over a consistent-hash
slice of the modulus space.

**Pair-coverage partition.**  For an admitted batch ``B`` of ``b`` fresh
keys against a corpus of ``M`` keys split as ``M = Σ m_k``:

* every shard ``k`` cross-scans the *full* batch against its local slice —
  ``m_k · b`` pairs, hits reported in global indices;
* exactly one shard (``job % N``) also covers the batch's ``b(b−1)/2``
  internal pairs;
* each shard then *adopts* only its hash-owned subset of the batch.

Per batch the shards cover ``Σ_k m_k·b + b(b−1)/2 = M·b + b(b−1)/2`` pairs
— exactly what the single scanner would have covered — so over a session
``Σ_k pairs_k = M(M−1)/2`` and the hit set is identical to the 1-shard run
(pinned by ``tests/service/test_shard.py``).

**Durability and exactly-once.**  Delivery is at-least-once (a crashed
shard gets its unacknowledged job replayed); application is exactly-once:
a worker persists its snapshot — the global indices of its slice, pair
watermark, the job id *and that job's hits* — under
``state_dir/shards/<k>/`` **before** acking (the ``shard.commit`` fault
point), so a replay of an already-applied job returns the stored hits
without rescanning.  The snapshot holds no moduli: the registry holds
those, and the worker's product tree spool (``shards/<k>/ptree/``) holds
its slice's leaves.  The router gathers all acks, records per-shard
watermarks with the registry, and only then runs the registry's
one-append commit: shard state is always at or one job ahead of the
registry, never behind.

**Init.**  The registry is the durable truth.  Every (re)started worker
gets its slice — indices and moduli — from the registry in one ``init``
message, and builds its scanner over it (the tree loads from the spool).
It keeps its snapshot's watermark and last job when the snapshot records
that slice at the registry's last job, or, on a respawn, that slice plus
the in-flight job's keys at that job.  Any other snapshot (ahead, stale,
damaged, or shaped for a different shard count) is reset to the
registry's slice (``shard.rebuild``; ``shard.rebalance`` on a count
change).

Failure handling mirrors :class:`~repro.resilience.supervisor.ChunkSupervisor`
semantics: a SIGKILL'd worker is respawned, re-initialised, and
replays only the in-flight job; per-job attempt budgets catch poison
batches (:class:`ShardJobFailed`) and consecutive no-progress respawns
bound crash loops (:class:`ShardPoolExhausted`).  ``docs/SHARDING.md`` has
the full protocol, ordering model and failure matrix.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import sys
import time
from bisect import bisect_right
from dataclasses import dataclass, field
from pathlib import Path

from repro.core import durable
from repro.core.attack import WeakHit
from repro.core.incremental import IncrementalScanner
from repro.core.spool import write_sidecar
from repro.resilience import faults
from repro.resilience.errors import FatalError, TransientError
from repro.telemetry import Telemetry

__all__ = [
    "SHARD_SNAPSHOT_FORMAT",
    "ShardJobFailed",
    "ShardPoolExhausted",
    "ShardRing",
    "ShardRouter",
    "simulate_watermarks",
]

#: on-disk format tag of ``state_dir/shards/<k>/shard.json``
SHARD_SNAPSHOT_FORMAT = "repro.shard-snapshot/2"

#: what a worker resumes from: ``/1`` also held a copy of the slice's
#: moduli and hits (``scanner``), which is ignored and gone on the next persist
_READABLE_FORMATS = ("repro.shard-snapshot/1", SHARD_SNAPSHOT_FORMAT)

#: virtual nodes per shard on the hash ring — enough for a few-percent
#: balance spread at single-digit shard counts without bloating lookups
DEFAULT_RING_REPLICAS = 32


class ShardJobFailed(FatalError):
    """One shard exhausted its per-job attempt budget — a poison batch."""


class ShardPoolExhausted(FatalError):
    """Consecutive respawns with no completed job — a shard crash loop."""


class ShardRing:
    """Consistent-hash assignment of moduli to shards.

    Each shard owns ``replicas`` points on a SHA-256 ring; a modulus maps
    to the first point at or after its own hash.  The mapping depends only
    on ``(shards, replicas, n)``, so every process — router, workers,
    tests — computes identical ownership with no coordination.

    >>> ring = ShardRing(3)
    >>> owners = {ring.owner(193 * 197), ring.owner(211 * 227)}
    >>> all(0 <= k < 3 for k in owners)
    True
    """

    def __init__(self, shards: int, *, replicas: int = DEFAULT_RING_REPLICAS) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        self.shards = shards
        self.replicas = replicas
        points: list[tuple[int, int]] = []
        for k in range(shards):
            for r in range(replicas):
                digest = hashlib.sha256(f"repro.shard:{k}:{r}".encode()).digest()
                points.append((int.from_bytes(digest[:8], "big"), k))
        points.sort()
        self._keys = [p[0] for p in points]
        self._shards = [p[1] for p in points]

    def owner(self, n: int) -> int:
        """The shard that owns modulus ``n``."""
        if self.shards == 1:
            return 0
        raw = n.to_bytes((n.bit_length() + 7) // 8 or 1, "big")
        h = int.from_bytes(hashlib.sha256(raw).digest()[:8], "big")
        idx = bisect_right(self._keys, h) % len(self._keys)
        return self._shards[idx]


def simulate_watermarks(
    moduli: list[int], batch_sizes: list[int], ring: ShardRing
) -> tuple[list[int], list[int]]:
    """Replay the admission history to recompute per-shard watermarks.

    Returns ``(keys_per_shard, pairs_per_shard)`` such that
    ``sum(pairs) == M(M−1)/2`` — the deterministic fallback when a shard
    rebuilds from a registry whose records predate sharding or were
    written for a different shard count.

    >>> ring = ShardRing(2)
    >>> keys, pairs = simulate_watermarks([15, 21, 35], [2, 1], ring)
    >>> (sum(keys), sum(pairs))
    (3, 3)
    """
    shards = ring.shards
    keys = [0] * shards
    pairs = [0] * shards
    pos = 0
    for job, size in enumerate(batch_sizes):
        for k in range(shards):
            pairs[k] += keys[k] * size
        pairs[job % shards] += size * (size - 1) // 2
        for n in moduli[pos : pos + size]:
            keys[ring.owner(n)] += 1
        pos += size
    if pos != len(moduli):
        raise ValueError(
            f"batch sizes sum to {pos} but the corpus holds {len(moduli)} keys"
        )
    return keys, pairs


def _batch_fingerprint(moduli: list[int]) -> str:
    """Identity of one admitted batch — replay-dedup is keyed on (job, fp)."""
    h = hashlib.sha256()
    for n in moduli:
        h.update(f"{n},".encode())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# worker side (child process)
# ---------------------------------------------------------------------------


class _ShardWorker:
    """One shard's state machine, living in its own process.

    Job protocol: cross-scan the full batch against the local slice →
    adopt the hash-owned subset → persist the snapshot (``shard.commit``)
    → ack.  An ack therefore *implies* durability; a replay of the applied
    job returns the stored hits without rescanning.
    """

    def __init__(
        self,
        shard: int,
        shards: int,
        replicas: int,
        state_dir: str,
        int_backend: str | None,
    ) -> None:
        self.shard = shard
        self.shards = shards
        self.replicas = replicas
        self.ring = ShardRing(shards, replicas=replicas)
        self.dir = Path(state_dir) / "shards" / str(shard)
        self.int_backend = int_backend
        self.telemetry = Telemetry.create()
        self.scanner: IncrementalScanner | None = None
        self.indices: list[int] = []
        self.pairs_tested = 0
        self.applied_job: int | None = None
        self.applied_fp: str | None = None
        self.applied_hits: list[list[int]] = []
        self.applied_pairs = 0
        self.persisted = True

    # -- persistence --------------------------------------------------------

    @property
    def snapshot_path(self) -> Path:
        return self.dir / "shard.json"

    def _persist(self) -> None:
        faults.fire("shard.commit")
        payload = {
            "format": SHARD_SNAPSHOT_FORMAT,
            "shard": self.shard,
            "shards": self.shards,
            "replicas": self.replicas,
            "indices": self.indices,
            "pairs_tested": self.pairs_tested,
            "job": self.applied_job,
            "job_fp": self.applied_fp,
            "job_hits": self.applied_hits,
            "job_pairs": self.applied_pairs,
        }
        body = json.dumps(payload).encode("utf-8")
        durable.makedirs(self.dir)
        durable.replace_bytes(self.snapshot_path, body)
        faults.corrupt_file("shard.commit", self.snapshot_path)
        # hash the in-memory bytes: a post-rename rot must not reach the sidecar
        write_sidecar(self.snapshot_path, hashlib.sha256(body).hexdigest())
        self.persisted = True

    def _stored(self) -> dict | None:
        """The snapshot on disk, if it is whole and this shard's."""
        try:
            payload = json.loads(self.snapshot_path.read_bytes())
        except (OSError, ValueError):
            return None
        if (
            not isinstance(payload, dict)
            or payload.get("format") not in _READABLE_FORMATS
            or (payload.get("shard"), payload.get("shards"), payload.get("replicas"))
            != (self.shard, self.shards, self.replicas)
        ):
            return None
        try:
            return {
                "indices": [int(i) for i in payload["indices"]],
                "pairs_tested": int(payload["pairs_tested"]),
                "job": payload["job"],
                "job_fp": payload.get("job_fp"),
                "job_hits": [[int(a), int(b), int(p)] for a, b, p in payload.get("job_hits", [])],
                "job_pairs": int(payload.get("job_pairs", 0)),
            }
        except (KeyError, ValueError, TypeError):
            return None

    # -- state views --------------------------------------------------------

    def _ack(self, *, replayed: bool) -> tuple[str, dict]:
        return (
            "ack",
            {
                "job": self.applied_job,
                "hits": self.applied_hits,
                "pairs": self.applied_pairs,
                "keys": len(self.indices),
                "pairs_total": self.pairs_tested,
                "replayed": replayed,
            },
        )

    # -- command handlers ----------------------------------------------------

    def _scanner(self, bits: int, moduli: list[int]) -> IncrementalScanner:
        return IncrementalScanner(
            bits=bits,
            moduli=moduli,
            int_backend=self.int_backend,
            spool_dir=self.dir / "ptree",
            telemetry=self.telemetry,
        )

    def handle_init(self, payload: dict) -> tuple[str, dict]:
        """Take the slice the registry holds; resume from the snapshot if
        it records that state (or, with ``next``, that state plus the
        in-flight job's keys), else reset to it and persist."""
        indices = [int(i) for i in payload["indices"]]
        moduli = [int(n) for n in payload["moduli"]]
        stored = self._stored()
        resumed = stored is not None and (stored["indices"], stored["job"]) == (
            indices, payload["job"]
        )
        after = payload.get("next")
        if not resumed and stored is not None and after is not None:
            resumed = (stored["indices"], stored["job"]) == (
                indices + after["indices"], after["job"]
            )
            if resumed:
                indices = stored["indices"]
                moduli = moduli + [int(n) for n in after["moduli"]]
        if resumed:
            self.pairs_tested = stored["pairs_tested"]
            self.applied_job = stored["job"]
            self.applied_fp = stored["job_fp"]
            self.applied_hits = stored["job_hits"]
            self.applied_pairs = stored["job_pairs"]
        else:
            self.pairs_tested = int(payload["pairs_tested"])
            self.applied_job = payload["job"]
            self.applied_fp = None
            self.applied_hits = []
            self.applied_pairs = 0
        self.indices = indices
        bits = payload.get("bits")
        self.scanner = self._scanner(int(bits), moduli) if bits else None
        self.persisted = resumed
        if not resumed:
            try:
                self._persist()
            except OSError:
                # memory is already the registry's truth; durability rides
                # the next job/sync persist, and a crash before then just
                # earns another reset from the registry
                pass
        return (
            "status",
            {
                "rebuilt": not resumed,
                "job": self.applied_job,
                "keys": len(self.indices),
                "pairs_total": self.pairs_tested,
            },
        )

    def handle_job(self, payload: dict) -> tuple[str, dict]:
        job = int(payload["job"])
        fp = payload["fp"]
        if self.applied_job is not None and job <= self.applied_job:
            if job == self.applied_job and fp == self.applied_fp:
                # replay of the applied job: retry the persist if the
                # original attempt failed, then hand back the stored hits
                if not self.persisted:
                    self._persist()
                return self._ack(replayed=True)
            return (
                "err",
                {
                    "error": f"job {job} conflicts with applied job "
                    f"{self.applied_job} (fp mismatch or out of sequence)",
                    "dead": True,
                },
            )
        base = int(payload["base"])
        moduli = [int(n) for n in payload["moduli"]]
        if self.scanner is None:
            self.scanner = self._scanner(int(payload["bits"]), [])
        scanner = self.scanner
        local_base = scanner.n_keys
        report = scanner.cross_scan(moduli, include_internal=bool(payload["internal"]))
        hits: list[list[int]] = []
        for h in report.hits:
            gi = self.indices[h.i] if h.i < local_base else base + (h.i - local_base)
            gj = base + (h.j - local_base)
            hits.append([gi, gj, h.prime])
        owned = [(t, n) for t, n in enumerate(moduli) if self.ring.owner(n) == self.shard]
        scanner.adopt([n for _, n in owned])
        self.indices.extend(base + t for t, _ in owned)
        self.pairs_tested += report.pairs_tested
        self.applied_job = job
        self.applied_fp = fp
        self.applied_hits = hits
        self.applied_pairs = report.pairs_tested
        self.persisted = False
        self._persist()
        return self._ack(replayed=False)

    def handle_sync(self) -> tuple[str, dict]:
        if not self.persisted:
            self._persist()
        return self._ack(replayed=True)

    def run(self, conn) -> None:
        while True:
            try:
                kind, payload = conn.recv()
            except (EOFError, OSError):
                return
            try:
                if kind == "init":
                    reply = self.handle_init(payload)
                elif kind == "job":
                    try:
                        reply = self.handle_job(payload)
                    except OSError as exc:
                        # a failed snapshot persist leaves memory consistent:
                        # the job is applied but unacked, so a replay only
                        # retries the persist — report transient, stay alive
                        reply = ("err", {"error": repr(exc), "dead": False})
                elif kind == "sync":
                    try:
                        reply = self.handle_sync()
                    except OSError as exc:
                        reply = ("err", {"error": repr(exc), "dead": False})
                elif kind == "stop":
                    try:
                        if not self.persisted:
                            self._persist()
                    except OSError:
                        pass
                    try:
                        conn.send(("ack", {"stopped": True}))
                    finally:
                        return
                else:
                    reply = ("err", {"error": f"unknown command {kind!r}", "dead": True})
            except SystemExit:
                raise
            except BaseException as exc:  # scan/adopt state may be torn — die
                try:
                    conn.send(("err", {"error": repr(exc), "dead": True}))
                except OSError:
                    pass
                raise
            try:
                conn.send(reply)
            except OSError:
                return
            if reply[0] == "err" and reply[1].get("dead"):
                sys.exit(81)


def _shard_worker_main(
    conn,
    shard: int,
    shards: int,
    replicas: int,
    state_dir: str,
    int_backend: str | None,
) -> None:
    """Process entry point for one shard worker (fork- and spawn-safe)."""
    worker = _ShardWorker(shard, shards, replicas, state_dir, int_backend)
    worker.run(conn)


# ---------------------------------------------------------------------------
# router side (front-door process)
# ---------------------------------------------------------------------------


@dataclass
class _Handle:
    process: multiprocessing.Process
    conn: object
    crashes: int = 0
    respawns: int = 0


@dataclass
class _Pending:
    """The in-flight (dispatched, uncommitted) job — the replay unit."""

    job: int
    fp: str
    base: int
    moduli: list[int]
    owned: list[list[int]]  # per shard: global indices this job adds
    prev_job: int | None
    internal_shard: int
    attempts: list[int] = field(default_factory=list)


def _mp_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


class ShardRouter:
    """Front-door side of the fleet: dispatch, gather, supervise, reconcile.

    Lifecycle: :meth:`start` (spawn + reconcile against the registry),
    :meth:`scan_batch` per admitted batch (on the service's scan thread),
    :meth:`sync` as the drain barrier *before* the final registry sync,
    :meth:`stop` to tear the fleet down.
    """

    def __init__(
        self,
        *,
        state_dir: str | Path,
        shards: int,
        int_backend: str | None = None,
        bits: int | None = None,
        telemetry: Telemetry | None = None,
        replicas: int = DEFAULT_RING_REPLICAS,
        max_attempts: int = 4,
        max_respawns: int = 3,
    ) -> None:
        if shards < 2:
            raise ValueError("ShardRouter needs >= 2 shards; use the in-process scanner for 1")
        self.state_dir = Path(state_dir)
        self.shards = shards
        self.replicas = replicas
        self.ring = ShardRing(shards, replicas=replicas)
        self.int_backend = int_backend
        self.bits = bits
        self.telemetry = telemetry if telemetry is not None else Telemetry.create()
        self.max_attempts = max_attempts
        self.max_respawns = max_respawns
        self._ctx = _mp_context()
        self._workers: list[_Handle | None] = [None] * shards
        self._indices: list[list[int]] = [[] for _ in range(shards)]
        self._pairs: list[int] = [0] * shards
        self._worker_job: list[int | None] = [None] * shards
        self._pending: _Pending | None = None
        self._consecutive_respawns = 0
        self._registry = None
        self._started = False

    # -- lifecycle -----------------------------------------------------------

    def start(self, registry) -> None:
        """Spawn the fleet and reconcile every shard against the registry."""
        if self._started:
            raise RuntimeError("router already started")
        self._registry = registry
        if registry.bits is not None:
            self.bits = registry.bits
        expected: list[list[int]] = [[] for _ in range(self.shards)]
        for i, n in enumerate(registry.moduli):
            expected[self.ring.owner(n)].append(i)
        prev = registry.shard_state()
        rebalanced = prev is not None and (
            prev.get("shards") != self.shards or prev.get("replicas") != self.replicas
        )
        if rebalanced:
            self.telemetry.registry.counter("shard.rebalances").inc()
            self.telemetry.emit(
                "shard.rebalance",
                from_shards=prev.get("shards"),
                to_shards=self.shards,
                keys=registry.n_keys,
            )
        pairs = self._recover_watermarks(registry, prev, rebalanced)
        prev_job = registry.n_batches - 1 if registry.n_batches else None
        rebuilt = []
        for k in range(self.shards):
            self._spawn(k)
            status = self._init(k, expected[k], pairs[k], prev_job)
            if status["rebuilt"]:
                rebuilt.append(k)
            pairs[k] = status["pairs_total"]
        self._indices = expected
        self._pairs = pairs
        self._worker_job = [prev_job] * self.shards
        self._started = True
        registry.set_shard_state(self._watermark_payload())
        self._update_gauges()
        self.telemetry.emit(
            "shard.start", shards=self.shards, keys=registry.n_keys,
            rebuilt=rebuilt, rebalanced=rebalanced,
        )

    def _recover_watermarks(self, registry, prev, rebalanced: bool) -> list[int]:
        if prev is not None and not rebalanced:
            marks = prev.get("watermarks", {})
            try:
                return [int(marks[str(k)]["pairs_tested"]) for k in range(self.shards)]
            except (KeyError, TypeError, ValueError):
                pass
        _, pairs = simulate_watermarks(registry.moduli, registry.batch_sizes(), self.ring)
        return pairs

    def stop(self) -> None:
        """Tear the fleet down (drain durability came from :meth:`sync`)."""
        for k, handle in enumerate(self._workers):
            if handle is None:
                continue
            try:
                handle.conn.send(("stop", {}))
            except OSError:
                pass
        for handle in self._workers:
            if handle is None:
                continue
            handle.process.join(timeout=3.0)
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=2.0)
            if handle.process.is_alive():
                handle.process.kill()
                handle.process.join(timeout=2.0)
            try:
                handle.conn.close()
            except OSError:
                pass
        self._workers = [None] * self.shards
        self._started = False

    # -- the scan path -------------------------------------------------------

    def scan_batch(
        self, fresh: list[int], *, base: int, job_id: int, bits: int
    ) -> list[WeakHit]:
        """Fan one admitted batch out to every shard; return the merged hits.

        Runs on the service's single scan thread.  Raises transient errors
        for the batcher's retry policy to absorb (a retry replays the same
        job — shards that already applied it dedupe via their snapshots)
        and :class:`ShardJobFailed`/:class:`ShardPoolExhausted` when the
        budgets run out.
        """
        if not self._started:
            raise RuntimeError("router not started")
        if self.bits is None:
            self.bits = bits
        fp = _batch_fingerprint(fresh)
        if self._pending is not None and (self._pending.job, self._pending.fp) != (job_id, fp):
            self._abandon_pending()
        if self._pending is None or (self._pending.job, self._pending.fp) != (job_id, fp):
            owned: list[list[int]] = [[] for _ in range(self.shards)]
            for t, n in enumerate(fresh):
                owned[self.ring.owner(n)].append(base + t)
            self._pending = _Pending(
                job=job_id, fp=fp, base=base, moduli=list(fresh), owned=owned,
                prev_job=job_id - 1 if job_id else None,
                internal_shard=job_id % self.shards,
                attempts=[0] * self.shards,
            )
        pending = self._pending
        for k in range(self.shards):
            self._send_job(k, pending)
        acks = self._gather(pending)

        expected_pairs = base * len(fresh) + len(fresh) * (len(fresh) - 1) // 2
        got = sum(acks[k]["pairs"] for k in range(self.shards))
        if got != expected_pairs:
            raise FatalError(
                f"shard pair-coverage invariant broken: job {job_id} covered "
                f"{got} pairs, expected {expected_pairs}"
            )
        # success: fold the job into the committed parent-side tracking
        for k in range(self.shards):
            self._indices[k].extend(pending.owned[k])
            self._pairs[k] = acks[k]["pairs_total"]
            self._worker_job[k] = job_id
        self._pending = None
        if self._registry is not None:
            self._registry.set_shard_state(self._watermark_payload())
        hits = [WeakHit(int(a), int(b), int(p)) for k in range(self.shards)
                for a, b, p in acks[k]["hits"]]
        hits.sort(key=lambda h: (h.i, h.j))
        reg = self.telemetry.registry
        reg.counter("shard.jobs").inc()
        reg.counter("scan.pairs_tested").inc(expected_pairs)
        reg.counter("scan.hits").inc(len(hits))
        self._update_gauges()
        return hits

    def sync(self) -> None:
        """Drain barrier: every live shard persists its snapshot *now*.

        Called before the final ``registry.sync()`` so the registry's
        watermarks never get ahead of the shard snapshots on disk.
        """
        for k, handle in enumerate(self._workers):
            if handle is None or not handle.process.is_alive():
                # a dead shard's last ack already implied a durable snapshot
                continue
            try:
                reply = self._request(k, ("sync", {}), kind="ack")
            except (ShardJobFailed, ShardPoolExhausted, FatalError, TransientError, OSError):
                continue
            self._pairs[k] = reply.get("pairs_total", self._pairs[k])
        if self._registry is not None:
            self._registry.set_shard_state(self._watermark_payload())
        self.telemetry.emit(
            "shard.synced", shards=self.shards,
            pairs=[self._pairs[k] for k in range(self.shards)],
        )

    # -- views ---------------------------------------------------------------

    def status_view(self) -> dict:
        keys = sum(len(ix) for ix in self._indices)
        detail = []
        for k in range(self.shards):
            handle = self._workers[k]
            detail.append({
                "shard": k,
                "keys": len(self._indices[k]),
                "pairs_tested": self._pairs[k],
                "applied_job": self._worker_job[k],
                "alive": bool(handle is not None and handle.process.is_alive()),
                "crashes": handle.crashes if handle is not None else 0,
                "respawns": handle.respawns if handle is not None else 0,
            })
        return {
            "shards": self.shards,
            "replicas": self.replicas,
            "keys": keys,
            "pairs_tested": sum(self._pairs),
            "pairs_expected": keys * (keys - 1) // 2,
            "detail": detail,
        }

    def _watermark_payload(self) -> dict:
        return {
            "shards": self.shards,
            "replicas": self.replicas,
            "watermarks": {
                str(k): {
                    "keys": len(self._indices[k]),
                    "pairs_tested": self._pairs[k],
                    "job": self._worker_job[k],
                }
                for k in range(self.shards)
            },
        }

    def _update_gauges(self) -> None:
        reg = self.telemetry.registry
        reg.gauge("shard.count").set(self.shards)
        for k in range(self.shards):
            reg.gauge(f"shard.{k}.keys").set(len(self._indices[k]))
            reg.gauge(f"shard.{k}.pairs_tested").set(self._pairs[k])

    # -- supervision ---------------------------------------------------------

    def _spawn(self, k: int) -> None:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_shard_worker_main,
            args=(
                child_conn, k, self.shards, self.replicas, str(self.state_dir),
                self.int_backend,
            ),
            name=f"repro-shard-{k}",
            daemon=True,
        )
        old = self._workers[k]
        process.start()
        child_conn.close()
        self._workers[k] = _Handle(
            process=process, conn=parent_conn,
            crashes=old.crashes if old else 0,
            respawns=old.respawns if old else 0,
        )

    def _request(self, k: int, msg: tuple, *, kind: str = "status", timeout: float = 120.0) -> dict:
        """Send one control message and wait for its typed reply."""
        handle = self._workers[k]
        handle.conn.send(msg)
        deadline = time.monotonic() + timeout
        while True:
            if handle.conn.poll(0.1):
                reply_kind, payload = handle.conn.recv()
                if reply_kind == "err":
                    raise TransientError(f"shard {k}: {payload.get('error')}")
                if reply_kind != kind:
                    raise FatalError(
                        f"shard {k}: expected {kind!r} reply, got {reply_kind!r}"
                    )
                return payload
            if not handle.process.is_alive():
                raise TransientError(f"shard {k} died during {msg[0]!r}")
            if time.monotonic() > deadline:
                raise TransientError(f"shard {k} timed out on {msg[0]!r}")

    def _init(
        self, k: int, indices: list[int], pairs: int, job: int | None,
        pending: _Pending | None = None,
    ) -> dict:
        """Hand worker ``k`` its registry slice as of ``job``.  With
        ``pending`` it may also resume with the in-flight job applied."""
        registry_moduli = self._registry.moduli
        after = None
        if pending is not None:
            owned = pending.owned[k]
            after = {
                "job": pending.job, "indices": owned,
                "moduli": [pending.moduli[i - pending.base] for i in owned],
            }
        status = self._request(k, ("init", {
            "bits": self.bits,
            "indices": indices,
            "moduli": [registry_moduli[i] for i in indices],
            "pairs_tested": pairs,
            "job": job,
            "next": after,
        }))
        if status["rebuilt"]:
            self.telemetry.registry.counter("shard.rebuilds").inc()
            self.telemetry.emit("shard.rebuild", shard=k, keys=len(indices), job=job)
        return status

    def _send_job(self, k: int, pending: _Pending) -> None:
        handle = self._workers[k]
        if handle is None or not handle.process.is_alive():
            self._respawn(k, pending)
            handle = self._workers[k]
        faults.fire("shard.dispatch")
        msg = self._job_message(k, pending)
        try:
            handle.conn.send(msg)
        except OSError:
            self._respawn(k, pending)
            self._workers[k].conn.send(msg)

    def _job_message(self, k: int, pending: _Pending) -> tuple[str, dict]:
        return ("job", {
            "job": pending.job,
            "fp": pending.fp,
            "base": pending.base,
            "moduli": pending.moduli,
            "bits": self.bits,
            "internal": k == pending.internal_shard,
        })

    def _respawn(self, k: int, pending: _Pending) -> None:
        """ChunkSupervisor semantics for shard workers: budgeted respawn,
        re-init from the registry slice, replay of only the in-flight job."""
        pending.attempts[k] += 1
        if pending.attempts[k] > self.max_attempts:
            raise ShardJobFailed(
                f"shard {k} exhausted {self.max_attempts} attempts on job {pending.job}"
            )
        self._consecutive_respawns += 1
        if self._consecutive_respawns > self.max_respawns:
            raise ShardPoolExhausted(
                f"{self._consecutive_respawns} consecutive shard respawns with no progress"
            )
        handle = self._workers[k]
        if handle is not None:
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=2.0)
                if handle.process.is_alive():
                    handle.process.kill()
                    handle.process.join(timeout=2.0)
            try:
                handle.conn.close()
            except OSError:
                pass
        reg = self.telemetry.registry
        reg.counter("shard.worker_crashes").inc()
        reg.counter("shard.respawns").inc()
        self._spawn(k)
        self._workers[k].crashes += 1
        self._workers[k].respawns += 1
        self.telemetry.emit("shard.respawn", shard=k, job=pending.job,
                            attempt=pending.attempts[k])
        status = self._init(k, self._indices[k], self._pairs[k], pending.prev_job, pending)
        # pending.job when the worker kept the applied job (a resend
        # replays its stored hits), else prev_job
        self._worker_job[k] = status["job"]

    def _gather(self, pending: _Pending) -> dict[int, dict]:
        waiting = set(range(self.shards))
        acks: dict[int, dict] = {}
        transient: list[str] = []
        while waiting:
            for k in sorted(waiting):
                handle = self._workers[k]
                try:
                    if not handle.conn.poll(0.05):
                        if not handle.process.is_alive():
                            raise EOFError
                        continue
                    kind, payload = handle.conn.recv()
                except (EOFError, OSError):
                    self._respawn(k, pending)
                    self._send_job_raw(k, pending)
                    continue
                if kind == "ack":
                    if payload.get("job") != pending.job:
                        continue  # stale ack from an abandoned exchange
                    acks[k] = payload
                    waiting.discard(k)
                    self._worker_job[k] = pending.job
                    self._consecutive_respawns = 0
                    if payload.get("replayed"):
                        self.telemetry.registry.counter("shard.replays").inc()
                elif kind == "err" and payload.get("dead"):
                    self._respawn(k, pending)
                    self._send_job_raw(k, pending)
                else:  # transient worker-side error (persist failed)
                    transient.append(f"shard {k}: {payload.get('error')}")
                    waiting.discard(k)
                    self._worker_job[k] = pending.job  # applied in memory, unacked
        if transient:
            raise TransientError("; ".join(transient))
        return acks

    def _send_job_raw(self, k: int, pending: _Pending) -> None:
        faults.fire("shard.dispatch")
        self._workers[k].conn.send(self._job_message(k, pending))

    def _abandon_pending(self) -> None:
        """A previous batch failed permanently and a *different* one is next:
        any worker that applied the abandoned job rolls back by rebuild."""
        pending = self._pending
        self._pending = None
        for k in range(self.shards):
            if self._worker_job[k] != pending.job:
                continue
            handle = self._workers[k]
            if handle is None or not handle.process.is_alive():
                self._spawn(k)
            self._init(k, self._indices[k], self._pairs[k], pending.prev_job)
            self._worker_job[k] = pending.prev_job
