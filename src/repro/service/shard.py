"""The sharded scanner fleet: a consistent-hash router over N worker processes.

The paper's §VI group schedule blocks the all-pairs workload into ``(i, j)``
tiles over groups of ``r`` moduli precisely so independent compute units can
own disjoint slices.  This module generalises that schedule to the serving
path: a :class:`ShardRouter` owns ``N`` supervised worker processes, each
running its own :class:`~repro.core.incremental.IncrementalScanner` (its
product tree logged under the shard's directory) over a consistent-hash
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

**The registry leads, shards follow.**  A batch is scanned, committed,
then applied.  The scan (:meth:`ShardRouter.scan_batch`) is a pure
cross-scan at every worker: nothing changes, so a worker that dies
mid-scan is respawned and the scan resent, and a scan whose registry
commit fails is simply scanned again when the batcher retries it.  Only
after the registry's one-append commit does :meth:`ShardRouter.apply`
send each worker that owns keys of the batch those keys with their
global indices; the worker adopts them, and its tree's one append to
``state_dir/shards/<k>/ptree/`` records the keys and their indices
(``repro fsck`` reads them there as redundancy for the registry).  A
worker that fails to apply is replaced by a fresh one reset to its
registry slice, which by then holds the batch, so a failure after the
commit never fails the flush.

**Init.**  The registry is the durable truth.  Every (re)started worker
gets its slice — indices and moduli — from the registry in one ``init``
message and builds its scanner over it; the tree loads from its log,
appending the keys it trails by (a crash between commit and apply leaves
it one batch behind), and is rebuilt only when the log holds something
else (a shard-count change: ``shard.rebalance``).  The router derives
each shard's pair watermark from the registry's admission history
(:func:`simulate_watermarks`); the registry records only the fleet's
shape, to detect a rebalance.

Workers are forked, and each closes its inherited copies of the
router's pipe ends, so once the router is gone (even by ``kill -9``)
every worker reads EOF and exits after the message in hand.  Until then
it keeps the state lock it inherited, so a restart cannot race a
worker's last tree append.

Failure handling mirrors :class:`~repro.resilience.supervisor.ChunkSupervisor`
semantics: a SIGKILL'd worker is respawned, re-initialised, and rescans
only the in-flight batch; per-batch attempt budgets catch poison
batches (:class:`ShardJobFailed`) and consecutive no-progress respawns
bound crash loops (:class:`ShardPoolExhausted`).  ``docs/SHARDING.md`` has
the full protocol, ordering model and failure matrix.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import sys
import time
from bisect import bisect_right
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.attack import WeakHit
from repro.core.incremental import IncrementalScanner
from repro.resilience import faults
from repro.resilience.errors import FatalError, ResilienceError, TransientError
from repro.telemetry import Telemetry

__all__ = [
    "ShardJobFailed",
    "ShardPoolExhausted",
    "ShardRing",
    "ShardRouter",
    "simulate_watermarks",
]

#: what earlier workers kept in ``state_dir/shards/<k>/``; init removes it
_OLD_SNAPSHOT = ("shard.json", "shard.json.sha256")

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
    """Replay the admission history to compute per-shard watermarks.

    Returns ``(keys_per_shard, pairs_per_shard)`` such that
    ``sum(pairs) == M(M−1)/2``.  The partition is a pure function of the
    registry's moduli and batch sizes, so this is how a starting router
    learns every shard's watermark, whatever shard count (if any) the
    registry was written under.

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


# ---------------------------------------------------------------------------
# worker side (child process)
# ---------------------------------------------------------------------------


class _ShardWorker:
    """One shard's state machine, living in its own process.

    ``init`` builds the scanner over the registry's slice; ``job``
    cross-scans a batch against it and changes nothing; ``apply``, sent
    once the registry has committed that batch, adopts the owned keys
    (one tree-log append) before acking.  Any failure kills the worker:
    its router replaces it with one reset to the registry slice.
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
        self.dir = Path(state_dir) / "shards" / str(shard)
        self.int_backend = int_backend
        self.telemetry = Telemetry.create()
        self.scanner: IncrementalScanner | None = None
        self.indices: list[int] = []
        self.job: int | None = None

    def _scanner(self, bits: int, moduli: list[int]) -> IncrementalScanner:
        return IncrementalScanner(
            bits=bits,
            moduli=moduli,
            int_backend=self.int_backend,
            spool_dir=self.dir / "ptree",
            telemetry=self.telemetry,
            indices=self.indices,
        )

    def handle_init(self, payload: dict) -> tuple[str, dict]:
        """Reset to the registry's slice as of ``job``; the tree loads
        from its log and appends what the log lacks."""
        for name in _OLD_SNAPSHOT:
            (self.dir / name).unlink(missing_ok=True)
        self.indices = [int(i) for i in payload["indices"]]
        self.job = payload["job"]
        bits = payload.get("bits")
        moduli = [int(n) for n in payload["moduli"]]
        self.scanner = self._scanner(int(bits), moduli) if bits else None
        rebuilds = self.telemetry.registry.counter("ptree.rebuilds").value
        return ("status", {"keys": len(self.indices), "job": self.job, "rebuilds": rebuilds})

    def handle_job(self, payload: dict) -> tuple[str, dict]:
        """Cross-scan the batch against the slice; hits in global indices."""
        base = int(payload["base"])
        moduli = [int(n) for n in payload["moduli"]]
        if self.scanner is None:
            self.scanner = self._scanner(int(payload["bits"]), [])
        local_base = self.scanner.n_keys
        report = self.scanner.cross_scan(moduli, include_internal=bool(payload["internal"]))
        hits = [
            [self.indices[h.i] if h.i < local_base else base + (h.i - local_base),
             base + (h.j - local_base), h.prime]
            for h in report.hits
        ]
        return ("ack", {"seq": payload["seq"], "hits": hits, "pairs": report.pairs_tested})

    def handle_apply(self, payload: dict) -> tuple[str, dict]:
        """The registry committed the job: adopt the owned keys."""
        indices = [int(i) for i in payload["indices"]]
        self.scanner.adopt([int(n) for n in payload["moduli"]], indices=indices)
        self.indices.extend(indices)
        self.job = payload["job"]
        return ("ack", {"job": self.job, "keys": len(self.indices)})

    def run(self, conn) -> None:
        handlers = {"init": self.handle_init, "job": self.handle_job, "apply": self.handle_apply}
        while True:
            try:
                kind, payload = conn.recv()
            except (EOFError, OSError):
                return
            if kind == "stop":
                try:
                    conn.send(("ack", {"stopped": True}))
                finally:
                    return
            try:
                reply = handlers[kind](payload)
            except Exception as exc:  # report, die: the router re-derives this worker
                try:
                    conn.send(("err", {"error": repr(exc)}))
                except OSError:
                    pass
                sys.exit(81)
            try:
                conn.send(reply)
            except OSError:
                return


def _shard_worker_main(
    conn,
    shard: int,
    shards: int,
    replicas: int,
    state_dir: str,
    int_backend: str | None,
    inherited: tuple = (),
) -> None:
    """Process entry point for one shard worker (fork- and spawn-safe).

    ``inherited`` are the router's pipe ends a forked worker got a copy
    of; closing them lets every worker read EOF once the router is gone.
    """
    for other in inherited:
        other.close()
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
    """The batch in flight: scanned by (or being sent to) every shard,
    not yet applied."""

    job: int
    seq: int
    base: int
    moduli: list[int]
    attempts: list[int]
    pairs: list[int] = field(default_factory=list)


def _mp_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def _reap(handle: _Handle) -> None:
    """Wait for a worker to exit, escalating to terminate and kill."""
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


class ShardRouter:
    """Front-door side of the fleet: dispatch, gather, supervise, apply.

    Lifecycle: :meth:`start` (spawn every worker over its registry slice),
    then per admitted batch on the service's scan thread :meth:`scan_batch`,
    the registry commit, and :meth:`apply`; :meth:`stop` tears the fleet
    down.
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
        self._seq = 0
        self._consecutive_respawns = 0
        self._registry = None
        self._started = False

    # -- lifecycle -----------------------------------------------------------

    def start(self, registry) -> None:
        """Spawn the fleet, every worker over its registry slice."""
        if self._started:
            raise RuntimeError("router already started")
        self._registry = registry
        if registry.bits is not None:
            self.bits = registry.bits
        prev = registry.shard_state()
        rebalanced = prev is not None and (prev.get("shards"), prev.get("replicas")) != (
            self.shards, self.replicas
        )
        if rebalanced:
            self.telemetry.registry.counter("shard.rebalances").inc()
            self.telemetry.emit(
                "shard.rebalance",
                from_shards=prev.get("shards"),
                to_shards=self.shards,
                keys=registry.n_keys,
            )
        self._indices = [[] for _ in range(self.shards)]
        for i, n in enumerate(registry.moduli):
            self._indices[self.ring.owner(n)].append(i)
        _, self._pairs = simulate_watermarks(registry.moduli, registry.batch_sizes(), self.ring)
        self._worker_job = [registry.n_batches - 1 if registry.n_batches else None] * self.shards
        for k in range(self.shards):
            self._spawn(k)
            self._init(k)
        self._started = True
        registry.set_shard_state({"shards": self.shards, "replicas": self.replicas})
        self._update_gauges()
        self.telemetry.emit(
            "shard.start", shards=self.shards, keys=registry.n_keys,
            pairs=self._pairs, rebalanced=rebalanced,
        )

    def stop(self) -> None:
        """Tear the fleet down; every applied batch is already durable."""
        for handle in self._workers:
            if handle is not None:
                try:
                    handle.conn.send(("stop", {}))
                except OSError:
                    pass
        for handle in self._workers:
            if handle is not None:
                _reap(handle)
        self._workers = [None] * self.shards
        self._started = False

    # -- the scan path -------------------------------------------------------

    def scan_batch(
        self, fresh: list[int], *, base: int, job_id: int, bits: int
    ) -> list[WeakHit]:
        """Cross-scan one admitted batch on every shard; return the merged hits.

        Runs on the service's single scan thread and changes nothing at
        the shards, so every failure leaves nothing to undo: transient
        errors go to the batcher's retry policy, which scans again, and
        :class:`ShardJobFailed`/:class:`ShardPoolExhausted` end the flush
        when the budgets run out.  :meth:`apply` follows the commit.
        """
        if not self._started:
            raise RuntimeError("router not started")
        if self.bits is None:
            self.bits = bits
        self._seq += 1
        pending = _Pending(
            job=job_id, seq=self._seq, base=base, moduli=list(fresh),
            attempts=[0] * self.shards,
        )
        self._pending = None
        for k in range(self.shards):
            self._send_job(k, pending)
        acks = self._gather(pending)

        expected_pairs = base * len(fresh) + len(fresh) * (len(fresh) - 1) // 2
        pending.pairs = [acks[k]["pairs"] for k in range(self.shards)]
        if sum(pending.pairs) != expected_pairs:
            raise FatalError(
                f"shard pair-coverage invariant broken: job {job_id} covered "
                f"{sum(pending.pairs)} pairs, expected {expected_pairs}"
            )
        self._pending = pending
        hits = [WeakHit(int(a), int(b), int(p)) for k in range(self.shards)
                for a, b, p in acks[k]["hits"]]
        hits.sort(key=lambda h: (h.i, h.j))
        reg = self.telemetry.registry
        reg.counter("shard.jobs").inc()
        reg.counter("scan.pairs_tested").inc(expected_pairs)
        reg.counter("scan.hits").inc(len(hits))
        return hits

    def apply(self) -> None:
        """The registry committed the scanned batch: every shard that owns
        keys of it adopts them (one that owns none is unchanged by it).

        Never raises.  A shard that fails to apply is replaced by a fresh
        worker reset to its registry slice, which holds the batch by now;
        if even that fails, the next batch's dispatch respawns it.
        """
        pending, self._pending = self._pending, None
        owned: list[list[int]] = [[] for _ in range(self.shards)]
        for t, n in enumerate(pending.moduli):
            owned[self.ring.owner(n)].append(pending.base + t)
        for k in range(self.shards):
            self._indices[k].extend(owned[k])
            self._pairs[k] += pending.pairs[k]
            self._worker_job[k] = pending.job
        self._update_gauges()
        failed: dict[int, str] = {}
        appliers = [k for k in range(self.shards) if owned[k]]
        for k in appliers:
            try:
                self._workers[k].conn.send(("apply", {
                    "job": pending.job, "indices": owned[k],
                    "moduli": [pending.moduli[i - pending.base] for i in owned[k]],
                }))
            except OSError as exc:
                failed[k] = repr(exc)
        for k in appliers:
            if k in failed:
                continue
            try:
                self._wait(k, "apply")
            except TransientError as exc:
                failed[k] = str(exc)
        for k, error in sorted(failed.items()):
            self.telemetry.registry.counter("shard.apply_failures").inc()
            self.telemetry.emit("shard.apply_failed", shard=k, job=pending.job, error=error)
            try:
                self._restart(k)
            except (ResilienceError, OSError):
                pass  # the next dispatch finds it dead and respawns it

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

    def _update_gauges(self) -> None:
        reg = self.telemetry.registry
        reg.gauge("shard.count").set(self.shards)
        for k in range(self.shards):
            reg.gauge(f"shard.{k}.keys").set(len(self._indices[k]))
            reg.gauge(f"shard.{k}.pairs_tested").set(self._pairs[k])

    # -- supervision ---------------------------------------------------------

    def _spawn(self, k: int) -> None:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        inherited = ()
        if self._ctx.get_start_method() == "fork":
            inherited = (parent_conn, *(h.conn for h in self._workers if h is not None))
        process = self._ctx.Process(
            target=_shard_worker_main,
            args=(
                child_conn, k, self.shards, self.replicas, str(self.state_dir),
                self.int_backend, inherited,
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

    def _wait(self, k: int, what: str, timeout: float = 120.0) -> dict:
        """Worker ``k``'s reply to ``what``; TransientError if it failed or died."""
        handle = self._workers[k]
        deadline = time.monotonic() + timeout
        while True:
            try:
                if handle.conn.poll(0.1):
                    kind, payload = handle.conn.recv()
                    if kind == "err":
                        raise TransientError(f"shard {k}: {payload.get('error')}")
                    return payload
            except (EOFError, OSError):
                raise TransientError(f"shard {k} died during {what!r}") from None
            if not handle.process.is_alive():
                raise TransientError(f"shard {k} died during {what!r}")
            if time.monotonic() > deadline:
                raise TransientError(f"shard {k} timed out on {what!r}")

    def _init(self, k: int) -> None:
        """Hand worker ``k`` its registry slice."""
        indices = self._indices[k]
        registry_moduli = self._registry.moduli
        self._workers[k].conn.send(("init", {
            "bits": self.bits,
            "indices": indices,
            "moduli": [registry_moduli[i] for i in indices],
            "job": self._worker_job[k],
        }))
        status = self._wait(k, "init")
        self.telemetry.registry.counter("ptree.rebuilds").inc(status["rebuilds"])

    def _restart(self, k: int) -> None:
        """Replace failed worker ``k`` with a fresh process over its
        registry slice."""
        handle = self._workers[k]
        if handle is not None:
            if handle.process.is_alive():
                handle.process.kill()
            _reap(handle)
            handle.crashes += 1
        self._spawn(k)
        self._workers[k].respawns += 1
        reg = self.telemetry.registry
        reg.counter("shard.worker_crashes").inc()
        reg.counter("shard.respawns").inc()
        self.telemetry.emit("shard.respawn", shard=k, job=self._worker_job[k])
        self._init(k)

    def _send_job(self, k: int, pending: _Pending) -> None:
        handle = self._workers[k]
        if handle is None or not handle.process.is_alive():
            self._respawn(k, pending)
        faults.fire("shard.dispatch")
        msg = ("job", {
            "seq": pending.seq,
            "base": pending.base,
            "moduli": pending.moduli,
            "bits": self.bits,
            "internal": k == pending.job % self.shards,
        })
        try:
            self._workers[k].conn.send(msg)
        except OSError:
            self._respawn(k, pending)
            self._workers[k].conn.send(msg)

    def _respawn(self, k: int, pending: _Pending) -> None:
        """ChunkSupervisor semantics for shard workers: a budgeted restart
        from the registry slice, then the in-flight scan is resent."""
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
        self._restart(k)

    def _gather(self, pending: _Pending) -> dict[int, dict]:
        waiting = set(range(self.shards))
        acks: dict[int, dict] = {}
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
                    kind, payload = "err", {}
                if kind == "err":
                    self._respawn(k, pending)
                    self._send_job(k, pending)
                elif payload.get("seq") == pending.seq:
                    acks[k] = payload
                    waiting.discard(k)
                    self._consecutive_respawns = 0
                # else: the reply to a scan an earlier, failed flush sent
        return acks
