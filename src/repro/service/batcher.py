"""Admission queue: micro-batching concurrent submissions for the scanner.

The incremental scanner's cost model rewards batching — a batch of ``k``
new keys against ``m`` old ones costs ``k·m + k(k−1)/2`` pairs however the
``k`` arrive, but each flush pays fixed overheads (telemetry, registry
commit, an fsync'd manifest rewrite).  The :class:`MicroBatcher` therefore
coalesces concurrent submissions and flushes when either

* the pending batch reaches ``max_batch`` keys, or
* the oldest pending key has lingered ``linger_ms`` milliseconds.

A single worker task drains flushes in arrival order through the
caller's async ``scan`` callable, so scans are strictly serialised (the
scanner and registry are not concurrent-safe and never need to be).

That worker is also what batches under load, which is why ``linger_ms``
defaults to 0: group commit.  Everything that arrives while a flush is
running queues behind it, and the next cut takes all of it at once (up
to ``max_batch``).  A linger only delays keys that reach an *idle*
batcher, where there is nothing to coalesce with; under 64 concurrent
single-key clients ``benchmarks/bench_service.py`` measures the same
63.5 keys per flush at linger 0 and 20 ms, with higher throughput and
lower p50 at 0.  The knob stays for callers that want a fixed window
(a drain test parks keys in a long one).

The handoff is zero-copy on the bulk path: the queue holds whole
submissions (the exact ``(modulus, exponent)`` list the HTTP layer
parsed) with a consume cursor, never per-key queue entries.  When one
submission fills a flush by itself — every bulk POST up to ``max_batch``
keys — that original list object is handed to ``scan`` untouched; only
flushes stitched from several submissions (or a split oversized one)
assemble a new list.  ``scan`` must therefore treat its argument as
read-only, which the service's dedup/scan/commit step already does.

Backpressure is explicit and bounded: at most ``max_pending`` keys may be
queued; past that, :meth:`MicroBatcher.submit` raises :class:`BacklogFull`
carrying a ``retry_after`` estimate derived from the observed scan rate,
which the HTTP layer turns into ``429`` + ``Retry-After``.  Nothing is
silently dropped and memory stays bounded no matter how fast clients push.

Flush failures ride the shared :class:`repro.resilience.RetryPolicy`: a
transiently failing scan (per the resilience taxonomy) is re-attempted
with backoff before the flush's tickets are failed, and the
``batcher.flush`` fault point (``docs/RESILIENCE.md``) fires before each
attempt so chaos tests can exercise exactly this path.  The
``Retry-After`` estimate is clamped to the same policy's delay bounds.
"""

from __future__ import annotations

import asyncio
import itertools
import secrets
from collections import deque
from typing import Awaitable, Callable, Sequence

from repro.resilience import RetryPolicy, faults
from repro.telemetry import Telemetry

__all__ = ["BacklogFull", "Ticket", "MicroBatcher"]

#: ticket lifecycle states
QUEUED, SCANNING, DONE, FAILED = "queued", "scanning", "done", "failed"


class BacklogFull(RuntimeError):
    """The admission queue is at capacity; retry after ``retry_after`` seconds."""

    def __init__(self, retry_after: float, pending: int) -> None:
        super().__init__(
            f"admission queue full ({pending} keys pending); "
            f"retry in {retry_after:.2f}s"
        )
        self.retry_after = retry_after
        self.pending = pending


class Ticket:
    """One submission's handle: poll it, await it, serialise it.

    ``results`` holds one dict per submitted key, in submission order,
    populated when the batch containing that key finishes scanning (a
    submission larger than ``max_batch`` may span several flushes; the
    ticket completes when the last key resolves).
    """

    def __init__(self, ticket_id: str, n_keys: int, created: float) -> None:
        self.id = ticket_id
        self.status = QUEUED
        self.created = created
        self.completed: float | None = None
        self.error: str | None = None
        self.results: list[dict | None] = [None] * n_keys
        self._remaining = n_keys
        self._done = asyncio.get_running_loop().create_future()

    @property
    def n_keys(self) -> int:
        return len(self.results)

    async def wait(self) -> Ticket:
        """Block until every key in the submission has a result."""
        await asyncio.shield(self._done)
        return self

    def as_dict(self) -> dict:
        """The JSON-ready poll view."""
        payload: dict = {
            "ticket": self.id,
            "status": self.status,
            "submitted": self.n_keys,
        }
        if self.status == DONE:
            payload["results"] = self.results
        if self.error is not None:
            payload["error"] = self.error
        return payload

    def _resolve(self, pos: int, result: dict, now: float) -> None:
        if self.results[pos] is None:
            self._remaining -= 1
        self.results[pos] = result
        if self._remaining == 0 and not self._done.done():
            self.status = DONE
            self.completed = now
            self._done.set_result(self)

    def _fail(self, message: str, now: float) -> None:
        if not self._done.done():
            self.status = FAILED
            self.error = message
            self.completed = now
            self._done.set_result(self)


class MicroBatcher:
    """Coalesces submissions into scan batches on a dedicated worker task.

    ``scan`` is an async callable ``(items) -> list[dict]`` returning one
    result dict per item, in order; the service implements it as the
    dedup + incremental-scan + registry-commit step over ``(modulus,
    exponent)`` items.  The batcher treats items and results as opaque —
    it only counts keys and routes results back to tickets.
    """

    def __init__(
        self,
        scan: Callable[[list], Awaitable[list[dict]]],
        *,
        max_batch: int = 256,
        linger_ms: float = 0.0,
        max_pending: int = 4096,
        telemetry: Telemetry | None = None,
        retry_policy: RetryPolicy | None = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if linger_ms < 0:
            raise ValueError("linger_ms must be >= 0")
        if max_pending < max_batch:
            raise ValueError("max_pending must be >= max_batch")
        self.scan = scan
        self.max_batch = max_batch
        self.linger = linger_ms / 1000.0
        self.max_pending = max_pending
        self.telemetry = telemetry if telemetry is not None else Telemetry.create()
        self.retry_policy = (
            retry_policy
            if retry_policy is not None
            else RetryPolicy(max_attempts=3, base_delay=0.05, max_delay=30.0)
        )
        #: whole submissions, each [items, ticket, cursor]: ``items`` is the
        #: caller's parsed list (never copied on admission) and ``cursor``
        #: marks how many of its keys earlier flushes already consumed
        self._pending: deque[list] = deque()
        self._pending_keys = 0
        self._arrived = asyncio.Event()
        self._worker: asyncio.Task | None = None
        self._closing = False
        self._ids = itertools.count()
        #: EWMA of keys scanned per second; seeds the retry-after estimate
        self._rate: float | None = None

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> None:
        """Spawn the flush worker (idempotent)."""
        if self._worker is None:
            self._closing = False
            self._worker = asyncio.ensure_future(self._run())

    async def stop(self, *, drain: bool = True) -> None:
        """Stop the worker; with ``drain`` (default) flush the backlog first."""
        if self._worker is None:
            return
        self._closing = True
        if not drain:
            now = asyncio.get_running_loop().time()
            while self._pending:
                _, ticket, _ = self._pending.popleft()
                ticket._fail("service shutting down", now)
            self._pending_keys = 0
        self._arrived.set()  # wake the worker so it can observe _closing
        await self._worker
        self._worker = None

    # -- admission -------------------------------------------------------------

    @property
    def pending_keys(self) -> int:
        return self._pending_keys

    def submit(self, items: Sequence) -> Ticket:
        """Queue one submission; returns its :class:`Ticket` immediately.

        Admission is O(1) however large the submission: ``items`` is
        queued by reference (the zero-copy handoff), never exploded into
        per-key entries.  Raises :class:`BacklogFull` when admitting the
        submission would push the queue past ``max_pending`` keys — the
        whole submission is rejected, never a prefix of it.
        """
        if self._worker is None or self._closing:
            raise RuntimeError("batcher is not running")
        if not items:
            raise ValueError("a submission must contain at least one key")
        loop = asyncio.get_running_loop()
        if self._pending_keys + len(items) > self.max_pending:
            retry_after = self._retry_after(len(items))
            self.telemetry.registry.counter("batcher.rejected_submissions").inc()
            self.telemetry.registry.counter("batcher.rejected_keys").inc(len(items))
            raise BacklogFull(retry_after, self._pending_keys)
        ticket = Ticket(
            f"{next(self._ids):06d}-{secrets.token_hex(4)}", len(items), loop.time()
        )
        self._pending.append([items, ticket, 0])
        self._pending_keys += len(items)
        reg = self.telemetry.registry
        reg.counter("batcher.submissions").inc()
        reg.counter("batcher.keys_submitted").inc(len(items))
        reg.gauge("batcher.pending_keys").set(self._pending_keys)
        self._arrived.set()
        return ticket

    def _retry_after(self, n_keys: int) -> float:
        """How long until ``n_keys`` could plausibly be admitted."""
        backlog = max(0, self._pending_keys + n_keys - self.max_pending)
        if self._rate and self._rate > 0:
            estimate = backlog / self._rate + self.linger
        else:
            estimate = self.linger * 2 + self.retry_policy.base_delay
        return min(
            max(estimate, self.retry_policy.base_delay), self.retry_policy.max_delay
        )

    # -- the flush worker ------------------------------------------------------

    async def _run(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            if not self._pending:
                if self._closing:
                    return
                self._arrived.clear()
                await self._arrived.wait()
                continue
            # linger from the moment the batch head arrived, then cut
            deadline = loop.time() + self.linger
            while self._pending_keys < self.max_batch and not self._closing:
                remaining = deadline - loop.time()
                if remaining <= 0:
                    break
                self._arrived.clear()
                try:
                    await asyncio.wait_for(self._arrived.wait(), remaining)
                except asyncio.TimeoutError:
                    break
            await self._flush(self._cut_batch(), loop)

    def _cut_batch(self) -> list[tuple[Sequence, Ticket, int, int]]:
        """Carve up to ``max_batch`` keys off the queue head.

        Returns ``(items, ticket, base, count)`` parts: ``count`` keys of
        ``items`` starting at ``base``.  Whole submissions are consumed by
        reference; only a submission too large for the remaining room
        stays queued with its cursor advanced.
        """
        parts: list[tuple[Sequence, Ticket, int, int]] = []
        room = self.max_batch
        while self._pending and room:
            segment = self._pending[0]
            items, ticket, cursor = segment
            take = min(room, len(items) - cursor)
            parts.append((items, ticket, cursor, take))
            if cursor + take == len(items):
                self._pending.popleft()
            else:
                segment[2] = cursor + take
            room -= take
            self._pending_keys -= take
        self.telemetry.registry.gauge("batcher.pending_keys").set(self._pending_keys)
        return parts

    async def _flush(
        self,
        parts: list[tuple[Sequence, Ticket, int, int]],
        loop: asyncio.AbstractEventLoop,
    ) -> None:
        n_keys = sum(count for _, _, _, count in parts)
        for _, ticket, _, _ in parts:
            if ticket.status == QUEUED:
                ticket.status = SCANNING
        reg = self.telemetry.registry
        reg.counter("batcher.flushes").inc()
        reg.histogram("batcher.flush_keys").observe(n_keys)
        head_items, _, head_base, head_count = parts[0]
        if len(parts) == 1 and head_base == 0 and head_count == len(head_items):
            # the zero-copy fast path: one whole submission fills the
            # flush, so the caller's parsed list goes to scan() as-is
            items: Sequence = head_items
        else:
            assembled: list = []
            for part_items, _, base, count in parts:
                if base == 0 and count == len(part_items):
                    assembled.extend(part_items)
                else:
                    assembled.extend(part_items[base : base + count])
            items = assembled

        async def attempt() -> list[dict]:
            faults.fire("batcher.flush")
            return await self.scan(items)

        def on_retry(retry_attempt: int, delay: float, exc: BaseException) -> None:
            reg.counter("batcher.flush_retries").inc()
            self.telemetry.emit(
                "batcher.flush.retry",
                attempt=retry_attempt,
                delay=round(delay, 4),
                error=repr(exc),
            )

        started = loop.time()
        try:
            results = await self.retry_policy.arun(attempt, on_retry=on_retry)
        except Exception as exc:  # the scan seam failed for good; fail the flush
            reg.counter("batcher.failed_flushes").inc()
            now = loop.time()
            message = f"scan failed: {exc}"
            for _, ticket, _, _ in parts:
                ticket._fail(message, now)
            return
        elapsed = loop.time() - started
        if len(results) != n_keys:
            raise RuntimeError(
                f"scan returned {len(results)} results for {n_keys} keys"
            )
        if elapsed > 0:
            rate = n_keys / elapsed
            self._rate = rate if self._rate is None else 0.7 * self._rate + 0.3 * rate
        now = loop.time()
        off = 0
        observe = reg.histogram("batcher.ticket_wait_seconds").observe
        for _, ticket, base, count in parts:
            wait = now - ticket.created
            for i in range(count):
                ticket._resolve(base + i, results[off + i], now)
                observe(wait)  # per key, as the per-key queue observed it
            off += count
        self.telemetry.emit(
            "batcher.flush", keys=n_keys, seconds=elapsed,
            pending=self._pending_keys,
        )
