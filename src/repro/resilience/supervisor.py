"""Supervised process-pool execution: worker death costs a chunk, not a run.

``ProcessPoolExecutor`` has a brutal failure mode: one worker dying (OOM
kill, ``kill -9``, a crash in a C extension) marks the whole pool broken
and every pending future raises ``BrokenProcessPool`` — under the naive
mapping loop, hours of an all-pairs scan die with one process.  The
supervisor here keeps each in-flight work unit's *spec* alongside its
future (the design Fujita et al.'s Section VI block decomposition makes
cheap — a block/chunk is self-contained, so recovery is resubmission):

1. results are consumed in submission order through a bounded window;
2. when a future raises ``BrokenExecutor``, the old pool is torn down,
   a fresh pool is spawned, and every in-flight spec whose future did
   not already hold a result is resubmitted in order — completed results
   are never recomputed, so output equality with an undisturbed run
   holds by construction;
3. each chunk carries an attempt count charged only when the chunk can
   actually have been executing (dispatch is FIFO, so that is the oldest
   ``workers`` lost units — a unit still queued behind them merely
   *witnessed* the crash and is resubmitted free of charge), and only by
   a pool that completed nothing before it died: which executing unit
   killed a worker is unknown, and a healthy unit lost beside it must
   not exhaust its budget while the pool progresses (a poison unit is
   charged once the units beside it have completed); a chunk that keeps
   dying raises
   :class:`~repro.resilience.errors.ChunkFailed` after ``max_attempts``
   executions (a poison work unit must not retry forever);
4. pool respawns are budgeted too: workers that die during *init* would
   otherwise respawn in a loop, so the supervisor gives up with
   :class:`~repro.resilience.errors.PoolExhausted` after ``max_respawns``
   *consecutive* respawns with no completed work unit in between — any
   unit, not only the oldest in flight: a pool that keeps making progress
   between crashes is degraded, not stuck, and may be respawned
   indefinitely.

Ordinary exceptions raised *by* a work unit propagate unchanged — the
supervisor handles worker death, not application errors (stage-level
:class:`~repro.resilience.retry.RetryPolicy` handles those).

Telemetry (when a registry is supplied): ``resilience.worker_crashes``,
``resilience.pool_respawns``, ``resilience.chunk_retries``.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor
from typing import Callable, Iterable, Iterator, TypeVar

from repro.resilience import faults
from repro.resilience.errors import ChunkFailed, PoolExhausted
from repro.telemetry import MetricsRegistry

__all__ = ["ChunkSupervisor", "supervised_map"]

_T = TypeVar("_T")
_R = TypeVar("_R")


def _worker_init(initializer: Callable | None, initargs: tuple) -> None:
    """Every supervised pool worker starts here (the ``worker.init`` point)."""
    faults.fire("worker.init")
    if initializer is not None:
        initializer(*initargs)


def _invoke(fn: Callable[[_T], _R], item: _T) -> _R:
    """Worker-side call wrapper (the ``chunk.execute`` point)."""
    faults.fire("chunk.execute")
    return fn(item)


def _completed(future: Future) -> bool:
    """Did this future finish with a result before the pool broke?"""
    return future.done() and not future.cancelled() and future.exception() is None


class _Inflight:
    """One submitted work unit: its spec, its current future (and the pool
    generation that runs it), its attempts."""

    __slots__ = ("item", "future", "generation", "attempts")

    def __init__(self, item, future: Future, generation: int, attempts: int = 1) -> None:
        self.item = item
        self.future = future
        self.generation = generation
        self.attempts = attempts


class ChunkSupervisor:
    """Owns the executor; callers submit specs and collect ordered results.

    The window of in-flight units lives here so that pool breakage can
    resubmit all of them; callers only ever see results or application
    exceptions.  ``shutdown`` is idempotent and never blocks on stuck
    workers (``wait=False, cancel_futures=True``) — the generator-
    abandonment path depends on that.
    """

    def __init__(
        self,
        fn: Callable[[_T], _R],
        *,
        workers: int,
        initializer: Callable | None = None,
        initargs: tuple = (),
        mp_context=None,
        max_attempts: int = 6,
        max_respawns: int = 3,
        registry: MetricsRegistry | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError("supervised pools need at least one worker")
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.fn = fn
        self.workers = workers
        self.initializer = initializer
        self.initargs = initargs
        self.mp_context = mp_context
        self.max_attempts = max_attempts
        self.max_respawns = max_respawns
        self.registry = registry
        self.respawns = 0
        self._generation = 1  # pools spawned so far: the current one's number
        self._inflight: deque[_Inflight] = deque()
        self._pool: ProcessPoolExecutor | None = self._spawn()

    # -- pool lifecycle --------------------------------------------------------

    def _spawn(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=self.mp_context,
            initializer=_worker_init,
            initargs=(self.initializer, self.initargs),
        )

    def shutdown(self) -> None:
        """Tear the pool down without waiting (idempotent, abandon-safe)."""
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def _count(self, name: str, n: int = 1) -> None:
        if self.registry is not None:
            self.registry.counter(name).inc(n)

    def _respawn(self, cause: BaseException) -> None:
        """A worker died: rebuild the pool and resubmit every in-flight unit.

        A pool that breaks again while the lost units are resubmitted is
        one more death against ``max_respawns``.  A pool that completed any
        unit before it died made progress: the count starts again, and the
        death is charged to no unit.
        """
        progress = any(
            u.generation == self._generation and _completed(u.future) for u in self._inflight
        )
        if progress:
            self.respawns = 0
        self.respawns += 1
        self._count("resilience.worker_crashes")
        self._count("resilience.pool_respawns")
        if self.respawns > self.max_respawns:
            self.shutdown()
            raise PoolExhausted(
                f"pool died {self.respawns} times without completing any work "
                f"(budget {self.max_respawns}); workers are crashing faster "
                f"than they finish work"
            ) from cause
        self.shutdown()
        self._pool = self._spawn()
        self._generation += 1
        # Futures that finished before the pool broke still hold their
        # results — keep them, never recompute.  Of the *lost* units, only
        # the oldest `workers` can have been executing when the pool died
        # (dispatch is FIFO); units queued behind them never ran, so the
        # crash is not charged against their attempt budget — max_attempts
        # bounds executions of a unit, not respawns it happened to witness.
        lost = [u for u in self._inflight if not _completed(u.future)]
        self._count("resilience.chunk_retries", len(lost))
        for position, unit in enumerate(lost):
            if position < self.workers and not progress:
                unit.attempts += 1
                if unit.attempts > self.max_attempts:
                    self.shutdown()
                    raise ChunkFailed(
                        f"work unit died {unit.attempts - 1} times "
                        f"(budget {self.max_attempts - 1} retries); treating it as poison"
                    ) from cause
            try:
                unit.future = self._pool.submit(_invoke, self.fn, unit.item)
            except BrokenExecutor as exc:
                return self._respawn(exc)
            unit.generation = self._generation

    # -- submission / collection ----------------------------------------------

    @property
    def inflight(self) -> int:
        return len(self._inflight)

    def submit(self, item: _T) -> None:
        """Queue one work unit (its spec is retained for resubmission)."""
        while True:
            assert self._pool is not None, "supervisor is shut down"
            try:
                future = self._pool.submit(_invoke, self.fn, item)
                break
            except BrokenExecutor as exc:
                # the pool broke between collections; heal it, then submit
                self._respawn(exc)
        self._inflight.append(_Inflight(item, future, self._generation))

    def next_result(self) -> _R:
        """The oldest in-flight unit's result, healing the pool as needed."""
        if not self._inflight:
            raise IndexError("nothing in flight")
        while True:
            unit = self._inflight[0]
            try:
                result = unit.future.result()
            except BrokenExecutor as exc:
                self._respawn(exc)
                continue
            self._inflight.popleft()
            # progress resets the respawn budget: it bounds crash *loops*,
            # not the total crashes a long degraded run absorbs
            self.respawns = 0
            return result


def supervised_map(
    fn: Callable[[_T], _R],
    items: Iterable[_T],
    *,
    workers: int,
    max_in_flight: int | None = None,
    initializer: Callable | None = None,
    initargs: tuple = (),
    mp_context=None,
    max_attempts: int = 6,
    max_respawns: int = 3,
    registry: MetricsRegistry | None = None,
) -> Iterator[_R]:
    """Map ``fn`` over a lazy stream, in order, under worker supervision.

    At most ``max_in_flight`` (default ``workers + 2``) units are submitted
    at once and results yield in submission order; worker death is healed
    per the module story.  The executor is *always* released — abandoning
    the generator early tears the pool down via
    ``shutdown(wait=False, cancel_futures=True)``.  A caller that wants one
    process runs ``fn`` itself: there is no inline mode here.

    >>> list(supervised_map(sum, iter([[1, 2], [3, 4]]), workers=2))
    [3, 7]
    """
    window = max_in_flight if max_in_flight is not None else workers + 2
    if window < 1:
        raise ValueError("max_in_flight must be >= 1")
    supervisor = ChunkSupervisor(
        fn,
        workers=workers,
        initializer=initializer,
        initargs=initargs,
        mp_context=mp_context,
        max_attempts=max_attempts,
        max_respawns=max_respawns,
        registry=registry,
    )
    try:
        for item in items:
            supervisor.submit(item)
            if supervisor.inflight >= window:
                yield supervisor.next_result()
        while supervisor.inflight:
            yield supervisor.next_result()
    finally:
        supervisor.shutdown()
