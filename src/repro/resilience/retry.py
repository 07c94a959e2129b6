"""The unified retry policy: exponential backoff, seeded jitter, deadlines.

One :class:`RetryPolicy` object carries every knob a retry loop needs —
attempt budget, backoff curve, jitter, and an optional wall-clock deadline
— and one pair of drivers (:meth:`RetryPolicy.run` for sync code,
:meth:`RetryPolicy.arun` for asyncio) replaces the ad-hoc loops that used
to live in the pipeline, the batcher and the submit client.

Backoff is classic capped exponential: attempt ``k`` (1-based, counted
*after* the first failure) sleeps ``min(base · multiplier^(k-1), cap)``,
then widens by up to ``jitter`` of itself.  Jitter is drawn from a
``random.Random`` seeded per policy, so a chaos run replays byte-for-byte
— determinism is a feature everywhere in this layer.

Deadlines compose: a policy with ``deadline=30`` never sleeps past the
budget, and once the budget is spent the driver raises
:class:`~repro.resilience.errors.DeadlineExceeded` from the last failure
instead of attempting again.  Retryability itself is delegated to
:func:`~repro.resilience.errors.is_transient` (overridable per call), so
the taxonomy stays in one place.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Awaitable, Callable, Iterator, TypeVar

from repro.resilience.errors import DeadlineExceeded, is_transient

__all__ = ["Deadline", "RetryPolicy"]

_T = TypeVar("_T")


class Deadline:
    """A monotonic time budget shared across attempts (and across stages).

    ``budget=None`` means unbounded — every query answers accordingly, so
    call sites never special-case the no-deadline configuration.

    >>> t = iter([0.0, 1.0, 9.0, 11.0]).__next__
    >>> d = Deadline(10.0, clock=t)
    >>> d.remaining(), d.remaining()
    (9.0, 1.0)
    >>> d.expired()
    True
    """

    def __init__(
        self, budget: float | None, *, clock: Callable[[], float] = time.monotonic
    ) -> None:
        if budget is not None and budget <= 0:
            raise ValueError("deadline budget must be positive (or None)")
        self.budget = budget
        self._clock = clock
        self._t0 = clock()

    def remaining(self) -> float | None:
        """Seconds left, clamped at 0.0; ``None`` when unbounded."""
        if self.budget is None:
            return None
        return max(0.0, self.budget - (self._clock() - self._t0))

    def expired(self) -> bool:
        return self.remaining() == 0.0

    def clamp(self, delay: float) -> float:
        """``delay`` shortened so a sleep never outlives the budget."""
        left = self.remaining()
        return delay if left is None else min(delay, left)


@dataclass(frozen=True)
class RetryPolicy:
    """Every retry knob in one immutable, shareable object.

    ``max_attempts`` counts *total* attempts (so ``1`` disables retries);
    ``deadline`` is a per-:meth:`run` wall-clock budget in seconds.  The
    jittered delay for post-failure attempt ``k`` is deterministic in
    ``seed`` — two policies with equal fields sleep identically.

    >>> p = RetryPolicy(max_attempts=4, base_delay=0.1, multiplier=2.0,
    ...                 jitter=0.0)
    >>> list(p.delays())
    [0.1, 0.2, 0.4]
    >>> p.retry_after(attempt=2) == 0.2
    True
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 30.0
    #: extra sleep of up to this fraction of the delay, seeded
    jitter: float = 0.25
    seed: int = 0
    #: total wall-clock budget across all attempts, seconds (None = unbounded)
    deadline: float | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be >= 0")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter is a fraction in [0, 1]")
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError("deadline must be positive (or None)")

    # -- backoff math ----------------------------------------------------------

    def retry_after(self, attempt: int, *, rng: random.Random | None = None) -> float:
        """Sleep before post-failure attempt ``attempt`` (1-based), jittered."""
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        delay = min(self.base_delay * self.multiplier ** (attempt - 1), self.max_delay)
        if self.jitter and delay:
            r = rng if rng is not None else random.Random(f"{self.seed}:{attempt}")
            delay *= 1.0 + self.jitter * r.random()
        return delay

    def delays(self) -> Iterator[float]:
        """The full jittered backoff schedule (``max_attempts - 1`` sleeps)."""
        rng = random.Random(self.seed)
        for attempt in range(1, self.max_attempts):
            yield self.retry_after(attempt, rng=rng)

    def start_deadline(self, *, clock: Callable[[], float] = time.monotonic) -> Deadline:
        """A fresh :class:`Deadline` carrying this policy's budget."""
        return Deadline(self.deadline, clock=clock)

    # -- drivers ---------------------------------------------------------------

    def run(
        self,
        fn: Callable[[], _T],
        *,
        retryable: Callable[[BaseException], bool] = is_transient,
        on_retry: Callable[[int, float, BaseException], None] | None = None,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
        deadline: Deadline | None = None,
    ) -> _T:
        """Call ``fn`` until it succeeds, retries exhaust, or the deadline dies.

        A non-retryable failure (per ``retryable`` — the taxonomy by
        default) re-raises immediately; an exhausted budget re-raises the
        last failure; an exhausted *deadline* raises
        :class:`DeadlineExceeded` from it.  ``on_retry(attempt, delay,
        exc)`` fires before each backoff sleep — the telemetry seam.

        >>> calls = []
        >>> def flaky():
        ...     calls.append(1)
        ...     if len(calls) < 3:
        ...         raise ConnectionError("blip")
        ...     return "ok"
        >>> RetryPolicy(max_attempts=3, base_delay=0).run(flaky, sleep=lambda s: None)
        'ok'
        """
        dl = deadline if deadline is not None else self.start_deadline(clock=clock)
        rng = random.Random(self.seed)
        for attempt in range(1, self.max_attempts + 1):
            try:
                return fn()
            except Exception as exc:
                if not retryable(exc) or attempt >= self.max_attempts:
                    raise
                if dl.expired():
                    raise DeadlineExceeded(
                        f"retry budget of {dl.budget}s exhausted after "
                        f"{attempt} attempt(s): {exc!r}"
                    ) from exc
                delay = dl.clamp(self.retry_after(attempt, rng=rng))
                if on_retry is not None:
                    on_retry(attempt, delay, exc)
                if delay > 0:
                    sleep(delay)
        raise AssertionError("unreachable")  # pragma: no cover

    async def arun(
        self,
        fn: Callable[[], Awaitable[_T]],
        *,
        retryable: Callable[[BaseException], bool] = is_transient,
        on_retry: Callable[[int, float, BaseException], None] | None = None,
        clock: Callable[[], float] = time.monotonic,
        deadline: Deadline | None = None,
    ) -> _T:
        """:meth:`run` for coroutines; backoff sleeps via ``asyncio.sleep``."""
        import asyncio  # here, not at the top: sync callers never load it

        dl = deadline if deadline is not None else self.start_deadline(clock=clock)
        rng = random.Random(self.seed)
        for attempt in range(1, self.max_attempts + 1):
            try:
                return await fn()
            except Exception as exc:
                if not retryable(exc) or attempt >= self.max_attempts:
                    raise
                if dl.expired():
                    raise DeadlineExceeded(
                        f"retry budget of {dl.budget}s exhausted after "
                        f"{attempt} attempt(s): {exc!r}"
                    ) from exc
                delay = dl.clamp(self.retry_after(attempt, rng=rng))
                if on_retry is not None:
                    on_retry(attempt, delay, exc)
                if delay > 0:
                    await asyncio.sleep(delay)
        raise AssertionError("unreachable")  # pragma: no cover
