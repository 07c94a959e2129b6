"""Online scrubbing: continuous re-verification inside ``repro serve``.

Load-time checks only catch bit rot at the *next* restart — a service
that stays up for months would happily serve verdicts off a silently
corrupted registry.  The :class:`Scrubber` closes that window: a
background task wakes every ``interval`` seconds and re-verifies a
byte-budgeted slice of the artifact catalog, round-robin, so every
committed artifact is eventually re-hashed no matter how large the
corpus grows.

Two design points carry the correctness argument:

* **Cycles run on the service's scan thread.**  Every registry commit
  and tree append happens on that single-worker executor (a shard's
  append is awaited there), so a scrub cycle can never observe a
  half-written commit —
  the same serialisation that makes ``/metricsz`` snapshots consistent.
* **Damage trips degraded mode, never repair.**  The scrubber is a
  detector; an online "repair" racing the commit path is how you turn
  one corrupt blob into two.  On the first corrupt-severity finding the
  service goes read-only (``POST /submit`` → 503, reads keep serving)
  and stays there until an operator runs ``repro fsck --repair`` offline
  and restarts.  Warnings (orphans, stale checksums) are counted and
  surfaced but do not degrade.

Telemetry: ``integrity.scrub.cycles`` / ``.artifacts`` / ``.bytes`` /
``.corrupt`` / ``.warnings`` counters, the ``integrity.degraded`` gauge,
and an ``integrity.corruption`` event per finding (see
``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

import asyncio
import time

from repro.integrity.catalog import ArtifactCatalog, Finding, SEVERITY_CORRUPT

__all__ = ["Scrubber"]


class Scrubber:
    """Rate-limited background re-verification of one state directory."""

    def __init__(
        self,
        service,
        *,
        interval: float = 5.0,
        max_bytes_per_cycle: int = 16 << 20,
    ) -> None:
        if interval <= 0:
            raise ValueError("scrub interval must be > 0 (omit the scrubber to disable)")
        self.service = service
        self.interval = interval
        self.max_bytes_per_cycle = max_bytes_per_cycle
        self.cycles = 0
        self.artifacts_checked = 0
        self.bytes_checked = 0
        self.corrupt_found = 0
        self.warnings_found = 0
        self.last_cycle_at: float | None = None
        self.last_findings: list[Finding] = []
        self._cursor = 0
        self._task: asyncio.Task | None = None

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> None:
        self._task = asyncio.get_running_loop().create_task(self._run())

    async def stop(self) -> None:
        if self._task is None:
            return
        self._task.cancel()
        try:
            await self._task
        except asyncio.CancelledError:
            pass
        self._task = None

    async def _run(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(self.interval)
            try:
                # the scan thread serialises the cycle against commits
                await loop.run_in_executor(self.service._executor, self._cycle)
            except asyncio.CancelledError:
                raise
            except RuntimeError:
                return  # executor already shut down: service is stopping
            except Exception as exc:  # scrubbing must never kill the service
                self.service.telemetry.emit("integrity.scrub.error", error=repr(exc))

    # -- one cycle -------------------------------------------------------------

    def _cycle(self) -> None:
        units = ArtifactCatalog(self.service.config.state_dir).units()
        findings: list[Finding] = []
        checked = 0
        budget = self.max_bytes_per_cycle
        if units:
            self._cursor %= len(units)
            for step in range(len(units)):
                unit = units[(self._cursor + step) % len(units)]
                if checked and budget - unit.nbytes < 0:
                    self._cursor = (self._cursor + step) % len(units)
                    break
                budget -= unit.nbytes
                self.bytes_checked += unit.nbytes
                findings.extend(unit.run())
                checked += 1
            else:
                self._cursor = 0
        self.cycles += 1
        self.artifacts_checked += checked
        self.last_cycle_at = time.monotonic()
        self.last_findings = [f for f in findings if f.verdict != "ok"]

        corrupt = [f for f in findings if f.severity == SEVERITY_CORRUPT]
        warnings = [f for f in findings if f.severity == "warning"]
        self.corrupt_found += len(corrupt)
        self.warnings_found += len(warnings)

        reg = self.service.telemetry.registry
        reg.counter("integrity.scrub.cycles").inc()
        reg.counter("integrity.scrub.artifacts").inc(checked)
        reg.counter("integrity.scrub.bytes").inc(self.max_bytes_per_cycle - budget)
        if corrupt:
            reg.counter("integrity.scrub.corrupt").inc(len(corrupt))
        if warnings:
            reg.counter("integrity.scrub.warnings").inc(len(warnings))
        for finding in corrupt:
            self.service.telemetry.emit(
                "integrity.corruption",
                family=finding.family, artifact=finding.artifact,
                verdict=finding.verdict, detail=finding.detail,
            )
        if corrupt:
            worst = corrupt[0]
            self.service.enter_degraded(
                f"{worst.family}/{worst.artifact}: {worst.verdict}"
                + (f" (+{len(corrupt) - 1} more)" if len(corrupt) > 1 else "")
            )

    # -- reporting -------------------------------------------------------------

    def status(self) -> dict:
        """The ``/healthz`` scrub block."""
        return {
            "enabled": True,
            "interval_seconds": self.interval,
            "cycles": self.cycles,
            "artifacts_checked": self.artifacts_checked,
            "bytes_checked": self.bytes_checked,
            "corrupt_found": self.corrupt_found,
            "warnings_found": self.warnings_found,
            "last_findings": [f.to_json() for f in self.last_findings[:8]],
        }
