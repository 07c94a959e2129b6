"""The crawl loop: windows → extraction → dedup → outbox → registry.

This module owns the exactly-once protocol the other ingest pieces
implement halves of.  Per window of log entries the loop performs, in
order:

1. **fetch** (``ct.fetch`` fault point, retried while transient);
2. **extract + dedup** — tolerant extraction, skip counting, and the
   bounded-memory seen-set;
3. **outbox append + fsync** — new unique moduli go to the hexlines
   spool *before* anything is submitted;
4. **dedup sync** — the seen-set's log is fsync'd, yielding a watermark;
5. **commit A** (``ct.cursor.commit``) — the cursor records the advanced
   ``next_index``, the dedup watermark, and the outbox length atomically.

Once enough unacknowledged outbox lines accumulate (``submit_chunk``):

6. **submit** (``ingest.sink``) — the pending outbox slice goes to the
   registry over the binary wire with ``?wait=1``;
7. **commit B** (``ct.cursor.commit``) — the cursor records the ack and
   the registry's post-ack key count.

Every fault point fires *before* its dangerous action, so a kill at any
of them leaves one of two resumable shapes: an uncommitted tail past the
cursor (steps 1–5 — truncated and re-crawled on ``--resume``) or an
in-flight batch (steps 6–7 — reconciled against ``GET /healthz``: the
crawler is the registry's sole writer, so the batch landed iff the key
count advanced by exactly the pending uniques).  Either way each modulus
is submitted exactly once; ``docs/INGEST.md`` walks the full argument.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.core import durable
from repro.ingest.ctlog import CTLogClient, PRECERT_ENTRY, X509_ENTRY
from repro.ingest.cursor import CrawlCursor, CrawlState
from repro.ingest.dedup import DedupIndex
from repro.ingest.extract import extract_entry, modulus_digest
from repro.ingest.sink import RegistrySink
from repro.resilience import RetryPolicy
from repro.rsa.x509 import DEFAULT_MAX_BITS, DEFAULT_MIN_BITS
from repro.telemetry import Telemetry

__all__ = ["CrawlConfig", "CrawlReport", "run_crawl"]


@dataclass(frozen=True)
class CrawlConfig:
    """Everything ``repro ingest ct`` passes down."""

    log_url: str
    state_dir: Path
    start: int = 0
    end: int | None = None
    resume: bool = False
    submit_url: str | None = None
    moduli_out: Path | None = None
    batch_size: int = 256
    max_batch_size: int = 2048
    submit_chunk: int = 500
    min_bits: int = DEFAULT_MIN_BITS
    max_bits: int = DEFAULT_MAX_BITS
    max_memory_keys: int = 262_144
    timeout: float = 60.0
    fetch_retry: RetryPolicy | None = None
    sink_retry: RetryPolicy | None = None

    @property
    def outbox_path(self) -> Path:
        """The hexlines spool (also the ``--moduli-out`` deliverable)."""
        return Path(self.moduli_out) if self.moduli_out else Path(self.state_dir) / "outbox.txt"


@dataclass
class CrawlReport:
    """What one ``run_crawl`` invocation accomplished."""

    log_url: str
    start: int
    end: int
    resumed: bool
    entries: int = 0
    unique: int = 0
    duplicates: int = 0
    skipped: dict = field(default_factory=dict)
    submitted: int = 0
    registry_keys: int | None = None
    registry_hits: int | None = None
    metrics: dict = field(default_factory=dict)


def _append_outbox(path: Path, moduli: list[int]) -> int:
    """Append hexlines durably; returns the byte count written."""
    blob = "".join(f"{n:x}\n" for n in moduli).encode("ascii")
    durable.append(path, blob)
    return len(blob)


def _read_outbox_slice(path: Path, start_line: int, end_line: int) -> list[int]:
    """Outbox lines ``[start_line, end_line)`` as moduli."""
    moduli = []
    with path.open("r") as fh:
        for lineno, line in enumerate(fh):
            if lineno >= end_line:
                break
            if lineno >= start_line:
                moduli.append(int(line.strip(), 16))
    if len(moduli) != end_line - start_line:
        raise ValueError(
            f"outbox {path} holds {len(moduli)} of lines "
            f"[{start_line}, {end_line}) — spool and cursor disagree"
        )
    return moduli


class _Crawl:
    """One run's mutable machinery (the dataclasses above stay pure)."""

    def __init__(self, config: CrawlConfig, telemetry: Telemetry) -> None:
        self.config = config
        self.tel = telemetry
        self.counters = telemetry.registry
        durable.makedirs(config.state_dir)
        self.cursor = CrawlCursor(config.state_dir)
        self.dedup = DedupIndex(config.state_dir, max_memory_keys=config.max_memory_keys)
        self.client = CTLogClient(
            config.log_url,
            timeout=config.timeout,
            retry_policy=config.fetch_retry,
            on_retry=self._count_fetch_retry,
        )
        self.sink = (
            RegistrySink(
                config.submit_url,
                timeout=config.timeout,
                retry_policy=config.sink_retry,
                on_retry=self._count_sink_retry,
            )
            if config.submit_url
            else None
        )
        self.window = max(1, config.batch_size)

    def _count_fetch_retry(self, attempt: int, delay: float, exc: BaseException) -> None:
        self.counters.counter("ingest.fetch.retries").inc()
        self.tel.emit("ingest.fetch.retry", attempt=attempt, error=str(exc))

    def _count_sink_retry(self, attempt: int, delay: float, exc: BaseException) -> None:
        self.counters.counter("ingest.submit.retries").inc()
        self.tel.emit("ingest.submit.retry", attempt=attempt, error=str(exc))

    def close(self) -> None:
        self.client.close()
        if self.sink is not None:
            self.sink.close()

    # -- start / resume --------------------------------------------------------

    def open_state(self) -> tuple[CrawlState, bool]:
        config = self.config
        prior = self.cursor.load()
        if prior is not None and not config.resume:
            raise ValueError(
                f"{self.cursor.path} already holds a crawl at index "
                f"{prior.next_index}; pass --resume to continue it"
            )
        if prior is None:
            sth = self.client.get_sth()
            end = sth.tree_size if config.end is None else min(config.end, sth.tree_size)
            if config.start < 0 or config.start > end:
                raise ValueError(
                    f"start index {config.start} outside the log's [0, {end}]"
                )
            state = CrawlState(
                log_url=config.log_url,
                start=config.start,
                end=end,
                next_index=config.start,
                tree_size=sth.tree_size,
            )
            durable.append(config.outbox_path, b"")
            self.cursor.commit(state)
            self.counters.counter("ingest.cursor.commits").inc()
            return state, False
        if prior.log_url != config.log_url:
            raise ValueError(
                f"state dir belongs to {prior.log_url}, not {config.log_url}"
            )
        # restore the derived stores to the committed snapshot: dedup log
        # truncates to its watermark, the outbox to its committed bytes
        self.dedup.load(prior.dedup_watermark)
        durable.truncate(config.outbox_path, prior.outbox_bytes)
        state = self._reconcile(prior)
        self.tel.emit(
            "ingest.resume",
            next_index=state.next_index,
            outbox_count=state.outbox_count,
            acked=state.acked_count,
        )
        return state, True

    def _reconcile(self, state: CrawlState) -> CrawlState:
        """Settle an in-flight batch from before a crash (commit B missing).

        A kill between the service acknowledging a batch and commit B
        leaves ``pending_count > 0`` with the keys already registered.
        The crawler is the registry's sole writer, so ``/healthz`` is an
        oracle: the key count equals the recorded post-ack count plus the
        pending uniques iff the batch landed.  Landed → mark acked
        without re-submitting (zero ``duplicate_submissions``); not
        landed → the normal flush path submits it.
        """
        if self.sink is None:
            return state
        if state.pending_count <= 0:
            return state
        pending = _read_outbox_slice(
            self.config.outbox_path, state.acked_count, state.outbox_count
        )
        health = self.sink.healthz()
        before = state.registry_keys if state.registry_keys is not None else 0
        if health["keys"] == before + len(pending):
            self.tel.emit("ingest.reconcile", landed=True, pending=len(pending))
            state = state.advanced(
                acked_count=state.outbox_count, registry_keys=health["keys"]
            )
            self.cursor.commit(state)
            self.counters.counter("ingest.cursor.commits").inc()
            return state
        self.tel.emit("ingest.reconcile", landed=False, pending=len(pending))
        return state

    # -- the loop --------------------------------------------------------------

    def run(self) -> CrawlReport:
        state, resumed = self.open_state()
        report = CrawlReport(
            log_url=state.log_url, start=state.start, end=state.end, resumed=resumed
        )
        self.tel.emit(
            "ingest.start",
            log_url=state.log_url,
            next_index=state.next_index,
            end=state.end,
            resumed=resumed,
        )
        while not state.done:
            state = self._one_window(state, report)
        if self.sink is not None and state.pending_count > 0:
            state = self._flush(state, report)
        if self.sink is not None:
            health = self.sink.healthz()
            report.registry_keys = health["keys"]
            report.registry_hits = health["hits"]
        report.skipped = {
            name.removeprefix("ingest.skipped."): counter.value
            for name, counter in self.counters.counters.items()
            if name.startswith("ingest.skipped.")
        }
        report.metrics = self.tel.snapshot()
        self.tel.emit(
            "ingest.done",
            entries=report.entries,
            unique=report.unique,
            duplicates=report.duplicates,
            submitted=report.submitted,
        )
        return report

    def _one_window(self, state: CrawlState, report: CrawlReport) -> CrawlState:
        want = min(self.window, state.end - state.next_index)
        entries = self.client.get_entries(
            state.next_index, state.next_index + want - 1
        )
        self.counters.counter("ingest.windows").inc()
        self.counters.counter("ingest.entries").inc(len(entries))
        report.entries += len(entries)
        # adapt the window: shrink to a server-observed cap, otherwise
        # grow gently toward the configured maximum
        cap = self.client.observed_cap
        if cap is not None:
            self.window = max(1, min(cap, self.config.max_batch_size))
        else:
            self.window = min(
                self.config.max_batch_size, self.window + max(1, self.window // 4)
            )

        fresh: list[int] = []
        for entry in entries:
            result = extract_entry(
                entry, min_bits=self.config.min_bits, max_bits=self.config.max_bits
            )
            if result.entry_type == X509_ENTRY:
                self.counters.counter("ingest.entries.x509").inc()
            elif result.entry_type == PRECERT_ENTRY:
                self.counters.counter("ingest.entries.precert").inc()
            if not result.ok:
                self.counters.counter(f"ingest.skipped.{result.key.skip}").inc()
                continue
            if self.dedup.add(modulus_digest(result.key.n)):
                fresh.append(result.key.n)
                self.counters.counter("ingest.keys.unique").inc()
                report.unique += 1
            else:
                self.counters.counter("ingest.keys.duplicate").inc()
                report.duplicates += 1

        new_bytes = _append_outbox(self.config.outbox_path, fresh) if fresh else 0
        watermark = self.dedup.sync()
        state = state.advanced(
            next_index=state.next_index + len(entries),
            dedup_watermark=watermark,
            outbox_count=state.outbox_count + len(fresh),
            outbox_bytes=state.outbox_bytes + new_bytes,
            # spool-only crawls have no ack stage: the fsync'd outbox
            # append *is* the terminal sink, so the commit closes the loop
            acked_count=(
                state.outbox_count + len(fresh) if self.sink is None
                else state.acked_count
            ),
        )
        self.cursor.commit(state)  # commit A
        self.counters.counter("ingest.cursor.commits").inc()
        self.counters.gauge("ingest.next_index").set(state.next_index)
        self.counters.gauge("ingest.window_size").set(self.window)
        self.tel.emit(
            "ingest.window",
            next_index=state.next_index,
            entries=len(entries),
            fresh=len(fresh),
        )
        if self.sink is not None and state.pending_count >= self.config.submit_chunk:
            state = self._flush(state, report)
        return state

    def _flush(self, state: CrawlState, report: CrawlReport) -> CrawlState:
        pending = _read_outbox_slice(
            self.config.outbox_path, state.acked_count, state.outbox_count
        )
        ticket = self.sink.submit(pending)
        self.counters.counter("ingest.submit.batches").inc()
        self.counters.counter("ingest.submit.keys").inc(len(pending))
        report.submitted += len(pending)
        for result in ticket.get("results") or []:
            status = (result or {}).get("status", "unknown")
            self.counters.counter(f"ingest.submit.{status}").inc()
        health = self.sink.healthz()
        state = state.advanced(
            acked_count=state.outbox_count, registry_keys=health["keys"]
        )
        self.cursor.commit(state)  # commit B
        self.counters.counter("ingest.cursor.commits").inc()
        self.tel.emit(
            "ingest.submit", keys=len(pending), registry_keys=health["keys"]
        )
        return state


def run_crawl(config: CrawlConfig, *, telemetry: Telemetry | None = None) -> CrawlReport:
    """Crawl ``config.log_url`` into the outbox and (optionally) the registry.

    The one public entry point: builds the machinery, runs the loop,
    always closes the HTTP clients.  See the module docstring for the
    commit protocol and :class:`CrawlReport` for what comes back.
    """
    tel = telemetry if telemetry is not None else Telemetry.create()
    crawl = _Crawl(config, tel)
    try:
        return crawl.run()
    finally:
        crawl.close()
