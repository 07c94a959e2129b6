"""Multi-process execution: the all-pairs comparator over a process pool.

The paper's introduction contrasts GPUs with multicore processors; this
backend is that other branch — the Section VI block schedule fanned out
over a :mod:`multiprocessing` pool, each worker running the bulk engine on
its blocks.  Blocks are independent (no shared state beyond the read-only
modulus vector), so the decomposition is embarrassingly parallel, exactly
like the CUDA grid.

The modulus vector is shipped to each worker once via the pool initializer
(fork shares it copy-on-write on Linux), not per task.  Telemetry follows
the same shape: every worker accumulates into its *own*
:class:`~repro.telemetry.metrics.MetricsRegistry` (created in the
initializer, so cross-process writes never race), each task result carries
the worker's pid, and the workers' registries are merged into the parent's
at join — counters add, histograms pool, so ``kernel.*`` statistics span
the whole fleet.

The pool is *supervised*
(:func:`repro.resilience.supervisor.supervised_map`), which is what lets
a scan survive worker death: each in-flight block spec is retained next
to its future, a broken pool is respawned, and the lost blocks are
resubmitted — a ``kill -9``'d worker costs one block's latency, not the
run (see ``docs/RESILIENCE.md``).  The disk-streamed batch-GCD pipeline
(:mod:`repro.core.pipeline`) fans its large remainder levels out over the
same supervisor, one pool per run.
"""

from __future__ import annotations

import multiprocessing as mp
import os
from typing import Iterable

from repro.bulk.engine import BulkGcdEngine
from repro.core.attack import AttackReport, WeakHit
from repro.core.pairing import all_pair_count, block_schedule
from repro.resilience.supervisor import supervised_map
from repro.telemetry import MetricsRegistry, StageTimer, Telemetry
from repro.util.intops import IntBackend, resolve_backend

__all__ = ["find_shared_primes_parallel"]

# worker-process globals, set once by _init_worker
_WORKER_MODULI: list[int] = []
_WORKER_ENGINE: BulkGcdEngine | None = None
_WORKER_STOP: int | None = None
_WORKER_TEL: Telemetry | None = None


def _init_worker(moduli: list[int], algorithm: str, d: int, stop_bits: int | None) -> None:
    global _WORKER_MODULI, _WORKER_ENGINE, _WORKER_STOP, _WORKER_TEL
    _WORKER_MODULI = moduli
    _WORKER_ENGINE = BulkGcdEngine(d=d, algorithm=algorithm)
    _WORKER_STOP = stop_bits
    registry = MetricsRegistry()
    _WORKER_TEL = Telemetry(registry=registry, timer=StageTimer(registry=registry))


def _run_block(
    block_spec: tuple[int, int, int, int],
) -> tuple[list[tuple[int, int, int]], int, int, int, MetricsRegistry]:
    """Process one block; returns (hits, pairs_tested, loop_trips, worker
    pid, the worker's *cumulative* registry)."""
    from repro.core.pairing import BlockTask

    i, j, r, m = block_spec
    block = BlockTask(i=i, j=j, group_size=r, m=m)
    idx = list(block.pairs())
    pid = os.getpid()
    if not idx:
        return [], 0, 0, pid, _WORKER_TEL.registry
    values = [(_WORKER_MODULI[a], _WORKER_MODULI[b]) for a, b in idx]
    with _WORKER_TEL.timer.span("block"):
        result = _WORKER_ENGINE.run_pairs(
            values, stop_bits=_WORKER_STOP, compact=True, telemetry=_WORKER_TEL
        )
    _WORKER_TEL.registry.counter("worker.pairs_tested").inc(len(idx))
    _WORKER_TEL.registry.histogram("scan.block_pairs").observe(len(idx))
    hits = [
        (a, b, g) for (a, b), g in zip(idx, result.gcds) if g > 1
    ]
    return hits, len(idx), result.loop_trips, pid, _WORKER_TEL.registry


def find_shared_primes_parallel(
    moduli: list[int],
    *,
    processes: int | None = None,
    algorithm: str = "approx",
    d: int = 32,
    group_size: int = 64,
    early_terminate: bool = True,
    telemetry: Telemetry | None = None,
    max_attempts: int = 6,
    int_backend: str | IntBackend | None = None,
) -> AttackReport:
    """All-pairs scan with one worker process per core, under supervision.

    Semantics match :func:`repro.core.attack.find_shared_primes` with the
    ``bulk`` backend; only the execution strategy differs.  ``processes``
    defaults to ``os.cpu_count()``.  ``report.metrics`` carries the merged
    per-worker registries plus a ``parallel.workers`` gauge.

    ``int_backend`` is honoured the same way the ``bulk`` backend honours
    it: the workers' word-level arithmetic is the measurement subject and
    never touches the big-integer layer, so the resolved backend is
    recorded in the ``backend.name`` gauge and the ``scan.start`` event
    (reports stay self-describing) rather than changing the kernels.

    A killed worker does not abort the run: the pool is respawned and the
    lost blocks are resubmitted (``max_attempts`` total tries per block),
    counted in ``resilience.worker_crashes`` / ``resilience.pool_respawns``
    / ``resilience.chunk_retries``.  A crashed worker's *cumulative*
    telemetry registry is merged from its last-known-good snapshot (the
    one riding its last completed block) rather than dropped; the trailing
    delta that died with the process is counted in
    ``resilience.registries_lost``.

    >>> report = find_shared_primes_parallel([33, 35, 55], processes=2,
    ...                                      early_terminate=False)
    >>> sorted(report.hit_pairs)
    [(0, 2), (1, 2)]
    """
    if len(moduli) < 2:
        raise ValueError("need at least two moduli")
    if any(n <= 1 or n % 2 == 0 for n in moduli):
        raise ValueError("RSA moduli must be odd and > 1")
    bits = max(n.bit_length() for n in moduli)
    if early_terminate and any(n.bit_length() != bits for n in moduli):
        raise ValueError("early termination assumes equal-size moduli")
    stop_bits = bits // 2 if early_terminate else None

    schedule = block_schedule(len(moduli), group_size)
    specs = [(b.i, b.j, b.group_size, b.m) for b in schedule]
    report = AttackReport(
        m=len(moduli), bits=bits, backend="parallel", algorithm=algorithm, blocks=len(specs)
    )

    B = resolve_backend(int_backend)
    tel = telemetry if telemetry is not None else Telemetry.create()
    tel.registry.gauge("scan.moduli").set(len(moduli))
    tel.registry.gauge("scan.bits").set(bits)
    tel.registry.gauge("scan.blocks").set(len(specs))
    tel.registry.gauge("backend.name").set(B.name)
    tel.set_progress_total(all_pair_count(len(moduli)))
    tel.emit("scan.start", backend="parallel", algorithm=algorithm,
             moduli=len(moduli), bits=bits, int_backend=B.name)

    # one cumulative registry per worker pid: each result carries its
    # worker's registry snapshot, and later snapshots supersede — so a pid
    # that dies mid-block still contributes its last-known-good snapshot
    worker_registries: dict[int, MetricsRegistry] = {}
    procs = processes if processes is not None else os.cpu_count() or 1
    with tel.timer.span("scan"):
        if procs <= 1:
            # single-process: run the worker body inline (no pool to lose)
            _init_worker(list(moduli), algorithm, d, stop_bits)
            results: Iterable = map(_run_block, specs)
        else:
            ctx = (
                mp.get_context("fork")
                if "fork" in mp.get_all_start_methods()
                else mp.get_context()
            )
            results = supervised_map(
                _run_block,
                specs,
                workers=procs,
                max_in_flight=4 * procs,
                initializer=_init_worker,
                initargs=(list(moduli), algorithm, d, stop_bits),
                mp_context=ctx,
                max_attempts=max_attempts,
                registry=tel.registry,
            )
        for hits, pairs, trips, pid, registry in results:
            report.pairs_tested += pairs
            report.loop_trips += trips
            report.hits.extend(WeakHit(a, b, g) for a, b, g in hits)
            worker_registries[pid] = registry  # later snapshots supersede
            tel.advance(pairs)
    for registry in worker_registries.values():
        tel.registry.merge(registry)
    respawns = tel.registry.counters.get("resilience.pool_respawns")
    if respawns is not None and respawns.value:
        # every pool generation that died took up to `procs` workers with
        # it, each with its own unmerged trailing registry delta;
        # last-known-good snapshots (merged above) cover everything up to
        # each worker's final completed block
        tel.registry.counter("resilience.registries_lost").inc(respawns.value * procs)
    report.elapsed_seconds = tel.timer.total_seconds("scan")
    report.hits.sort(key=lambda h: (h.i, h.j))
    reg = tel.registry
    reg.gauge("parallel.workers").set(len(worker_registries))
    reg.counter("scan.pairs_tested").inc(report.pairs_tested)
    reg.counter("scan.hits").inc(len(report.hits))
    if report.elapsed_seconds > 0:
        reg.gauge("scan.pairs_per_second").set(
            report.pairs_tested / report.elapsed_seconds
        )
    report.metrics = tel.snapshot()
    tel.emit("scan.done", pairs_tested=report.pairs_tested,
             hits=len(report.hits), elapsed_seconds=report.elapsed_seconds)
    return report
