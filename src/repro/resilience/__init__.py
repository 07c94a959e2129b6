"""Shared resilience layer: supervision, retries, deadlines, fault injection.

The paper's bulk-execution model assumes every lane of the grid finishes;
a production-scale scan cannot.  Multi-hour all-pairs runs lose workers to
the OOM killer, spool writes hit full disks, and a long-running service
must shut down without dropping acknowledged work.  This package is the
one home for how the reproduction survives all of that:

* :mod:`repro.resilience.errors` — the structured failure taxonomy
  (:class:`TransientError` vs :class:`FatalError`) and
  :func:`classify_error`, which sorts arbitrary exceptions into
  retry-worthy and retry-futile;
* :mod:`repro.resilience.retry` — :class:`RetryPolicy` (exponential
  backoff, seeded jitter, deadline budget) replacing every ad-hoc retry
  loop, plus :class:`Deadline`;
* :mod:`repro.resilience.supervisor` — :func:`supervised_map`, the
  process-pool execution primitive behind ``scan --backend parallel``
  that keeps each in-flight work unit's spec next to its future, catches
  worker death, respawns the pool and resubmits lost units (a
  ``kill -9``'d worker costs one block's latency, not the run);
* :mod:`repro.resilience.faults` — deterministic fault injection: named
  points at every IO/process boundary, armed via the ``REPRO_FAULTS``
  environment spec or a programmatic :class:`FaultPlan`, powering the
  chaos suite under ``tests/resilience/``.

``docs/RESILIENCE.md`` is the narrative reference (taxonomy, supervision
model, fault-spec grammar, service shutdown sequence).
"""

from repro._lazy import lazy_exports
from repro.resilience.errors import (
    ChunkFailed,
    DeadlineExceeded,
    FatalError,
    PoolExhausted,
    ResilienceError,
    TransientError,
    WorkerCrash,
    classify_error,
    is_transient,
)
from repro.resilience.faults import (
    Fault,
    FaultInjected,
    FaultPlan,
    FAULT_POINTS,
    active_plan,
    fire,
    install_plan,
    parse_spec,
    reset_plan,
)
from repro.resilience.retry import Deadline, RetryPolicy

__all__ = [
    "ChunkFailed",
    "ChunkSupervisor",
    "Deadline",
    "DeadlineExceeded",
    "FAULT_POINTS",
    "FatalError",
    "Fault",
    "FaultInjected",
    "FaultPlan",
    "PoolExhausted",
    "ResilienceError",
    "RetryPolicy",
    "TransientError",
    "WorkerCrash",
    "active_plan",
    "classify_error",
    "fire",
    "install_plan",
    "is_transient",
    "parse_spec",
    "reset_plan",
    "supervised_map",
]

# the supervisor loads multiprocessing: only the parallel backend pays for it
__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.resilience.supervisor": ("ChunkSupervisor", "supervised_map"),
})
