"""Deterministic fault injection: named failure points, armed on demand.

Every IO/process boundary in the repository calls :func:`fire` with a
point name before doing its dangerous thing; when no plan is armed the
call is two attribute loads and a ``None`` check.  A plan arms via the
``REPRO_FAULTS`` environment variable (inherited by pool workers, which
is what makes worker-side points injectable) or programmatically with
:func:`install_plan` (what the chaos tests do).

Spec grammar (full reference in ``docs/RESILIENCE.md``)::

    spec     := clause (";" clause)*
    clause   := point selector? "=" action
    selector := "#" N        fire on exactly the Nth hit (per process)
              | "#" N "+"    fire on the Nth hit and every later one
              | "%" P "@" S  fire each hit with probability P, seeded by S
    action   := "enospc" | "ioerror" | "error" | "exit"
              | "exit:CODE" | "hang:SECONDS"
              | "corrupt:bitflip" | "corrupt:truncate" | "corrupt:zero"

Examples::

    REPRO_FAULTS='chunk.execute#2=exit'          # 2nd chunk kills its worker
    REPRO_FAULTS='spool.write#1=ioerror'         # first spool write EIOs once
    REPRO_FAULTS='worker.init%0.5@7=error'       # half of worker inits fail
    REPRO_FAULTS='batcher.flush#1=error;http.handler#3=error'
    REPRO_FAULTS='registry.commit#3=corrupt:bitflip'  # silent bit rot

Determinism: hit counters are per-process and per-point; probabilistic
triggers hash ``(seed, point, hit_number)``, so the same spec against the
same workload injects the same faults — a chaos run is replayable from
its logged spec alone.

The ``corrupt:*`` actions are the bit-rot simulators behind the
integrity subsystem's chaos suite (``docs/INTEGRITY.md``).  Unlike every
other action they do **not** fire at the pre-write :func:`fire` call:
they apply *after* a successful write, via the :func:`corrupt_file` hook
the commit points call with the path they just made durable, so the
writer believes the commit succeeded and the damage is discoverable only
by re-verification (``repro fsck``, the online scrubber).  Modes:

* ``bitflip``  — XOR one bit in the byte at the file's midpoint;
* ``truncate`` — tear off the trailing quarter (at least one byte);
* ``zero``     — overwrite up to 64 bytes at the midpoint with zeros.

Hit counters for ``corrupt`` clauses count :func:`corrupt_file` calls at
the point (one per file or region written), independently of the
:func:`fire` counter.  At ``registry.commit`` each batch's log record
counts two hits, each aimed at one region of it: its body (the keys and
hits, rebuildable from redundancy), then its header (not rebuildable).
So ``#3`` is batch 1's body and ``#2`` batch 0's header; a ``truncate``
of a region also drops everything after it.  At ``ptree.commit`` each
tree-log append counts one hit, aimed at the body of its frame.

Injection points instrumented across the tree (``FAULT_POINTS``):

==================  ==========================================================
``spool.write``     :func:`repro.core.spool.write_blob`, before the tmp write
                    (the batchscan pipeline's spool)
``manifest.commit`` :meth:`repro.core.checkpoint.CheckpointStore.save`
                    (the batchscan pipeline's manifest)
``chunk.execute``   worker-side, before each supervised chunk/block runs
``worker.init``     worker-side, at pool-worker initialisation
``batcher.flush``   :class:`repro.service.batcher.MicroBatcher`, per flush
``http.handler``    :class:`repro.service.http.HttpServer`, per request
``registry.commit`` :meth:`repro.service.registry.WeakKeyRegistry.commit_batch`
``ptree.commit``    :class:`repro.core.ptree.PersistentProductTree`, per append
``shard.dispatch``  :class:`repro.service.shard.ShardRouter`, before each job send
``ct.fetch``        :class:`repro.ingest.ctlog.CTLogClient`, per get-entries
``ct.cursor.commit`` :meth:`repro.ingest.cursor.CrawlCursor.commit`, per save
``ingest.sink``     :class:`repro.ingest.sink.RegistrySink`, before each submit
==================  ==========================================================
"""

from __future__ import annotations

import errno
import os
import random
import time
from dataclasses import dataclass

__all__ = [
    "CORRUPT_MODES",
    "FAULT_POINTS",
    "Fault",
    "FaultInjected",
    "FaultPlan",
    "FaultSpecError",
    "active_plan",
    "corrupt_file",
    "fire",
    "install_plan",
    "parse_spec",
    "reset_plan",
]

FAULT_POINTS = (
    "spool.write",
    "manifest.commit",
    "chunk.execute",
    "worker.init",
    "batcher.flush",
    "http.handler",
    "registry.commit",
    "ptree.commit",
    "shard.dispatch",
    "ct.fetch",
    "ct.cursor.commit",
    "ingest.sink",
)

_ACTIONS = ("enospc", "ioerror", "error", "exit", "hang", "corrupt")

CORRUPT_MODES = ("bitflip", "truncate", "zero")

ENV_VAR = "REPRO_FAULTS"


class FaultSpecError(ValueError):
    """A ``REPRO_FAULTS`` spec that does not parse."""


class FaultInjected(RuntimeError):
    """The generic injected failure (``error`` action) — transient by taxonomy."""


@dataclass(frozen=True)
class Fault:
    """One armed clause: where, when, and what to do.

    >>> Fault(point="spool.write", action="ioerror", nth=1).clause()
    'spool.write#1=ioerror'
    """

    point: str
    action: str
    #: fire on exactly this hit number (1-based); with ``onward`` on every later one too
    nth: int | None = None
    onward: bool = False
    #: fire each hit with this probability, deterministically in ``seed``
    probability: float | None = None
    seed: int = 0
    #: action argument (exit code, hang seconds)
    arg: float | None = None
    #: corrupt action mode (``bitflip`` | ``truncate`` | ``zero``)
    mode: str | None = None

    def __post_init__(self) -> None:
        if self.action not in _ACTIONS:
            raise FaultSpecError(f"unknown fault action {self.action!r}")
        if self.nth is not None and self.nth < 1:
            raise FaultSpecError("hit selector #N is 1-based")
        if self.probability is not None and not 0.0 <= self.probability <= 1.0:
            raise FaultSpecError("probability must be in [0, 1]")
        if self.nth is not None and self.probability is not None:
            raise FaultSpecError("a clause uses #N or %P@S, not both")
        if self.action == "corrupt":
            if self.mode not in CORRUPT_MODES:
                raise FaultSpecError(
                    f"corrupt action needs a mode in {CORRUPT_MODES}, got {self.mode!r}"
                )
        elif self.mode is not None:
            raise FaultSpecError(f"action {self.action!r} takes no mode")

    def triggers(self, hit: int) -> bool:
        """Does hit number ``hit`` (1-based, per process) fire this fault?"""
        if self.nth is not None:
            return hit >= self.nth if self.onward else hit == self.nth
        if self.probability is not None:
            draw = random.Random(f"{self.seed}:{self.point}:{hit}").random()
            return draw < self.probability
        return True

    def execute(self) -> None:
        """Perform the action (raise, exit the process, or stall)."""
        tag = f"[fault:{self.point}]"
        if self.action == "enospc":
            raise OSError(errno.ENOSPC, f"injected: no space left on device {tag}")
        if self.action == "ioerror":
            raise OSError(errno.EIO, f"injected: i/o error {tag}")
        if self.action == "error":
            raise FaultInjected(f"injected failure {tag}")
        if self.action == "exit":
            os._exit(int(self.arg) if self.arg is not None else 137)
        if self.action == "hang":
            time.sleep(self.arg if self.arg is not None else 1.0)

    def corrupt_path(self, path: str, region: tuple[int, int] | None = None) -> None:
        """Damage the freshly written file at ``path`` in place.

        ``region`` narrows the damage to the bytes ``[start, end)`` (the
        whole file by default); a truncation also drops everything after
        the region.  Deterministic by construction: the byte offsets
        depend only on the sizes, so replaying a spec against the same
        workload rots the same bytes.
        """
        start, end = region if region is not None else (0, os.path.getsize(path))
        size = end - start
        if size <= 0:
            return
        if self.mode == "truncate":
            os.truncate(path, end - max(1, size // 4))
            return
        mid = start + size // 2
        with open(path, "r+b") as handle:
            handle.seek(mid)
            if self.mode == "bitflip":
                byte = handle.read(1)
                handle.seek(mid)
                handle.write(bytes([byte[0] ^ 0x01]))
            else:  # zero
                handle.write(b"\x00" * min(64, end - mid))

    def clause(self) -> str:
        """This fault back in spec-grammar form (for seed logging)."""
        selector = ""
        if self.nth is not None:
            selector = f"#{self.nth}" + ("+" if self.onward else "")
        elif self.probability is not None:
            selector = f"%{self.probability:g}@{self.seed}"
        action = self.action
        if self.mode is not None:
            action += f":{self.mode}"
        elif self.arg is not None:
            action += f":{self.arg:g}"
        return f"{self.point}{selector}={action}"


class FaultPlan:
    """A set of armed faults plus this process's per-point hit counters.

    >>> plan = parse_spec("spool.write#2=ioerror")
    >>> plan.fire("spool.write")  # hit 1: armed but not triggered
    >>> plan.fire("spool.write")
    Traceback (most recent call last):
        ...
    OSError: [Errno 5] injected: i/o error [fault:spool.write]
    """

    def __init__(self, faults: list[Fault] | tuple[Fault, ...] = ()) -> None:
        self.faults = list(faults)
        self.hits: dict[str, int] = {}
        self.injected: dict[str, int] = {}
        self.corrupt_hits: dict[str, int] = {}

    def fire(self, point: str) -> None:
        """Count a hit at ``point``; execute the first triggered fault, if any.

        ``corrupt`` faults are skipped here: they apply post-write via
        :meth:`corrupt`, on a hit counter of their own.
        """
        hit = self.hits.get(point, 0) + 1
        self.hits[point] = hit
        for fault in self.faults:
            if fault.point == point and fault.action != "corrupt" and fault.triggers(hit):
                self.injected[point] = self.injected.get(point, 0) + 1
                fault.execute()
                return

    def corrupt(self, point: str, path: str, region: tuple[int, int] | None = None) -> None:
        """Count a written file at ``point``; rot it if a corrupt fault triggers."""
        if not any(f.point == point and f.action == "corrupt" for f in self.faults):
            return
        hit = self.corrupt_hits.get(point, 0) + 1
        self.corrupt_hits[point] = hit
        for fault in self.faults:
            if fault.point == point and fault.action == "corrupt" and fault.triggers(hit):
                self.injected[point] = self.injected.get(point, 0) + 1
                fault.corrupt_path(path, region)
                return

    def spec(self) -> str:
        """The plan as a ``REPRO_FAULTS`` string (replay/logging)."""
        return ";".join(fault.clause() for fault in self.faults)


def parse_spec(text: str) -> FaultPlan:
    """Parse a ``REPRO_FAULTS`` spec into an armed :class:`FaultPlan`.

    >>> plan = parse_spec("chunk.execute#2=exit;worker.init%0.5@7=error")
    >>> [f.point for f in plan.faults]
    ['chunk.execute', 'worker.init']
    >>> parse_spec(plan.spec()).spec() == plan.spec()  # round-trips
    True
    """
    faults: list[Fault] = []
    for clause in text.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        head, sep, action = clause.partition("=")
        if not sep or not head or not action:
            raise FaultSpecError(f"clause {clause!r} is not point[selector]=action")
        point, nth, onward, probability, seed = head, None, False, None, 0
        if "#" in head:
            point, _, sel = head.partition("#")
            if sel.endswith("+"):
                onward, sel = True, sel[:-1]
            try:
                nth = int(sel)
            except ValueError:
                raise FaultSpecError(f"bad hit selector in {clause!r}") from None
        elif "%" in head:
            point, _, sel = head.partition("%")
            prob_text, at, seed_text = sel.partition("@")
            try:
                probability = float(prob_text)
                seed = int(seed_text) if at else 0
            except ValueError:
                raise FaultSpecError(f"bad probability selector in {clause!r}") from None
        action_name, _, arg_text = action.partition(":")
        arg = None
        mode = None
        if action_name == "corrupt":
            mode = arg_text or None
        elif arg_text:
            try:
                arg = float(arg_text)
            except ValueError:
                raise FaultSpecError(f"bad action argument in {clause!r}") from None
        if point not in FAULT_POINTS:
            raise FaultSpecError(
                f"unknown fault point {point!r}; expected one of {FAULT_POINTS}"
            )
        faults.append(
            Fault(
                point=point, action=action_name, nth=nth, onward=onward,
                probability=probability, seed=seed, arg=arg, mode=mode,
            )
        )
    return FaultPlan(faults)


# -- process-global arming -----------------------------------------------------

_UNSET = object()
_PLAN: FaultPlan | None | object = _UNSET


def active_plan() -> FaultPlan | None:
    """The armed plan, lazily parsed from ``REPRO_FAULTS`` on first use."""
    global _PLAN
    if _PLAN is _UNSET:
        spec = os.environ.get(ENV_VAR, "")
        _PLAN = parse_spec(spec) if spec else None
    return _PLAN  # type: ignore[return-value]


def install_plan(plan: FaultPlan | None) -> None:
    """Arm ``plan`` programmatically (overrides the environment)."""
    global _PLAN
    _PLAN = plan


def reset_plan() -> None:
    """Forget any armed plan; the next :func:`fire` re-reads the environment."""
    global _PLAN
    _PLAN = _UNSET


def fire(point: str) -> None:
    """The instrumented-code entry point: a no-op unless a plan is armed."""
    plan = _PLAN
    if plan is _UNSET:
        plan = active_plan()
    if plan is not None:
        plan.fire(point)  # type: ignore[union-attr]


def corrupt_file(
    point: str, path: str | os.PathLike[str], *, region: tuple[int, int] | None = None
) -> None:
    """Post-write hook: rot the just-committed ``path`` if a corrupt fault is armed.

    Commit points call this *after* their write is durable, so the writer
    has already observed success — exactly the silent-bit-rot scenario
    the integrity layer exists to catch.  ``region`` (``[start, end)``
    byte offsets) aims the damage at one part of an appended file.  A
    no-op unless a plan with a ``corrupt`` clause at ``point`` is armed.
    """
    plan = _PLAN
    if plan is _UNSET:
        plan = active_plan()
    if plan is not None:
        plan.corrupt(point, os.fspath(path), region)  # type: ignore[union-attr]
