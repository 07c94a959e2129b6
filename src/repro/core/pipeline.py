"""Disk-streamed, checkpointed batch GCD: the memory-bounded scaling path.

:func:`repro.core.batch_gcd.batch_gcd` is subquadratic (quasi-linear
with GMP) but builds the whole product and remainder tree in RAM — at millions of moduli the tree
is many times the corpus size and a crash loses everything.  This module
runs the same mathematics as a sequence of *stages*, each of which streams
records from disk blobs (:mod:`repro.core.spool`) one at a time and
commits its output to a checkpoint manifest (:mod:`repro.core.checkpoint`)
before the next stage starts:

========================  ====================================================
``ingest``                moduli stream → validated ``product-000.bin``
``product.k`` (k=1…L)     level ``k−1`` blob → pairwise products, level ``k``
``remainder.k`` (k=L−1…0) parent residues + level ``k`` values →
                          ``(N/value) mod value`` per node (cofactor descent)
``leaf``                  leaf residues → one GCD per modulus (``gcds.bin``)
``pairing``               flagged moduli → explicit weak pairs (``hits.json``)
========================  ====================================================

Everything runs in one process, and a stage holds at most one input
record pair (a parent and its child) plus its output at a time, so peak
memory is the largest such pair, not a level.  A killed run resumes
from the last committed stage (``resume=True``); corrupted blobs or an
unreadable manifest fall back to re-running the affected stages.  See
``docs/BATCH_PIPELINE.md`` for the full architecture walkthrough.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from typing import Callable, Iterable, Iterator

from repro.core import durable
from repro.core.attack import WeakHit, group_batch_hits
from repro.core.batch_gcd import cofactor_step, product_tree
from repro.core.checkpoint import CheckpointStore, Manifest, StageRecord
from repro.core.spool import BlobInfo, iter_blob, write_blob
from repro.resilience import RetryPolicy, classify_error
from repro.telemetry import Telemetry
from repro.util.intops import IntBackend, resolve_backend

__all__ = [
    "PipelineConfig",
    "PipelineResult",
    "run_pipeline",
    "quick_check",
    "level_sizes",
    "stage_plan",
]


@dataclass(frozen=True)
class PipelineConfig:
    """Everything a ``batchscan`` run is parameterised by.

    ``resume`` keeps the verified stages of a previous run in
    ``spool_dir``.  ``retries`` is the number of *re*-attempts per failed
    stage before the run gives up; only transiently-classified failures
    are retried (:func:`repro.resilience.classify_error`), with
    exponential backoff, and ``stage_deadline`` caps each stage's
    wall-clock budget across all of its attempts.  ``backend`` names the big-integer implementation
    (``auto``/``python``/``gmpy2``, see :mod:`repro.util.intops`;
    ``None`` defers to ``REPRO_INT_BACKEND``, then ``auto``); the resolved
    name is recorded in the manifest.

    >>> PipelineConfig(spool_dir="/tmp/spool").retries
    1
    """

    spool_dir: str | Path
    resume: bool = False
    retries: int = 1
    backend: str | None = None
    #: wall-clock budget per stage across all attempts, seconds (None = off)
    stage_deadline: float | None = None

    def retry_policy(self, retries: int | None = None) -> RetryPolicy:
        """The stage-level policy (``retries`` overrides ``self.retries``).

        >>> PipelineConfig(spool_dir="x", retries=2).retry_policy().max_attempts
        3
        """
        return RetryPolicy(
            max_attempts=(self.retries if retries is None else retries) + 1,
            base_delay=0.05,
            max_delay=5.0,
            jitter=0.25,
            seed=0,
            deadline=self.stage_deadline,
        )


@dataclass
class PipelineResult:
    """What one pipeline run (or resume) produced.

    >>> r = PipelineResult(n_moduli=4, levels=2, spool_dir=Path("/tmp/s"))
    >>> r.hit_pairs
    set()
    """

    n_moduli: int
    levels: int
    spool_dir: Path
    hits: list[WeakHit] = field(default_factory=list)
    stages_run: list[str] = field(default_factory=list)
    stages_skipped: list[str] = field(default_factory=list)
    resumed: bool = False
    elapsed_seconds: float = 0.0
    #: telemetry snapshot (see docs/OBSERVABILITY.md), always populated
    metrics: dict = field(default_factory=dict)

    @property
    def hit_pairs(self) -> set[tuple[int, int]]:
        return {(h.i, h.j) for h in self.hits}


def level_sizes(n_moduli: int) -> list[int]:
    """Node counts per tree level, leaves first (odd levels carry one up).

    >>> level_sizes(5)
    [5, 3, 2, 1]
    """
    if n_moduli < 1:
        raise ValueError("need at least one modulus")
    sizes = [n_moduli]
    while sizes[-1] > 1:
        s = sizes[-1]
        sizes.append(s // 2 + (s & 1))
    return sizes


def stage_plan(n_moduli: int) -> list[tuple[str, str]]:
    """The ordered ``(stage name, blob file)`` plan for ``n_moduli`` keys.

    Deterministic in ``n_moduli`` alone — which is what lets a resumed run
    rebuild the plan from the manifest's ingest record and line its
    completed stages up against it.

    >>> stage_plan(4)  # doctest: +NORMALIZE_WHITESPACE
    [('ingest', 'product-000.bin'), ('product.1', 'product-001.bin'),
     ('product.2', 'product-002.bin'), ('remainder.1', 'remainder-001.bin'),
     ('remainder.0', 'remainder-000.bin'), ('leaf', 'gcds.bin'),
     ('pairing', 'hits.json')]
    """
    top = len(level_sizes(n_moduli)) - 1
    plan = [("ingest", "product-000.bin")]
    for k in range(1, top + 1):
        plan.append((f"product.{k}", f"product-{k:03d}.bin"))
    for k in range(top - 1, -1, -1):
        plan.append((f"remainder.{k}", f"remainder-{k:03d}.bin"))
    plan.append(("leaf", "gcds.bin"))
    plan.append(("pairing", "hits.json"))
    return plan


#: manifest ``config["remainder"]``: the remainder blobs hold ``(N/v) mod v``
#: (see :mod:`repro.core.checkpoint` for unmarked, squared-descent spools)
_REMAINDER_FORMAT = "cofactor"

# -- stage bodies --------------------------------------------------------------
#
# Each stage streams one record at a time from its input blob(s) into
# ``write_blob``: a product stage holds one sibling pair, a remainder stage
# one parent/child pair, the leaf stage one modulus/remainder pair.


def _validated(moduli: Iterable[int]) -> Iterator[int]:
    for n in moduli:
        if n <= 1 or n % 2 == 0:
            raise ValueError(f"RSA moduli must be odd and > 1, got {n}")
        yield n


def _ingest_stage(source: Iterable[int], path: Path, tel: Telemetry) -> BlobInfo:
    info = write_blob(path, _validated(source))
    if info.count < 2:
        raise ValueError(f"batch GCD needs at least two moduli, got {info.count}")
    # counted once the blob is whole, so a failed attempt counts nothing
    tel.registry.counter("pipeline.moduli").inc(info.count)
    return info


def _product_stage(src: Path, dst: Path, B: IntBackend) -> BlobInfo:
    """Multiply siblings pairwise; an odd level's last node is carried up."""
    prod = B.prod

    def products() -> Iterator[int]:
        it = iter_blob(src, backend=B)
        for a in it:
            b = next(it, None)
            yield a if b is None else prod((a, b))

    return write_blob(dst, products())


def _remainder_stage(
    parent_blob: Path | None, value_blob: Path, dst: Path, B: IntBackend
) -> BlobInfo:
    """``(N/value) mod value`` per child, from its parent's residue by
    :func:`~repro.core.batch_gcd.cofactor_step`; a carried node keeps its
    parent's.  ``parent_blob=None`` is the root, whose residue is 1."""
    parents = iter_blob(parent_blob, backend=B) if parent_blob else [B.from_int(1)]

    def residues() -> Iterator[int]:
        values = iter_blob(value_blob, backend=B)
        for u in parents:
            pair = list(islice(values, 2))
            if len(pair) == 2:
                yield from cofactor_step(u, *pair, B)
            else:
                yield u

    return write_blob(dst, residues())


def _leaf_stage(moduli_blob: Path, rem_blob: Path, dst: Path, B: IntBackend) -> BlobInfo:
    """``gcd(n, u)`` per modulus from its cofactor residue ``u = (N/n) mod n``."""
    leaf_gcd = B.leaf_gcd
    items = zip(iter_blob(moduli_blob, backend=B), iter_blob(rem_blob, backend=B))
    return write_blob(dst, (leaf_gcd(n, u) for n, u in items))


def _pairing_stage(
    moduli_blob: Path, gcd_blob: Path, dst: Path, B: IntBackend
) -> tuple[list[WeakHit], BlobInfo]:
    flagged = [
        (idx, n, g)
        for idx, (n, g) in enumerate(zip(iter_blob(moduli_blob), iter_blob(gcd_blob)))
        if g > 1
    ]
    hits = sorted(group_batch_hits(flagged, backend=B), key=lambda h: (h.i, h.j))
    payload = {
        "hits": [{"i": h.i, "j": h.j, "prime": str(h.prime)} for h in hits],
        "flagged": len(flagged),
    }
    body = (json.dumps(payload, indent=2) + "\n").encode()
    durable.replace_bytes(dst, body)
    return hits, BlobInfo(
        path=dst, count=len(hits), nbytes=len(body),
        sha256=hashlib.sha256(body).hexdigest(),
    )


def _load_hits(path: Path) -> list[WeakHit]:
    raw = json.loads(path.read_text())
    return [WeakHit(h["i"], h["j"], int(h["prime"])) for h in raw["hits"]]


# -- the driver ----------------------------------------------------------------


def run_pipeline(
    source: Iterable[int],
    config: PipelineConfig,
    *,
    telemetry: Telemetry | None = None,
    _stage_hook: Callable[[str], None] | None = None,
) -> PipelineResult:
    """Run (or resume) the disk-streamed batch-GCD pipeline over ``source``.

    ``source`` is any iterable of moduli — typically a
    :class:`repro.rsa.corpus.ModulusStream` so nothing is materialised.  It
    is only consumed when the ``ingest`` stage actually runs; a resume
    whose ingest blob verifies never re-reads it.  Ingest retries require a
    *re-iterable* source: a one-shot iterator (anything with ``__next__``,
    e.g. a generator) is accepted, but its ingest failures are never
    retried — re-iterating would read only the unconsumed tail and commit
    a silently truncated corpus.  ``_stage_hook`` is a test seam invoked
    after each stage commits (crash-injection tests raise from it to
    simulate a kill between stages).

    Returns a :class:`PipelineResult`; equivalent to in-memory
    ``batch_gcd`` + pairing on the same moduli (property-tested in
    ``tests/core/test_pipeline.py``).

    >>> import tempfile
    >>> with tempfile.TemporaryDirectory() as d:
    ...     result = run_pipeline([33, 35, 55], PipelineConfig(spool_dir=d))
    ...     [(h.i, h.j, h.prime) for h in result.hits]
    [(0, 2, 11), (1, 2, 5)]
    """
    spool_dir = Path(config.spool_dir)
    durable.makedirs(spool_dir)
    store = CheckpointStore(spool_dir)
    B = resolve_backend(config.backend)
    tel = telemetry if telemetry is not None else Telemetry.create()
    reg = tel.registry
    reg.gauge("backend.name").set(B.name)

    manifest, completed = _resume_state(store, config, tel)
    done_names = {record.name for record in completed}

    result = PipelineResult(
        n_moduli=0, levels=0, spool_dir=spool_dir, resumed=bool(completed)
    )
    hook = _stage_hook if _stage_hook is not None else (lambda stage: None)

    with tel.timer.span("pipeline"):
        # -- ingest (special-cased: it defines the plan for everything else)
        ingest_record = manifest.stage("ingest")
        if ingest_record is None:
            tel.emit("pipeline.stage.start", stage="ingest")
            # A one-shot iterator cannot be re-read: retrying it would ingest
            # only the unconsumed tail, committing a silently truncated corpus.
            ingest_retries = 0 if hasattr(source, "__next__") else config.retries
            info, seconds = _attempt(
                "ingest",
                lambda: _ingest_stage(source, spool_dir / "product-000.bin", tel),
                config,
                tel,
                retries=ingest_retries,
            )
            ingest_record = _commit(store, manifest, "ingest", info, seconds, config, tel)
            result.stages_run.append("ingest")
            hook("ingest")
        else:
            result.stages_skipped.append("ingest")

        n = ingest_record.count
        sizes = level_sizes(n)
        top = len(sizes) - 1
        plan = stage_plan(n)
        result.n_moduli = n
        result.levels = top
        reg.gauge("pipeline.levels").max_of(top)
        tel.set_progress_total(len(plan))
        tel.advance(1)  # ingest, whether freshly run or resumed
        tel.emit(
            "pipeline.start",
            moduli=n,
            levels=top,
            stages=len(plan),
            resumed=result.resumed,
            int_backend=B.name,
        )

        for name, blob in plan[1:]:
            if name in done_names:
                result.stages_skipped.append(name)
                tel.advance(1)
                tel.emit("pipeline.stage.skip", stage=name)
                continue
            tel.emit("pipeline.stage.start", stage=name)
            dst = spool_dir / blob
            if name == "pairing":
                (hits, info), seconds = _attempt(
                    name,
                    lambda: _pairing_stage(
                        spool_dir / "product-000.bin", spool_dir / "gcds.bin", dst, B
                    ),
                    config,
                    tel,
                )
                result.hits = hits
            else:
                stage_fn = _stage_body(name, spool_dir, dst, top, tel, B)
                info, seconds = _attempt(name, stage_fn, config, tel)
                _check_count(name, info, sizes, n)
            _commit(store, manifest, name, info, seconds, config, tel)
            result.stages_run.append(name)
            tel.advance(1)
            hook(name)

        if not result.hits and "pairing" in done_names:
            result.hits = _load_hits(spool_dir / "hits.json")

    result.elapsed_seconds = tel.timer.total_seconds("pipeline")
    reg.counter("pipeline.hits").inc(len(result.hits))
    result.metrics = tel.snapshot()
    tel.emit(
        "pipeline.done",
        moduli=result.n_moduli,
        hits=len(result.hits),
        stages_run=len(result.stages_run),
        stages_skipped=len(result.stages_skipped),
        elapsed_seconds=result.elapsed_seconds,
    )
    return result


def _stage_body(
    name: str,
    spool_dir: Path,
    dst: Path,
    top: int,
    tel: Telemetry,
    B: IntBackend,
) -> Callable[[], BlobInfo]:
    kind, _, level = name.partition(".")
    if kind == "product":
        k = int(level)
        src = spool_dir / f"product-{k - 1:03d}.bin"
        return lambda: _observed(
            "pipeline.product_level_seconds",
            lambda: _product_stage(src, dst, B),
            tel,
        )
    if kind == "remainder":
        k = int(level)
        parent = None if k == top - 1 else spool_dir / f"remainder-{k + 1:03d}.bin"
        values = spool_dir / f"product-{k:03d}.bin"
        return lambda: _observed(
            "pipeline.remainder_level_seconds",
            lambda: _remainder_stage(parent, values, dst, B),
            tel,
        )
    if kind == "leaf":
        return lambda: _leaf_stage(
            spool_dir / "product-000.bin", spool_dir / "remainder-000.bin", dst, B
        )
    raise ValueError(f"unknown stage {name!r}")


def _observed(histogram: str, fn: Callable[[], BlobInfo], tel: Telemetry) -> BlobInfo:
    t0 = tel.timer.clock()
    info = fn()
    tel.registry.histogram(histogram).observe(tel.timer.clock() - t0)
    return info


def _check_count(name: str, info: BlobInfo, sizes: list[int], n: int) -> None:
    kind, _, level = name.partition(".")
    expected = n if kind == "leaf" else sizes[int(level)]
    if info.count != expected:
        raise RuntimeError(
            f"stage {name} produced {info.count} records, expected {expected}"
        )


def _attempt(
    name: str,
    fn: Callable,
    config: PipelineConfig,
    tel: Telemetry,
    *,
    retries: int | None = None,
):
    """Run one stage body under its span, with retries; returns (out, secs).

    Spans use the stage *kind* (``product``, not ``product.3``) so the
    ``stage.pipeline/<kind>.seconds`` histogram cardinality stays bounded;
    per-level skew lands in the ``pipeline.*_level_seconds`` histograms.
    Stage bodies record their metrics only once their blob is whole, so a
    failed attempt leaves none behind.  ``retries`` overrides
    ``config.retries`` (the ingest stage uses it to disable retries for
    one-shot sources).

    Retries ride :class:`repro.resilience.RetryPolicy`: only transiently
    classified failures re-attempt (a ``ValueError`` from a malformed
    corpus fails fast), backoff is capped-exponential with seeded jitter,
    and ``config.stage_deadline`` bounds the stage's total wall clock.
    """
    kind = name.partition(".")[0]
    reg = tel.registry
    policy = config.retry_policy(retries)

    def body():
        t0 = tel.timer.clock()
        with tel.timer.span(kind):
            out = fn()
        return out, tel.timer.clock() - t0

    def on_retry(attempt: int, delay: float, exc: BaseException) -> None:
        reg.counter("pipeline.stage_retries").inc()
        tel.emit(
            "pipeline.stage.retry",
            stage=name,
            attempt=attempt,
            delay=round(delay, 4),
            error=repr(exc),
            kind=classify_error(exc).__name__,
        )

    return policy.run(body, on_retry=on_retry)


def _commit(
    store: CheckpointStore,
    manifest: Manifest,
    name: str,
    info: BlobInfo,
    seconds: float,
    config: PipelineConfig,
    tel: Telemetry,
) -> StageRecord:
    record = StageRecord(
        name=name,
        blob=info.path.name,
        count=info.count,
        nbytes=info.nbytes,
        sha256=info.sha256,
        seconds=seconds,
    )
    manifest.stages.append(record)
    if name == "ingest":
        manifest.config = {
            "n_moduli": info.count,
            "backend": resolve_backend(config.backend).name,
            "remainder": _REMAINDER_FORMAT,
        }
    # the blob is already durable and the rewrite is atomic + idempotent,
    # so a transient manifest-write blip is safe to retry in place
    def on_retry(attempt: int, delay: float, exc: BaseException) -> None:
        tel.registry.counter("pipeline.commit_retries").inc()
        tel.emit(
            "pipeline.commit.retry",
            stage=name,
            attempt=attempt,
            delay=round(delay, 4),
            error=repr(exc),
        )

    config.retry_policy().run(lambda: store.save(manifest), on_retry=on_retry)
    tel.registry.counter("pipeline.bytes_spilled").inc(info.nbytes)
    tel.registry.histogram("pipeline.stage_bytes").observe(info.nbytes)
    tel.emit(
        "pipeline.stage.done",
        stage=name,
        records=info.count,
        nbytes=info.nbytes,
        seconds=seconds,
    )
    return record


def _resume_state(
    store: CheckpointStore, config: PipelineConfig, tel: Telemetry
) -> tuple[Manifest, list[StageRecord]]:
    """Decide what survives from a previous run in this spool directory."""
    if not config.resume:
        return Manifest(), []
    manifest = store.load()
    if manifest is None:
        tel.emit("pipeline.resume", usable=False, reason="missing or unreadable manifest")
        return Manifest(), []
    ingest = manifest.stage("ingest")
    if ingest is None or manifest.stages[0].name != "ingest":
        tel.emit("pipeline.resume", usable=False, reason="no completed ingest stage")
        return Manifest(), []
    if not store.verify(ingest):
        tel.emit("pipeline.resume", usable=False, reason="ingest blob corrupt")
        tel.registry.counter("pipeline.resume.stages_invalidated").inc(len(manifest.stages))
        return Manifest(), []
    expected = [name for name, _ in stage_plan(ingest.count)]
    if manifest.config.get("remainder") != _REMAINDER_FORMAT:
        # squared remainders: keep ingest and the product tree, rerun the rest
        expected = [n for n in expected if n.partition(".")[0] in ("ingest", "product")]
        manifest.config["remainder"] = _REMAINDER_FORMAT
    completed = store.verified_prefix(manifest, expected)
    invalidated = len(manifest.stages) - len(completed)
    if invalidated:
        tel.registry.counter("pipeline.resume.stages_invalidated").inc(invalidated)
    manifest.stages = list(completed)
    store.save(manifest)
    tel.registry.counter("pipeline.resume.stages_skipped").inc(len(completed))
    tel.emit(
        "pipeline.resume",
        usable=True,
        completed=[record.name for record in completed],
        invalidated=invalidated,
    )
    return manifest, completed


# -- single-key arrival check --------------------------------------------------


def quick_check(
    new_moduli: Iterable[int],
    *,
    spool_dir: str | Path | None = None,
    corpus_moduli: Iterable[int] | None = None,
    backend: str | IntBackend | None = None,
) -> list[int]:
    """GCD each *arriving* modulus against a whole corpus in one shot.

    For a modulus ``n`` outside the corpus, ``gcd(n, N mod n)`` with
    ``N = Π n_i`` is non-trivial exactly when ``n`` shares a prime with
    some corpus key — the O(|N|) streaming complement to a full rescan.  A
    modulus already *in* the corpus returns ``n`` itself (``N mod n = 0``),
    flagging it like a duplicate key.  (This membership semantics is why
    the formula here is deliberately *not* the batch-GCD leaf formula
    ``gcd(n, (N/n) mod n)``: an arriving modulus need not divide ``N``, so
    no cofactor ``N/n`` exists; ``gcd(n, N mod n) = gcd(n, N)`` is the
    whole-corpus test.)

    The corpus product comes from a finished pipeline run's root blob
    (``spool_dir``) or is computed root-only from ``corpus_moduli`` via
    ``product_tree(..., keep_levels=False)`` — the path that never retains
    inner tree levels.  A spool whose product tree never reached the root
    (a run killed mid-tree) raises ``ValueError`` rather than GCD-ing
    against a partial-level value that covers only part of the corpus.

    >>> quick_check([91, 13], corpus_moduli=[33, 35, 55])  # 91 = 7 * 13
    [7, 1]
    """
    if (spool_dir is None) == (corpus_moduli is None):
        raise ValueError("pass exactly one of spool_dir or corpus_moduli")
    B = resolve_backend(backend)
    if spool_dir is not None:
        store = CheckpointStore(spool_dir)
        manifest = store.load()
        if manifest is None:
            raise ValueError(f"no readable manifest in {spool_dir}")
        ingest = manifest.stage("ingest")
        if ingest is None:
            raise ValueError(f"{spool_dir} has no completed product tree")
        top = len(level_sizes(ingest.count)) - 1
        root_record = manifest.stage(f"product.{top}")
        if root_record is None or root_record.count != 1:
            raise ValueError(
                f"{spool_dir} has no completed product tree root: a run killed "
                f"mid-tree leaves partial levels whose values are not the corpus "
                f"product (finish the run or resume it first)"
            )
        root = next(iter_blob(Path(spool_dir) / root_record.blob, backend=B))
    else:
        root = product_tree(
            list(corpus_moduli), keep_levels=False, backend=B, native=True
        )[-1][0]
    gcd, mod, to_int = B.gcd, B.mod, B.to_int
    return [to_int(gcd(n, mod(root, n))) for n in new_moduli]
