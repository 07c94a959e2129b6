"""Power-loss crash oracle for the durable commit sequences (ALICE-style).

After Pillai et al., "All File Systems Are Not Created Equal" (OSDI 2014).
Each test runs one commit sequence in three phases:

* **record** — a shim over the ``os``-level ``fsync`` / ``replace`` /
  ``rename`` / ``truncate`` / ``ftruncate`` calls watches one state
  directory.  At every call it diffs the directory against its model of
  what the process sees (created, rewritten and removed files).  A file
  fsync makes that file's current bytes durable; a rename, create or
  unlink is a *pending* directory operation until its parent directory is
  fsynced.  :meth:`Recorder.ack` marks where a commit returned to its
  caller.
* **replay** — at every point between two recorded calls, every
  post-crash state the barriers allow is built: the durable namespace plus
  any subset of the pending directory operations, with the un-fsynced
  bytes of every file torn to one of several prefixes.
* **check** — each state is loaded through the format's own loader and
  must hold a committed prefix that contains every acknowledged commit;
  ``run_fsck`` on the untouched state must report no ``missing`` or
  ``hash-mismatch`` artifact.

Only ``os`` is patched, so the oracle judges the code as it runs in
production whatever its write path is built from.  Model limits:
directories count as durable once they exist (every sequence creates its
directories before recording starts), and one tear applies to all dirty
files of a state at once.

Run it on its own with ``PYTHONPATH=src python -m pytest -q
tests/core/test_crash_oracle.py``.
"""

from __future__ import annotations

import os
import posixpath
import random
import shutil
import stat
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.core.attack import WeakHit
from repro.core.checkpoint import CheckpointStore
from repro.core.pipeline import PipelineConfig, run_pipeline, stage_plan
from repro.core.ptree import PersistentProductTree
from repro.ingest.crawl import _append_outbox
from repro.ingest.cursor import CrawlCursor, CrawlState
from repro.ingest.dedup import DedupIndex
from repro.ingest.extract import modulus_digest
from repro.integrity.fsck import run_fsck
from repro.rsa.primes import generate_prime
from repro.service.registry import WeakKeyRegistry
from repro.service.shard import _ShardWorker
from repro.telemetry import Telemetry

pytestmark = pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"),
    reason="the recorder names fsync'd descriptors through /proc/self/fd",
)

#: pending directory operations beyond this many persist in order only
#: (prefixes instead of every subset), bounding the replay
MAX_SUBSET_OPS = 8
#: stop replaying a sequence after this many failing crash states
MAX_FAILURES = 5

# -- record --------------------------------------------------------------------


@dataclass
class _Inode:
    durable: bytes
    volatile: bytes


@dataclass(frozen=True)
class CrashPoint:
    """The model between two recorded calls: what a power cut here may leave."""

    label: str
    acks: tuple[str, ...]
    durable: dict[str, int]
    pending: tuple[tuple, ...]
    contents: dict[int, tuple[bytes, bytes]]
    dirs: frozenset[str]


def _parent(rel: str) -> str:
    return posixpath.dirname(rel) or "."


def _apply(namespace: dict[str, int], op: tuple) -> None:
    kind, inode = op[0], op[-1]
    if kind == "link":
        namespace[op[1]] = inode
    elif kind == "unlink":
        if namespace.get(op[1]) == inode:
            del namespace[op[1]]
    else:  # rename within one directory
        if namespace.get(op[1]) == inode:
            del namespace[op[1]]
        namespace[op[2]] = inode


def _op_dir(op: tuple) -> str:
    return _parent(op[2] if op[0] == "rename" else op[1])


class Recorder:
    """Models the durable and the visible state of one directory tree."""

    def __init__(self, root: Path) -> None:
        self.root = Path(os.path.realpath(root))
        self.inodes: list[_Inode] = []
        self.volatile: dict[str, int] = {}
        self.pending: list[tuple] = []
        self.acks: list[str] = []
        self.points: list[CrashPoint] = []
        files, self.dirs = self._scan()
        for rel, data in files.items():
            self.volatile[rel] = self._new_inode(data, data)
        self.durable = dict(self.volatile)

    def _new_inode(self, durable: bytes, volatile: bytes) -> int:
        self.inodes.append(_Inode(durable, volatile))
        return len(self.inodes) - 1

    def _rel(self, path) -> str | None:
        try:
            rel = Path(os.path.realpath(path)).relative_to(self.root)
        except ValueError:
            return None
        return rel.as_posix()

    def _scan(self) -> tuple[dict[str, bytes], set[str]]:
        files, dirs = {}, set()
        for dirpath, _, filenames in os.walk(self.root):
            rel_dir = Path(dirpath).relative_to(self.root)
            dirs.add(rel_dir.as_posix())
            for name in filenames:
                files[(rel_dir / name).as_posix()] = Path(dirpath, name).read_bytes()
        return files, dirs

    def _point(self, label: str) -> None:
        self.points.append(
            CrashPoint(
                label=label,
                acks=tuple(self.acks),
                durable=dict(self.durable),
                pending=tuple(self.pending),
                contents={i: (n.durable, n.volatile) for i, n in enumerate(self.inodes)},
                dirs=frozenset(self.dirs),
            )
        )

    def _observe(self, label: str) -> None:
        """Fold writes made since the last call into the model, then mark a point."""
        files, dirs = self._scan()
        self.dirs |= dirs
        for rel in [rel for rel in self.volatile if rel not in files]:
            self.pending.append(("unlink", rel, self.volatile.pop(rel)))
        for rel, data in files.items():
            inode = self.volatile.get(rel)
            if inode is None:
                self.volatile[rel] = inode = self._new_inode(b"", data)
                self.pending.append(("link", rel, inode))
            self.inodes[inode].volatile = data
        self._point(label)

    # -- the shims -------------------------------------------------------------

    def _fsync(self, real, fd) -> None:
        real(fd)
        rel = self._rel(os.readlink(f"/proc/self/fd/{fd}"))
        if rel is None:
            return
        self._observe(f"before fsync {rel}")
        if stat.S_ISDIR(os.fstat(fd).st_mode):
            for op in [op for op in self.pending if _op_dir(op) == rel]:
                _apply(self.durable, op)
                self.pending.remove(op)
        else:
            inode = self.inodes[self.volatile[rel]]
            inode.durable = inode.volatile
        self._point(f"after fsync {rel}")

    def _rename(self, real, src, dst, *args, **kwargs) -> None:
        s, d = self._rel(src), self._rel(dst)
        if s is None or d is None:
            return real(src, dst, *args, **kwargs)
        self._observe(f"before rename {s} -> {d}")
        real(src, dst, *args, **kwargs)
        inode = self.volatile.pop(s)
        self.volatile[d] = inode
        if _parent(s) == _parent(d):
            self.pending.append(("rename", s, d, inode))
        else:
            self.pending += [("link", d, inode), ("unlink", s, inode)]
        self._point(f"after rename {s} -> {d}")

    def _truncate(self, real, target, *args) -> None:
        real(target, *args)
        path = os.readlink(f"/proc/self/fd/{target}") if isinstance(target, int) else target
        rel = self._rel(path)
        if rel is not None:
            self._observe(f"after truncate {rel}")

    # -- called by the commit sequences ------------------------------------------

    def ack(self, label: str) -> None:
        """The commit ``label`` returned: a crash from here on must keep it."""
        self._observe(f"before ack {label}")
        self.acks.append(label)
        self._point(f"acked {label}")


@contextmanager
def recording(root: Path, monkeypatch):
    """Record every durability call under ``root`` while the block runs."""
    recorder = Recorder(root)
    shims = {
        "fsync": recorder._fsync,
        "replace": recorder._rename,
        "rename": recorder._rename,
        "truncate": recorder._truncate,
        "ftruncate": recorder._truncate,
    }
    with monkeypatch.context() as patch:
        for name, shim in shims.items():
            real = getattr(os, name)
            patch.setattr(
                os, name, lambda *args, _shim=shim, _real=real, **kw: _shim(_real, *args, **kw)
            )
        yield recorder
    recorder._observe("end of sequence")


# -- replay ----------------------------------------------------------------------


def _base(durable: bytes, volatile: bytes) -> int:
    return len(durable) if volatile.startswith(durable) else 0


#: what a crash may leave of one file's un-fsynced bytes: nothing, half,
#: all but the last byte, or everything
TEARS = (
    lambda d, v: d,
    lambda d, v: v[: _base(d, v) + (len(v) - _base(d, v)) // 2],
    lambda d, v: v[: max(_base(d, v), len(v) - 1)],
    lambda d, v: v,
)


def crash_states(point: CrashPoint):
    """Every post-crash directory state ``point``'s barriers allow."""
    ops = point.pending
    if len(ops) <= MAX_SUBSET_OPS:
        chosen = (
            [op for bit, op in enumerate(ops) if mask >> bit & 1]
            for mask in range(1 << len(ops))
        )
    else:
        chosen = (ops[:k] for k in range(len(ops) + 1))
    for persisted in chosen:
        namespace = dict(point.durable)
        for op in persisted:
            _apply(namespace, op)
        for tear in TEARS:
            yield {rel: tear(*point.contents[inode]) for rel, inode in namespace.items()}


def _fsck_problems(state_dir: Path) -> list[str]:
    return [
        f"fsck: {f.verdict} {f.artifact} ({f.detail})"
        for f in run_fsck(state_dir).scan.findings
        if f.verdict in ("missing", "hash-mismatch")
    ]


def assert_crash_safe(recorder: Recorder, check, scratch: Path) -> int:
    """Replay every crash state of ``recorder`` through ``check``; returns the count.

    Points are replayed newest first, so a state reachable from several
    points is checked once, against the most acknowledgements it must hold.
    """
    assert recorder.acks, "the sequence acknowledged nothing; the oracle proves nothing"
    seen: set[frozenset] = set()
    failures: list[str] = []
    for point in reversed(recorder.points):
        for state in crash_states(point):
            key = frozenset(state.items())
            if key in seen:
                continue
            seen.add(key)
            where = scratch / f"crash-{len(seen)}"
            for rel in point.dirs:
                (where / rel).mkdir(parents=True, exist_ok=True)
            for rel, data in state.items():
                (where / rel).write_bytes(data)
            problems = _fsck_problems(where)  # first: loaders may self-heal
            try:
                problems += check(where, point.acks)
            except Exception as exc:  # a loader crash is a failed state
                problems.append(f"load raised {type(exc).__name__}: {exc}")
            shutil.rmtree(where)
            if problems:
                failures.append(
                    f"power loss {point.label} (acked: {', '.join(point.acks) or '-'}, "
                    f"files: {', '.join(sorted(state))}): " + "; ".join(problems)
                )
                if len(failures) >= MAX_FAILURES:
                    break
        if len(failures) >= MAX_FAILURES:
            break
    assert not failures, "crash states that lose or corrupt committed data:\n" + "\n".join(
        failures
    )
    return len(seen)


# -- the commit sequences ---------------------------------------------------------


def _primes(count: int, seed: int) -> list[int]:
    rng = random.Random(seed)
    out: list[int] = []
    while len(out) < count:
        out.append(generate_prime(32, rng, avoid=set(out)))
    return out


P = _primes(11, seed=20150525)
#: 64-bit toy moduli; the last one shares P[0] with the first
MODULI = [P[0] * P[1], P[2] * P[3], P[4] * P[5], P[6] * P[7], P[8] * P[9], P[0] * P[10]]


def test_registry_commit_batch_survives_power_loss(tmp_path, monkeypatch):
    state = tmp_path / "state"
    registry = WeakKeyRegistry(state)
    registry.load()
    registry.commit_batch(MODULI[:3], [])
    batches = [MODULI[:3], MODULI[3:]]
    hit = WeakHit(0, 5, P[0])

    with recording(state, monkeypatch) as rec:
        registry.commit_batch(MODULI[3:], [hit])
        rec.ack("batch 1")

    def check(where: Path, acks: tuple[str, ...]) -> list[str]:
        loaded = WeakKeyRegistry(where)
        n = loaded.load()
        need = 1 + len(acks)
        if n < need:
            return [f"registry holds {n} batches, {need} were acknowledged"]
        want = [m for batch in batches[:n] for m in batch]
        if loaded.moduli != want or loaded.hits != ([hit] if n == 2 else []):
            return [f"registry content is not the {n}-batch prefix"]
        return []

    assert assert_crash_safe(rec, check, tmp_path / "replay") > 1


def test_registry_v1_conversion_survives_power_loss(tmp_path, monkeypatch):
    from repro.core.checkpoint import Manifest, StageRecord
    from repro.core.spool import write_blob

    state = tmp_path / "state"
    state.mkdir()
    batches = [(MODULI[:3], []), (MODULI[3:], [(0, 5, P[0])])]
    manifest = Manifest(config={
        "format": "weak-key-registry/1", "bits": 64, "duplicate_submissions": 4,
        "exponents": {"4": 3}, "shard_state": {"shards": 2},
    })
    for b, (keys, hits) in enumerate(batches):
        for kind, values in (("keys", keys), ("hits", [x for h in hits for x in h])):
            info = write_blob(state / f"{kind}-{b:06d}.bin", values)
            manifest.stages.append(StageRecord(
                name=f"{kind}.{b}", blob=info.path.name, count=info.count,
                nbytes=info.nbytes, sha256=info.sha256, seconds=0.0,
            ))
    CheckpointStore(state).save(manifest)

    with recording(state, monkeypatch) as rec:
        WeakKeyRegistry(state).load()
        rec.ack("converted")

    def check(where: Path, acks: tuple[str, ...]) -> list[str]:
        # whether or not the conversion was acknowledged, every state holds
        # the whole v1 registry: the old layout or the finished log
        loaded = WeakKeyRegistry(where)
        if loaded.load() != 2:
            return [f"registry holds {loaded.n_batches} batches, not 2"]
        got = (loaded.moduli, [(h.i, h.j, h.prime) for h in loaded.hits],
               loaded.duplicate_submissions, loaded.exponent_of(4), loaded.shard_state())
        if got != (MODULI, [(0, 5, P[0])], 4, 3, {"shards": 2}):
            return [f"converted registry differs from the v1 content: {got}"]
        return []

    assert assert_crash_safe(rec, check, tmp_path / "replay") > 1


def _tree_reload_problems(where: Path, tree_dir: Path, load) -> list[str]:
    """After a load, the state must scan clean (the load cut its log back
    to what it kept), and a second load must keep it all and append nothing."""
    problems = [
        f"after load: {f.verdict} {f.artifact} ({f.detail})"
        for f in run_fsck(where).scan.corrupt
    ]
    telemetry = load()
    counter = telemetry.registry.counter
    if counter("ptree.rebuilds").value or counter("ptree.log_appends").value:
        problems.append(f"a second load of {tree_dir.name} did not keep its whole log")
    return problems


def test_ptree_persist_survives_power_loss(tmp_path, monkeypatch):
    state = tmp_path / "state"
    tree = PersistentProductTree(spool_dir=state / "ptree")
    tree.append(MODULI[:3])  # segments [2, 1]

    with recording(state, monkeypatch) as rec:
        tree.append(MODULI[3:4])  # one frame: the leaf and its carry's 2 products
        rec.ack("append")

    def load(where: Path) -> Telemetry:
        telemetry = Telemetry.create()
        loaded = PersistentProductTree(spool_dir=where / "ptree", telemetry=telemetry)
        loaded.load_or_rebuild(MODULI[:4])
        if list(loaded.leaves()) != MODULI[:4]:
            raise AssertionError("the tree loaded as the wrong corpus")
        return telemetry

    def check(where: Path, acks: tuple[str, ...]) -> list[str]:
        # whatever the crash left, the log serves the 4-key corpus without
        # a rebuild: the 3-leaf prefix loads and appends the key it trails
        # by, as after a crash between a registry commit and the tree's
        # append; an acknowledged append is already there
        counter = load(where).registry.counter
        problems = []
        if counter("ptree.rebuilds").value:
            problems.append("the tree was rebuilt")
        if acks and counter("ptree.log_appends").value:
            problems.append("the acknowledged append is not in the log")
        return problems + _tree_reload_problems(where, where / "ptree", lambda: load(where))

    assert assert_crash_safe(rec, check, tmp_path / "replay") > 1


def test_shard_tree_append_survives_power_loss(tmp_path, monkeypatch):
    state = tmp_path / "state"
    worker = _ShardWorker(0, 1, 4, str(state), None)
    worker.handle_init({"bits": 64, "indices": [0, 1, 2], "moduli": MODULI[:3], "job": 0})
    _, scanned = worker.handle_job(
        {"seq": 1, "base": 3, "moduli": MODULI[3:], "bits": 64, "internal": True}
    )
    assert scanned["hits"] == [[0, 5, P[0]]]

    # the registry has committed job 1; the worker applies it: one append
    with recording(state, monkeypatch) as rec:
        worker.handle_apply({"job": 1, "indices": [3, 4, 5], "moduli": MODULI[3:]})
        rec.ack("apply 1")

    def init(where: Path) -> _ShardWorker:
        restored = _ShardWorker(0, 1, 4, str(where), None)
        _, status = restored.handle_init(
            {"bits": 64, "indices": list(range(6)), "moduli": MODULI, "job": 1}
        )
        if status["keys"] != 6 or list(restored.scanner._ptree.leaves()) != MODULI:
            raise AssertionError("the shard tree does not hold the post-commit slice")
        return restored

    def check(where: Path, acks: tuple[str, ...]) -> list[str]:
        # whatever the crash left, the worker inits from the post-commit
        # registry slice: its tree loads (appending what it trails by),
        # never rebuilds, and its watermark is exactly the slice's pairs
        restored = init(where)
        counter = restored.telemetry.registry.counter
        problems = []
        if counter("ptree.rebuilds").value:
            problems.append("the shard tree was rebuilt")
        if acks and counter("ptree.log_appends").value:
            problems.append("the acknowledged apply is not in the shard's tree log")
        if restored.scanner.total_pairs_tested != 15:
            problems.append(f"shard watermark {restored.scanner.total_pairs_tested}, not 15")
        tree = where / "shards" / "0" / "ptree"
        return problems + _tree_reload_problems(where, tree, lambda: init(where).telemetry)

    assert assert_crash_safe(rec, check, tmp_path / "replay") > 1


def test_ct_cursor_commit_with_outbox_survives_power_loss(tmp_path, monkeypatch):
    state_dir = tmp_path / "state"
    cursor, dedup = CrawlCursor(state_dir), DedupIndex(state_dir)
    outbox = state_dir / "outbox.txt"
    outbox.write_bytes(b"")
    state = CrawlState("http://log.test", 0, 6, next_index=0)
    cursor.commit(state)
    windows = [MODULI[:3], MODULI[3:]]
    committed = [state]

    with recording(state_dir, monkeypatch) as rec:
        for k, window in enumerate(windows):
            for n in window:
                assert dedup.add(modulus_digest(n))
            added = _append_outbox(outbox, window)
            state = state.advanced(
                next_index=state.next_index + len(window),
                dedup_watermark=dedup.sync(),
                outbox_count=state.outbox_count + len(window),
                outbox_bytes=state.outbox_bytes + added,
                acked_count=state.outbox_count + len(window),
            )
            cursor.commit(state)
            committed.append(state)
            rec.ack(f"window {k}")

    def check(where: Path, acks: tuple[str, ...]) -> list[str]:
        loaded = CrawlCursor(where).load()
        if loaded not in committed or committed.index(loaded) < len(acks):
            return [f"cursor is {loaded}, {len(acks)} windows were acknowledged"]
        DedupIndex(where).load(loaded.dedup_watermark)
        spool = (where / "outbox.txt").read_bytes()[: loaded.outbox_bytes]
        want = "".join(f"{n:x}\n" for n in MODULI[: loaded.outbox_count]).encode()
        if spool != want:
            return ["outbox's committed prefix differs from the acknowledged lines"]
        return []

    assert assert_crash_safe(rec, check, tmp_path / "replay") > 1


def test_pipeline_stage_survives_power_loss(tmp_path, monkeypatch):
    spool = tmp_path / "spool"
    plan = [name for name, _ in stage_plan(len(MODULI))]

    def stop_before_pairing(stage: str) -> None:
        if stage == plan[-2]:
            raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        run_pipeline(MODULI, PipelineConfig(spool_dir=spool), _stage_hook=stop_before_pairing)

    with recording(spool, monkeypatch) as rec:
        result = run_pipeline(
            MODULI, PipelineConfig(spool_dir=spool, resume=True), _stage_hook=rec.ack
        )
    assert result.stages_run == ["pairing"] and len(result.hits) == 1

    def check(where: Path, acks: tuple[str, ...]) -> list[str]:
        store = CheckpointStore(where)
        manifest = store.load()
        if manifest is None:
            return ["pipeline manifest is gone"]
        done = [record.name for record in store.verified_prefix(manifest, plan)]
        need = len(plan) if acks else len(plan) - 1
        if len(done) < need:
            return [f"verified stages {done}, {need} were committed"]
        return []

    assert assert_crash_safe(rec, check, tmp_path / "replay") > 1
