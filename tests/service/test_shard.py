"""Sharded-fleet tests: equivalence with one shard, crashes, commit failures.

The load-bearing invariants (docs/SHARDING.md pins the prose version):

* an N-shard session finds the *exact* hit set of the 1-shard session on
  the same corpus, and the per-shard pair watermarks sum to M(M−1)/2;
* kill -9 of one shard worker mid-scan or mid-apply loses nothing — a
  scan is resent to the respawned worker, and an apply is re-derived from
  the registry slice that already holds the batch;
* a registry commit that fails leaves no scan state behind, at one shard
  or many (the registry leads, scan state follows).
"""

import asyncio
import hashlib
import io
import json
import os
import signal
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import pytest

import repro
from repro.core import chainlog, ptree
from repro.core.checkpoint import CheckpointStore, Manifest, StageRecord
from repro.core.spool import write_blob, write_sidecar
from repro.integrity.catalog import ArtifactCatalog
from repro.resilience import faults
from repro.rsa.corpus import generate_weak_corpus
from repro.service.http import ServiceConfig, WeakKeyService
from repro.service.shard import ShardRing, _ShardWorker, simulate_watermarks
from repro.telemetry import Telemetry

BITS = 64


@pytest.fixture(scope="module")
def corpus():
    # 24 keys: a shared-prime triple, a pair, and one exact duplicate, so
    # hits span shard boundaries at any small shard count
    return generate_weak_corpus(24, BITS, shared_groups=(3, 2), duplicates=1, seed=77)


@pytest.fixture(autouse=True)
def _clean_faults():
    faults.reset_plan()
    yield
    faults.reset_plan()


def run_session(state_dir, shards, batches, *, telemetry=None, during=None):
    """Start a service, submit ``batches`` sequentially, drain, stop.

    ``during(service)`` is awaited after the first submission is in
    flight — the hook the crash tests use to kill workers mid-batch.
    Returns the (stopped) service for state inspection.
    """
    config = ServiceConfig(state_dir=Path(state_dir), shards=shards, linger_ms=2.0)
    service = WeakKeyService(config, telemetry=telemetry)
    views = {}

    async def go():
        await service.start()
        for pos, batch in enumerate(batches):
            ticket = service.submit([(n, 65537) for n in batch])
            if pos == 0 and during is not None:
                await during(service)
            await asyncio.wait_for(ticket.wait(), timeout=120)
            views.setdefault("statuses", []).append(ticket.status)
        views["shards"] = service.shards_view()
        await service.stop()

    asyncio.run(go())
    service.last_shards_view = views["shards"]
    service.ticket_statuses = views.get("statuses", [])
    return service


def hit_set(service):
    return sorted((h.i, h.j, h.prime) for h in service.registry.hits)


class TestShardRing:
    def test_every_shard_owns_keys(self, corpus):
        ring = ShardRing(3)
        owners = {ring.owner(n) for n in corpus.moduli}
        assert owners == {0, 1, 2}

    def test_assignment_is_deterministic(self, corpus):
        a, b = ShardRing(4), ShardRing(4)
        assert [a.owner(n) for n in corpus.moduli] == [b.owner(n) for n in corpus.moduli]

    def test_simulated_watermarks_cover_all_pairs(self, corpus):
        ring = ShardRing(3)
        moduli = list(dict.fromkeys(corpus.moduli))  # the registry dedups
        keys, pairs = simulate_watermarks(moduli, [7, 7, 7, 2], ring)
        m = len(moduli)
        assert sum(keys) == m
        assert sum(pairs) == m * (m - 1) // 2


class TestShardEquivalence:
    @pytest.mark.parametrize("shards", [2, 3])
    def test_hits_and_pairs_match_single_shard(self, tmp_path, corpus, shards):
        batches = [corpus.moduli[i : i + 7] for i in range(0, len(corpus.moduli), 7)]
        single = run_session(tmp_path / "one", 1, batches)
        fleet = run_session(tmp_path / f"fleet{shards}", shards, batches)
        assert hit_set(fleet) == hit_set(single)
        assert fleet.registry.n_keys == single.registry.n_keys
        view = fleet.last_shards_view
        assert view["shards"] == shards
        assert view["pairs_tested"] == view["pairs_expected"]
        assert view["pairs_tested"] == single.last_shards_view["pairs_tested"]
        assert all(d["alive"] for d in view["detail"])

    @pytest.mark.parametrize("shards", [1, 2])
    def test_capped_forests_keep_the_hit_set(self, tmp_path, corpus, shards, monkeypatch):
        # the first session grows uncapped forests (the tree logs written
        # before the cap); the restart caps segments at 2 leaves.  Every
        # tree log loads without a rebuild, and the hits and pairs are an
        # uncapped single shard's
        batches = [corpus.moduli[i : i + 7] for i in range(0, len(corpus.moduli), 7)]
        reference = run_session(tmp_path / "ref", 1, batches)
        monkeypatch.setattr(ptree, "MAX_SEGMENT_LEAVES", 1 << 30)
        run_session(tmp_path / "capped", shards, batches[:2])
        monkeypatch.setattr(ptree, "MAX_SEGMENT_LEAVES", 2)
        telemetry = Telemetry.create()
        capped = run_session(tmp_path / "capped", shards, batches[2:], telemetry=telemetry)
        assert telemetry.registry.counter("ptree.rebuilds").value == 0
        assert hit_set(capped) == hit_set(reference)
        view = capped.last_shards_view
        assert view["pairs_tested"] == view["pairs_expected"]
        assert view["pairs_tested"] == reference.last_shards_view["pairs_tested"]

    def test_restart_never_rescans(self, tmp_path, corpus):
        half = len(corpus.moduli) // 2
        run_session(tmp_path, 3, [corpus.moduli[:half]])
        # second session restores the fleet and submits the rest; the pair
        # watermark must land exactly on M(M−1)/2 — any rescan overshoots
        service = run_session(tmp_path, 3, [corpus.moduli[half:]])
        view = service.last_shards_view
        assert view["pairs_tested"] == view["pairs_expected"]
        single = run_session(tmp_path.with_name(tmp_path.name + "-ref"), 1,
                             [corpus.moduli[:half], corpus.moduli[half:]])
        assert hit_set(service) == hit_set(single)

    def test_single_scanner_restart_never_rescans(self, tmp_path, corpus):
        half = len(corpus.moduli) // 2
        run_session(tmp_path, 1, [corpus.moduli[:half]])
        for batches in ([], [corpus.moduli[half:]]):
            view = run_session(tmp_path, 1, batches).last_shards_view
            assert view["keys"] > 0
            assert view["pairs_tested"] == view["pairs_expected"]

    def test_shard_count_change_rebuilds(self, tmp_path, corpus):
        half = len(corpus.moduli) // 2
        run_session(tmp_path, 3, [corpus.moduli[:half]])
        stream = io.StringIO()
        telemetry = Telemetry.create(event_stream=stream)
        service = run_session(tmp_path, 2, [corpus.moduli[half:]], telemetry=telemetry)
        events = [json.loads(line)["event"] for line in stream.getvalue().splitlines()]
        assert "shard.rebalance" in events
        view = service.last_shards_view
        assert view["shards"] == 2
        assert view["pairs_tested"] == view["pairs_expected"]
        single = run_session(tmp_path.with_name(tmp_path.name + "-ref"), 1,
                             [corpus.moduli[:half], corpus.moduli[half:]])
        assert hit_set(service) == hit_set(single)


def kill_a_worker_mid_batch(tmp_path, corpus):
    """Run three 8-key batches through three shards, SIGKILL worker 1
    0.3 s into the first, and require the session to lose nothing.
    Returns how many shard applies failed."""

    async def during(service):
        await asyncio.sleep(0.3)
        os.kill(service.router._workers[1].process.pid, signal.SIGKILL)

    batches = [corpus.moduli[i : i + 8] for i in range(0, len(corpus.moduli), 8)]
    service = run_session(tmp_path, 3, batches, during=during)
    view = service.last_shards_view
    assert service.ticket_statuses == ["done"] * 3
    assert view["detail"][1]["crashes"] >= 1
    assert view["pairs_tested"] == view["pairs_expected"]
    assert view["keys"] == service.registry.n_keys
    single = run_session(tmp_path.with_name(tmp_path.name + "-ref"), 1, batches)
    assert hit_set(service) == hit_set(single)
    assert service.registry.duplicate_submissions == single.registry.duplicate_submissions
    return service.telemetry.registry.counter("shard.apply_failures").value


class TestShardCrashes:
    @pytest.mark.skipif(
        not os.path.isfile(f"/proc/{os.getpid()}/task/{os.getpid()}/children"),
        reason="needs /proc/<pid>/task/<tid>/children to find the workers",
    )
    def test_kill_nine_of_the_front_door_leaves_no_worker(self, tmp_path, corpus):
        # a kill -9 of `serve --shards 2` must not leave its forked workers
        # holding the state lock or the router's pipes: they exit, and a
        # restart on the same state dir serves the same hits
        state = tmp_path / "state"
        procs, workers = [], set()
        try:
            proc, url = start_serve(state, tmp_path / "port1", 2)
            procs.append(proc)
            for start in (0, 12):
                chunk = corpus.moduli[start : start + 12]
                get_json(f"{url}/submit?wait=1", {"moduli": [hex(n)[2:] for n in chunk]})
            before = get_json(f"{url}/hits")
            workers = children(proc.pid)
            assert len(workers) == 2
            proc.send_signal(signal.SIGKILL)
            proc.wait()
            deadline = time.monotonic() + 30
            while any(running(w) for w in workers):
                assert time.monotonic() < deadline, "shard workers outlived the serve"
                time.sleep(0.05)
            proc, url = start_serve(state, tmp_path / "port2", 2)
            procs.append(proc)
            after = get_json(f"{url}/hits")
            assert after == before and after["hits"]
            assert get_json(f"{url}/healthz")["duplicate_submissions"] == 1
            workers |= children(proc.pid)
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == 0
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
            for pid in workers:
                if running(pid):
                    os.kill(pid, signal.SIGKILL)

    def test_kill_nine_mid_batch_loses_nothing(self, tmp_path, corpus, monkeypatch):
        # every worker's first tree append, its first APPLY (the registry
        # starts empty, so no init appends), stalls 1s before it writes:
        # the victim dies with the committed batch adopted in memory only,
        # and the router re-derives it from the registry slice, which
        # holds it
        monkeypatch.setenv("REPRO_FAULTS", "ptree.commit#1=hang:1.0")
        faults.reset_plan()
        assert kill_a_worker_mid_batch(tmp_path, corpus) == 1

    def test_kill_nine_mid_scan_loses_nothing(self, tmp_path, corpus, monkeypatch):
        # every worker stalls 1s before scanning the first batch (the
        # workers fork from this process, so they inherit the patch): the
        # scan changed nothing, so the respawned victim just scans again
        scan = _ShardWorker.handle_job

        def slow_scan(worker, payload):
            if payload["base"] == 0:
                time.sleep(1.0)
            return scan(worker, payload)

        monkeypatch.setattr(_ShardWorker, "handle_job", slow_scan)
        assert kill_a_worker_mid_batch(tmp_path, corpus) == 0

    def test_apply_ioerror_rederives_the_worker(self, tmp_path, corpus, monkeypatch):
        # every APPLY's tree append EIOs on every attempt, after the
        # registry committed; an init's append does not (the workers fork
        # from this process, so they inherit the patch, and the plan is
        # armed in the applying worker only).  Every apply of the session
        # fails; every flush still succeeds, each worker is re-derived
        # from its registry slice, and the watermark lands on M(M−1)/2
        apply = _ShardWorker.handle_apply

        def failing_apply(worker, payload):
            faults.install_plan(faults.parse_spec("ptree.commit=ioerror"))
            return apply(worker, payload)

        monkeypatch.setattr(_ShardWorker, "handle_apply", failing_apply)
        telemetry = Telemetry.create()
        batches = [corpus.moduli[i : i + 8] for i in range(0, len(corpus.moduli), 8)]
        service = run_session(tmp_path, 2, batches, telemetry=telemetry)
        assert service.ticket_statuses == ["done"] * 3
        ring = ShardRing(2)
        appliers = sum(len({ring.owner(n) for n in batch}) for batch in batches)
        assert telemetry.registry.counter("shard.apply_failures").value == appliers
        view = service.last_shards_view
        assert view["pairs_tested"] == view["pairs_expected"]
        assert view["keys"] == service.registry.n_keys
        assert all(d["alive"] for d in view["detail"])
        single = run_session(tmp_path.with_name(tmp_path.name + "-ref"), 1, batches)
        assert hit_set(service) == hit_set(single)

    def test_restart_after_unclean_stop(self, tmp_path, corpus):
        # simulate a front-door crash: run a session whose stop() is never
        # reached, then restart and check the fleet reconciles cleanly
        config = ServiceConfig(state_dir=tmp_path, shards=3, linger_ms=2.0)
        service = WeakKeyService(config)

        async def go():
            await service.start()
            ticket = service.submit([(n, 65537) for n in corpus.moduli[:12]])
            await asyncio.wait_for(ticket.wait(), timeout=120)
            # tear down the workers without the final registry sync:
            # every committed batch is already durable, and the restarted
            # shards re-derive from the registry
            service.router.stop()
            service._executor.shutdown(wait=True)
            await service.batcher.stop(drain=False)
            # a real crash drops the kernel flock with the process; release
            # explicitly since this "crash" shares our pid
            service._state_lock.release()

        asyncio.run(go())
        survivor = run_session(tmp_path, 3, [corpus.moduli[12:]])
        view = survivor.last_shards_view
        assert view["pairs_tested"] == view["pairs_expected"]
        single = run_session(tmp_path.with_name(tmp_path.name + "-ref"), 1,
                             [corpus.moduli[:12], corpus.moduli[12:]])
        assert hit_set(survivor) == hit_set(single)


#: the source tree this test imports ``repro`` from, for the subprocesses
REPRO_SRC = str(Path(repro.__file__).resolve().parents[1])


def start_serve(state_dir, port_file, shards):
    """``repro serve`` in a subprocess; returns ``(process, base URL)``."""
    env = {**os.environ, "PYTHONPATH": REPRO_SRC}
    env.pop("REPRO_FAULTS", None)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--state-dir", str(state_dir),
         "--shards", str(shards), "--port", "0", "--port-file", str(port_file),
         "--linger-ms", "5", "--scrub-interval", "0"],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    deadline = time.monotonic() + 60
    while not (port_file.exists() and port_file.read_text().strip()):
        assert proc.poll() is None, f"serve exited with {proc.returncode}"
        assert time.monotonic() < deadline, "serve never wrote its port"
        time.sleep(0.05)
    return proc, f"http://127.0.0.1:{port_file.read_text().strip()}"


def get_json(url, body=None):
    data = None if body is None else json.dumps(body).encode()
    with urllib.request.urlopen(urllib.request.Request(url, data=data), timeout=60) as resp:
        return json.load(resp)


def children(pid):
    """The pids ``pid`` has forked, from every thread's ``children`` list."""
    found = set()
    for task in Path(f"/proc/{pid}/task").iterdir():
        found.update(int(c) for c in (task / "children").read_text().split())
    return found


def running(pid):
    """Alive and not a zombie."""
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except FileNotFoundError:
        return False
    return "\nState:\tZ" not in status


#: three failed append attempts, the registry's whole retry budget, spent
#: on the second batch's commit: the batcher's retry must scan it again
FAILED_COMMIT = (
    "registry.commit#2=ioerror;registry.commit#3=ioerror;registry.commit#4=ioerror"
)


class TestRegistryCommitFailure:
    @pytest.mark.parametrize("shards", [1, 2])
    def test_failed_commit_leaves_no_scan_state(self, tmp_path, corpus, shards, monkeypatch):
        batches = [corpus.moduli[i : i + 8] for i in range(0, len(corpus.moduli), 8)]
        clean = run_session(tmp_path / "clean", shards, batches)
        monkeypatch.setenv("REPRO_FAULTS", FAILED_COMMIT)
        faults.reset_plan()
        telemetry = Telemetry.create()
        service = run_session(tmp_path / "faulted", shards, batches, telemetry=telemetry)
        assert telemetry.registry.counter("registry.commit_retries").value == 2
        assert service.ticket_statuses == ["done"] * 3
        assert service.registry.n_keys == len(set(corpus.moduli)) == 23
        view = service.last_shards_view
        assert view["keys"] == service.registry.n_keys
        assert view["pairs_tested"] == view["pairs_expected"] == 253
        assert hit_set(service) == hit_set(clean)
        assert service.registry.duplicate_submissions == clean.registry.duplicate_submissions


#: a shard snapshot exactly as the five-tier scanner wrote it: format /1,
#: whose ``scanner`` copy of the slice is version 2, records the ``bulk``
#: tier (which resolved no int backend) and carries the four bulk-only knobs
LEGACY_SHARD_JSON = (
    '{"format": "repro.shard-snapshot/1", "shard": 0, "shards": 1, "replicas": 32,'
    ' "scanner": {"version": 2, "bits": 32, "engine": "bulk", "int_backend": null,'
    ' "algorithm": "approx", "d": 32, "chunk_pairs": 4096, "early_terminate": true,'
    ' "moduli": [2417000533, 2417098847, 2419164161, 2420639999, 2419852639,'
    ' 2422313053], "hits": [[0, 1, 49157], [2, 4, 49177]],'
    ' "total_pairs_tested": 15, "batches": 2},'
    ' "indices": [0, 1, 2, 3, 4, 5], "pairs_tested": 15, "job": 2,'
    ' "job_fp": null, "job_hits": [], "job_pairs": 0}'
)


def init_payload(moduli, *, job, bits=BITS):
    """The ``init`` message a router sends for a slice of global indices 0.."""
    return {
        "bits": bits, "indices": list(range(len(moduli))), "moduli": list(moduli),
        "job": job,
    }


def job_payload(base, moduli, *, bits=BITS):
    """A ``job`` message covering its internal pairs too (a one-shard fleet)."""
    return {"seq": 1, "base": base, "moduli": list(moduli), "bits": bits, "internal": True}


def apply_payload(base, moduli, *, job):
    """The ``apply`` message of a one-shard fleet: the worker owns every key."""
    return {"job": job, "indices": list(range(base, base + len(moduli))),
            "moduli": list(moduli)}


def write_old_tree(tree_dir, moduli):
    """A tree dir in the ``product-tree/1`` layout: one pinned blob per
    binary-counter segment, nodes bottom-up, and a sidecar'd manifest."""
    tree_dir.mkdir(parents=True, exist_ok=True)
    manifest = Manifest(config={"format": "product-tree/1", "n_leaves": len(moduli)})
    start = 0
    for size in (1 << b for b in reversed(range(len(moduli).bit_length()))):
        if not len(moduli) & size:
            continue
        level = list(moduli[start : start + size])
        nodes = list(level)
        while len(level) > 1:
            level = [level[k] * level[k + 1] for k in range(0, len(level), 2)]
            nodes += level
        height = size.bit_length() - 1
        info = write_blob(tree_dir / f"seg-{start:08d}-h{height:02d}.bin", nodes)
        manifest.stages.append(StageRecord(
            name=f"seg.{start}.{height}", blob=info.path.name, count=info.count,
            nbytes=info.nbytes, sha256=info.sha256, seconds=0.0,
        ))
        start += size
    CheckpointStore(tree_dir).save(manifest)


def write_old_snapshot(shard_dir, payload):
    """A ``repro.shard-snapshot`` file and its checksum sidecar."""
    shard_dir.mkdir(parents=True, exist_ok=True)
    body = json.dumps(payload).encode()
    (shard_dir / "shard.json").write_bytes(body)
    write_sidecar(shard_dir / "shard.json", hashlib.sha256(body).hexdigest())


OLD_FILES = ("**/manifest.json", "**/manifest.json.sha256", "**/seg-*.bin", "**/shard.json*")


class TestLegacyShardState:
    @pytest.mark.parametrize("engine", ("native", "ptree", "auto", "all2all", "bulk"))
    def test_snapshot_loads_whatever_engine_it_recorded(self, tmp_path, engine):
        # an upgraded shard dir: a /1 snapshot (whatever tier it recorded)
        # beside a product-tree/1 tree.  The worker reads neither: it inits
        # from the registry slice, rebuilds its tree log once, and removes
        # every old file, so the catalog sees only the log
        payload = json.loads(LEGACY_SHARD_JSON)
        payload["scanner"]["engine"] = engine
        moduli = payload["scanner"]["moduli"]
        shard_dir = tmp_path / "shards" / "0"
        write_old_snapshot(shard_dir, payload)
        write_old_tree(shard_dir / "ptree", moduli)
        worker = _ShardWorker(0, 1, 32, str(tmp_path), None)
        _, status = worker.handle_init(init_payload(moduli, job=2, bits=32))
        assert status == {"job": 2, "keys": 6, "rebuilds": 1}
        assert worker.scanner.moduli == moduli
        assert not [p for pattern in OLD_FILES for p in tmp_path.glob(pattern)]
        report = ArtifactCatalog(tmp_path).scan()
        assert report.clean and not report.warnings
        assert [f.artifact for f in report.findings] == ["shards/0/ptree/tree-000000.log"]

        fresh = 49157 * 49223
        _, ack = worker.handle_job(job_payload(6, [fresh], bits=32))
        assert ack["hits"] == [[i, 6, 49157] for i in (0, 1)] + [[5, 6, 49223]]
        worker.handle_apply(apply_payload(6, [fresh], job=3))
        frames = chainlog.read_log(shard_dir / "ptree", chainlog.TREE).frames
        assert [f.header["indices"] for f in frames] == [list(range(6)), [6]]


class TestPreLogStateDir:
    @pytest.mark.parametrize("shards", [1, 2])
    def test_pre_log_state_dir_rebuilds_each_tree_once(self, tmp_path, corpus, shards):
        # a state dir as the blob-tree release left it: the same registry
        # log, every tree in the product-tree/1 layout and, when sharded, a
        # snapshot per shard.  The first start rebuilds each tree once,
        # serves the same hits, and leaves no old file behind
        batches = [corpus.moduli[i : i + 8] for i in range(0, len(corpus.moduli), 8)]
        reference = run_session(tmp_path, shards, batches)
        registry = reference.registry
        trees = sorted(tmp_path.glob("ptree")) + sorted(tmp_path.glob("shards/*/ptree"))
        assert len(trees) == (1 if shards == 1 else 2)
        ring = ShardRing(shards)
        for tree in trees:
            for log in tree.iterdir():
                log.unlink()
            if shards == 1:
                write_old_tree(tree, registry.moduli)
                continue
            k = int(tree.parent.name)
            indices = [g for g, n in enumerate(registry.moduli) if ring.owner(n) == k]
            write_old_tree(tree, [registry.moduli[g] for g in indices])
            write_old_snapshot(tree.parent, {
                "format": "repro.shard-snapshot/3", "shard": k, "shards": shards,
                "replicas": 32, "indices": indices, "job": registry.n_batches - 1,
            })
        telemetry = Telemetry.create()
        restarted = run_session(tmp_path, shards, [], telemetry=telemetry)
        assert telemetry.registry.counter("ptree.rebuilds").value == len(trees)
        assert hit_set(restarted) == hit_set(reference)
        view = restarted.last_shards_view
        assert view["pairs_tested"] == view["pairs_expected"]
        assert not [p for pattern in OLD_FILES for p in tmp_path.glob(pattern)]
        report = ArtifactCatalog(tmp_path).scan()
        assert report.clean and not report.warnings, report.to_json()
        # the next start reads the logs the first one wrote
        again = Telemetry.create()
        run_session(tmp_path, shards, [], telemetry=again)
        assert again.registry.counter("ptree.rebuilds").value == 0


class TestShardSnapshot:
    def test_snapshot_holds_no_moduli(self, tmp_path, corpus):
        # a shard's slice is recorded only in its tree log: the headers
        # list the slice's global indices, in leaf order, and no modulus;
        # no separate snapshot is written
        batches = [corpus.moduli[i : i + 8] for i in range(0, len(corpus.moduli), 8)]
        service = run_session(tmp_path, 2, batches)
        ring = ShardRing(2)
        moduli = service.registry.moduli
        for k in (0, 1):
            shard_dir = tmp_path / "shards" / str(k)
            assert sorted(p.name for p in shard_dir.iterdir()) == ["ptree"]
            headers = [f.header for f in chainlog.read_log(shard_dir / "ptree", chainlog.TREE).frames]
            indices = [g for h in headers for g in h["indices"]]
            assert indices == [g for g, n in enumerate(moduli) if ring.owner(n) == k]
            text = json.dumps(headers)
            assert not [n for n in moduli if str(n) in text]

    def test_init_over_a_trailing_spool_appends_the_batch(self, tmp_path, corpus):
        # a worker that died after the registry committed job 1 but before
        # it applied it: its spool holds the slice before the job, and the
        # init with the registry's slice after it loads that tree and
        # appends the job's keys, without a rebuild or a rescan
        moduli = list(dict.fromkeys(corpus.moduli))
        first = _ShardWorker(0, 1, 32, str(tmp_path), None)
        first.handle_init(init_payload(moduli[:12], job=0))
        first.handle_job(job_payload(12, moduli[12:]))
        worker = _ShardWorker(0, 1, 32, str(tmp_path), None)
        _, status = worker.handle_init(init_payload(moduli, job=1))
        assert status == {"job": 1, "keys": len(moduli), "rebuilds": 0}
        counter = worker.telemetry.registry.counter
        assert counter("ptree.rebuilds").value == 0
        assert counter("incremental.cross_scans").value == 0
        assert worker.scanner.moduli == moduli
        assert list(worker.scanner._ptree.leaves()) == moduli
        # the appended leaves scan: a probe equal to the job's last key
        # meets it, as it does in a tree built from scratch
        m = len(moduli)
        reference = _ShardWorker(0, 1, 32, str(tmp_path / "ref"), None)
        reference.handle_init(init_payload(moduli, job=1))
        probe = job_payload(m, [moduli[-1]])
        _, ack = worker.handle_job(probe)
        assert [m - 1, m, moduli[-1]] in ack["hits"]
        assert ack == reference.handle_job(probe)[1]

    def test_init_over_an_intact_spool_reads_the_tree(self, tmp_path, corpus):
        # a worker reset to the registry's slice whose spool already holds
        # exactly that slice reads it: no tree rebuild, no merge, nothing
        # appended
        moduli = list(dict.fromkeys(corpus.moduli))
        writer = _ShardWorker(0, 1, 32, str(tmp_path), None)
        writer.handle_init(init_payload([], job=None))
        writer.handle_job(job_payload(0, moduli))
        writer.handle_apply(apply_payload(0, moduli, job=0))
        worker = _ShardWorker(0, 1, 32, str(tmp_path), None)
        _, status = worker.handle_init(init_payload(moduli, job=0))
        assert status == {"job": 0, "keys": len(moduli), "rebuilds": 0}
        counter = worker.telemetry.registry.counter
        assert counter("ptree.rebuilds").value == 0
        assert counter("ptree.node_merges").value == 0
        assert counter("ptree.log_appends").value == 0
        assert worker.scanner.moduli == moduli
