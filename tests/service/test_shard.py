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
import time
from pathlib import Path

import pytest

from repro.core.spool import write_sidecar
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
    def test_kill_nine_mid_batch_loses_nothing(self, tmp_path, corpus, monkeypatch):
        # every worker's first APPLY persist stalls 1s (hit 1 is the init
        # persist; the stall is pre-write, so the victim dies with the
        # committed batch adopted in memory only), and the router
        # re-derives the victim from the registry slice, which holds it
        monkeypatch.setenv("REPRO_FAULTS", "shard.commit#2=hang:1.0")
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
        # the first APPLY persist in every worker process EIOs (hit 1 is
        # its init persist), after the registry committed.  A re-derived
        # worker is a new process, so every apply of the session fails;
        # every flush still succeeds, each worker is re-derived from its
        # registry slice, and the watermark still lands on M(M−1)/2
        monkeypatch.setenv("REPRO_FAULTS", "shard.commit#2=ioerror")
        faults.reset_plan()
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
        monkeypatch.delenv("REPRO_FAULTS")
        faults.reset_plan()
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


class TestLegacyShardState:
    @pytest.mark.parametrize("engine", ("native", "ptree", "auto", "all2all", "bulk"))
    def test_snapshot_loads_whatever_engine_it_recorded(self, tmp_path, engine):
        # an upgraded state dir: a /1 snapshot stays ok to the catalog (the
        # scrubber must not trip degraded mode on it); the worker never
        # reads it, inits from the registry slice and rewrites it as /3
        payload = json.loads(LEGACY_SHARD_JSON)
        payload["scanner"]["engine"] = engine
        worker = _ShardWorker(0, 1, 32, str(tmp_path), None)
        worker.snapshot_path.parent.mkdir(parents=True)
        body = json.dumps(payload).encode()
        worker.snapshot_path.write_bytes(body)
        write_sidecar(worker.snapshot_path, hashlib.sha256(body).hexdigest())
        assert [f.verdict for f in ArtifactCatalog(tmp_path).scan().findings
                if f.family == "shard-snapshot"] == ["ok"]

        moduli = payload["scanner"]["moduli"]
        _, status = worker.handle_init(init_payload(moduli, job=2, bits=32))
        assert status == {"job": 2, "keys": 6}
        assert worker.scanner.moduli == moduli
        stored = json.loads(worker.snapshot_path.read_bytes())
        assert stored == {"format": "repro.shard-snapshot/3", "shard": 0, "shards": 1,
                          "replicas": 32, "indices": list(range(6)), "job": 2}

        fresh = 49157 * 49223
        _, ack = worker.handle_job(job_payload(6, [fresh], bits=32))
        assert ack["hits"] == [[i, 6, 49157] for i in (0, 1)] + [[5, 6, 49223]]
        assert json.loads(worker.snapshot_path.read_bytes()) == stored  # a scan writes nothing
        worker.handle_apply(apply_payload(6, [fresh], job=3))
        stored = json.loads(worker.snapshot_path.read_bytes())
        assert (stored["indices"], stored["job"]) == (list(range(7)), 3)
        assert [f.verdict for f in ArtifactCatalog(tmp_path).scan().findings
                if f.family == "shard-snapshot"] == ["ok"]


class TestShardSnapshot:
    def test_snapshot_holds_no_moduli(self, tmp_path, corpus):
        batches = [corpus.moduli[i : i + 8] for i in range(0, len(corpus.moduli), 8)]
        run_session(tmp_path, 2, batches)
        for k in (0, 1):
            text = (tmp_path / "shards" / str(k) / "shard.json").read_text()
            payload = json.loads(text)
            assert payload["format"] == "repro.shard-snapshot/3"
            assert payload["indices"] and payload["job"] is not None
            assert not [n for n in corpus.moduli if str(n) in text]

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
        assert status == {"job": 1, "keys": len(moduli)}
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
        # exactly that slice reads it: no tree rebuild, no merge, no blob
        # written
        moduli = list(dict.fromkeys(corpus.moduli))
        writer = _ShardWorker(0, 1, 32, str(tmp_path), None)
        writer.handle_init(init_payload([], job=None))
        writer.handle_job(job_payload(0, moduli))
        writer.handle_apply(apply_payload(0, moduli, job=0))
        writer.snapshot_path.unlink()
        worker = _ShardWorker(0, 1, 32, str(tmp_path), None)
        _, status = worker.handle_init(init_payload(moduli, job=0))
        assert status == {"job": 0, "keys": len(moduli)}
        counter = worker.telemetry.registry.counter
        assert counter("ptree.rebuilds").value == 0
        assert counter("ptree.node_merges").value == 0
        assert counter("ptree.blob_writes").value == 0
        assert worker.scanner.moduli == moduli
