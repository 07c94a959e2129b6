"""Sharded-fleet tests: equivalence with one shard, crash/replay, drain order.

The load-bearing invariants (docs/SHARDING.md pins the prose version):

* an N-shard session finds the *exact* hit set of the 1-shard session on
  the same corpus, and the per-shard pair watermarks sum to M(M−1)/2;
* kill -9 of one shard worker mid-batch loses nothing — the respawned
  worker replays only the unacknowledged job;
* the drain commits every shard snapshot *before* the final registry
  manifest sync (regression-tested even for ``--shards 1``).
"""

import asyncio
import io
import json
import os
import signal
from pathlib import Path

import pytest

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
        views["shards"] = service.shards_view()
        await service.stop()

    asyncio.run(go())
    service.last_shards_view = views["shards"]
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


class TestShardCrashes:
    def test_kill_nine_mid_batch_loses_nothing(self, tmp_path, corpus, monkeypatch):
        # every worker's first JOB persist stalls 1s (hit 1 is the cold-start
        # rebuild; the stall is pre-write, so the victim dies with the job
        # applied in memory only); we SIGKILL one worker inside that window
        monkeypatch.setenv("REPRO_FAULTS", "shard.commit#2=hang:1.0")
        faults.reset_plan()

        async def during(service):
            await asyncio.sleep(0.3)
            victim = service.router._workers[1].process
            os.kill(victim.pid, signal.SIGKILL)

        batches = [corpus.moduli[i : i + 8] for i in range(0, len(corpus.moduli), 8)]
        service = run_session(tmp_path, 3, batches, during=during)
        view = service.last_shards_view
        assert view["detail"][1]["crashes"] >= 1
        assert view["pairs_tested"] == view["pairs_expected"]
        single = run_session(tmp_path.with_name(tmp_path.name + "-ref"), 1, batches)
        assert hit_set(service) == hit_set(single)

    def test_persist_ioerror_replays_exactly_once(self, tmp_path, corpus, monkeypatch):
        # the first JOB persist in every worker EIOs (hit 1 is the cold-start
        # rebuild): the flush fails transient, the batcher retries it, and
        # the replay returns the stored verdicts without rescanning — the
        # watermark still lands on M(M−1)/2
        monkeypatch.setenv("REPRO_FAULTS", "shard.commit#2=ioerror")
        faults.reset_plan()
        batches = [corpus.moduli[i : i + 8] for i in range(0, len(corpus.moduli), 8)]
        service = run_session(tmp_path, 2, batches)
        view = service.last_shards_view
        assert view["pairs_tested"] == view["pairs_expected"]
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
            # tear down the workers without the drain barrier or manifest
            # sync — the per-job persist-before-ack must carry everything
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


class TestDrainOrdering:
    @pytest.mark.parametrize("shards", [1, 2])
    def test_scan_state_commits_before_manifest_sync(self, tmp_path, corpus, shards):
        stream = io.StringIO()
        telemetry = Telemetry.create(event_stream=stream)
        run_session(tmp_path, shards, [corpus.moduli[:8]], telemetry=telemetry)
        events = [json.loads(line)["event"] for line in stream.getvalue().splitlines()]
        committed = events.index("service.scan_state_committed")
        final_sync = len(events) - 1 - events[::-1].index("registry.synced")
        assert committed < final_sync
        assert events.index("service.stop") > committed
        if shards > 1:
            assert events.index("shard.synced") < final_sync


#: a shard snapshot exactly as the five-tier scanner wrote it: its scanner
#: payload is version 2, records the ``bulk`` tier (which resolved no int
#: backend) and carries the four bulk-only knobs
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


class TestLegacyShardState:
    @pytest.mark.parametrize("engine", ("native", "ptree", "auto", "all2all", "bulk"))
    def test_snapshot_loads_whatever_engine_it_recorded(self, tmp_path, engine):
        payload = json.loads(LEGACY_SHARD_JSON)
        payload["scanner"]["engine"] = engine
        worker = _ShardWorker(0, 1, 32, str(tmp_path), None)
        worker.snapshot_path.parent.mkdir(parents=True)
        worker.snapshot_path.write_text(json.dumps(payload))
        assert worker._load()
        scanner = worker.scanner
        legacy = payload["scanner"]
        assert [[h.i, h.j, h.prime] for h in scanner.all_hits] == legacy["hits"]
        assert scanner.moduli == legacy["moduli"]
        assert scanner.coverage_is_complete()
        assert worker.pairs_tested == 15 and worker.applied_job == 2
