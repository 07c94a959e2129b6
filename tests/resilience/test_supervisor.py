"""Supervised-pool tests: worker death, poison chunks, executor hygiene."""

import os
import signal

import pytest

from repro.resilience import ChunkFailed, PoolExhausted
from repro.resilience.supervisor import ChunkSupervisor, supervised_map
from repro.telemetry import MetricsRegistry

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


def _double(chunk):
    return [2 * x for x in chunk]


def _die_once_then_double(chunk):
    """Kill this worker process on the marked chunk — but only the first time.

    The marker file makes the crash happen exactly once across respawns,
    so the resubmitted chunk completes on the fresh pool.
    """
    marker, payload = chunk
    if marker is not None and not os.path.exists(marker):
        with open(marker, "w"):
            pass
        os.kill(os.getpid(), signal.SIGKILL)
    return [2 * x for x in payload]


def _always_die(chunk):
    os.kill(os.getpid(), signal.SIGKILL)


_EXECS = 0


def _die_on_second_exec(chunk):
    """Every worker process dies on its own 2nd chunk, in every generation."""
    global _EXECS
    _EXECS += 1
    if _EXECS == 2:
        os.kill(os.getpid(), signal.SIGKILL)
    return [2 * x for x in chunk]


def _explode(chunk):
    raise ValueError("boom")


class TestWorkerDeath:
    def test_killed_worker_heals_and_results_match(self, tmp_path):
        marker = str(tmp_path / "died")
        chunks = [(None, [i]) for i in range(12)]
        chunks[5] = (marker, [5])
        registry = MetricsRegistry()
        got = list(
            supervised_map(
                _die_once_then_double,
                iter(chunks),
                workers=2,
                registry=registry,
            )
        )
        assert got == [[2 * i] for i in range(12)]
        assert registry.counters["resilience.worker_crashes"].value >= 1
        assert registry.counters["resilience.pool_respawns"].value >= 1
        assert registry.counters["resilience.chunk_retries"].value >= 1

    def test_poison_chunk_raises_chunk_failed(self):
        with pytest.raises(ChunkFailed, match="poison"):
            list(
                supervised_map(
                    _always_die, iter([[1]]), workers=2, max_attempts=2, max_respawns=10
                )
            )

    def test_innocent_chunks_survive_sustained_crashes(self):
        """Regression: a crash is charged only to chunks that can have been
        executing (the oldest ``workers`` lost units) — with every pool
        generation dying, innocent chunks sharing a wide window must not
        exhaust the *default* attempt budget just by witnessing respawns.
        """
        chunks = [[i] for i in range(16)]
        registry = MetricsRegistry()
        got = list(
            supervised_map(
                _die_on_second_exec,
                iter(chunks),
                workers=2,
                max_in_flight=8,
                registry=registry,
            )
        )
        assert got == [[2 * i] for i in range(16)]
        assert registry.counters["resilience.pool_respawns"].value >= 3

    def test_respawn_budget_raises_pool_exhausted(self):
        with pytest.raises(PoolExhausted, match="budget"):
            list(
                supervised_map(
                    _always_die,
                    iter([[i] for i in range(8)]),
                    workers=2,
                    max_attempts=100,
                    max_respawns=2,
                )
            )

    def test_pool_breaking_during_resubmit_counts_as_a_death(self, monkeypatch):
        # deterministic: the first pool takes two units and then breaks;
        # every pool after it breaks again inside ``submit``, while the
        # lost units are being resubmitted.  Each of those breaks is one
        # more death against the budget, never an escaping BrokenProcessPool
        from concurrent.futures import Future
        from concurrent.futures.process import BrokenProcessPool

        class Pool:
            def __init__(self, healthy):
                self.healthy = healthy

            def submit(self, fn, *args):
                if not self.healthy:
                    raise BrokenProcessPool("broke while resubmitting")
                future = Future()
                future.set_exception(BrokenProcessPool("worker died"))
                return future

            def shutdown(self, **kwargs):
                pass

        pools = []

        def spawn(self):
            pools.append(Pool(healthy=not pools))
            return pools[-1]

        monkeypatch.setattr(ChunkSupervisor, "_spawn", spawn)
        registry = MetricsRegistry()
        supervisor = ChunkSupervisor(_double, workers=2, max_respawns=3, registry=registry)
        supervisor.submit([1])
        supervisor.submit([2])
        with pytest.raises(PoolExhausted, match="budget 3"):
            supervisor.next_result()
        assert len(pools) == 4  # the first pool and three respawns
        assert registry.counter("resilience.pool_respawns").value == 4

    def test_oldest_unit_lost_beside_completing_siblings(self, monkeypatch):
        # deterministic: each of the first seven pools completes one later
        # unit and then breaks before the oldest returns (its sibling
        # worker finished first and died on its next unit); the eighth pool
        # is healthy.  Every death followed progress, so neither the
        # respawn budget (3 in a row) nor the oldest unit's attempt budget
        # (6) runs out, and the results come back whole and in order
        from concurrent.futures import Future
        from concurrent.futures.process import BrokenProcessPool

        class Pool:
            def __init__(self, generation):
                self.generation = generation
                self.submitted = 0

            def submit(self, invoke, fn, item):
                self.submitted += 1
                future = Future()
                if self.generation > 7 or self.submitted == 2:
                    future.set_result(fn(item))
                else:
                    future.set_exception(BrokenProcessPool("worker died"))
                return future

            def shutdown(self, **kwargs):
                pass

        pools = []

        def spawn(self):
            pools.append(Pool(len(pools) + 1))
            return pools[-1]

        monkeypatch.setattr(ChunkSupervisor, "_spawn", spawn)
        registry = MetricsRegistry()
        supervisor = ChunkSupervisor(_double, workers=2, registry=registry)
        for i in range(8):
            supervisor.submit([i])
        assert [supervisor.next_result() for _ in range(8)] == [[2 * i] for i in range(8)]
        assert len(pools) == 8
        assert registry.counter("resilience.pool_respawns").value == 7


class TestApplicationErrors:
    def test_worker_exception_propagates_unchanged(self):
        with pytest.raises(ValueError, match="boom"):
            list(supervised_map(_explode, iter([[1]]), workers=2))


class TestExecutorHygiene:
    def test_abandoned_generator_shuts_pool_down(self, monkeypatch):
        """Regression: dropping the generator early must release the pool."""
        shutdowns = []
        original = ChunkSupervisor.shutdown

        def spy(self):
            shutdowns.append(1)
            original(self)

        monkeypatch.setattr(ChunkSupervisor, "shutdown", spy)
        gen = supervised_map(
            _double, iter([[i] for i in range(50)]), workers=2, max_in_flight=2
        )
        assert next(gen) == [0]
        gen.close()  # consumer walks away mid-stream
        assert shutdowns

    def test_shutdown_is_idempotent(self):
        sup = ChunkSupervisor(_double, workers=2)
        sup.shutdown()
        sup.shutdown()

    def test_lazy_input_consumption(self):
        consumed = []

        def chunks():
            for i in range(100):
                consumed.append(i)
                yield [i]

        out = supervised_map(_double, chunks(), workers=2, max_in_flight=2)
        assert next(out) == [0]
        # bounded window: far fewer than all 100 chunks were pulled to
        # produce the first result
        assert len(consumed) < 20
        assert len(list(out)) == 99

    def test_exhausted_stream_still_shuts_down(self, monkeypatch):
        shutdowns = []
        original = ChunkSupervisor.shutdown
        monkeypatch.setattr(
            ChunkSupervisor, "shutdown", lambda self: (shutdowns.append(1), original(self))[0]
        )
        assert list(supervised_map(_double, iter([[1], [2]]), workers=2)) == [[2], [4]]
        assert shutdowns


class TestValidation:
    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            ChunkSupervisor(_double, workers=0)

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            list(supervised_map(_double, iter([[1]]), workers=2, max_in_flight=0))

    def test_order_preserved_under_load(self):
        chunks = [[i, i + 1] for i in range(0, 60, 2)]
        pooled = list(supervised_map(_double, iter(chunks), workers=3))
        assert pooled == [_double(chunk) for chunk in chunks]
