"""Supervised-pool tests: worker death, poison chunks, executor hygiene."""

import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.resilience import ChunkFailed, PoolExhausted
from repro.resilience.faults import ENV_VAR
from repro.resilience.supervisor import ChunkSupervisor, supervised_map
from repro.rsa.corpus import generate_weak_corpus
from repro.telemetry import MetricsRegistry

SRC = Path(__file__).resolve().parents[2] / "src"

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


def _children(pid: int) -> list[int]:
    """Live pids whose parent is ``pid``."""
    found = []
    for entry in os.listdir("/proc"):
        if entry.isdigit() and _stat(int(entry))[1:2] == [str(pid)]:
            found.append(int(entry))
    return found


def _stat(pid: int) -> list[str]:
    """``[state, ppid]`` of a process, or ``[]`` once it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[:2]
    except OSError:
        return []


def _running(pid: int) -> bool:
    stat = _stat(pid)
    return bool(stat) and stat[0] != "Z"


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads /proc")
class TestParentDeath:
    """``kill -9`` of the parent takes its pool workers with it."""

    @pytest.mark.parametrize("command", ["scan", "batchscan"])
    def test_workers_exit_when_the_parent_is_killed(self, command, tmp_path):
        if command == "scan":
            corpus = tmp_path / "corpus.json"
            corpus.write_text(generate_weak_corpus(40, 128, shared_groups=(2,), seed=1).to_json())
            argv = ["scan", "--corpus", str(corpus), "--backend", "parallel", "--workers", "2"]
        else:
            # 32 odd 2048-bit moduli: remainder levels 2 and 3 use the pool
            rng = random.Random(1)
            moduli = tmp_path / "moduli.txt"
            moduli.write_text("".join(
                f"{rng.getrandbits(2048) | 1 | 1 << 2047:#x}\n" for _ in range(32)
            ))
            argv = ["batchscan", "--moduli", str(moduli), "--spool-dir", str(tmp_path / "spool")]
        # every worker stalls in its first unit, so the kill lands mid-run
        env = {**os.environ, "PYTHONPATH": str(SRC), ENV_VAR: "chunk.execute#1=hang:60"}
        code = (
            "import sys, repro.core.pipeline as p\n"
            "p._usable_cpus = lambda: 2\n"
            "from repro.cli import main\n"
            "sys.exit(main(sys.argv[1:]))"
        )
        proc = subprocess.Popen([sys.executable, "-c", code, *argv], env=env,
                                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        workers: list[int] = []
        try:
            deadline = time.monotonic() + 60
            while len(workers) < 2:
                assert proc.poll() is None, "the run ended before its workers started"
                assert time.monotonic() < deadline, "no workers within 60 s"
                time.sleep(0.01)
                workers = _children(proc.pid)
            proc.kill()
            proc.wait()
            deadline = time.monotonic() + 5
            while any(map(_running, workers)) and time.monotonic() < deadline:
                time.sleep(0.02)
            assert [pid for pid in workers if _running(pid)] == []
        finally:
            proc.kill()
            proc.wait()
            for pid in workers:
                if _running(pid):
                    os.kill(pid, signal.SIGKILL)
