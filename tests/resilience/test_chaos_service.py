"""Chaos tests: batcher flush faults, registry commit faults, graceful drain."""

import asyncio
import json
from pathlib import Path

import pytest

from repro.core.attack import WeakHit
from repro.resilience import RetryPolicy
from repro.resilience.faults import install_plan, parse_spec, reset_plan
from repro.rsa.corpus import generate_weak_corpus
from repro.service.batcher import DONE, FAILED, MicroBatcher
from repro.service.http import HttpServer, ServiceConfig, WeakKeyService
from repro.service.registry import WeakKeyRegistry
from repro.telemetry import Telemetry

BITS = 64

#: zero-sleep policy so chaos retries don't slow the suite down
FAST_RETRIES = RetryPolicy(max_attempts=3, base_delay=0.0, jitter=0.0)


@pytest.fixture(autouse=True)
def _clean_plan():
    reset_plan()
    yield
    reset_plan()


class TestBatcherFlushFaults:
    def _batcher(self, telemetry):
        async def scan(items):
            return [{"status": "registered"} for _ in items]

        return MicroBatcher(
            scan, max_batch=4, linger_ms=1.0,
            telemetry=telemetry, retry_policy=FAST_RETRIES,
        )

    def test_transient_flush_fault_is_retried_through(self):
        install_plan(parse_spec("batcher.flush#1=error"))
        tel = Telemetry.create()

        async def run():
            batcher = self._batcher(tel)
            await batcher.start()
            ticket = batcher.submit([1, 2])
            await asyncio.wait_for(ticket.wait(), timeout=5)
            await batcher.stop()
            return ticket

        ticket = asyncio.run(run())
        assert ticket.status == DONE
        counters = tel.registry.counters
        assert counters["batcher.flush_retries"].value == 1
        assert "batcher.failed_flushes" not in counters

    def test_persistent_flush_fault_fails_the_flush(self):
        install_plan(parse_spec("batcher.flush#1+=error"))
        tel = Telemetry.create()

        async def run():
            batcher = self._batcher(tel)
            await batcher.start()
            ticket = batcher.submit([1, 2])
            await asyncio.wait_for(ticket.wait(), timeout=5)
            await batcher.stop(drain=False)
            return ticket

        ticket = asyncio.run(run())
        assert ticket.status == FAILED
        assert "injected failure" in ticket.error
        counters = tel.registry.counters
        assert counters["batcher.failed_flushes"].value == 1
        assert counters["batcher.flush_retries"].value == 2  # budget of 3 attempts


class TestRegistryCommitFaults:
    def test_transient_commit_fault_is_retried_through(self, tmp_path):
        install_plan(parse_spec("registry.commit#1=ioerror"))
        tel = Telemetry.create()
        registry = WeakKeyRegistry(tmp_path, telemetry=tel, retry_policy=FAST_RETRIES)
        registry.load()
        batch = registry.commit_batch([193 * 197, 193 * 199], [WeakHit(0, 1, 193)])
        assert batch.n_keys == 2
        assert tel.registry.counters["registry.commit_retries"].value == 1

        fresh = WeakKeyRegistry(tmp_path)
        assert fresh.load() == 1
        assert fresh.n_keys == 2  # the retried commit is fully durable

    def test_fatal_commit_fault_propagates(self, tmp_path):
        install_plan(parse_spec("registry.commit#1=enospc"))
        registry = WeakKeyRegistry(tmp_path, retry_policy=FAST_RETRIES)
        registry.load()
        with pytest.raises(OSError):
            registry.commit_batch([193 * 197], [])
        reset_plan()
        fresh = WeakKeyRegistry(tmp_path)
        assert fresh.load() == 0  # nothing half-committed


class TestPtreeCommitFaults:
    """Faults in the persistent product tree's commit path, at service level."""

    def _submit_wait(self, service, moduli):
        async def go():
            ticket = service.submit([(n, 65537) for n in moduli])
            await asyncio.wait_for(ticket.wait(), timeout=30)
            return ticket

        return go()

    def test_transient_tree_fault_is_retried_through(self, tmp_path):
        corpus = generate_weak_corpus(6, BITS, shared_groups=(2,), seed=17)
        install_plan(parse_spec("ptree.commit#1=ioerror"))
        tel = Telemetry.create()

        async def run():
            config = ServiceConfig(state_dir=Path(tmp_path), linger_ms=1.0)
            service = WeakKeyService(config, telemetry=tel)
            await service.start()
            ticket = await self._submit_wait(service, corpus.moduli)
            await service.stop()
            return ticket

        ticket = asyncio.run(run())
        assert ticket.status == DONE
        assert tel.registry.counters["ptree.commit_retries"].value >= 1

    def test_faulted_flush_recovers_and_matches_clean_run(self, tmp_path):
        """Exhaust the tree-commit retries mid-stream; after recovery and a
        restart the hit set must equal a never-faulted run's."""
        corpus = generate_weak_corpus(8, BITS, shared_groups=(2, 2), seed=11)
        mods = corpus.moduli

        async def run():
            config = ServiceConfig(state_dir=Path(tmp_path), linger_ms=1.0)
            service = WeakKeyService(config)
            await service.start()
            first = await self._submit_wait(service, mods[:4])
            assert first.status == DONE
            install_plan(parse_spec("ptree.commit#1+=ioerror"))
            # the tree appends after the registry commit, so the flush
            # succeeds and its verdicts come from the registry; the scanner
            # that could not take the batch is dropped
            applied = await self._submit_wait(service, mods[4:6])
            assert applied.status == DONE
            assert service.registry.n_keys == 6
            # the next flush must re-derive the scanner from the registry,
            # which needs a tree append, so it fails before scanning and
            # commits nothing
            failed = await self._submit_wait(service, mods[6:])
            assert failed.status == FAILED
            assert service.registry.n_keys == 6
            reset_plan()
            # resubmitting the lost keys — never committed, hence not
            # duplicates — scans against the re-derived scanner
            retried = await self._submit_wait(service, mods[6:])
            assert retried.status == DONE
            assert service.registry.duplicate_submissions == 0
            assert service.shards_view()["pairs_tested"] == 8 * 7 // 2
            await service.stop()

        asyncio.run(run())

        async def restart():
            config = ServiceConfig(state_dir=Path(tmp_path), linger_ms=1.0)
            service = WeakKeyService(config)
            await service.start()
            view = service.hits_view()
            await service.stop()
            return view

        view = asyncio.run(restart())
        assert view["keys"] == len(mods)
        assert {(h["i"], h["j"]) for h in view["hits"]} == corpus.weak_pair_set()


class TestGracefulDrain:
    """server.close(drain=True) — exactly what the SIGTERM handler runs."""

    def _moduli(self):
        corpus = generate_weak_corpus(4, BITS, shared_groups=(), seed=5)
        return [hex(n) for n in corpus.moduli]

    def test_drain_wakes_long_poll_and_commits_backlog(self, tmp_path):
        moduli = self._moduli()

        async def run():
            config = ServiceConfig(
                state_dir=Path(tmp_path),
                linger_ms=60_000.0,  # no flush until the drain forces one
                max_batch=4096,
                wait_timeout=30.0,
            )
            server = HttpServer(WeakKeyService(config), port=0)
            await server.start()
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            body = json.dumps({"moduli": moduli[:2]}).encode()
            writer.write(
                (
                    f"POST /submit?wait=1 HTTP/1.1\r\nHost: t\r\n"
                    f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
                ).encode()
                + body
            )
            await writer.drain()
            await asyncio.sleep(0.2)  # the long-poll is parked on its ticket
            await server.close()  # SIGTERM path: drain, then shut down
            raw = await asyncio.wait_for(reader.read(), timeout=5)
            writer.close()
            return raw

        raw = asyncio.run(run())
        head, _, payload = raw.partition(b"\r\n\r\n")
        status = int(head.split()[1])
        headers = head.decode("latin-1").lower()
        doc = json.loads(payload)
        assert status == 503
        assert "retry-after:" in headers
        assert doc["ticket"]

        # zero lost acknowledged submissions: the drained flush committed
        registry = WeakKeyRegistry(tmp_path)
        registry.load()
        assert registry.n_keys == 2

    def test_submit_during_drain_gets_503_with_retry_after(self, tmp_path):
        moduli = self._moduli()

        async def run():
            config = ServiceConfig(state_dir=Path(tmp_path), linger_ms=1.0)
            server = HttpServer(WeakKeyService(config), port=0)
            await server.start()
            server._draining.set()  # drain announced, listener still up
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            body = json.dumps({"moduli": moduli}).encode()
            writer.write(
                (
                    f"POST /submit HTTP/1.1\r\nHost: t\r\n"
                    f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
                ).encode()
                + body
            )
            await writer.drain()
            raw = await asyncio.wait_for(reader.read(), timeout=5)
            writer.close()
            server._draining.clear()
            await server.close()
            return raw

        raw = asyncio.run(run())
        head, _, payload = raw.partition(b"\r\n\r\n")
        assert int(head.split()[1]) == 503
        assert "retry-after:" in head.decode("latin-1").lower()
        assert "draining" in json.loads(payload)["error"]

    def test_drain_survives_idle_keepalive_connection(self, tmp_path):
        """Regression: an idle keep-alive (parked in a read, no timeout)
        must not stall the drain.  On Python >= 3.12.1 ``wait_closed()``
        blocks until every connection handler returns, so the shutdown
        sequence must drain/commit and cancel leftover handlers *before*
        waiting on the server — otherwise SIGTERM hangs with the batcher
        backlog never flushed.
        """

        async def run():
            config = ServiceConfig(state_dir=Path(tmp_path), linger_ms=1.0)
            server = HttpServer(WeakKeyService(config), port=0, drain_grace=0.2)
            await server.start()
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            writer.write(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
            await writer.drain()
            head = await asyncio.wait_for(reader.readuntil(b"\r\n\r\n"), timeout=5)
            assert b" 200 " in head.split(b"\r\n", 1)[0] + b" "
            length = next(
                int(line.split(b":")[1])
                for line in head.lower().split(b"\r\n")
                if line.startswith(b"content-length")
            )
            await asyncio.wait_for(reader.readexactly(length), timeout=5)
            # the client now goes silent: the handler sits in _read_request
            # on a keep-alive connection with nothing more to read
            await asyncio.wait_for(server.close(), timeout=5)
            writer.close()

        asyncio.run(run())

    def test_clean_drain_with_no_load_exits_quietly(self, tmp_path):
        async def run():
            config = ServiceConfig(state_dir=Path(tmp_path), linger_ms=1.0)
            server = HttpServer(WeakKeyService(config), port=0)
            await server.start()
            await server.close()
            assert server.draining

        asyncio.run(run())
        # the shutdown sync persisted a manifest even with zero commits
        registry = WeakKeyRegistry(tmp_path)
        assert registry.load() == 0
