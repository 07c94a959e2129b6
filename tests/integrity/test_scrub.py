"""Online scrubber: detection inside a live service, degraded read-only mode."""

import asyncio

from repro.core.spool import write_sidecar

from tests.integrity.conftest import flip_record_byte
from tests.service.test_http import request, serve

#: a scrub cadence fast enough for tests, slow enough to never starve the loop
FAST = dict(scrub_interval=0.05)


async def wait_for(predicate, timeout=20.0):
    deadline = asyncio.get_running_loop().time() + timeout
    while True:
        value = await predicate()
        if value:
            return value
        if asyncio.get_running_loop().time() > deadline:
            raise AssertionError("condition not reached before timeout")
        await asyncio.sleep(0.05)


def submit_then(state_dir, corpus, after, **overrides):
    """Serve, register half the corpus, run ``after(server)``."""

    async def go(server):
        status, _, _ = await request(
            server.port, "POST", "/submit?wait=1",
            {"moduli": [hex(n)[2:] for n in corpus.moduli[:8]]},
        )
        assert status == 200
        return await after(server)

    return serve(state_dir, go, **{**FAST, **overrides})


class TestScrubberLifecycle:
    def test_cycles_show_up_in_healthz(self, tmp_path, corpus):
        async def after(server):
            async def cycled():
                _, _, health = await request(server.port, "GET", "/healthz")
                return health["scrub"]["cycles"] >= 2 and health["scrub"]["artifacts_checked"]

            await wait_for(cycled)
            _, _, health = await request(server.port, "GET", "/healthz")
            assert health["status"] == "ok"
            assert health["scrub"]["enabled"] is True
            assert health["scrub"]["corrupt_found"] == 0

        submit_then(tmp_path, corpus, after)

    def test_interval_zero_disables_the_scrubber(self, tmp_path, corpus):
        async def after(server):
            _, _, health = await request(server.port, "GET", "/healthz")
            assert health["scrub"] == {"enabled": False}

        submit_then(tmp_path, corpus, after, scrub_interval=0)

    def test_scrub_metrics_are_exported(self, tmp_path, corpus):
        async def after(server):
            async def counted():
                _, _, metrics = await request(server.port, "GET", "/metricsz")
                return metrics["counters"].get("integrity.scrub.cycles", 0) >= 1

            await wait_for(counted)
            _, _, metrics = await request(server.port, "GET", "/metricsz")
            assert metrics["gauges"]["integrity.degraded"] == 0
            assert metrics["counters"]["integrity.scrub.bytes"] > 0

        submit_then(tmp_path, corpus, after)


class TestDegradedMode:
    def test_corruption_trips_degraded_503_writes_200_reads(self, tmp_path, corpus):
        async def after(server):
            flip_record_byte(tmp_path, 0)

            async def degraded():
                _, _, health = await request(server.port, "GET", "/healthz")
                return health["status"] == "degraded"

            await wait_for(degraded)
            _, _, health = await request(server.port, "GET", "/healthz")
            assert "registry-000000.log" in health["degraded_reason"]

            status, headers, body = await request(
                server.port, "POST", "/submit",
                {"moduli": [hex(corpus.moduli[9])[2:]]},
            )
            assert status == 503
            assert headers.get("retry-after") == "60"
            assert "repro fsck --repair" in body["error"]

            for path in ("/hits", "/healthz", "/metricsz", "/broken"):
                status, _, _ = await request(server.port, "GET", path)
                assert status == 200, path

            _, _, metrics = await request(server.port, "GET", "/metricsz")
            assert metrics["gauges"]["integrity.degraded"] == 1
            assert metrics["counters"]["integrity.scrub.corrupt"] >= 1

        submit_then(tmp_path, corpus, after)

    def test_degraded_is_sticky_until_restart(self, tmp_path, corpus):
        async def after(server):
            pristine = (tmp_path / "registry-000000.log").read_bytes()
            flip_record_byte(tmp_path, 0)

            async def degraded():
                _, _, health = await request(server.port, "GET", "/healthz")
                return health["status"] == "degraded"

            await wait_for(degraded)
            # un-flipping the byte does not clear the trip: only an
            # operator fsck + restart attests the state is sound again
            (tmp_path / "registry-000000.log").write_bytes(pristine)
            _, _, before = await request(server.port, "GET", "/healthz")
            cycles = before["scrub"]["cycles"]

            async def two_more_cycles():
                _, _, health = await request(server.port, "GET", "/healthz")
                return health["scrub"]["cycles"] >= cycles + 2

            await wait_for(two_more_cycles)
            _, _, health = await request(server.port, "GET", "/healthz")
            assert health["status"] == "degraded"

        submit_then(tmp_path, corpus, after)

    def test_warnings_do_not_degrade(self, tmp_path, corpus):
        async def after(server):
            write_sidecar(tmp_path / "ptree" / "manifest.json", "0" * 64)

            async def warned():
                _, _, health = await request(server.port, "GET", "/healthz")
                return health["scrub"]["warnings_found"] >= 1

            await wait_for(warned)
            _, _, health = await request(server.port, "GET", "/healthz")
            assert health["status"] == "ok"
            status, _, _ = await request(
                server.port, "POST", "/submit?wait=1",
                {"moduli": [hex(corpus.moduli[9])[2:]]},
            )
            assert status == 200

        submit_then(tmp_path, corpus, after)

    def test_restart_after_repair_serves_writes_again(self, tmp_path, corpus):
        from repro.integrity.fsck import run_fsck

        async def after(server):
            flip_record_byte(tmp_path, 0)

            async def degraded():
                _, _, health = await request(server.port, "GET", "/healthz")
                return health["status"] == "degraded"

            await wait_for(degraded)

        submit_then(tmp_path, corpus, after)
        assert run_fsck(tmp_path, repair=True).healed

        async def reopened(server):
            _, _, health = await request(server.port, "GET", "/healthz")
            assert health["status"] == "ok"
            status, _, _ = await request(
                server.port, "POST", "/submit?wait=1",
                {"moduli": [hex(n)[2:] for n in corpus.moduli[8:]]},
            )
            assert status == 200

        serve(tmp_path, reopened, **FAST)
