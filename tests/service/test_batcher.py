"""Micro-batcher semantics: coalescing, linger, group commit, backpressure,
draining."""

import asyncio

import pytest

from repro.service.batcher import BacklogFull, MicroBatcher


class RecordingScan:
    """A scan seam that records every flushed batch and can be gated."""

    def __init__(self, *, gate: bool = False, fail: bool = False) -> None:
        self.batches: list[list] = []
        self.fail = fail
        self._gate = gate
        self._open = None  # created lazily inside the running loop
        self.entered = None

    async def __call__(self, items: list) -> list[dict]:
        if self.entered is None:
            self.entered = asyncio.Event()
        self.entered.set()
        if self._gate:
            if self._open is None:
                self._open = asyncio.Event()
            await self._open.wait()
        if self.fail:
            raise RuntimeError("scan exploded")
        self.batches.append(list(items))
        return [{"status": "registered", "item": item} for item in items]

    def open(self) -> None:
        if self._open is None:
            self._open = asyncio.Event()
        self._open.set()


class TestFlushTriggers:
    def test_flush_on_max_batch(self):
        async def run():
            scan = RecordingScan()
            b = MicroBatcher(scan, max_batch=4, linger_ms=10_000)
            await b.start()
            ticket = b.submit([1, 2, 3, 4])
            # a full batch must flush long before the 10 s linger
            await asyncio.wait_for(ticket.wait(), timeout=2)
            await b.stop()
            return scan.batches, ticket

        batches, ticket = asyncio.run(run())
        assert batches == [[1, 2, 3, 4]]
        assert ticket.status == "done"
        assert [r["item"] for r in ticket.results] == [1, 2, 3, 4]

    def test_flush_on_linger(self):
        async def run():
            scan = RecordingScan()
            b = MicroBatcher(scan, max_batch=1000, linger_ms=10)
            await b.start()
            ticket = b.submit([1, 2])
            await asyncio.wait_for(ticket.wait(), timeout=2)
            await b.stop()
            return scan.batches

        assert asyncio.run(run()) == [[1, 2]]

    def test_linger_coalesces_concurrent_submissions(self):
        async def run():
            scan = RecordingScan()
            b = MicroBatcher(scan, max_batch=1000, linger_ms=50)
            await b.start()
            t1 = b.submit([1])
            t2 = b.submit([2, 3])
            await asyncio.wait_for(asyncio.gather(t1.wait(), t2.wait()), timeout=2)
            await b.stop()
            return scan.batches

        # both submissions arrived within one linger window: one flush
        assert asyncio.run(run()) == [[1, 2, 3]]

    def test_whole_submission_is_handed_over_zero_copy(self):
        # one bulk submission filling a flush must reach scan() as the
        # *same list object* the caller parsed — the zero-copy fast path
        # the binary wire format feeds (docs/SERVICE.md)
        async def run():
            seen: list = []

            async def identity_scan(items):
                seen.append(items)
                return [{"status": "registered"}] * len(items)

            b = MicroBatcher(identity_scan, max_batch=4, linger_ms=1)
            await b.start()
            submitted = [(35, 65537), (77, 65537), (143, 65537)]
            ticket = b.submit(submitted)
            await asyncio.wait_for(ticket.wait(), timeout=2)
            await b.stop()
            return submitted, seen

        submitted, seen = asyncio.run(run())
        assert len(seen) == 1 and seen[0] is submitted

    def test_stitched_flush_assembles_a_fresh_list(self):
        # two coalesced submissions cannot alias either caller's list
        async def run():
            seen: list = []

            async def identity_scan(items):
                seen.append(items)
                return [{"status": "registered"}] * len(items)

            b = MicroBatcher(identity_scan, max_batch=8, linger_ms=30)
            await b.start()
            first, second = [1, 2], [3]
            t1, t2 = b.submit(first), b.submit(second)
            await asyncio.wait_for(asyncio.gather(t1.wait(), t2.wait()), timeout=2)
            await b.stop()
            return first, second, seen

        first, second, seen = asyncio.run(run())
        assert len(seen) == 1 and seen[0] == [1, 2, 3]
        assert seen[0] is not first and seen[0] is not second

    def test_pending_keys_tracks_partial_cuts(self):
        # an oversized submission drains max_batch keys per flush; the
        # gauge must step down by exactly the cut, not the submission
        async def run():
            scan = RecordingScan(gate=True)
            b = MicroBatcher(scan, max_batch=2, linger_ms=1)
            await b.start()
            ticket = b.submit([1, 2, 3, 4, 5])
            counts = [b.pending_keys]
            scan.entered = asyncio.Event()
            await asyncio.wait_for(scan.entered.wait(), timeout=2)
            counts.append(b.pending_keys)  # first cut of 2 is in flight
            scan.open()
            await asyncio.wait_for(ticket.wait(), timeout=2)
            counts.append(b.pending_keys)
            await b.stop()
            return counts

        assert asyncio.run(run()) == [5, 3, 0]

    def test_oversized_submission_spans_flushes(self):
        async def run():
            scan = RecordingScan()
            b = MicroBatcher(scan, max_batch=2, linger_ms=1)
            await b.start()
            ticket = b.submit([1, 2, 3, 4, 5])
            await asyncio.wait_for(ticket.wait(), timeout=2)
            await b.stop()
            return scan.batches, ticket

        batches, ticket = asyncio.run(run())
        assert [len(batch) for batch in batches] == [2, 2, 1]
        assert ticket.status == "done"
        assert [r["item"] for r in ticket.results] == [1, 2, 3, 4, 5]


class TestGroupCommit:
    def test_keys_arriving_during_a_flush_form_the_next_one(self):
        # no linger at the default: the first key flushes alone, and the
        # three that arrive while it scans are cut together afterwards
        async def run():
            scan = RecordingScan(gate=True)
            b = MicroBatcher(scan)
            await b.start()
            first = b.submit([1])
            await asyncio.wait_for(_wait_entered(scan), timeout=2)
            rest = [b.submit([k]) for k in (2, 3, 4)]
            scan.open()
            await asyncio.wait_for(
                asyncio.gather(first.wait(), *(t.wait() for t in rest)), timeout=2
            )
            await b.stop()
            return scan.batches, b.telemetry.registry.histogram("batcher.flush_keys")

        batches, flush_keys = asyncio.run(run())
        assert batches == [[1], [2, 3, 4]]
        assert flush_keys.samples == [1, 3]

    def test_linger_defaults_to_zero_everywhere(self, tmp_path):
        from repro.cli import build_parser
        from repro.service.http import ServiceConfig

        assert MicroBatcher(RecordingScan()).linger == 0
        assert ServiceConfig(state_dir=tmp_path).linger_ms == 0
        args = build_parser().parse_args(["serve", "--state-dir", str(tmp_path)])
        assert args.linger_ms == 0


class TestBackpressure:
    def test_backlog_full_rejects_whole_submission(self):
        async def run():
            scan = RecordingScan(gate=True)
            b = MicroBatcher(scan, max_batch=2, linger_ms=0, max_pending=4)
            await b.start()
            first = b.submit([1, 2])  # picked up and gated inside scan
            await asyncio.wait_for(
                asyncio.get_running_loop().create_task(_wait_entered(scan)), 2
            )
            b.submit([3, 4, 5, 6])  # fills the queue exactly
            with pytest.raises(BacklogFull) as info:
                b.submit([7])
            assert b.pending_keys == 4  # nothing partially admitted
            scan.open()
            await asyncio.wait_for(first.wait(), timeout=2)
            await b.stop()
            return info.value

        exc = asyncio.run(run())
        assert 0.05 <= exc.retry_after <= 30.0
        assert exc.pending == 4

    def test_validation(self):
        async def run():
            scan = RecordingScan()
            with pytest.raises(ValueError):
                MicroBatcher(scan, max_batch=0)
            with pytest.raises(ValueError):
                MicroBatcher(scan, linger_ms=-1)
            with pytest.raises(ValueError):
                MicroBatcher(scan, max_batch=10, max_pending=5)
            b = MicroBatcher(scan)
            with pytest.raises(RuntimeError, match="not running"):
                b.submit([1])  # never started
            await b.start()
            with pytest.raises(ValueError, match="at least one key"):
                b.submit([])
            await b.stop()

        asyncio.run(run())


class TestFailureAndShutdown:
    def test_failed_scan_fails_every_ticket_in_flush(self):
        async def run():
            scan = RecordingScan(fail=True)
            b = MicroBatcher(scan, max_batch=10, linger_ms=5)
            await b.start()
            t1, t2 = b.submit([1]), b.submit([2])
            await asyncio.wait_for(asyncio.gather(t1.wait(), t2.wait()), timeout=2)
            await b.stop()
            return t1, t2

        t1, t2 = asyncio.run(run())
        for t in (t1, t2):
            assert t.status == "failed"
            assert "scan exploded" in t.error
            assert t.as_dict()["error"] == t.error
            assert "results" not in t.as_dict()

    def test_stop_with_drain_flushes_backlog(self):
        async def run():
            scan = RecordingScan()
            b = MicroBatcher(scan, max_batch=1000, linger_ms=60_000)
            await b.start()
            ticket = b.submit([1, 2, 3])
            await b.stop(drain=True)  # must not wait out the 60 s linger
            return scan.batches, ticket.status

        batches, status = asyncio.run(run())
        assert batches == [[1, 2, 3]] and status == "done"

    def test_stop_without_drain_fails_pending(self):
        async def run():
            scan = RecordingScan()
            b = MicroBatcher(scan, max_batch=1000, linger_ms=60_000)
            await b.start()
            ticket = b.submit([1, 2, 3])
            await b.stop(drain=False)
            return scan.batches, ticket

        batches, ticket = asyncio.run(run())
        assert batches == []
        assert ticket.status == "failed"
        assert "shutting down" in ticket.error


async def _wait_entered(scan: RecordingScan) -> None:
    while scan.entered is None:
        await asyncio.sleep(0.001)
    await scan.entered.wait()
