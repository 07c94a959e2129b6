"""Chaos tests: the parallel scan under injected worker death, the batch
pipeline under disk faults.

Worker-side faults arm through the ``REPRO_FAULTS`` environment variable
(inherited by pool workers); parent-side IO faults arm programmatically
with ``install_plan``.  Either way the injection is deterministic, so the
assertions are exact, not probabilistic.
"""

import errno

import pytest

from repro.core.checkpoint import CheckpointStore
from repro.core.parallel import find_shared_primes_parallel
from repro.core.pipeline import PipelineConfig, run_pipeline
from repro.resilience.faults import ENV_VAR, install_plan, parse_spec, reset_plan
from repro.rsa.corpus import generate_weak_corpus
from repro.telemetry import Telemetry

BITS = 64


@pytest.fixture(autouse=True)
def _clean_plan():
    reset_plan()
    yield
    reset_plan()


@pytest.fixture(scope="module")
def corpus():
    return generate_weak_corpus(24, BITS, shared_groups=(2, 3), seed=9)


def _run(corpus, spool_dir, *, telemetry=None, **overrides):
    config = PipelineConfig(spool_dir=spool_dir, **overrides)
    return run_pipeline(list(corpus.moduli), config, telemetry=telemetry)


def _scan(corpus, *, telemetry=None):
    return find_shared_primes_parallel(
        list(corpus.moduli), processes=2, group_size=4, telemetry=telemetry
    )


class TestWorkerKillEquivalence:
    def test_killed_workers_leave_hits_identical(self, corpus, monkeypatch):
        baseline = _scan(corpus)
        assert baseline.hit_pairs == corpus.weak_pair_set()

        # every pool worker dies at its 2nd block; the supervisor respawns
        # and resubmits, so the output is identical by construction.  The
        # default attempt budget must survive this: a crash is only charged
        # to blocks that can have been executing, so innocent blocks
        # sharing the window never reach the poison threshold.
        monkeypatch.setenv(ENV_VAR, "chunk.execute#2=exit")
        reset_plan()  # drop the plan the baseline run cached from the empty env
        tel = Telemetry.create()
        chaotic = _scan(corpus, telemetry=tel)

        assert chaotic.hit_pairs == baseline.hit_pairs == corpus.weak_pair_set()
        assert [(h.i, h.j, h.prime) for h in chaotic.hits] == [
            (h.i, h.j, h.prime) for h in baseline.hits
        ]
        counters = tel.registry.counters
        assert counters["resilience.worker_crashes"].value >= 1
        assert counters["resilience.pool_respawns"].value >= 1


class TestDiskFaults:
    def test_enospc_fails_fast_without_retry(self, corpus, tmp_path):
        install_plan(parse_spec("spool.write#1=enospc"))
        tel = Telemetry.create()
        with pytest.raises(OSError) as info:
            _run(corpus, tmp_path, telemetry=tel, retries=2)
        assert info.value.errno == errno.ENOSPC
        # fatal taxonomy: a full disk is not retried
        assert "pipeline.stage_retries" not in tel.registry.counters

    def test_transient_ioerror_is_retried_through(self, corpus, tmp_path):
        install_plan(parse_spec("spool.write#1=ioerror"))
        tel = Telemetry.create()
        result = _run(corpus, tmp_path, telemetry=tel, retries=1)
        assert result.hit_pairs == corpus.weak_pair_set()
        assert tel.registry.counters["pipeline.stage_retries"].value == 1
        # rollback semantics: the failed attempt's records are not counted
        assert tel.registry.counters["pipeline.moduli"].value == corpus.n_keys

    def test_manifest_commit_fault_keeps_resume_consistent(self, corpus, tmp_path):
        # the eighth manifest rewrite dies persistently: the run fails, but
        # every batch committed before it is durable and resumable
        install_plan(parse_spec("manifest.commit#8+=ioerror"))
        with pytest.raises(OSError):
            _run(corpus, tmp_path, retries=0)
        reset_plan()
        resumed = _run(corpus, tmp_path, resume=True)
        assert resumed.hit_pairs == corpus.weak_pair_set()
        assert resumed.resumed
        assert resumed.stages_skipped  # the pre-fault prefix survived
        assert CheckpointStore(tmp_path).load() is not None
