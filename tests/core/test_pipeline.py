"""Tests for the disk-streamed, checkpointed batch-GCD pipeline.

The load-bearing property: however a run is interrupted or resumed, the
final hit set equals the in-memory ``batch_gcd`` oracle on the same
moduli — and, for planted corpora, the ground truth.
"""

import dataclasses
import errno
import io
import json
import math
import multiprocessing
import random

import pytest

from repro.core import pipeline
from repro.core.attack import find_shared_primes
from repro.core.batch_gcd import product_tree
from repro.core.checkpoint import MANIFEST_NAME, CheckpointStore
from repro.core.pipeline import (
    PipelineConfig,
    _leaf_stage,
    _product_stage,
    _remainder_stage,
    level_sizes,
    quick_check,
    run_pipeline,
    stage_plan,
)
from repro.core.spool import read_blob, write_blob
from repro.resilience.faults import ENV_VAR, reset_plan
from repro.resilience.supervisor import ChunkSupervisor
from repro.util.intops import resolve_backend
from repro.rsa.corpus import generate_weak_corpus
from repro.rsa.primes import generate_prime
from repro.telemetry import Telemetry


class _Kill(RuntimeError):
    """Injected crash: simulates the process dying between stages."""


def _kill_after(stage_name):
    def hook(stage):
        if stage == stage_name:
            raise _Kill(stage)

    return hook


@pytest.fixture(scope="module")
def corpus():
    return generate_weak_corpus(
        12, 64, shared_groups=(2, 3), duplicates=1, seed=3
    )


@pytest.fixture(scope="module")
def oracle_hits(corpus):
    report = find_shared_primes(
        corpus.moduli, backend="batch", early_terminate=False
    )
    return {(h.i, h.j, h.prime) for h in report.hits}


def _hit_triples(result):
    return {(h.i, h.j, h.prime) for h in result.hits}


ALL_STAGES = [name for name, _ in stage_plan(12)]


class TestPlan:
    def test_level_sizes_halve_with_carry(self):
        assert level_sizes(12) == [12, 6, 3, 2, 1]
        assert level_sizes(2) == [2, 1]

    @pytest.mark.parametrize("n", [2, 3, 7, 12, 100])
    def test_plan_shape(self, n):
        plan = stage_plan(n)
        top = len(level_sizes(n)) - 1
        assert plan[0] == ("ingest", "product-000.bin")
        assert plan[-2:] == [("leaf", "gcds.bin"), ("pairing", "hits.json")]
        assert len(plan) == 2 * top + 3

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            level_sizes(0)


class TestFullRun:
    def test_matches_oracle_and_ground_truth(self, corpus, oracle_hits, tmp_path):
        result = run_pipeline(
            corpus.moduli, PipelineConfig(spool_dir=tmp_path)
        )
        assert _hit_triples(result) == oracle_hits
        assert result.hit_pairs == corpus.weak_pair_set()
        assert result.n_moduli == 12
        assert result.levels == 4
        assert result.stages_run == ALL_STAGES
        assert not result.resumed

    def test_all_stage_blobs_on_disk(self, corpus, tmp_path):
        run_pipeline(corpus.moduli, PipelineConfig(spool_dir=tmp_path))
        for _, blob in stage_plan(12):
            assert (tmp_path / blob).exists()
        manifest = CheckpointStore(tmp_path).load()
        assert [r.name for r in manifest.stages] == ALL_STAGES
        assert manifest.config["n_moduli"] == 12

    def test_counters_match_manifest(self, corpus, oracle_hits, tmp_path):
        result = run_pipeline(corpus.moduli, PipelineConfig(spool_dir=tmp_path))
        assert _hit_triples(result) == oracle_hits
        counters = result.metrics["counters"]
        assert counters["pipeline.moduli"] == 12
        manifest = CheckpointStore(tmp_path).load()
        assert counters["pipeline.bytes_spilled"] == sum(
            record.nbytes for record in manifest.stages
        )

    def test_clean_corpus_has_no_hits(self, tmp_path):
        clean = generate_weak_corpus(6, 64, shared_groups=(2,), seed=9)
        moduli = [n for i, n in enumerate(clean.moduli) if i not in
                  {w for p in clean.weak_pairs for w in (p.i, p.j)}]
        assert len(moduli) >= 4
        result = run_pipeline(moduli, PipelineConfig(spool_dir=tmp_path))
        assert result.hits == []
        hits_doc = json.loads((tmp_path / "hits.json").read_text())
        assert hits_doc == {"hits": [], "flagged": 0}

    def test_rejects_even_modulus(self, tmp_path):
        with pytest.raises(ValueError, match="odd"):
            run_pipeline(
                [33, 34, 35], PipelineConfig(spool_dir=tmp_path, retries=0)
            )

    def test_rejects_single_modulus(self, tmp_path):
        with pytest.raises(ValueError, match="at least two"):
            run_pipeline([33], PipelineConfig(spool_dir=tmp_path, retries=0))


class TestStageBodies:
    """Each stage streams its input blobs record by record into one output."""

    B = resolve_backend("python")

    def test_product_stage_pairs_and_carries_odd_node(self, tmp_path):
        write_blob(tmp_path / "level.bin", [3, 5, 7])
        info = _product_stage(tmp_path / "level.bin", tmp_path / "up.bin", self.B)
        assert read_blob(tmp_path / "up.bin") == [15, 7]
        assert info.count == 2

    def test_remainder_stage_cofactor_step(self, tmp_path):
        # levels [7, 11, 13] -> [77, 13] -> [1001]: every node gets
        # (N/v) mod v, the root's children from u = 1 (no parent blob) and
        # the carried 13 keeps its parent's residue
        n_total = 7 * 11 * 13
        write_blob(tmp_path / "level1.bin", [77, 13])
        write_blob(tmp_path / "level0.bin", [7, 11, 13])
        _remainder_stage(None, tmp_path / "level1.bin", tmp_path / "rem1.bin", self.B)
        assert read_blob(tmp_path / "rem1.bin") == [n_total // 77 % 77, n_total // 13 % 13]
        _remainder_stage(
            tmp_path / "rem1.bin", tmp_path / "level0.bin", tmp_path / "rem0.bin", self.B
        )
        assert read_blob(tmp_path / "rem0.bin") == [n_total // v % v for v in (7, 11, 13)]

    def test_leaf_stage_recovers_shared_prime(self, tmp_path):
        moduli = [7 * 11, 7 * 13, 17 * 19]
        n_total = math.prod(moduli)
        write_blob(tmp_path / "moduli.bin", moduli)
        write_blob(tmp_path / "rem.bin", [n_total // n % n for n in moduli])
        _leaf_stage(
            tmp_path / "moduli.bin", tmp_path / "rem.bin", tmp_path / "gcds.bin", self.B
        )
        assert read_blob(tmp_path / "gcds.bin") == [7, 7, 1]


class TestCrashResume:
    @pytest.mark.parametrize("killed_at", ALL_STAGES[:-1])
    def test_resume_after_kill_matches_uninterrupted(
        self, corpus, oracle_hits, tmp_path, killed_at
    ):
        config = PipelineConfig(spool_dir=tmp_path)
        with pytest.raises(_Kill):
            run_pipeline(corpus.moduli, config, _stage_hook=_kill_after(killed_at))

        resumed = run_pipeline(
            corpus.moduli, PipelineConfig(spool_dir=tmp_path, resume=True)
        )
        assert _hit_triples(resumed) == oracle_hits
        assert resumed.resumed
        done = ALL_STAGES[: ALL_STAGES.index(killed_at) + 1]
        assert resumed.stages_skipped == done
        assert resumed.stages_run == ALL_STAGES[len(done):]

    def test_kill_after_pairing_resumes_to_noop(self, corpus, oracle_hits, tmp_path):
        config = PipelineConfig(spool_dir=tmp_path)
        with pytest.raises(_Kill):
            run_pipeline(corpus.moduli, config, _stage_hook=_kill_after("pairing"))
        resumed = run_pipeline(
            corpus.moduli, PipelineConfig(spool_dir=tmp_path, resume=True)
        )
        assert resumed.stages_run == []
        assert resumed.stages_skipped == ALL_STAGES
        # hits come back from hits.json, not recomputation
        assert _hit_triples(resumed) == oracle_hits

    def test_manifest_with_deleted_pool_knobs_resumes(
        self, corpus, oracle_hits, tmp_path
    ):
        """Older runs recorded their shard size, chunking budget and pool size
        in the manifest; none of them shaped a blob, so such a spool resumes
        with every stage skipped and the old keys are kept, unread."""
        run_pipeline(corpus.moduli, PipelineConfig(spool_dir=tmp_path))
        store = CheckpointStore(tmp_path)
        manifest = store.load()
        manifest.config = {
            "n_moduli": 12,
            "shard_size": 4,
            "memory_budget": 4096,
            "workers": 2,
            "backend": manifest.config["backend"],
            "remainder": "cofactor",
        }
        store.save(manifest)

        resumed = run_pipeline(
            corpus.moduli, PipelineConfig(spool_dir=tmp_path, resume=True)
        )
        assert resumed.stages_run == []
        assert resumed.stages_skipped == ALL_STAGES
        assert _hit_triples(resumed) == oracle_hits
        assert store.load().config == manifest.config

    def test_squared_remainder_spool_reruns_from_remainders(
        self, corpus, tmp_path
    ):
        """A spool from the older squared descent (``N mod v²`` blobs, no
        format marker) keeps its ingest and product stages; every
        ``remainder.*`` stage and what follows reruns, since the old blobs
        still hash clean but would make every leaf ``gcd(n, N mod n²) = n``."""
        run_pipeline(corpus.moduli, PipelineConfig(spool_dir=tmp_path))
        store = CheckpointStore(tmp_path)
        manifest = store.load()
        levels = product_tree(corpus.moduli)
        rems = levels[-1]
        squared = {}
        for k in range(len(levels) - 2, -1, -1):
            rems = [rems[i // 2] % (v * v) for i, v in enumerate(levels[k])]
            squared[f"remainder.{k}"] = write_blob(tmp_path / f"remainder-{k:03d}.bin", rems)
        manifest.stages = [
            dataclasses.replace(r, nbytes=squared[r.name].nbytes, sha256=squared[r.name].sha256)
            if r.name in squared else r
            for r in manifest.stages
        ]
        manifest.config = {"n_moduli": 12, "backend": manifest.config["backend"]}
        store.save(manifest)
        old_bytes = sum(info.nbytes for info in squared.values())

        resumed = run_pipeline(
            corpus.moduli, PipelineConfig(spool_dir=tmp_path, resume=True)
        )
        kept = [name for name in ALL_STAGES if name.startswith(("ingest", "product"))]
        assert resumed.stages_skipped == kept
        assert resumed.stages_run == ALL_STAGES[len(kept):]
        assert resumed.hit_pairs == corpus.weak_pair_set()
        after = store.load()
        assert after.config["remainder"] == "cofactor"
        assert read_blob(tmp_path / "remainder-000.bin") == [
            levels[-1][0] // n % n for n in corpus.moduli
        ]
        new_bytes = sum(r.nbytes for r in after.stages if r.name in squared)
        assert new_bytes < old_bytes

        # and the rewritten spool now resumes with nothing to do
        again = run_pipeline(
            corpus.moduli, PipelineConfig(spool_dir=tmp_path, resume=True)
        )
        assert again.stages_run == []

    def test_resume_without_flag_restarts(self, corpus, tmp_path):
        config = PipelineConfig(spool_dir=tmp_path)
        with pytest.raises(_Kill):
            run_pipeline(corpus.moduli, config, _stage_hook=_kill_after("product.2"))
        fresh = run_pipeline(corpus.moduli, config)  # resume=False
        assert not fresh.resumed
        assert fresh.stages_run == ALL_STAGES

    def test_resume_on_empty_dir_is_fresh_run(self, corpus, oracle_hits, tmp_path):
        result = run_pipeline(
            corpus.moduli, PipelineConfig(spool_dir=tmp_path, resume=True)
        )
        assert not result.resumed
        assert _hit_triples(result) == oracle_hits

    def test_corrupt_blob_invalidates_suffix(self, corpus, oracle_hits, tmp_path):
        config = PipelineConfig(spool_dir=tmp_path)
        with pytest.raises(_Kill):
            run_pipeline(corpus.moduli, config, _stage_hook=_kill_after("remainder.2"))
        target = tmp_path / "product-002.bin"
        target.write_bytes(target.read_bytes()[:-1])  # truncate: hash mismatch

        resumed = run_pipeline(
            corpus.moduli, PipelineConfig(spool_dir=tmp_path, resume=True)
        )
        assert _hit_triples(resumed) == oracle_hits
        assert "product.2" in resumed.stages_run  # re-ran from the corruption
        assert resumed.stages_skipped == ["ingest", "product.1"]

    def test_corrupt_manifest_restarts_cleanly(self, corpus, oracle_hits, tmp_path):
        config = PipelineConfig(spool_dir=tmp_path)
        with pytest.raises(_Kill):
            run_pipeline(corpus.moduli, config, _stage_hook=_kill_after("leaf"))
        (tmp_path / MANIFEST_NAME).write_text("{corrupt")

        resumed = run_pipeline(
            corpus.moduli, PipelineConfig(spool_dir=tmp_path, resume=True)
        )
        assert not resumed.resumed
        assert resumed.stages_run == ALL_STAGES
        assert _hit_triples(resumed) == oracle_hits

    def test_corrupt_ingest_blob_restarts_and_rereads_source(
        self, corpus, oracle_hits, tmp_path
    ):
        config = PipelineConfig(spool_dir=tmp_path)
        with pytest.raises(_Kill):
            run_pipeline(corpus.moduli, config, _stage_hook=_kill_after("product.1"))
        (tmp_path / "product-000.bin").write_bytes(b"RGSPOOL1")

        resumed = run_pipeline(
            corpus.moduli, PipelineConfig(spool_dir=tmp_path, resume=True)
        )
        assert not resumed.resumed  # nothing trustworthy survived
        assert _hit_triples(resumed) == oracle_hits

    def test_retry_recovers_from_transient_failure(self, corpus, oracle_hits, tmp_path):
        calls = {"n": 0}
        real_moduli = corpus.moduli

        class FlakyOnce:
            def __iter__(self):
                calls["n"] += 1
                if calls["n"] == 1:
                    raise OSError("transient read failure")
                return iter(real_moduli)

        result = run_pipeline(
            FlakyOnce(), PipelineConfig(spool_dir=tmp_path, retries=1)
        )
        assert _hit_triples(result) == oracle_hits
        assert result.metrics["counters"]["pipeline.stage_retries"] == 1

    def test_retries_exhausted_raises_last_error(self, tmp_path):
        class AlwaysBroken:
            def __iter__(self):
                raise OSError("disk on fire")

        with pytest.raises(OSError, match="disk on fire"):
            run_pipeline(
                AlwaysBroken(), PipelineConfig(spool_dir=tmp_path, retries=2)
            )

    def test_one_shot_source_works_when_ingest_succeeds(
        self, corpus, oracle_hits, tmp_path
    ):
        result = run_pipeline(
            iter(corpus.moduli), PipelineConfig(spool_dir=tmp_path)
        )
        assert _hit_triples(result) == oracle_hits

    def test_one_shot_source_failure_is_not_retried(self, corpus, tmp_path):
        # Retrying a partially consumed generator would re-read only the
        # unconsumed tail and commit a silently truncated corpus.
        def flaky_gen():
            yield from corpus.moduli[:5]
            raise OSError("transient read failure")

        with pytest.raises(OSError, match="transient"):
            run_pipeline(
                flaky_gen(), PipelineConfig(spool_dir=tmp_path, retries=3)
            )
        # nothing was committed: no truncated ingest blob to resume from
        assert CheckpointStore(tmp_path).load() is None

    def test_retry_does_not_double_count_stage_metrics(self, corpus, tmp_path):
        calls = {"n": 0}
        real_moduli = corpus.moduli

        class FlakyMidway:
            def __iter__(self):
                calls["n"] += 1
                if calls["n"] == 1:
                    def gen():
                        yield from real_moduli[:7]  # part of the corpus, then die
                        raise OSError("transient read failure")

                    return gen()
                return iter(real_moduli)

        result = run_pipeline(
            FlakyMidway(),
            PipelineConfig(spool_dir=tmp_path, retries=1),
        )
        counters = result.metrics["counters"]
        assert counters["pipeline.stage_retries"] == 1
        # only the successful attempt's records are counted
        assert counters["pipeline.moduli"] == 12


class TestTelemetry:
    def test_events_and_metrics(self, corpus, tmp_path):
        stream = io.StringIO()
        tel = Telemetry.create(event_stream=stream)
        result = run_pipeline(
            corpus.moduli, PipelineConfig(spool_dir=tmp_path), telemetry=tel
        )
        events = [json.loads(line) for line in stream.getvalue().splitlines()]
        assert [e["seq"] for e in events] == list(range(len(events)))
        names = [e["event"] for e in events]
        assert names[0] == "pipeline.stage.start"
        assert names[-1] == "pipeline.done"
        assert names.count("pipeline.stage.done") == len(ALL_STAGES)
        assert result.metrics["counters"]["pipeline.moduli"] == 12
        assert "pipeline" in result.metrics["stages"]


#: planted pairs of the wide corpus: key j reuses key i's first half
WIDE_PAIRS = ((0, 63), (5, 6), (17, 40))


@pytest.fixture(scope="module")
def wide_moduli():
    """64 moduli of about 2048 bits: each half is the 8th power of a
    128-bit prime (cheap to draw, and the GCDs do not care).  From level 2
    up the nodes exceed ``DIV_CUTOFF_BITS``, so with two CPUs remainder
    levels 2, 3 and 4 run on the pool, two work units each."""
    rng = random.Random(27)
    halves = [generate_prime(128, rng) ** 8 for _ in range(128)]
    moduli = [halves[2 * k] * halves[2 * k + 1] for k in range(64)]
    for i, j in WIDE_PAIRS:
        moduli[j] = halves[2 * i] * halves[2 * j + 1]
    return moduli


@pytest.fixture(scope="module")
def inline_spool(wide_moduli, tmp_path_factory):
    """The wide corpus run on one CPU: the bytes a pooled run must match."""
    spool = tmp_path_factory.mktemp("inline")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "_usable_cpus", lambda: 1)
        result = run_pipeline(wide_moduli, PipelineConfig(spool_dir=spool))
    assert result.metrics["gauges"]["pipeline.workers"] == 1
    assert result.hit_pairs == set(WIDE_PAIRS)
    return spool


@pytest.fixture
def two_cpus(monkeypatch):
    """Select the pooled path the way a 2-CPU host does."""
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 2)
    reset_plan()
    yield
    reset_plan()


def _same_bytes(spool, reference, n=64):
    for _, blob in stage_plan(n)[1:]:
        assert (spool / blob).read_bytes() == (reference / blob).read_bytes(), blob


class TestRemainderPool:
    """The pooled remainder stages write what the inline ones write."""

    def test_pool_levels_follow_node_size(self, wide_moduli, inline_spool):
        ingest = CheckpointStore(inline_spool).load().stage("ingest")
        assert pipeline._pooled_levels(ingest, level_sizes(64), workers=2) == {2, 3, 4}
        assert pipeline._pooled_levels(ingest, level_sizes(64), workers=1) == set()

    def test_pooled_run_writes_the_same_bytes(
        self, wide_moduli, inline_spool, two_cpus, tmp_path
    ):
        result = run_pipeline(wide_moduli, PipelineConfig(spool_dir=tmp_path))
        assert result.metrics["gauges"]["pipeline.workers"] == 2
        assert result.hit_pairs == set(WIDE_PAIRS)
        _same_bytes(tmp_path, inline_spool)
        assert multiprocessing.active_children() == []  # reaped

    def test_one_cpu_builds_no_pool(self, wide_moduli, monkeypatch, tmp_path):
        monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 1)

        def no_pool(*args):
            raise AssertionError("a one-CPU run built a pool")

        monkeypatch.setattr(pipeline, "_remainder_pool", no_pool)
        result = run_pipeline(wide_moduli, PipelineConfig(spool_dir=tmp_path))
        assert result.hit_pairs == set(WIDE_PAIRS)

    def test_worker_death_heals(
        self, wide_moduli, inline_spool, two_cpus, monkeypatch, tmp_path
    ):
        # every pool worker dies at its 2nd unit, in every generation
        monkeypatch.setenv(ENV_VAR, "chunk.execute#2=exit")
        result = run_pipeline(wide_moduli, PipelineConfig(spool_dir=tmp_path))
        assert result.metrics["counters"]["resilience.worker_crashes"] >= 1
        assert result.hit_pairs == set(WIDE_PAIRS)
        _same_bytes(tmp_path, inline_spool)
        assert multiprocessing.active_children() == []

    def test_write_failure_with_units_in_flight_retries_to_the_same_blobs(
        self, wide_moduli, inline_spool, two_cpus, monkeypatch, tmp_path
    ):
        # the first write of remainder level 2 fails after its first
        # residue, while the level's second unit is still in flight
        real_write = pipeline.write_blob
        failed = []

        def flaky_write(path, values):
            if path.name != "remainder-002.bin" or failed:
                return real_write(path, values)

            def cut():
                yield next(iter(values))
                failed.append(path.name)
                raise OSError(errno.EIO, "injected: i/o error [spool.write]")

            return real_write(path, cut())

        dropped = []
        real_discard = ChunkSupervisor.discard

        def discard(self):
            dropped.append(self.inflight)
            real_discard(self)
            assert self.inflight == 0

        monkeypatch.setattr(pipeline, "write_blob", flaky_write)
        monkeypatch.setattr(ChunkSupervisor, "discard", discard)
        result = run_pipeline(wide_moduli, PipelineConfig(spool_dir=tmp_path))
        assert failed == ["remainder-002.bin"]
        assert max(dropped) >= 1  # the failed attempt left a unit behind
        assert result.metrics["counters"]["pipeline.stage_retries"] == 1
        assert result.hit_pairs == set(WIDE_PAIRS)
        _same_bytes(tmp_path, inline_spool)

    @pytest.mark.parametrize("killed_at", ["product.6", "remainder.4", "remainder.2"])
    def test_kill_between_stages_resumes_to_the_same_hits(
        self, wide_moduli, inline_spool, two_cpus, tmp_path, killed_at
    ):
        with pytest.raises(_Kill):
            run_pipeline(
                wide_moduli,
                PipelineConfig(spool_dir=tmp_path),
                _stage_hook=_kill_after(killed_at),
            )
        assert multiprocessing.active_children() == []
        resumed = run_pipeline(
            wide_moduli, PipelineConfig(spool_dir=tmp_path, resume=True)
        )
        assert resumed.stages_skipped[-1] == killed_at
        assert resumed.hit_pairs == set(WIDE_PAIRS)
        _same_bytes(tmp_path, inline_spool)


class TestQuickCheck:
    def test_against_corpus_moduli(self):
        # 91 = 7 * 13; only 7 divides the corpus product
        assert quick_check([91, 13], corpus_moduli=[33, 35, 55]) == [7, 1]

    def test_member_modulus_flags_as_duplicate(self):
        assert quick_check([33], corpus_moduli=[33, 35, 55]) == [33]

    def test_against_finished_spool(self, corpus, tmp_path):
        run_pipeline(corpus.moduli, PipelineConfig(spool_dir=tmp_path))
        root = read_blob(tmp_path / "product-004.bin")[0]
        probe = corpus.moduli[0]
        got = quick_check([probe], spool_dir=tmp_path)
        assert got == [probe]  # member of the corpus
        assert root % probe == 0

    def test_spool_without_tree_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="manifest"):
            quick_check([7], spool_dir=tmp_path)

    @pytest.mark.parametrize("killed_at", ["ingest", "product.1", "product.3"])
    def test_partial_tree_spool_rejected(self, corpus, tmp_path, killed_at):
        # A run killed mid-tree has partial-level blobs whose first value is
        # NOT the corpus product; GCD-ing against it gives false negatives.
        with pytest.raises(_Kill):
            run_pipeline(
                corpus.moduli,
                PipelineConfig(spool_dir=tmp_path),
                _stage_hook=_kill_after(killed_at),
            )
        with pytest.raises(ValueError, match="root"):
            quick_check([corpus.moduli[0]], spool_dir=tmp_path)

    def test_exactly_one_source_required(self, tmp_path):
        with pytest.raises(ValueError, match="exactly one"):
            quick_check([7])
        with pytest.raises(ValueError, match="exactly one"):
            quick_check([7], spool_dir=tmp_path, corpus_moduli=[15])
