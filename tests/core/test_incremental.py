"""Tests for the incremental (streamed) weak-key scanner."""

import json
import math

import pytest

from repro.core import incremental
from repro.core.attack import find_shared_primes
from repro.core.incremental import IncrementalScanner
from repro.rsa.corpus import generate_weak_corpus
from repro.telemetry import Telemetry

BITS = 64

#: the tier names that version 1–3 snapshots record: every one restores
#: onto the product tree, whichever it names
RECORDED_ENGINES = ("native", "ptree", "auto", "all2all", "bulk")

#: the tiers of the three-tier scanner, as its version-3 snapshots name them
V3_ENGINES = ("native", "ptree", "auto")

#: a version-2 snapshot exactly as the five-tier scanner wrote it (engine
#: ``all2all``, 32-bit products of 16-bit primes, two batches of three)
LEGACY_V2_SNAPSHOT = (
    '{"version": 2, "bits": 32, "engine": "all2all", "int_backend": "python",'
    ' "algorithm": "approx", "d": 32, "chunk_pairs": 4096, "early_terminate": true,'
    ' "moduli": [2417000533, 2417098847, 2419164161, 2420639999, 2419852639,'
    ' 2422313053], "hits": [[0, 1, 49157], [2, 4, 49177]],'
    ' "total_pairs_tested": 15, "batches": 2}'
)


@pytest.fixture(scope="module")
def corpus():
    # one pair inside the first batch, one triple spanning batches
    return generate_weak_corpus(18, BITS, shared_groups=(2, 3), seed=31)


class TestIncrementalScanner:
    def test_streamed_equals_snapshot(self, corpus):
        snapshot = find_shared_primes(corpus.moduli, backend="bulk", group_size=6)
        scanner = IncrementalScanner(bits=BITS)
        for start in range(0, corpus.n_keys, 5):
            scanner.add_batch(corpus.moduli[start : start + 5])
        assert {(h.i, h.j) for h in scanner.all_hits} == snapshot.hit_pairs
        assert scanner.coverage_is_complete()

    def test_cross_batch_hits_found_at_arrival(self, corpus):
        weak = corpus.weak_pair_set()
        scanner = IncrementalScanner(bits=BITS)
        found: set[tuple[int, int]] = set()
        for start in range(0, corpus.n_keys, 4):
            rep = scanner.add_batch(corpus.moduli[start : start + 4])
            for i, j in rep.hit_pairs:
                # a hit appears exactly when its *second* member arrives
                assert j >= start
                found.add((i, j))
        assert found == weak

    def test_pairs_tested_is_exactly_all_pairs(self, corpus):
        scanner = IncrementalScanner(bits=BITS)
        total = 0
        for start in range(0, corpus.n_keys, 7):
            rep = scanner.add_batch(corpus.moduli[start : start + 7])
            total += rep.pairs_tested
        m = corpus.n_keys
        assert total == m * (m - 1) // 2

    def test_hit_primes_divide_moduli(self, corpus):
        scanner = IncrementalScanner(bits=BITS)
        scanner.add_batch(corpus.moduli)
        for h in scanner.all_hits:
            assert corpus.moduli[h.i] % h.prime == 0
            assert corpus.moduli[h.j] % h.prime == 0
            assert math.gcd(corpus.moduli[h.i], corpus.moduli[h.j]) == h.prime

    def test_single_key_batch(self, corpus):
        scanner = IncrementalScanner(bits=BITS)
        scanner.add_batch(corpus.moduli[:1])
        rep = scanner.add_batch(corpus.moduli[1:2])
        assert rep.pairs_tested == 1

    def test_empty_batch(self, corpus):
        scanner = IncrementalScanner(bits=BITS)
        scanner.add_batch(corpus.moduli[:3])
        rep = scanner.add_batch([])
        assert rep.pairs_tested == 0
        assert rep.new_keys == 0

    def test_wrong_size_rejected(self):
        scanner = IncrementalScanner(bits=BITS)
        with pytest.raises(ValueError):
            scanner.add_batch([(1 << 90) + 1])

    def test_even_rejected(self):
        scanner = IncrementalScanner(bits=BITS)
        with pytest.raises(ValueError):
            scanner.add_batch([1 << 63])

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            IncrementalScanner(bits=15)
        with pytest.raises(ValueError):
            IncrementalScanner(bits=65)


class TestSnapshotRestore:
    def test_roundtrip_equals_uninterrupted_run(self, corpus):
        straight = IncrementalScanner(bits=BITS)
        for start in range(0, corpus.n_keys, 6):
            straight.add_batch(corpus.moduli[start : start + 6])

        interrupted = IncrementalScanner(bits=BITS)
        interrupted.add_batch(corpus.moduli[:6])
        resumed = IncrementalScanner.restore(interrupted.snapshot())
        for start in range(6, corpus.n_keys, 6):
            resumed.add_batch(corpus.moduli[start : start + 6])

        assert resumed.moduli == straight.moduli
        assert resumed.all_hits == straight.all_hits
        assert resumed.total_pairs_tested == straight.total_pairs_tested
        assert resumed.coverage_is_complete()

    def test_restore_never_rescans_or_rereports(self, corpus):
        scanner = IncrementalScanner(bits=BITS)
        scanner.add_batch(corpus.moduli[:10])
        old_hits = set(scanner.all_hits)
        resumed = IncrementalScanner.restore(scanner.snapshot())
        rep = resumed.add_batch(corpus.moduli[10:])
        k, m = corpus.n_keys - 10, 10
        assert rep.pairs_tested == k * m + k * (k - 1) // 2
        # batch reports only ever carry hits touching the new batch
        assert all(h.j >= 10 for h in rep.hits)
        assert not old_hits & set(rep.hits)

    def test_snapshot_is_json_ready(self, corpus):
        scanner = IncrementalScanner(bits=BITS)
        scanner.add_batch(corpus.moduli[:5])
        back = IncrementalScanner.restore(json.loads(json.dumps(scanner.snapshot())))
        assert back.moduli == scanner.moduli

    def test_restore_config_overrides(self, corpus):
        scanner = IncrementalScanner(bits=BITS)
        scanner.add_batch(corpus.moduli[:5])
        resumed = IncrementalScanner.restore(scanner.snapshot(), int_backend="python")
        assert resumed.backend.name == "python"
        # the int backend is the only override; corpus facts cannot change
        with pytest.raises(TypeError):
            IncrementalScanner.restore(scanner.snapshot(), bits=128)

    def test_restore_rejects_corrupt_snapshots(self, corpus):
        scanner = IncrementalScanner(bits=BITS)
        scanner.add_batch(corpus.moduli[:4])
        good = scanner.snapshot()
        with pytest.raises(ValueError, match="version"):
            IncrementalScanner.restore({**good, "version": 99})
        with pytest.raises(ValueError, match="invalid"):
            IncrementalScanner.restore({**good, "moduli": [6]})
        with pytest.raises(ValueError, match="out of range"):
            IncrementalScanner.restore({**good, "hits": [[0, 9, 3]]})
        with pytest.raises(ValueError, match="impossible"):
            IncrementalScanner.restore({**good, "total_pairs_tested": 1000})
        with pytest.raises(ValueError, match="dict"):
            IncrementalScanner.restore("nope")


class TestEngineTiers:
    """The one tier, the product tree, in memory and spool-backed."""

    def test_spool_and_memory_report_identical_streams(self, corpus, tmp_path):
        scanners = {
            "memory": IncrementalScanner(bits=BITS),
            "spool": IncrementalScanner(bits=BITS, spool_dir=tmp_path / "pt"),
        }
        oracle = find_shared_primes(corpus.moduli, backend="scalar")
        for start in range(0, corpus.n_keys, 5):
            batch = corpus.moduli[start : start + 5]
            reports = {k: s.add_batch(list(batch)) for k, s in scanners.items()}
            hit_sets = {k: [(h.i, h.j, h.prime) for h in r.hits] for k, r in reports.items()}
            assert len({str(v) for v in hit_sets.values()}) == 1, hit_sets
            assert {r.engine for r in reports.values()} == {"ptree"}
        for scanner in scanners.values():
            assert {(h.i, h.j) for h in scanner.all_hits} == oracle.hit_pairs
            assert scanner.all_hits == scanners["memory"].all_hits
            assert scanner.coverage_is_complete()

    def test_all_hits_stays_sorted_across_merges(self, corpus):
        scanner = IncrementalScanner(bits=BITS)
        for start in range(0, corpus.n_keys, 3):
            scanner.add_batch(corpus.moduli[start : start + 3])
        keys = [(h.i, h.j) for h in scanner.all_hits]
        assert keys == sorted(keys)
        assert len(scanner.all_hits) >= 2  # the merge path actually merged

    @pytest.mark.parametrize("engine", V3_ENGINES)
    def test_progress_counts_pairs_covered(self, engine):
        corpus = generate_weak_corpus(40, 64, shared_groups=(2, 3), seed="progress")
        telemetry = Telemetry.create(progress_callback=lambda update: None)
        scanner = IncrementalScanner(bits=64, telemetry=telemetry)
        for start in range(0, 40, 10):
            scanner.add_batch(corpus.moduli[start : start + 10])
        assert scanner.total_pairs_tested == 40 * 39 // 2
        assert telemetry.progress.completed == scanner.total_pairs_tested
        # a scanner resumed from the v3 state its tier wrote counts only
        # the pairs it covers itself
        writer = IncrementalScanner(bits=64)
        writer.add_batch(corpus.moduli[:10])
        old = {**writer.snapshot(), "version": 3, "engine": engine}
        telemetry = Telemetry.create(progress_callback=lambda update: None)
        resumed = IncrementalScanner.restore(old, telemetry=telemetry)
        for start in range(10, 40, 10):
            resumed.add_batch(corpus.moduli[start : start + 10])
        assert resumed.total_pairs_tested == 40 * 39 // 2
        assert telemetry.progress.completed == 40 * 39 // 2 - 10 * 9 // 2


class TestSnapshotVersioning:
    def test_snapshot_records_resolved_backend(self, corpus):
        scanner = IncrementalScanner(bits=BITS)
        scanner.add_batch(corpus.moduli[:4])
        snap = scanner.snapshot()
        assert snap["int_backend"] == scanner.backend.name
        assert snap["version"] == incremental.SNAPSHOT_VERSION == 4
        assert "engine" not in snap

    def test_restore_pins_the_recorded_backend(self, corpus):
        scanner = IncrementalScanner(bits=BITS)
        scanner.add_batch(corpus.moduli[:4])
        snap = scanner.snapshot()
        # a host missing the recorded backend must fail loudly, not
        # silently switch arithmetic
        snap["int_backend"] = "gmpy2"
        if "gmpy2" in __import__("repro.util.intops", fromlist=["available_backends"]).available_backends():
            pytest.skip("gmpy2 present; the loud-failure path needs it absent")
        with pytest.raises(ValueError, match="gmpy2"):
            IncrementalScanner.restore(snap)
        # an explicit caller choice still overrides the pin
        back = IncrementalScanner.restore(snap, int_backend="python")
        assert back.backend.name == "python"

    def test_v1_snapshot_still_restores(self, corpus, tmp_path):
        scanner = IncrementalScanner(bits=BITS)
        scanner.add_batch(corpus.moduli[:10])
        v1 = scanner.snapshot()
        v1.update(version=1, engine="native")
        del v1["int_backend"]  # v1 payloads predate the backend record
        resumed = IncrementalScanner.restore(v1, spool_dir=tmp_path / "pt")
        assert resumed._ptree.n_leaves == 10  # tree rebuilt from moduli
        rep = resumed.add_batch(corpus.moduli[10:])
        assert resumed.coverage_is_complete()
        straight = IncrementalScanner(bits=BITS)
        straight.add_batch(corpus.moduli)
        assert resumed.all_hits == straight.all_hits
        assert rep.engine == "ptree"

    @pytest.mark.parametrize("version", (1, 3))
    @pytest.mark.parametrize("engine", RECORDED_ENGINES)
    def test_recorded_engine_is_ignored(self, corpus, tmp_path, engine, version):
        """A v1 or v3 payload names the tier that wrote it; whatever the
        name, the stream carries on over the tree with identical hits."""
        scanner = IncrementalScanner(bits=BITS)
        scanner.add_batch(corpus.moduli[:10])
        old = {**scanner.snapshot(), "version": version, "engine": engine}
        if version == 1:
            del old["int_backend"]
        resumed = IncrementalScanner.restore(old, spool_dir=tmp_path / "pt")
        resumed.add_batch(corpus.moduli[10:])
        straight = IncrementalScanner(bits=BITS)
        straight.add_batch(corpus.moduli)
        assert resumed.all_hits == straight.all_hits
        assert resumed.coverage_is_complete()
        assert "engine" not in resumed.snapshot()

    @pytest.mark.parametrize("engine", RECORDED_ENGINES)
    def test_v2_snapshot_of_a_retired_engine_restores(self, engine, tmp_path):
        # written by the five-tier scanner: a v2 payload recording a tier
        # and the bulk-only knobs, which restore ignores
        v2 = {**json.loads(LEGACY_V2_SNAPSHOT), "engine": engine}
        resumed = IncrementalScanner.restore(v2, spool_dir=tmp_path / "pt")
        assert [(h.i, h.j, h.prime) for h in resumed.all_hits] == [
            tuple(h) for h in v2["hits"]
        ]
        assert resumed.coverage_is_complete()
        assert "chunk_pairs" not in resumed.snapshot()
        assert resumed.snapshot()["version"] == incremental.SNAPSHOT_VERSION
        # the stream carries on from the old state
        fresh = 49157 * 49223
        rep = resumed.add_batch([fresh])
        assert [(h.i, h.j) for h in rep.hits] == [
            (i, 6) for i, n in enumerate(v2["moduli"]) if math.gcd(n, fresh) > 1
        ]
        assert len(rep.hits) == 3
        assert resumed.coverage_is_complete()

    def test_restored_ptree_loads_from_spool(self, corpus, tmp_path):
        scanner = IncrementalScanner(bits=BITS, spool_dir=tmp_path / "pt")
        scanner.add_batch(corpus.moduli[:10])
        telemetry = Telemetry.create()
        resumed = IncrementalScanner.restore(
            scanner.snapshot(), spool_dir=tmp_path / "pt", telemetry=telemetry
        )
        assert telemetry.registry.counter("ptree.rebuilds").value == 0
        assert resumed._ptree.n_leaves == 10
        resumed.add_batch(corpus.moduli[10:])
        assert resumed.coverage_is_complete()


class TestIncrementalTelemetry:
    def test_batch_reports_carry_metrics(self):
        corpus = generate_weak_corpus(20, 64, shared_groups=(2,), seed="inc-tel")
        scanner = IncrementalScanner(bits=64)
        first = scanner.add_batch(corpus.moduli[:10])
        second = scanner.add_batch(corpus.moduli[10:])
        # counters are scanner-lifetime: one snapshot covers both batches
        metrics = scanner.telemetry.snapshot()
        assert metrics["counters"]["incremental.batches"] == 2
        assert (
            metrics["counters"]["scan.pairs_tested"]
            == first.pairs_tested + second.pairs_tested
            == 20 * 19 // 2
        )
        assert metrics["stages"]["batch"]["count"] == 2
        assert first.elapsed_seconds > 0 and second.elapsed_seconds > 0

    def test_elapsed_is_per_batch_even_under_enclosing_spans(self):
        corpus = generate_weak_corpus(12, 64, shared_groups=(2,), seed="inc-span")
        telemetry = Telemetry.create()
        scanner = IncrementalScanner(bits=64, telemetry=telemetry)
        # under an enclosing span the scanner's "batch" span nests to
        # "outer/batch", so deriving elapsed from the shared "batch" total
        # (the old implementation) reports 0 here; each batch must carry
        # its own clock measurement instead
        with telemetry.timer.span("outer"):
            rep = scanner.add_batch(corpus.moduli)
        assert rep.elapsed_seconds > 0


class TestCrossScanAdopt:
    """The shard-fleet primitives: scan-without-adopting, adopt-without-scanning."""

    @pytest.mark.parametrize("engine", V3_ENGINES)
    def test_cross_plus_adopt_equals_add_batch(self, corpus, tmp_path, engine):
        # the split side spools its tree and resumes from the v3 state its
        # tier wrote, as a shard worker restarted across the upgrade does
        reference = IncrementalScanner(bits=BITS)
        reference.add_batch(corpus.moduli[:5])
        writer = IncrementalScanner(bits=BITS)
        writer.add_batch(corpus.moduli[:5])
        old = {**writer.snapshot(), "version": 3, "engine": engine}
        split = IncrementalScanner.restore(old, spool_dir=tmp_path / "pt")
        for start in range(5, corpus.n_keys, 5):
            batch = corpus.moduli[start : start + 5]
            ref = reference.add_batch(list(batch))
            rep = split.cross_scan(list(batch), include_internal=True)
            split.adopt(list(batch))
            assert [(h.i, h.j, h.prime) for h in rep.hits] == [
                (h.i, h.j, h.prime) for h in ref.hits
            ]
            assert rep.pairs_tested == ref.pairs_tested
        assert split.moduli == reference.moduli

    def test_cross_scan_does_not_mutate_state(self, corpus):
        scanner = IncrementalScanner(bits=BITS)
        scanner.add_batch(corpus.moduli[:9])
        before = (list(scanner.moduli), scanner.total_pairs_tested, list(scanner.all_hits))
        scanner.cross_scan(corpus.moduli[9:], include_internal=True)
        after = (list(scanner.moduli), scanner.total_pairs_tested, list(scanner.all_hits))
        assert before == after

    def test_internal_pairs_are_opt_in(self, corpus):
        scanner = IncrementalScanner(bits=BITS)
        scanner.add_batch(corpus.moduli[:9])
        fresh = corpus.moduli[9:]
        without = scanner.cross_scan(list(fresh))
        with_internal = scanner.cross_scan(list(fresh), include_internal=True)
        k = len(fresh)
        assert without.pairs_tested == 9 * k
        assert with_internal.pairs_tested == 9 * k + k * (k - 1) // 2
        # every hit excluded by the flag is an internal (new, new) pair
        dropped = set((h.i, h.j) for h in with_internal.hits) - set(
            (h.i, h.j) for h in without.hits
        )
        assert all(i >= 9 and j >= 9 for i, j in dropped)

    def test_adopt_alone_tests_no_pairs(self, corpus):
        scanner = IncrementalScanner(bits=BITS)
        scanner.adopt(corpus.moduli[:6])
        assert scanner.moduli == corpus.moduli[:6]
        assert scanner.total_pairs_tested == 0 and scanner.all_hits == []
        # the adopted corpus is live: the next batch scans against it
        rep = scanner.add_batch(corpus.moduli[6:])
        expected = 6 * 12 + 12 * 11 // 2
        assert rep.pairs_tested == expected

    def test_adopted_corpus_snapshots_and_restores(self, corpus, tmp_path):
        scanner = IncrementalScanner(bits=BITS, spool_dir=tmp_path / "pt")
        scanner.adopt(corpus.moduli[:10])
        scanner.cross_scan(corpus.moduli[10:])
        restored = IncrementalScanner.restore(
            scanner.snapshot(), spool_dir=tmp_path / "pt"
        )
        assert restored.moduli == corpus.moduli[:10]
        rep = restored.cross_scan(corpus.moduli[10:], include_internal=True)
        full = IncrementalScanner(bits=BITS)
        full.add_batch(corpus.moduli[:10])
        ref = full.cross_scan(corpus.moduli[10:], include_internal=True)
        assert [(h.i, h.j) for h in rep.hits] == [(h.i, h.j) for h in ref.hits]
