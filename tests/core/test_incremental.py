"""Tests for the incremental (streamed) weak-key scanner."""

import math

import pytest

from repro.core.attack import find_shared_primes
from repro.core.incremental import IncrementalScanner
from repro.rsa.corpus import generate_weak_corpus
from repro.telemetry import Telemetry

BITS = 64

#: the tiers of the retired three-tier scanner: ``ptree`` and ``auto``
#: kept the product tree in the spool, the pairwise ``native`` tier none
V3_ENGINES = ("native", "ptree", "auto")


def spool_as_left_by(engine, bits, moduli, spool_dir):
    """Leave ``spool_dir`` as a scanner of the retired ``engine`` tier left
    it after covering ``moduli``; True when that tier spooled a tree."""
    if engine == "native":
        return False
    IncrementalScanner(bits=bits, spool_dir=spool_dir).add_batch(list(moduli))
    return True


@pytest.fixture(scope="module")
def corpus():
    # one pair inside the first batch, one triple spanning batches
    return generate_weak_corpus(18, BITS, shared_groups=(2, 3), seed=31)


class TestIncrementalScanner:
    def test_streamed_equals_snapshot(self, corpus):
        snapshot = find_shared_primes(corpus.moduli, backend="bulk", group_size=6)
        scanner = IncrementalScanner(bits=BITS)
        found = set()
        for start in range(0, corpus.n_keys, 5):
            found |= scanner.add_batch(corpus.moduli[start : start + 5]).hit_pairs
        assert found == snapshot.hit_pairs
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
        for h in scanner.add_batch(corpus.moduli).hits:
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


def stream(scanner, moduli, size):
    """Feed ``moduli`` in batches of ``size``; every hit, sorted."""
    hits = []
    for start in range(0, len(moduli), size):
        hits.extend(scanner.add_batch(moduli[start : start + size]).hits)
    return sorted(hits, key=lambda h: (h.i, h.j))


class TestSnapshotRestore:
    """Restart needs no snapshot: a scanner constructed over the corpus it
    resumes from counts that corpus's pairs as covered."""

    def test_roundtrip_equals_uninterrupted_run(self, corpus):
        straight = IncrementalScanner(bits=BITS)
        straight_hits = stream(straight, corpus.moduli, 6)

        interrupted = IncrementalScanner(bits=BITS)
        early = interrupted.add_batch(corpus.moduli[:6]).hits
        resumed = IncrementalScanner(bits=BITS, moduli=interrupted.moduli)
        late = stream(resumed, corpus.moduli[6:], 6)

        assert resumed.moduli == straight.moduli
        assert sorted(early + late, key=lambda h: (h.i, h.j)) == straight_hits
        assert resumed.total_pairs_tested == straight.total_pairs_tested
        assert resumed.coverage_is_complete()

    def test_restore_never_rescans_or_rereports(self, corpus):
        scanner = IncrementalScanner(bits=BITS)
        old_hits = set(scanner.add_batch(corpus.moduli[:10]).hits)
        resumed = IncrementalScanner(bits=BITS, moduli=corpus.moduli[:10])
        assert resumed.total_pairs_tested == 10 * 9 // 2
        rep = resumed.add_batch(corpus.moduli[10:])
        k, m = corpus.n_keys - 10, 10
        assert rep.pairs_tested == k * m + k * (k - 1) // 2
        # batch reports only ever carry hits touching the new batch
        assert all(h.j >= 10 for h in rep.hits)
        assert not old_hits & set(rep.hits)

    def test_restore_config_overrides(self, corpus):
        resumed = IncrementalScanner(
            bits=BITS, moduli=corpus.moduli[:5], int_backend="python"
        )
        assert resumed.backend.name == "python"
        # the corpus fixes the size: a scanner of another size refuses it
        with pytest.raises(ValueError, match="bits"):
            IncrementalScanner(bits=128, moduli=corpus.moduli[:5])

    def test_restore_rejects_corrupt_snapshots(self, corpus):
        # the starting corpus is checked like any batch
        with pytest.raises(ValueError, match="odd"):
            IncrementalScanner(bits=BITS, moduli=[*corpus.moduli[:3], 6])
        with pytest.raises(ValueError, match="bits"):
            IncrementalScanner(bits=BITS, moduli=[(1 << 70) + 1])


class TestEngineTiers:
    """The one tier, the product tree, in memory and spool-backed."""

    def test_spool_and_memory_report_identical_streams(self, corpus, tmp_path):
        scanners = {
            "memory": IncrementalScanner(bits=BITS),
            "spool": IncrementalScanner(bits=BITS, spool_dir=tmp_path / "pt"),
        }
        oracle = find_shared_primes(corpus.moduli, backend="scalar")
        found = set()
        for start in range(0, corpus.n_keys, 5):
            batch = corpus.moduli[start : start + 5]
            reports = {k: s.add_batch(list(batch)) for k, s in scanners.items()}
            hit_sets = {k: [(h.i, h.j, h.prime) for h in r.hits] for k, r in reports.items()}
            assert len({str(v) for v in hit_sets.values()}) == 1, hit_sets
            assert {r.engine for r in reports.values()} == {"ptree"}
            found |= reports["memory"].hit_pairs
        assert found == oracle.hit_pairs
        for scanner in scanners.values():
            assert scanner.coverage_is_complete()

    @pytest.mark.parametrize("engine", V3_ENGINES)
    def test_progress_counts_pairs_covered(self, tmp_path, engine):
        corpus = generate_weak_corpus(40, 64, shared_groups=(2, 3), seed="progress")
        telemetry = Telemetry.create(progress_callback=lambda update: None)
        scanner = IncrementalScanner(bits=64, telemetry=telemetry)
        for start in range(0, 40, 10):
            scanner.add_batch(corpus.moduli[start : start + 10])
        assert scanner.total_pairs_tested == 40 * 39 // 2
        assert telemetry.progress.completed == scanner.total_pairs_tested
        # a scanner resumed over a covered corpus counts only the pairs it
        # covers itself, whether it loads the tree its tier spooled or
        # rebuilds one the tier never wrote
        spooled = spool_as_left_by(engine, 64, corpus.moduli[:10], tmp_path / "pt")
        telemetry = Telemetry.create(progress_callback=lambda update: None)
        resumed = IncrementalScanner(
            bits=64, moduli=corpus.moduli[:10], spool_dir=tmp_path / "pt",
            telemetry=telemetry,
        )
        assert telemetry.registry.counter("ptree.rebuilds").value == (0 if spooled else 1)
        for start in range(10, 40, 10):
            resumed.add_batch(corpus.moduli[start : start + 10])
        assert resumed.total_pairs_tested == 40 * 39 // 2
        assert telemetry.progress.completed == 40 * 39 // 2 - 10 * 9 // 2

    def test_resumed_ptree_loads_from_spool(self, corpus, tmp_path):
        scanner = IncrementalScanner(bits=BITS, spool_dir=tmp_path / "pt")
        scanner.add_batch(corpus.moduli[:10])
        telemetry = Telemetry.create()
        resumed = IncrementalScanner(
            bits=BITS, moduli=scanner.moduli, spool_dir=tmp_path / "pt",
            telemetry=telemetry,
        )
        # loaded at construction, so the first flush pays nothing extra
        assert telemetry.registry.counter("ptree.rebuilds").value == 0
        assert telemetry.registry.counter("ptree.blob_writes").value == 0
        assert resumed._ptree.n_leaves == 10
        resumed.add_batch(corpus.moduli[10:])
        assert resumed.coverage_is_complete()

    def test_stale_spool_is_rebuilt_at_construction(self, corpus, tmp_path):
        writer = IncrementalScanner(bits=BITS, spool_dir=tmp_path / "pt")
        writer.add_batch(corpus.moduli[:12])
        telemetry = Telemetry.create()
        resumed = IncrementalScanner(
            bits=BITS, moduli=corpus.moduli[:10], spool_dir=tmp_path / "pt",
            telemetry=telemetry,
        )
        assert telemetry.registry.counter("ptree.rebuilds").value == 1
        assert list(resumed._ptree.leaves()) == corpus.moduli[:10]


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
        # the split side resumes over a covered corpus from the spool the
        # tier that ran before the upgrade left, as a restarted shard
        # worker does
        reference = IncrementalScanner(bits=BITS)
        reference.add_batch(corpus.moduli[:5])
        spooled = spool_as_left_by(engine, BITS, corpus.moduli[:5], tmp_path / "pt")
        telemetry = Telemetry.create()
        split = IncrementalScanner(
            bits=BITS, moduli=corpus.moduli[:5], spool_dir=tmp_path / "pt",
            telemetry=telemetry,
        )
        assert telemetry.registry.counter("ptree.rebuilds").value == (0 if spooled else 1)
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
        before = (list(scanner.moduli), scanner.total_pairs_tested, scanner._ptree.n_leaves)
        scanner.cross_scan(corpus.moduli[9:], include_internal=True)
        after = (list(scanner.moduli), scanner.total_pairs_tested, scanner._ptree.n_leaves)
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
        assert scanner.total_pairs_tested == 0
        # the adopted corpus is live: the next batch scans against it
        rep = scanner.add_batch(corpus.moduli[6:])
        expected = 6 * 12 + 12 * 11 // 2
        assert rep.pairs_tested == expected

    def test_adopted_corpus_resumes(self, corpus, tmp_path):
        scanner = IncrementalScanner(bits=BITS, spool_dir=tmp_path / "pt")
        scanner.adopt(corpus.moduli[:10])
        scanner.cross_scan(corpus.moduli[10:])
        telemetry = Telemetry.create()
        resumed = IncrementalScanner(
            bits=BITS, moduli=scanner.moduli, spool_dir=tmp_path / "pt",
            telemetry=telemetry,
        )
        assert telemetry.registry.counter("ptree.rebuilds").value == 0
        assert resumed.moduli == corpus.moduli[:10]
        rep = resumed.cross_scan(corpus.moduli[10:], include_internal=True)
        full = IncrementalScanner(bits=BITS)
        full.add_batch(corpus.moduli[:10])
        ref = full.cross_scan(corpus.moduli[10:], include_internal=True)
        assert [(h.i, h.j) for h in rep.hits] == [(h.i, h.j) for h in ref.hits]
