"""Durability and dedup invariants of the weak-key registry store."""

import json

import pytest

from repro.core.attack import WeakHit
from repro.core.checkpoint import CheckpointStore, Manifest
from repro.core.incremental import IncrementalScanner
from repro.service import registry as registry_module
from repro.service.registry import REGISTRY_FORMAT, RegistryError, WeakKeyRegistry

# small distinct 16-bit semiprimes built from distinct primes
P = [193, 197, 199, 211, 223, 227, 229, 233]
N = [P[0] * P[1], P[0] * P[2], P[3] * P[4], P[5] * P[6]]  # N[0], N[1] share 193


def make_registry(path):
    reg = WeakKeyRegistry(path)
    reg.load()
    return reg


class TestCommitAndLoad:
    def test_roundtrip_two_batches(self, tmp_path):
        reg = make_registry(tmp_path)
        reg.commit_batch(N[:2], [WeakHit(0, 1, P[0])])
        reg.commit_batch(N[2:], [])
        back = make_registry(tmp_path)
        assert back.moduli == N
        assert back.n_batches == 2
        assert [(h.i, h.j, h.prime) for h in back.hits] == [(0, 1, P[0])]
        assert back.bits == 16
        assert back.index_of(N[3]) == 3
        assert back.index_of(12345) is None

    def test_empty_dir_is_fresh(self, tmp_path):
        reg = WeakKeyRegistry(tmp_path / "never-created")
        assert reg.load() == 0
        assert reg.n_keys == 0 and reg.bits is None

    def test_verdict_moves_from_sound_to_weak(self, tmp_path):
        reg = make_registry(tmp_path)
        reg.commit_batch([N[0]], [])
        assert reg.verdict(0) == {"index": 0, "weak": False, "hits": []}
        reg.commit_batch([N[1]], [WeakHit(0, 1, P[0])])
        verdict = reg.verdict(0)
        assert verdict["weak"] and verdict["hits"] == [
            {"partner": 1, "prime": hex(P[0])}
        ]

    def test_exponents_persist(self, tmp_path):
        reg = make_registry(tmp_path)
        reg.commit_batch(N[:2], [], exponents={1: 3})
        back = make_registry(tmp_path)
        assert back.exponent_of(0) == 65537
        assert back.exponent_of(1) == 3

    def test_duplicate_count_survives_restart(self, tmp_path):
        reg = make_registry(tmp_path)
        reg.commit_batch(N[:2], [])
        reg.note_duplicates(3, persist=True)
        back = make_registry(tmp_path)
        assert back.duplicate_submissions == 3

    def test_verdict_rows_are_cached_and_invalidated_per_hit(self, tmp_path):
        reg = make_registry(tmp_path)
        reg.commit_batch([N[0]], [])
        row = reg.verdict(0)
        # the duplicate hot path serves the same (read-only) row object
        assert reg.verdict(0) is row
        # a commit that lands no hit on this index keeps the row valid
        reg.commit_batch([N[2]], [])
        assert reg.verdict(0) is row
        # a hit on the index drops exactly that row from the cache
        reg.commit_batch([N[1]], [WeakHit(0, 2, P[0])])
        fresh = reg.verdict(0)
        assert fresh is not row and fresh["weak"]
        assert reg.verdict(1) is reg.verdict(1)  # untouched index still caches


class TestDuplicatePersistThrottle:
    def test_dup_only_rewrites_are_throttled(self, tmp_path, monkeypatch):
        reg = make_registry(tmp_path)
        reg.commit_batch(N[:2], [])
        reg.note_duplicates(1, persist=True)  # first dup-only rewrite: immediate
        assert make_registry(tmp_path).duplicate_submissions == 1
        reg.note_duplicates(2, persist=True)  # within the interval: memory only
        assert reg.duplicate_submissions == 3
        assert make_registry(tmp_path).duplicate_submissions == 1
        # once the interval elapses the next persist request lands again
        monkeypatch.setattr(registry_module, "DUPLICATE_PERSIST_INTERVAL", 0.0)
        reg.note_duplicates(1, persist=True)
        assert make_registry(tmp_path).duplicate_submissions == 4

    def test_sync_folds_in_throttled_duplicates(self, tmp_path):
        reg = make_registry(tmp_path)
        reg.commit_batch(N[:2], [])
        reg.note_duplicates(1, persist=True)
        reg.note_duplicates(5, persist=True)  # throttled away
        reg.sync()  # graceful shutdown writes the exact total
        assert make_registry(tmp_path).duplicate_submissions == 6


class TestCommitValidation:
    def test_rejects_registered_modulus(self, tmp_path):
        reg = make_registry(tmp_path)
        reg.commit_batch(N[:2], [])
        with pytest.raises(RegistryError, match="already registered"):
            reg.commit_batch([N[0]], [])

    def test_rejects_in_batch_duplicate(self, tmp_path):
        reg = make_registry(tmp_path)
        with pytest.raises(RegistryError, match="already registered"):
            reg.commit_batch([N[0], N[0]], [])

    def test_rejects_wrong_bit_size(self, tmp_path):
        reg = make_registry(tmp_path)
        reg.commit_batch(N[:1], [])
        with pytest.raises(RegistryError, match="bits"):
            reg.commit_batch([(1 << 30) + 1], [])

    def test_rejects_hit_outside_batch(self, tmp_path):
        reg = make_registry(tmp_path)
        reg.commit_batch(N[:2], [])
        # both endpoints predate the new batch — the scan contract forbids it
        with pytest.raises(RegistryError, match="does not touch"):
            reg.commit_batch(N[2:], [WeakHit(0, 1, P[0])])


class TestCrashRecovery:
    def _seed(self, tmp_path):
        reg = make_registry(tmp_path)
        reg.commit_batch(N[:2], [WeakHit(0, 1, P[0])])
        reg.commit_batch(N[2:], [])
        return reg

    def test_truncated_tail_blob_drops_batch(self, tmp_path):
        self._seed(tmp_path)
        blob = tmp_path / "keys-000001.bin"
        blob.write_bytes(blob.read_bytes()[:-3])
        back = make_registry(tmp_path)
        assert back.moduli == N[:2]
        assert back.n_batches == 1
        # and the manifest was rewritten: a clean reload sees a clean prefix
        again = make_registry(tmp_path)
        assert again.n_batches == 1

    def test_corrupt_hits_blob_drops_batch(self, tmp_path):
        self._seed(tmp_path)
        blob = tmp_path / "hits-000001.bin"
        raw = bytearray(blob.read_bytes())
        raw[-1] ^= 0xFF
        blob.write_bytes(raw)
        back = make_registry(tmp_path)
        assert back.n_batches == 1 and back.moduli == N[:2]

    def test_missing_keys_blob_drops_batch(self, tmp_path):
        self._seed(tmp_path)
        (tmp_path / "keys-000001.bin").unlink()
        back = make_registry(tmp_path)
        assert back.n_batches == 1 and back.moduli == N[:2]

    def test_half_committed_batch_invisible(self, tmp_path):
        # crash between blob writes and the manifest write: blobs exist but
        # are unreferenced — they must be ignored and later overwritten
        reg = self._seed(tmp_path)
        from repro.core.spool import write_blob

        write_blob(tmp_path / "keys-000002.bin", [P[0] * P[7]])
        back = make_registry(tmp_path)
        assert back.n_batches == 2 and back.moduli == N
        # the next commit reclaims the stray file names
        back.commit_batch([P[2] * P[3]], [])
        assert make_registry(tmp_path).moduli == N + [P[2] * P[3]]

    def test_first_batch_corrupt_means_empty(self, tmp_path):
        self._seed(tmp_path)
        (tmp_path / "keys-000000.bin").write_bytes(b"RGSPOOL1garbage")
        back = make_registry(tmp_path)
        assert back.n_keys == 0 and back.n_batches == 0

    def test_dropped_batches_can_recommit(self, tmp_path):
        self._seed(tmp_path)
        (tmp_path / "hits-000001.bin").unlink()
        back = make_registry(tmp_path)
        assert back.n_batches == 1
        back.commit_batch(N[2:], [])  # resubmitting the lost keys works
        assert make_registry(tmp_path).moduli == N


class TestFormatGuards:
    def test_refuses_foreign_manifest(self, tmp_path):
        CheckpointStore(tmp_path).save(Manifest(config={"format": "batchscan/1"}))
        with pytest.raises(RegistryError, match="not a weak-key registry"):
            WeakKeyRegistry(tmp_path).load()

    def test_refuses_duplicate_moduli_on_disk(self, tmp_path):
        reg = make_registry(tmp_path)
        reg.commit_batch(N[:2], [])
        # forge a second batch repeating modulus 0 (bypasses commit checks)
        from repro.core.checkpoint import StageRecord
        from repro.core.spool import write_blob

        k = write_blob(tmp_path / "keys-000001.bin", [N[0]])
        h = write_blob(tmp_path / "hits-000001.bin", [])
        m = reg._manifest
        m.stages.append(StageRecord(name="keys.1", blob="keys-000001.bin", count=k.count,
                                    nbytes=k.nbytes, sha256=k.sha256, seconds=0.0))
        m.stages.append(StageRecord(name="hits.1", blob="hits-000001.bin", count=h.count,
                                    nbytes=h.nbytes, sha256=h.sha256, seconds=0.0))
        reg.store.save(m)
        with pytest.raises(RegistryError, match="duplicates index"):
            WeakKeyRegistry(tmp_path).load()

    def test_manifest_format_field_present(self, tmp_path):
        reg = make_registry(tmp_path)
        reg.commit_batch(N[:1], [])
        doc = json.loads((tmp_path / "manifest.json").read_text())
        assert doc["config"]["format"] == REGISTRY_FORMAT


class TestScannerSnapshot:
    def test_snapshot_restores_without_rescans(self, tmp_path):
        reg = make_registry(tmp_path)
        reg.commit_batch(N[:3], [WeakHit(0, 1, P[0])])
        scanner = IncrementalScanner.restore(reg.scanner_snapshot())
        assert scanner.n_keys == 3
        assert scanner.coverage_is_complete()
        report = scanner.add_batch([P[0] * P[7]])
        # 3 cross pairs only — no old-vs-old rescans
        assert report.pairs_tested == 3
        assert report.hit_pairs == {(0, 3), (1, 3)}

    def test_empty_registry_has_no_snapshot(self, tmp_path):
        with pytest.raises(RegistryError, match="no keys"):
            make_registry(tmp_path).scanner_snapshot()
