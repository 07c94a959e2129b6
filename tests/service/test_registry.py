"""Durability and dedup invariants of the weak-key registry store."""

import pytest

from repro.core import chainlog, durable
from repro.core.attack import WeakHit
from repro.core.chainlog import segment_path
from repro.core.checkpoint import CheckpointStore, Manifest, StageRecord
from repro.core.incremental import IncrementalScanner
from repro.core.spool import write_blob
from repro.service import registry as registry_module
from repro.service.registry import (
    V1_FORMAT,
    RegistryError,
    WeakKeyRegistry,
    _commit_record,
)

from tests.integrity.conftest import flip_record_byte

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
        # batch 1 carries a hit, so both body parts of it are non-empty
        reg = make_registry(tmp_path)
        reg.commit_batch([N[0], N[2]], [])
        reg.commit_batch([N[1], N[3]], [WeakHit(0, 2, P[0])])
        return reg

    def test_truncated_tail_blob_drops_batch(self, tmp_path):
        self._seed(tmp_path)
        log = segment_path(tmp_path, 0)
        log.write_bytes(log.read_bytes()[:-3])  # a torn final frame
        back = make_registry(tmp_path)
        assert back.moduli == [N[0], N[2]]
        assert back.n_batches == 1
        # and the torn frame was cut off: a clean reload sees a clean prefix
        assert not chainlog.read_log(tmp_path).faults
        again = make_registry(tmp_path)
        assert again.n_batches == 1

    def test_corrupt_hits_blob_drops_batch(self, tmp_path):
        self._seed(tmp_path)
        flip_record_byte(tmp_path, 1, "hits")
        back = make_registry(tmp_path)
        assert back.n_batches == 1 and back.moduli == [N[0], N[2]]
        # the damaged segment is kept aside, not destroyed
        assert (tmp_path / "quarantine" / segment_path(tmp_path, 0).name).exists()

    def test_missing_keys_blob_drops_batch(self, tmp_path, monkeypatch):
        monkeypatch.setattr(chainlog, "SEGMENT_BYTES", 1)  # a segment per record
        self._seed(tmp_path)
        segment_path(tmp_path, 1).unlink()
        back = make_registry(tmp_path)
        assert back.n_batches == 1 and back.moduli == [N[0], N[2]]

    def test_half_committed_batch_invisible(self, tmp_path):
        # crash mid-append: a partial frame that was never acknowledged
        reg = self._seed(tmp_path)
        with segment_path(tmp_path, 0).open("ab") as fh:
            fh.write(b"\x10\x00\x00")
        back = make_registry(tmp_path)
        assert back.n_batches == 2 and back.moduli == reg.moduli
        # the next commit appends where the last whole frame ended
        back.commit_batch([P[2] * P[3]], [])
        assert make_registry(tmp_path).moduli == reg.moduli + [P[2] * P[3]]

    def test_first_batch_corrupt_means_empty(self, tmp_path):
        self._seed(tmp_path)
        flip_record_byte(tmp_path, 0, "keys")
        back = make_registry(tmp_path)
        assert back.n_keys == 0 and back.n_batches == 0
        assert not segment_path(tmp_path, 0).exists()

    def test_dropped_batches_can_recommit(self, tmp_path):
        self._seed(tmp_path)
        flip_record_byte(tmp_path, 1, "keys")
        back = make_registry(tmp_path)
        assert back.n_batches == 1
        back.commit_batch([N[1], N[3]], [WeakHit(0, 2, P[0])])  # resubmitting works
        assert make_registry(tmp_path).moduli == [N[0], N[2], N[1], N[3]]

    def test_header_damage_keeps_the_prefix_before_it(self, tmp_path, monkeypatch):
        monkeypatch.setattr(chainlog, "SEGMENT_BYTES", 1)  # a segment per record
        reg = self._seed(tmp_path)
        reg.commit_batch([P[2] * P[3]], [])
        flip_record_byte(tmp_path, 1, "header")
        back = make_registry(tmp_path)
        assert back.moduli == [N[0], N[2]]
        # the damaged segment and every one after it are set aside
        assert sorted(p.name for p in (tmp_path / "quarantine").iterdir()) == [
            segment_path(tmp_path, k).name for k in (1, 2)
        ]
        assert [i for i, _ in chainlog.segment_paths(tmp_path)] == [0]


class TestFormatGuards:
    def test_refuses_foreign_manifest(self, tmp_path):
        CheckpointStore(tmp_path).save(Manifest(config={"format": "batchscan/1"}))
        with pytest.raises(RegistryError, match="not a weak-key registry"):
            WeakKeyRegistry(tmp_path).load()

    def test_refuses_duplicate_moduli_on_disk(self, tmp_path):
        reg = make_registry(tmp_path)
        reg.commit_batch(N[:2], [])
        # forge a second batch repeating modulus 0 (bypasses commit checks)
        reg._log.append([_commit_record(1, [N[0]], [], {}, reg._state())])
        with pytest.raises(RegistryError, match="duplicates index"):
            WeakKeyRegistry(tmp_path).load()

    def test_log_segments_start_with_magic(self, tmp_path):
        reg = make_registry(tmp_path)
        reg.commit_batch(N[:1], [])
        assert sorted(p.name for p in tmp_path.iterdir()) == ["registry-000000.log"]
        assert segment_path(tmp_path, 0).read_bytes().startswith(chainlog.MAGIC)


class TestLogRecords:
    def test_sync_appends_only_what_changed(self, tmp_path):
        reg = make_registry(tmp_path)
        reg.sync()
        assert not any(tmp_path.iterdir())  # nothing to record yet
        reg.commit_batch(N[:2], [])
        size = segment_path(tmp_path, 0).stat().st_size
        reg.sync()
        assert segment_path(tmp_path, 0).stat().st_size == size
        reg.set_shard_state({"shards": 2})
        reg.sync()
        assert segment_path(tmp_path, 0).stat().st_size > size
        assert make_registry(tmp_path).shard_state() == {"shards": 2}

    def test_segments_roll_at_the_size_cap(self, tmp_path, monkeypatch):
        monkeypatch.setattr(chainlog, "SEGMENT_BYTES", 600)
        moduli = [(1 << 63) | (2 * k + 1) for k in range(40)]
        reg = make_registry(tmp_path)
        for n in moduli:
            reg.commit_batch([n], [])
        segments = chainlog.segment_paths(tmp_path)
        assert len(segments) > 5
        assert all(path.stat().st_size <= 600 for _, path in segments)
        back = make_registry(tmp_path)
        assert back.moduli == moduli and back.batch_sizes() == [1] * 40
        assert not chainlog.read_log(tmp_path).faults

    def test_exponents_stay_with_their_batch(self, tmp_path):
        reg = make_registry(tmp_path)
        reg.commit_batch(N[:2], [], exponents={0: 3, 1: 65537})
        reg.commit_batch(N[2:], [], exponents={3: 17})
        back = make_registry(tmp_path)
        assert [back.exponent_of(k) for k in range(4)] == [3, 65537, 65537, 17]


def _distinct(count: int) -> list[int]:
    """``count`` distinct 64-bit odd integers (the registry checks no primality)."""
    return [(1 << 63) | (2 * k + 1) for k in range(count)]


class TestFlatCommitCost:
    """A commit's cost is its own record, whatever the registry's age."""

    def _count_writes(self, monkeypatch) -> list:
        writes = []
        for name in ("append", "replace_bytes", "replace_stream", "truncate"):
            real = getattr(durable, name)

            def counted(path, data, _real=real, _name=name):
                size = data if _name == "truncate" else (
                    len(data) if isinstance(data, bytes) else None
                )
                writes.append((_name, size))
                return _real(path, data)

            monkeypatch.setattr(durable, name, counted)
        return writes

    def test_bytes_written_at_commit_2000_match_commit_1(self, tmp_path, monkeypatch):
        moduli = _distinct(2001)
        reg = make_registry(tmp_path)
        writes = self._count_writes(monkeypatch)
        reg.commit_batch([moduli[0]], [])
        first = list(writes)
        for n in moduli[1:2000]:
            reg.commit_batch([n], [])
        writes.clear()
        reg.commit_batch([moduli[2000]], [])
        late = list(writes)
        # one fsync'd append each, nothing rewritten
        assert [name for name, _ in first] == ["append"]
        assert [name for name, _ in late] == ["append"]
        # the first append also opens the segment; past that, the two differ
        # only by the digits of the batch index in the record header
        first_bytes = first[0][1] - chainlog.SEGMENT_HEADER
        assert 0 <= late[0][1] - first_bytes <= len("2000") - len("0")

    def test_state_dir_holds_segments_not_files_per_batch(self, tmp_path):
        moduli = _distinct(2000)
        reg = make_registry(tmp_path)
        for n in moduli:
            reg.commit_batch([n], [])
        files = sorted(p for p in tmp_path.rglob("*") if p.is_file())
        segments = [path for _, path in chainlog.segment_paths(tmp_path)]
        assert files == segments
        log_bytes = sum(p.stat().st_size for p in files)
        assert len(segments) == -(-log_bytes // chainlog.SEGMENT_BYTES)


def write_v1(state_dir, batches, *, exponents=None, duplicates=0, shard_state=None):
    """A ``weak-key-registry/1`` state dir: per-batch blobs plus their manifest."""
    config = {
        "format": V1_FORMAT,
        "bits": batches[0][0][0].bit_length(),
        "duplicate_submissions": duplicates,
        "exponents": {str(g): e for g, e in (exponents or {}).items()},
    }
    if shard_state is not None:
        config["shard_state"] = shard_state
    manifest = Manifest(config=config)
    for b, (keys, hits) in enumerate(batches):
        flat = [x for hit in hits for x in hit]
        for kind, values in (("keys", keys), ("hits", flat)):
            info = write_blob(state_dir / f"{kind}-{b:06d}.bin", values)
            manifest.stages.append(StageRecord(
                name=f"{kind}.{b}", blob=info.path.name, count=info.count,
                nbytes=info.nbytes, sha256=info.sha256, seconds=0.0,
            ))
    CheckpointStore(state_dir).save(manifest)


V1_BATCHES = [([N[0], N[2]], []), ([N[1], N[3]], [(0, 2, P[0])])]
SHARDS = {"shards": 2, "replicas": 1, "watermarks": {"0": {"keys": 2, "pairs_tested": 1, "job": 1}}}


class TestV1Conversion:
    def _v1(self, tmp_path):
        write_v1(tmp_path, V1_BATCHES, exponents={3: 3}, duplicates=5, shard_state=SHARDS)

    def test_v1_dir_converts_to_the_same_registry(self, tmp_path):
        self._v1(tmp_path)
        reg = make_registry(tmp_path)
        assert reg.moduli == [N[0], N[2], N[1], N[3]]
        assert [(h.i, h.j, h.prime) for h in reg.hits] == [(0, 2, P[0])]
        assert reg.batch_sizes() == [2, 2]
        assert reg.exponent_of(3) == 3 and reg.exponent_of(0) == 65537
        assert reg.duplicate_submissions == 5
        assert reg.shard_state() == SHARDS
        # only the log is left, and it reloads to the same registry
        assert sorted(p.name for p in tmp_path.iterdir()) == ["registry-000000.log"]
        back = make_registry(tmp_path)
        assert (back.moduli, back.hits, back.duplicate_submissions) == (
            reg.moduli, reg.hits, 5,
        )
        assert back.verdict(2)["hits"] == [{"partner": 0, "prime": hex(P[0])}]

    def test_second_load_does_not_convert_again(self, tmp_path, monkeypatch):
        self._v1(tmp_path)
        make_registry(tmp_path)
        log = segment_path(tmp_path, 0).read_bytes()

        def refuse(self, manifest):
            raise AssertionError("converted twice")

        monkeypatch.setattr(WeakKeyRegistry, "_convert_v1", refuse)
        back = make_registry(tmp_path)
        assert back.n_keys == 4 and back.duplicate_submissions == 5
        assert segment_path(tmp_path, 0).read_bytes() == log

    @pytest.mark.parametrize("damaged", ["keys-000001.bin", "hits-000001.bin", "keys-000000.bin"])
    def test_damaged_v1_converts_the_verified_prefix(self, tmp_path, damaged):
        write_v1(tmp_path, V1_BATCHES + [([P[2] * P[3]], [])])
        blob = tmp_path / damaged
        blob.write_bytes(blob.read_bytes()[:-1] + b"\x00")
        store = CheckpointStore(tmp_path)
        manifest = store.load()
        kept = store.verified_prefix(manifest, [r.name for r in manifest.stages])
        reg = make_registry(tmp_path)
        assert reg.n_batches == len(kept) // 2
        assert reg.moduli == [n for keys, _ in V1_BATCHES[: len(kept) // 2] for n in keys]
        # what was not converted stays on disk, for fsck to set aside
        assert blob.exists() and not (tmp_path / "manifest.json").exists()

    def test_interrupted_conversion_converts_again(self, tmp_path):
        self._v1(tmp_path)
        # a conversion that died before removing the manifest left a log
        # the v1 manifest still outranks
        with segment_path(tmp_path, 0).open("wb") as fh:
            fh.write(chainlog.MAGIC + chainlog.GENESIS + b"\x01")
        reg = make_registry(tmp_path)
        assert reg.n_keys == 4 and reg.duplicate_submissions == 5
        assert not chainlog.read_log(tmp_path).faults


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
