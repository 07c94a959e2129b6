"""Tests for the checkpoint manifest layer."""

import json
from dataclasses import asdict

from repro.core.checkpoint import (
    MANIFEST_NAME,
    CheckpointStore,
    Manifest,
    StageRecord,
)
from repro.core.spool import write_blob


def _record(store, name, blob, values):
    info = write_blob(store.spool_dir / blob, values)
    return StageRecord(
        name=name, blob=blob, count=info.count, nbytes=info.nbytes,
        sha256=info.sha256, seconds=0.1,
    )


class TestManifest:
    def test_stage_lookup(self):
        m = Manifest(stages=[StageRecord("ingest", "a.bin", 2, 20, "x" * 64, 0.0)])
        assert m.stage("ingest").blob == "a.bin"
        assert m.stage("leaf") is None

    def test_truncate_at_drops_suffix(self):
        names = ["ingest", "product.1", "remainder.0"]
        m = Manifest(
            stages=[StageRecord(n, f"{n}.bin", 1, 10, "x" * 64, 0.0) for n in names]
        )
        m.truncate_at("product.1")
        assert [r.name for r in m.stages] == ["ingest"]


class TestStore:
    def test_save_load_round_trip(self, tmp_path):
        store = CheckpointStore(tmp_path)
        m = Manifest(config={"n_moduli": 4})
        m.stages.append(_record(store, "ingest", "product-000.bin", [33, 35]))
        store.save(m)
        loaded = store.load()
        assert loaded.config == {"n_moduli": 4}
        assert loaded.stages == m.stages

    def test_save_bytes_match_the_asdict_form(self, tmp_path):
        """``save`` writes exactly the ``asdict`` serialisation: same keys,
        same order, same float and string rendering, byte for byte."""
        store = CheckpointStore(tmp_path)
        m = Manifest(config={"format": "product-tree/1", "n_leaves": 3, "note": "é"})
        m.stages.append(_record(store, "seg.0.1", "seg-00000000-h01.bin", [33, 35]))
        m.stages.append(StageRecord("seg.2.0", "seg-00000002-h00.bin", 1, 12, "ab" * 32, 1e-07))
        store.save(m)
        reference = json.dumps(
            {
                "version": m.version,
                "config": m.config,
                "stages": [asdict(r) for r in m.stages],
            },
            indent=2,
        ) + "\n"
        assert (tmp_path / MANIFEST_NAME).read_bytes() == reference.encode()

    def test_load_missing_is_none(self, tmp_path):
        assert CheckpointStore(tmp_path).load() is None

    def test_load_garbage_is_none(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text("{not json")
        assert CheckpointStore(tmp_path).load() is None

    def test_load_wrong_version_is_none(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text(
            '{"version": 999, "config": {}, "stages": []}'
        )
        assert CheckpointStore(tmp_path).load() is None

    def test_load_missing_field_is_none(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text(
            '{"version": 1, "config": {}, "stages": [{"name": "ingest"}]}'
        )
        assert CheckpointStore(tmp_path).load() is None

    def test_verify_detects_bitflip(self, tmp_path):
        store = CheckpointStore(tmp_path)
        record = _record(store, "ingest", "b.bin", [99])
        assert store.verify(record)
        data = bytearray((tmp_path / "b.bin").read_bytes())
        data[-1] ^= 1
        (tmp_path / "b.bin").write_bytes(bytes(data))
        assert not store.verify(record)

    def test_verify_missing_blob(self, tmp_path):
        store = CheckpointStore(tmp_path)
        record = _record(store, "ingest", "c.bin", [5])
        (tmp_path / "c.bin").unlink()
        assert not store.verify(record)


class TestVerifiedPrefix:
    def test_full_prefix_when_all_good(self, tmp_path):
        store = CheckpointStore(tmp_path)
        stages = [
            _record(store, "ingest", "product-000.bin", [33, 35]),
            _record(store, "product.1", "product-001.bin", [33 * 35]),
        ]
        m = Manifest(stages=stages)
        got = store.verified_prefix(m, ["ingest", "product.1", "remainder.0"])
        assert [r.name for r in got] == ["ingest", "product.1"]

    def test_corrupt_blob_truncates_prefix(self, tmp_path):
        store = CheckpointStore(tmp_path)
        stages = [
            _record(store, "ingest", "product-000.bin", [33, 35]),
            _record(store, "product.1", "product-001.bin", [33 * 35]),
        ]
        (tmp_path / "product-001.bin").write_bytes(b"garbage")
        m = Manifest(stages=stages)
        got = store.verified_prefix(m, ["ingest", "product.1"])
        assert [r.name for r in got] == ["ingest"]

    def test_out_of_order_record_ends_prefix(self, tmp_path):
        store = CheckpointStore(tmp_path)
        stages = [
            _record(store, "ingest", "product-000.bin", [33, 35]),
            _record(store, "remainder.0", "remainder-000.bin", [1]),
        ]
        m = Manifest(stages=stages)
        got = store.verified_prefix(m, ["ingest", "product.1", "remainder.0"])
        assert [r.name for r in got] == ["ingest"]
