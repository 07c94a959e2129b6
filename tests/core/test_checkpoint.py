"""Tests for the checkpoint manifest layer."""

import hashlib
import json
from dataclasses import asdict

from repro.core.checkpoint import (
    MANIFEST_NAME,
    CheckpointStore,
    Manifest,
    StageRecord,
)
from repro.core.incremental import IncrementalScanner
from repro.core.spool import read_sidecar, write_blob, write_sidecar
from repro.integrity.fsck import run_fsck
from repro.rsa.corpus import generate_weak_corpus
from repro.service.registry import WeakKeyRegistry
from repro.telemetry import Telemetry

from tests.service.test_registry import write_v1


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
        """``save`` writes the ``asdict`` serialisation in compact JSON
        (the form CPython encodes in C): same keys, same order, same
        float and string rendering, no whitespace, one trailing newline."""
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
            separators=(",", ":"),
        ) + "\n"
        body = (tmp_path / MANIFEST_NAME).read_bytes()
        assert body == reference.encode()
        assert b'"seconds":1e-07}' in body and b'"note":"\\u00e9"' in body
        assert read_sidecar(tmp_path / MANIFEST_NAME) == hashlib.sha256(body).hexdigest()

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


def _indent_manifest(path):
    """Rewrite ``path`` in the older ``indent=2`` form, sidecar included."""
    body = (json.dumps(json.loads(path.read_bytes()), indent=2) + "\n").encode()
    path.write_bytes(body)
    write_sidecar(path, hashlib.sha256(body).hexdigest())


class TestIndentedManifestCompat:
    """State written by a version that indented its manifests."""

    def test_indented_state_loads_verifies_and_is_rewritten_compact(self, tmp_path):
        # the registry of that version was a manifest over per-batch blobs
        corpus = generate_weak_corpus(24, 64, shared_groups=(2, 3), seed="indent-compat")
        scanner = IncrementalScanner(bits=64, spool_dir=tmp_path / "ptree")
        batches = []
        for start in (0, 8):
            chunk = corpus.moduli[start : start + 8]
            found = scanner.add_batch(chunk).hits
            batches.append((chunk, [(h.i, h.j, h.prime) for h in found]))
        write_v1(tmp_path, batches)
        manifests = [tmp_path / MANIFEST_NAME, tmp_path / "ptree" / MANIFEST_NAME]
        for path in manifests:
            _indent_manifest(path)
            assert path.read_bytes().startswith(b'{\n  "version": 1,')
        hits = sorted(h for _, found in batches for h in found)
        assert len(hits) == 2

        reloaded = WeakKeyRegistry(tmp_path)
        assert reloaded.load() == 2
        assert not manifests[0].exists()  # converted to the registry log
        assert [(h.i, h.j, h.prime) for h in reloaded.hits] == hits
        telemetry = Telemetry.create()
        resumed = IncrementalScanner(
            bits=64, moduli=reloaded.moduli,
            spool_dir=tmp_path / "ptree",
            telemetry=telemetry,
        )
        assert telemetry.registry.counter("ptree.rebuilds").value == 0
        report = run_fsck(tmp_path)
        assert [f for f in report.scan.findings if f.verdict != "ok"] == []

        chunk = corpus.moduli[16:]
        reloaded.commit_batch(chunk, resumed.add_batch(chunk).hits)
        assert resumed.coverage_is_complete()
        assert len(reloaded.hits) == 4
        for path in manifests[1:]:
            body = path.read_bytes()
            assert body == (json.dumps(json.loads(body), separators=(",", ":")) + "\n").encode()
            assert read_sidecar(path) == hashlib.sha256(body).hexdigest()
        assert run_fsck(tmp_path).clean
