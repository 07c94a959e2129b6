"""Artifact catalog: enumeration and deep verification verdicts."""

import json

from repro.core import chainlog
from repro.core.checkpoint import CheckpointStore, Manifest, StageRecord
from repro.core.spool import write_blob, write_sidecar
from repro.integrity.catalog import ArtifactCatalog

from tests.integrity.conftest import build_state, flip_record_byte, truncate_tail

LOG = "registry-000000.log"
TREE_LOG = "ptree/tree-000000.log"
SPOOL_MANIFEST = "spool-000/manifest.json"


def build_spool(state_dir):
    """A batchscan-style checkpointed spool: one pinned blob."""
    spool = state_dir / "spool-000"
    spool.mkdir()
    info = write_blob(spool / "level-000.bin", [3, 5, 7])
    CheckpointStore(spool).save(Manifest(
        config={"format": "batchscan-spool/1"},
        stages=[StageRecord(name="level.0", blob=info.path.name, count=info.count,
                            nbytes=info.nbytes, sha256=info.sha256, seconds=0.0)],
    ))


def scan(state_dir):
    return ArtifactCatalog(state_dir).scan()


def verdicts(report):
    return {f.artifact: f.verdict for f in report.findings if f.verdict != "ok"}


class TestCleanState:
    def test_committed_state_scans_clean(self, tmp_path, corpus, corpus_hits):
        build_state(tmp_path, corpus, corpus_hits)
        report = scan(tmp_path)
        assert report.clean
        assert not report.warnings
        families = set(report.by_family())
        assert {"registry", "ptree"} <= families

    def test_every_blob_is_enumerated(self, tmp_path, corpus, corpus_hits):
        build_state(tmp_path, corpus, corpus_hits)
        report = scan(tmp_path)
        names = {f.artifact for f in report.findings}
        assert names == {LOG, TREE_LOG}

    def test_empty_directory_is_clean(self, tmp_path):
        report = scan(tmp_path)
        assert report.clean and not report.findings


class TestBlobVerdicts:
    def test_bitflip_is_hash_mismatch(self, tmp_path, corpus, corpus_hits):
        build_state(tmp_path, corpus, corpus_hits)
        flip_record_byte(tmp_path, 0, "keys")
        assert verdicts(scan(tmp_path)) == {LOG: "hash-mismatch"}

    def test_truncation_is_torn_tail(self, tmp_path, corpus, corpus_hits):
        build_state(tmp_path, corpus, corpus_hits)
        truncate_tail(tmp_path / LOG, drop=5)  # inside the last record
        assert verdicts(scan(tmp_path)) == {LOG: "torn-tail"}

    def test_deleted_blob_is_missing(self, tmp_path, corpus, corpus_hits, monkeypatch):
        monkeypatch.setattr(chainlog, "SEGMENT_BYTES", 1)  # a segment per batch
        build_state(tmp_path, corpus, corpus_hits)
        (tmp_path / LOG).unlink()
        assert verdicts(scan(tmp_path)) == {LOG: "missing"}

    def test_unreferenced_blob_is_orphan_warning(self, tmp_path, corpus, corpus_hits):
        build_state(tmp_path, corpus, corpus_hits)
        (tmp_path / "keys-000099.bin").write_bytes(b"RGSPOOL1junk")
        report = scan(tmp_path)
        assert report.clean  # warnings never flip the corrupt rollup
        assert verdicts(report) == {"keys-000099.bin": "orphan"}

    def test_closed_segment_must_continue_the_chain(
        self, tmp_path, corpus, corpus_hits, monkeypatch
    ):
        monkeypatch.setattr(chainlog, "SEGMENT_BYTES", 1)  # a segment per batch
        build_state(tmp_path, corpus, corpus_hits)
        truncate_tail(tmp_path / LOG, drop=5)  # a closed segment cannot be torn
        found = verdicts(scan(tmp_path))
        assert found == {LOG: "hash-mismatch", "registry-000001.log": "hash-mismatch"}

    def test_header_damage_is_hash_mismatch(self, tmp_path, corpus, corpus_hits):
        build_state(tmp_path, corpus, corpus_hits)
        flip_record_byte(tmp_path, 0, "header")
        report = scan(tmp_path)
        assert verdicts(report) == {LOG: "hash-mismatch"}
        assert "fails its link" in report.corrupt[0].detail

    def test_zeroed_region_is_hash_mismatch(self, tmp_path, corpus, corpus_hits):
        build_state(tmp_path, corpus, corpus_hits)
        path = tmp_path / TREE_LOG
        last = chainlog.read_log(path.parent, chainlog.TREE).frames[-1]
        data = bytearray(path.read_bytes())
        data[last.body_at : last.body_at + 8] = b"\0" * 8
        path.write_bytes(bytes(data))
        report = scan(tmp_path)
        assert verdicts(report) == {TREE_LOG: "hash-mismatch"}
        assert all(f.family == "ptree" for f in report.corrupt)


class TestManifestVerdicts:
    def test_manifest_bitflip_is_detected(self, tmp_path):
        build_spool(tmp_path)
        path = tmp_path / SPOOL_MANIFEST
        text = path.read_text().replace('"count"', '"cxunt"', 1)
        path.write_text(text)
        report = scan(tmp_path)
        assert not report.clean
        assert any(
            f.artifact == SPOOL_MANIFEST and f.verdict == "hash-mismatch"
            for f in report.corrupt
        )

    def test_manifest_truncation_is_torn_tail(self, tmp_path):
        build_spool(tmp_path)
        truncate_tail(tmp_path / SPOOL_MANIFEST, drop=20)
        report = scan(tmp_path)
        assert any(
            f.artifact == SPOOL_MANIFEST and f.verdict == "torn-tail"
            for f in report.corrupt
        )

    def test_stale_sidecar_is_warning_not_corrupt(self, tmp_path):
        build_spool(tmp_path)
        write_sidecar(tmp_path / SPOOL_MANIFEST, "0" * 64)
        report = scan(tmp_path)
        assert report.clean
        assert any(f.verdict == "stale-checksum" for f in report.warnings)


class TestIngestFamily:
    def _cursor(self, state_dir, **extra):
        from repro.ingest.cursor import CrawlCursor, CrawlState

        cur = CrawlCursor(state_dir)
        state = CrawlState(
            log_url="https://ct.example/log", start=0, end=10, next_index=3,
            **extra,
        )
        cur.commit(state)
        return cur

    def test_digest_size_matches_dedup(self):
        # catalog and fsck pin the record size rather than import repro.ingest
        from repro.ingest.dedup import DIGEST_SIZE
        from repro.integrity import catalog, fsck

        assert catalog.DIGEST_SIZE == fsck.DIGEST_SIZE == DIGEST_SIZE

    def test_clean_cursor_and_seen_log(self, tmp_path):
        self._cursor(tmp_path, dedup_watermark=2)
        (tmp_path / "dedup").mkdir()
        (tmp_path / "dedup" / "seen.log").write_bytes(b"\x11" * 32 + b"\x22" * 32)
        report = scan(tmp_path)
        assert report.clean, verdicts(report)

    def test_seen_log_partial_record_is_torn_tail(self, tmp_path):
        self._cursor(tmp_path, dedup_watermark=1)
        (tmp_path / "dedup").mkdir()
        (tmp_path / "dedup" / "seen.log").write_bytes(b"\x11" * 32 + b"\x22" * 7)
        assert "torn-tail" in verdicts(scan(tmp_path)).values()

    def test_seen_log_behind_watermark_is_torn_tail(self, tmp_path):
        self._cursor(tmp_path, dedup_watermark=5)
        (tmp_path / "dedup").mkdir()
        (tmp_path / "dedup" / "seen.log").write_bytes(b"\x11" * 32)
        assert "torn-tail" in verdicts(scan(tmp_path)).values()

    def test_outbox_shorter_than_committed_is_torn_tail(self, tmp_path):
        cur = self._cursor(tmp_path)
        committed = "aa" * 12 + "\n" + "bb" * 12 + "\n"
        (tmp_path / "outbox.txt").write_text(committed)
        self._cursor(
            tmp_path, outbox_count=2, outbox_bytes=len(committed.encode())
        )
        (tmp_path / "outbox.txt").write_text(committed[: len(committed) // 2])
        assert "torn-tail" in verdicts(scan(tmp_path)).values()

    def test_cursor_bitflip_is_detected(self, tmp_path):
        self._cursor(tmp_path)
        path = tmp_path / "cursor.json"
        path.write_text(path.read_text().replace(":", ";", 1))
        report = scan(tmp_path)
        assert not report.clean


class TestQuarantineExclusion:
    def test_quarantined_files_are_not_rescanned(self, tmp_path, corpus, corpus_hits):
        build_state(tmp_path, corpus, corpus_hits)
        q = tmp_path / "quarantine"
        q.mkdir()
        (q / LOG).write_bytes(b"garbage")
        report = scan(tmp_path)
        assert report.clean
        assert not any("quarantine" in f.artifact for f in report.findings)


class TestReportShape:
    def test_to_json_round_trips(self, tmp_path, corpus, corpus_hits):
        build_state(tmp_path, corpus, corpus_hits)
        flip_record_byte(tmp_path, 0)
        payload = scan(tmp_path).to_json()
        blob = json.loads(json.dumps(payload))
        assert blob["clean"] is False
        assert blob["counts"]["corrupt"] == 1
        assert any(f["verdict"] == "hash-mismatch" for f in blob["findings"])
