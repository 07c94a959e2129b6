"""Offline fsck: verdicts, the repair ladder, quarantine, refusals."""

import hashlib
import json

import pytest

from repro.core import chainlog
from repro.core import ptree
from repro.core.ptree import PersistentProductTree
from repro.core.spool import write_blob, write_sidecar
from repro.integrity.fsck import run_fsck
from repro.service.shard import _ShardWorker
from repro.service.registry import WeakKeyRegistry

from tests.integrity.conftest import (
    build_state,
    flip_byte,
    flip_record_byte,
    record_region,
    truncate_tail,
)
from tests.integrity.test_catalog import SPOOL_MANIFEST, build_spool
from tests.service.test_registry import V1_BATCHES, write_v1

LOG = "registry-000000.log"
TREE_LOG = "tree-000000.log"


def write_shards(state_dir, moduli, shards=2):
    """Shard state as workers write it: shard ``k`` owns ``g % shards == k``."""
    for k in range(shards):
        indices = [g for g in range(len(moduli)) if g % shards == k]
        _ShardWorker(k, shards, 1, str(state_dir), None).handle_init({
            "bits": 64, "indices": indices, "moduli": [moduli[g] for g in indices],
            "job": None,
        })


def rot_tree_leaves(tree_dir):
    """Flip a byte in the leaves of every frame of one tree log."""
    for frame in chainlog.read_log(tree_dir, chainlog.TREE).frames:
        path = chainlog.segment_path(tree_dir, frame.segment, chainlog.TREE)
        flip_byte(path, frame.body_at + frame.header["keys_nbytes"] // 2)


def repairs_of(report, action=None):
    return [r for r in report.repairs if action is None or r["action"] == action]


class TestCheckOnly:
    def test_clean_state_reports_clean(self, tmp_path, corpus, corpus_hits):
        build_state(tmp_path, corpus, corpus_hits)
        report = run_fsck(tmp_path)
        assert report.clean
        assert report.post_scan is None  # check-only never rescans

    def test_check_only_never_mutates(self, tmp_path, corpus, corpus_hits):
        build_state(tmp_path, corpus, corpus_hits)
        flip_record_byte(tmp_path, 0)
        before = {
            p.name: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()
        }
        report = run_fsck(tmp_path)
        assert not report.clean and not report.repairs
        after = {
            p.name: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()
        }
        assert before == after
        assert not (tmp_path / "quarantine").exists()


class TestRegistryRepair:
    def test_keys_blob_rebuilt_from_ptree(self, tmp_path, corpus, corpus_hits):
        build_state(tmp_path, corpus, corpus_hits)
        pristine = (tmp_path / LOG).read_bytes()
        flip_record_byte(tmp_path, 0, "keys")
        report = run_fsck(tmp_path, repair=True)
        assert report.healed, (report.repairs, report.refusals)
        assert (tmp_path / LOG).read_bytes() == pristine
        assert (tmp_path / "quarantine" / LOG).exists()

    def test_hits_blob_rebuilt_by_gcd_rescan(self, tmp_path, corpus, corpus_hits):
        build_state(tmp_path, corpus, corpus_hits)
        pristine = (tmp_path / LOG).read_bytes()
        batch = next(b for b in (0, 1) if record_region(tmp_path, b, "hits")[2]
                     > record_region(tmp_path, b, "hits")[1])
        flip_record_byte(tmp_path, batch, "hits")
        report = run_fsck(tmp_path, repair=True)
        assert report.healed, (report.repairs, report.refusals)
        assert (tmp_path / LOG).read_bytes() == pristine

    def test_torn_record_rebuilt_when_its_header_survived(
        self, tmp_path, corpus, corpus_hits
    ):
        build_state(tmp_path, corpus, corpus_hits)
        pristine = (tmp_path / LOG).read_bytes()
        _, start, end = record_region(tmp_path, 1, "body")
        (tmp_path / LOG).write_bytes(pristine[: (start + end) // 2])
        report = run_fsck(tmp_path, repair=True)
        assert report.healed, (report.repairs, report.refusals)
        assert (tmp_path / LOG).read_bytes() == pristine

    def test_unprovable_torn_record_is_cut_off_as_a_load_would(
        self, tmp_path, corpus, corpus_hits
    ):
        # with the tree's every leaf damaged nothing proves the torn batch:
        # fsck cuts it off, leaving the registry a load would, and drops
        # the damaged tree log — a tear is never a refusal
        state, loaded = tmp_path / "state", tmp_path / "loaded"
        build_state(state, corpus, corpus_hits)
        pristine = (state / LOG).read_bytes()
        frame = next(f for f in chainlog.read_log(state).frames if f.header.get("batch") == 1)
        _, start, end = record_region(state, 1, "body")
        torn = pristine[: (start + end) // 2]
        (state / LOG).write_bytes(torn)
        loaded.mkdir()
        (loaded / LOG).write_bytes(torn)
        rot_tree_leaves(state / "ptree")
        report = run_fsck(state, repair=True)
        assert report.healed, (report.repairs, report.refusals)
        assert [r["artifact"] for r in repairs_of(report, "truncate")] == [LOG]
        assert [r["artifact"] for r in repairs_of(report, "drop-derived")] == ["ptree"]
        assert (state / LOG).read_bytes() == pristine[: frame.start]
        repaired, direct = WeakKeyRegistry(state), WeakKeyRegistry(loaded)
        assert repaired.load() == direct.load() == 1
        assert repaired.moduli == direct.moduli == corpus.moduli[: len(repaired.moduli)]
        assert (loaded / LOG).read_bytes() == pristine[: frame.start]

    def test_torn_record_without_header_is_cut_off(self, tmp_path, corpus, corpus_hits):
        build_state(tmp_path, corpus, corpus_hits)
        pristine = (tmp_path / LOG).read_bytes()
        _, start, _ = record_region(tmp_path, 1, "header")
        (tmp_path / LOG).write_bytes(pristine[:start])  # torn inside its prefix
        report = run_fsck(tmp_path, repair=True)
        assert report.healed, (report.repairs, report.refusals)
        assert repairs_of(report, "truncate")
        fresh = WeakKeyRegistry(tmp_path)
        assert fresh.load() == 1

    def test_registry_survives_reload_after_repair(
        self, tmp_path, corpus, corpus_hits
    ):
        registry = build_state(tmp_path, corpus, corpus_hits)
        expected_hits = {(h.i, h.j) for h in registry.hits}
        flip_record_byte(tmp_path, 1, "keys")
        assert run_fsck(tmp_path, repair=True).healed
        fresh = WeakKeyRegistry(tmp_path)
        fresh.load()
        assert fresh.moduli == corpus.moduli
        assert {(h.i, h.j) for h in fresh.hits} == expected_hits

    def test_keys_blob_rebuilt_from_shard_tree_logs(
        self, tmp_path, corpus, corpus_hits
    ):
        build_state(tmp_path, corpus, corpus_hits, with_ptree=False)
        # one shard owning every even index, one owning the odds: each
        # worker's tree log records its leaves with their global indices
        write_shards(tmp_path, corpus.moduli)
        pristine = (tmp_path / LOG).read_bytes()
        flip_record_byte(tmp_path, 0, "keys")
        report = run_fsck(tmp_path, repair=True)
        assert report.healed, (report.repairs, report.refusals)
        assert (tmp_path / LOG).read_bytes() == pristine

    def test_shard_snapshot_alone_is_no_redundancy(self, tmp_path, corpus, corpus_hits):
        # a snapshot an earlier release left lists indices, not moduli:
        # without a tree log it proves nothing, and fsck does not read it
        build_state(tmp_path, corpus, corpus_hits, with_ptree=False)
        for k in (0, 1):
            indices = [g for g in range(len(corpus.moduli)) if g % 2 == k]
            shard_dir = tmp_path / "shards" / str(k)
            shard_dir.mkdir(parents=True)
            (shard_dir / "shard.json").write_text(json.dumps({
                "format": "repro.shard-snapshot/3", "shard": k, "shards": 2,
                "replicas": 1, "indices": indices, "job": 1,
            }))
        flip_record_byte(tmp_path, 0, "keys")
        report = run_fsck(tmp_path, repair=True)
        assert not report.healed
        assert any("no intact redundancy" in r["reason"] for r in report.refusals)

    def test_rotted_shard_tree_leaves_are_no_redundancy(
        self, tmp_path, corpus, corpus_hits
    ):
        # leaves that miss their pin prove nothing, and a refused registry
        # keeps its damaged tree logs as they are
        build_state(tmp_path, corpus, corpus_hits, with_ptree=False)
        write_shards(tmp_path, corpus.moduli)
        for k in (0, 1):
            rot_tree_leaves(tmp_path / "shards" / str(k) / "ptree")
        flip_record_byte(tmp_path, 0, "keys")
        report = run_fsck(tmp_path, repair=True)
        assert not report.healed
        assert any("no intact redundancy" in r["reason"] for r in report.refusals)
        assert not repairs_of(report, "drop-derived")
        assert (tmp_path / "shards" / "0" / "ptree" / TREE_LOG).exists()

    def test_no_redundancy_refuses_loudly(self, tmp_path, corpus, corpus_hits):
        build_state(tmp_path, corpus, corpus_hits, with_ptree=False)
        flip_record_byte(tmp_path, 0, "keys")
        damaged = (tmp_path / LOG).read_bytes()
        report = run_fsck(tmp_path, repair=True)
        assert not report.healed
        assert any("no intact redundancy" in r["reason"] for r in report.refusals)
        # the damaged log stays put for forensics — nothing destructive
        assert (tmp_path / LOG).read_bytes() == damaged


class TestPtreeRepair:
    def test_segment_corruption_regrows_the_tree(self, tmp_path, corpus, corpus_hits):
        build_state(tmp_path, corpus, corpus_hits)
        flip_byte(tmp_path / "ptree" / TREE_LOG)
        report = run_fsck(tmp_path, repair=True)
        assert report.healed, (report.repairs, report.refusals)
        assert [r["artifact"] for r in repairs_of(report, "drop-derived")] == ["ptree"]
        assert (tmp_path / "quarantine" / "ptree" / TREE_LOG).exists()
        # the next load regrows the tree from the registry's moduli
        tree = PersistentProductTree(spool_dir=tmp_path / "ptree")
        assert tree.load_or_rebuild(corpus.moduli) is False
        assert [int(n) for n in tree.leaves()] == corpus.moduli
        assert run_fsck(tmp_path).clean

    @pytest.mark.parametrize("service_tree", [False, True])
    def test_damaged_shard_tree_is_dropped_as_derived(
        self, tmp_path, corpus, corpus_hits, service_tree
    ):
        # a sharded state dir, perhaps with an intact service tree left by
        # an earlier one-shard run: only the damaged shard tree is touched
        build_state(tmp_path, corpus, corpus_hits, with_ptree=service_tree)
        write_shards(tmp_path, corpus.moduli)
        shard_tree = tmp_path / "shards" / "1" / "ptree"
        flip_byte(shard_tree / TREE_LOG)
        report = run_fsck(tmp_path, repair=True)
        assert report.healed, (report.repairs, report.refusals)
        dropped = [r["artifact"] for r in repairs_of(report, "drop-derived")]
        assert dropped == ["shards/1/ptree"]
        assert not repairs_of(report, "rebuild")
        assert not list(shard_tree.iterdir())
        assert (tmp_path / "quarantine" / "shards" / "1" / "ptree" / TREE_LOG).exists()
        assert (tmp_path / "shards" / "0" / "ptree" / TREE_LOG).exists()

    def test_damage_in_a_later_segment_keeps_the_earlier_ones(
        self, tmp_path, corpus, corpus_hits, monkeypatch
    ):
        monkeypatch.setattr(ptree, "SEGMENT_BYTES", 1)  # a tree segment per append
        build_state(tmp_path, corpus, corpus_hits, batches=4)
        tree = tmp_path / "ptree"
        assert [i for i, _ in chainlog.segment_paths(tree, chainlog.TREE)] == [0, 1, 2, 3]
        flip_byte(chainlog.segment_path(tree, 2, chainlog.TREE))
        report = run_fsck(tmp_path, repair=True)
        assert report.healed, (report.repairs, report.refusals)
        assert [i for i, _ in chainlog.segment_paths(tree, chainlog.TREE)] == [0, 1]
        assert sorted(p.name for p in (tmp_path / "quarantine" / "ptree").iterdir()) == [
            "tree-000002.log", "tree-000003.log",
        ]

    def test_mutual_repair_of_disjoint_damage(self, tmp_path):
        # registry keys heal from the tree log's leaves before the damaged
        # tree log is dropped — order matters.  12 keys in two batches give
        # two frames (leaves 0-5 and 6-11), so damage to keys 0-5 and to
        # the second frame is disjoint.
        from repro.core.attack import find_shared_primes
        from repro.rsa.corpus import generate_weak_corpus

        corpus = generate_weak_corpus(12, 64, shared_groups=(2,), seed=5)
        hits = find_shared_primes(corpus.moduli).hits
        build_state(tmp_path, corpus, hits)
        flip_record_byte(tmp_path, 0, "keys")  # indices 0-5: inside seg A
        truncate_tail(tmp_path / "ptree" / TREE_LOG)
        report = run_fsck(tmp_path, repair=True)
        assert report.healed, (report.repairs, report.refusals)
        fresh = WeakKeyRegistry(tmp_path)
        fresh.load()
        assert fresh.moduli == corpus.moduli


class TestRootOfTruthRefusals:
    def test_corrupt_registry_header_refuses(self, tmp_path, corpus, corpus_hits):
        build_state(tmp_path, corpus, corpus_hits)
        flip_record_byte(tmp_path, 0, "header")
        damaged = (tmp_path / LOG).read_bytes()
        report = run_fsck(tmp_path, repair=True)
        assert not report.healed
        assert any(
            r["artifact"] == LOG
            and "refusing to repair anything that depends on it" in r["reason"]
            for r in report.refusals
        )
        assert (tmp_path / LOG).read_bytes() == damaged

    def test_missing_segment_refuses(self, tmp_path, corpus, corpus_hits, monkeypatch):
        monkeypatch.setattr(chainlog, "SEGMENT_BYTES", 1)  # a segment per batch
        build_state(tmp_path, corpus, corpus_hits)
        (tmp_path / LOG).unlink()
        report = run_fsck(tmp_path, repair=True)
        assert not report.healed
        assert any("missing" in r["reason"] for r in report.refusals)

    @pytest.mark.parametrize("damage", ["blob", "manifest"])
    def test_damaged_v1_registry_refuses_and_touches_nothing(self, tmp_path, damage):
        # a registry not yet converted to the log: fsck repairs only the
        # log, and converting would keep only the verified prefix
        write_v1(tmp_path, V1_BATCHES)
        flip_byte(tmp_path / ("keys-000000.bin" if damage == "blob" else "manifest.json"))
        (tmp_path / "stray.tmp").write_bytes(b"residue")
        before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        report = run_fsck(tmp_path, repair=True)
        assert {f.family for f in report.scan.corrupt} == {"registry"}
        assert not report.healed and not report.repairs
        assert any("weak-key-registry/1" in r["reason"] for r in report.refusals)
        assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before

    def test_corrupt_cursor_refuses(self, tmp_path):
        from repro.ingest.cursor import CrawlCursor, CrawlState

        CrawlCursor(tmp_path).commit(
            CrawlState(log_url="https://ct.example/log", start=0, end=5, next_index=5)
        )
        path = tmp_path / "cursor.json"
        path.write_text(path.read_text().replace(":", ";", 1))
        report = run_fsck(tmp_path, repair=True)
        assert not report.healed
        assert any(r["artifact"] == "cursor.json" for r in report.refusals)


class TestShardAndSpoolRepair:
    def test_old_shard_snapshot_is_no_artifact(self, tmp_path, corpus):
        # a snapshot an earlier release left, even a torn one, is not read
        # by fsck; the worker's next init removes it
        sdir = tmp_path / "shards" / "0"
        sdir.mkdir(parents=True)
        (sdir / "shard.json").write_text('{"format": "repro.shard-')
        report = run_fsck(tmp_path, repair=True)
        assert report.clean and report.healed and not report.repairs
        write_shards(tmp_path, corpus.moduli)
        assert not (sdir / "shard.json").exists()

    def test_spool_truncated_to_verified_prefix(self, tmp_path):
        from repro.core.checkpoint import CheckpointStore, Manifest, StageRecord

        spool = tmp_path / "spool-000"
        spool.mkdir()
        store = CheckpointStore(spool)
        manifest = Manifest(config={"format": "batchscan-spool/1"})
        for stage in range(3):
            blob = f"blob-{stage:03d}.bin"
            info = write_blob(spool / blob, [stage * 10 + v for v in range(4)])
            manifest.stages.append(
                StageRecord(name=f"stage.{stage}", blob=blob, count=info.count,
                            nbytes=info.nbytes, sha256=info.sha256, seconds=0.0)
            )
        store.save(manifest)
        flip_byte(spool / "blob-001.bin")
        report = run_fsck(tmp_path, repair=True)
        assert report.healed, (report.repairs, report.refusals)
        kept = json.loads((spool / "manifest.json").read_bytes())["stages"]
        assert [s["name"] for s in kept] == ["stage.0"]
        # both dropped blobs (the corrupt one and its dependent) quarantined
        assert (tmp_path / "quarantine" / "spool-000" / "blob-001.bin").exists()


class TestIngestRepair:
    def _state(self, tmp_path, *, watermark, seen_bytes):
        from repro.ingest.cursor import CrawlCursor, CrawlState

        CrawlCursor(tmp_path).commit(
            CrawlState(
                log_url="https://ct.example/log", start=0, end=10, next_index=4,
                dedup_watermark=watermark,
            )
        )
        (tmp_path / "dedup").mkdir()
        (tmp_path / "dedup" / "seen.log").write_bytes(seen_bytes)

    def test_torn_seen_log_truncated_to_whole_records(self, tmp_path):
        self._state(tmp_path, watermark=2, seen_bytes=b"\x11" * 32 + b"\x22" * 32 + b"\x33" * 9)
        report = run_fsck(tmp_path, repair=True)
        assert report.healed, (report.repairs, report.refusals)
        assert (tmp_path / "dedup" / "seen.log").stat().st_size == 64

    def test_seen_log_under_watermark_refuses(self, tmp_path):
        self._state(tmp_path, watermark=3, seen_bytes=b"\x11" * 32 + b"\x22" * 9)
        report = run_fsck(tmp_path, repair=True)
        assert not report.healed
        assert any("committed" in r["reason"] for r in report.refusals)


class TestSidecarRefresh:
    def test_stale_sidecar_refreshed_when_family_clean(self, tmp_path):
        build_spool(tmp_path)
        manifest = tmp_path / SPOOL_MANIFEST
        write_sidecar(manifest, "0" * 64)
        report = run_fsck(tmp_path, repair=True)
        assert report.healed
        recorded = manifest.with_name("manifest.json.sha256").read_text().strip()
        actual = hashlib.sha256(manifest.read_bytes()).hexdigest()
        assert recorded == actual

    def test_stale_sidecar_not_refreshed_over_unrepaired_damage(self, tmp_path):
        # refreshing a sidecar in a family that still has corruption would
        # launder the damage into a "verified" state — must not happen.  A
        # second spool's damaged manifest is refused, so the spool family
        # stays corrupt.
        build_spool(tmp_path)
        other = tmp_path / "spool-001"
        other.mkdir()
        (other / "manifest.json").write_text('{"version": 1, "config": {')
        write_sidecar(tmp_path / SPOOL_MANIFEST, "0" * 64)
        report = run_fsck(tmp_path, repair=True)
        assert not report.healed
        side = (tmp_path / SPOOL_MANIFEST).with_name("manifest.json.sha256")
        assert side.read_text().strip() == "0" * 64


class TestQuarantineLayout:
    def test_collisions_get_numeric_suffixes(self, tmp_path, corpus, corpus_hits):
        build_state(tmp_path, corpus, corpus_hits)
        q = tmp_path / "quarantine"
        q.mkdir()
        (q / LOG).write_bytes(b"earlier incident")
        flip_record_byte(tmp_path, 0)
        report = run_fsck(tmp_path, repair=True)
        assert report.healed, (report.repairs, report.refusals)
        assert (q / LOG).read_bytes() == b"earlier incident"
        assert any(p.name.startswith(LOG + ".") for p in q.iterdir()), list(q.iterdir())
