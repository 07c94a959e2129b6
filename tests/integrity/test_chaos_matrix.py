"""Chaos matrix: fault-injected bit rot per artifact family, end to end.

Each leg arms a ``corrupt:*`` fault at a real commit point, runs a live
service (so the corruption lands exactly where a failing disk would put
it — after a successful commit), and then proves the offline contract:

(a) ``ArtifactCatalog`` hands the damaged family the right verdict,
(b) ``repro fsck --repair`` quarantines and heals (or refuses loudly
    when the damaged party is a root of truth),
(c) a restarted service reproduces the exact pre-corruption hit set
    with zero duplicate submissions.
"""

import pytest

from repro.integrity.catalog import ArtifactCatalog
from repro.integrity.fsck import run_fsck
from repro.resilience.faults import install_plan, parse_spec, reset_plan

from tests.integrity.conftest import flip_byte  # noqa: F401  (fixture reuse)
from tests.service.test_http import request, serve

#: every matrix leg detects offline; the online scrubber has its own suite
QUIET = dict(scrub_interval=0)

MODE_VERDICT = [
    ("bitflip", "hash-mismatch"),
    ("truncate", "torn-tail"),
    ("zero", "hash-mismatch"),
]


def run_batches(state_dir, corpus, spec, *, batches=2, **overrides):
    """Serve with ``spec`` armed, submit the corpus in batches, return hits."""
    install_plan(parse_spec(spec))

    async def go(server):
        per = len(corpus.moduli) // batches
        for b in range(batches):
            chunk = corpus.moduli[b * per : (b + 1) * per]
            status, _, _ = await request(
                server.port, "POST", "/submit?wait=1",
                {"moduli": [hex(n)[2:] for n in chunk]},
            )
            assert status == 200
        _, _, payload = await request(server.port, "GET", "/hits")
        return {(h["i"], h["j"], h["prime"]) for h in payload["hits"]}

    try:
        return serve(state_dir, go, **{**QUIET, **overrides})
    finally:
        reset_plan()  # the rot happened; fsck/restart must run undisturbed


def assert_recovered(state_dir, corpus, expected_hits, **overrides):
    """Restart cleanly; the pre-corruption hit set must come back exactly."""

    async def go(server):
        _, _, payload = await request(server.port, "GET", "/hits")
        _, _, health = await request(server.port, "GET", "/healthz")
        return payload, health

    payload, health = serve(state_dir, go, **{**QUIET, **overrides})
    assert {(h["i"], h["j"], h["prime"]) for h in payload["hits"]} == expected_hits
    assert payload["keys"] == len(corpus.moduli)
    assert health["duplicate_submissions"] == 0


def family_verdicts(state_dir, family, *, corrupt_only=False):
    report = ArtifactCatalog(state_dir).scan()
    pool = report.corrupt if corrupt_only else report.findings
    return {
        f.artifact: f.verdict
        for f in pool
        if f.family == family and f.verdict != "ok"
    }


LOG = "registry-000000.log"


@pytest.mark.parametrize("mode,verdict", MODE_VERDICT)
class TestRegistryFamily:
    def test_detect_repair_rescan(self, tmp_path, corpus, mode, verdict):
        # ``#3`` rots the body of batch 1's record (each record counts its
        # body, then its header): the keys and hits that redundancy holds
        hits = run_batches(
            tmp_path, corpus, f"registry.commit#3=corrupt:{mode}"
        )
        assert hits  # the planted pairs surfaced before the rot
        assert family_verdicts(tmp_path, "registry") == {LOG: verdict}
        report = run_fsck(tmp_path, repair=True)
        assert report.healed, (report.repairs, report.refusals)
        assert (tmp_path / "quarantine" / LOG).exists()
        assert_recovered(tmp_path, corpus, hits)


@pytest.mark.parametrize("mode,verdict", MODE_VERDICT)
class TestPtreeFamily:
    def test_detect_repair_rescan(self, tmp_path, corpus, mode, verdict):
        # corrupt every segment write: the binary-counter merge deletes
        # superseded segments, so only damage to the *surviving* blob
        # (the final merged segment) is observable afterwards
        hits = run_batches(
            tmp_path, corpus, f"ptree.commit=corrupt:{mode}"
        )
        damaged = family_verdicts(tmp_path, "ptree")
        assert list(damaged.values()) == [verdict], damaged
        assert all(a.startswith("ptree/seg-") for a in damaged)
        report = run_fsck(tmp_path, repair=True)
        assert report.healed, (report.repairs, report.refusals)
        assert_recovered(tmp_path, corpus, hits)


@pytest.mark.parametrize("mode", ["truncate", "zero"])
class TestRegistryHeaderFamily:
    def test_root_of_truth_damage_refuses_not_launders(self, tmp_path, corpus, mode):
        # ``#2`` rots the header of batch 0's record, which batch 1's
        # record then follows: the one part of the log no redundancy
        # holds, so fsck must never "repair" around it
        run_batches(tmp_path, corpus, f"registry.commit#2=corrupt:{mode}")
        verdicts = family_verdicts(tmp_path, "registry")
        assert verdicts.get(LOG) in ("torn-tail", "hash-mismatch")
        files_before = {
            p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()
        }
        report = run_fsck(tmp_path, repair=True)
        assert not report.healed
        assert any(
            "refusing to repair anything that depends on it" in r["reason"]
            for r in report.refusals
        )
        # intact files were not touched by the refused repair
        assert {
            p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()
        } == files_before


@pytest.mark.parametrize("mode,verdict", MODE_VERDICT)
class TestShardFamily:
    def test_snapshots_drop_and_rebuild_with_two_shards(
        self, tmp_path, corpus, mode, verdict
    ):
        # corrupt every persist: the final snapshot of each worker is damaged
        hits = run_batches(
            tmp_path, corpus, f"shard.commit=corrupt:{mode}", shards=2
        )
        damaged = family_verdicts(tmp_path, "shard-snapshot")
        assert set(damaged) <= {"shards/0/shard.json", "shards/1/shard.json"}
        assert damaged, "no snapshot corruption recorded"
        if mode != "bitflip":  # a bitflip inside a JSON number stays parseable,
            assert set(damaged.values()) == {verdict}  # caught by sidecar only
        corrupt = family_verdicts(tmp_path, "shard-snapshot", corrupt_only=True)
        report = run_fsck(tmp_path, repair=True)
        assert report.healed, (report.repairs, report.refusals)
        # corrupt-severity snapshots are dropped (derived data); a
        # still-parseable bitflip is surfaced as stale-checksum instead
        for artifact in corrupt:
            assert not (tmp_path / artifact).exists()
        # the restarted fleet rebuilds its snapshots from the registry
        assert_recovered(tmp_path, corpus, hits, shards=2)
        assert (tmp_path / "shards" / "0" / "shard.json").exists()

    def test_shard_trees_drop_and_rebuild_with_two_shards(
        self, tmp_path, corpus, mode, verdict
    ):
        # corrupt every segment write of both workers' trees
        hits = run_batches(
            tmp_path, corpus, f"ptree.commit=corrupt:{mode}", shards=2
        )
        damaged = family_verdicts(tmp_path, "ptree", corrupt_only=True)
        assert damaged, "no shard tree corruption recorded"
        assert set(damaged.values()) == {verdict}
        trees = {a.rsplit("/", 1)[0] for a in damaged}
        assert trees <= {"shards/0/ptree", "shards/1/ptree"}, damaged
        report = run_fsck(tmp_path, repair=True)
        assert report.healed, (report.repairs, report.refusals)
        assert {
            r["artifact"] for r in report.repairs if r["action"] == "drop-derived"
        } == trees
        # the restarted workers rebuild their trees from the registry slice
        assert_recovered(tmp_path, corpus, hits, shards=2)
        for tree in trees:
            assert (tmp_path / tree / "manifest.json").exists()


@pytest.mark.parametrize("mode", ["truncate", "zero"])
class TestIngestCursorFamily:
    def test_cursor_damage_refuses(self, tmp_path, mode):
        from repro.ingest.cursor import CrawlCursor, CrawlState

        install_plan(parse_spec(f"ct.cursor.commit=corrupt:{mode}"))
        CrawlCursor(tmp_path).commit(
            CrawlState(log_url="https://ct.example/log", start=0, end=8, next_index=8)
        )
        reset_plan()
        verdicts = family_verdicts(tmp_path, "ingest")
        assert verdicts.get("cursor.json") in ("torn-tail", "hash-mismatch")
        report = run_fsck(tmp_path, repair=True)
        assert not report.healed
        assert any(r["artifact"] == "cursor.json" for r in report.refusals)
