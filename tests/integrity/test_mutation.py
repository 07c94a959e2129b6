"""Property test: no single-byte mutation of a committed artifact slips by.

The deep-verify contract is stronger than "the chaos suite's three
corruption shapes are caught": *any* byte of *any* committed RGSPOOL1
blob, manifest, registry log segment or tree log segment can rot, and
the catalog must say so.  Hypothesis
drives the quantifier — it picks the artifact, the offset, and the XOR
delta; shrinking turns a miss into the smallest undetected mutation,
which is exactly the bug report you want.

Detection means the scan is no longer pristine: blob damage surfaces at
corrupt severity (the manifest pins every byte), while a mutation inside
a still-parseable JSON manifest may surface as a ``stale-checksum``
warning — reported, never silently accepted.  One truncation is not
damage: a log cut exactly at a frame boundary of its last segment reads
as the same log before its later appends (``docs/INTEGRITY.md``'s
accepted loss), and for a tree log the next load appends what it lost.
"""

import pytest

try:
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover - bare environments skip the property
    pytest.skip("hypothesis is not installed", allow_module_level=True)

from repro.core import chainlog
from repro.core.attack import find_shared_primes
from repro.core.checkpoint import CheckpointStore, Manifest, StageRecord
from repro.core.ptree import PersistentProductTree
from repro.core.spool import write_blob
from repro.integrity.catalog import ArtifactCatalog
from repro.rsa.corpus import generate_weak_corpus
from repro.service.registry import WeakKeyRegistry
from repro.telemetry import Telemetry


@pytest.fixture(scope="module")
def corpus():
    return generate_weak_corpus(10, 64, shared_groups=(2,), seed=31)


@pytest.fixture(scope="module")
def state_dir(tmp_path_factory, corpus):
    """One committed state dir with all three spool kinds, scanned clean."""
    root = tmp_path_factory.mktemp("mutation-state")
    hits = find_shared_primes(corpus.moduli).hits

    registry = WeakKeyRegistry(root)
    registry.load()
    registry.commit_batch(corpus.moduli, hits)

    tree = PersistentProductTree(spool_dir=root / "ptree")
    tree.append(corpus.moduli[:7])
    tree.append(corpus.moduli[7:])

    spool = root / "shard-000"
    spool.mkdir()
    store = CheckpointStore(spool)
    manifest = Manifest(config={"kind": "batchscan"})
    info = write_blob(spool / "blob-000.bin", corpus.moduli)
    manifest.stages.append(
        StageRecord(name="ingest", blob="blob-000.bin", count=info.count,
                    nbytes=info.nbytes, sha256=info.sha256, seconds=0.0)
    )
    store.save(manifest)

    report = ArtifactCatalog(root).scan()
    assert report.clean and not report.warnings, report.to_json()
    return root


FAMILIES = {
    "registry": lambda root: [root / "registry-000000.log"],
    "ptree": lambda root: [root / "ptree" / "tree-000000.log"],
    "batchscan": lambda root: [root / "shard-000" / "blob-000.bin",
                               root / "shard-000" / "manifest.json"],
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_any_single_byte_mutation_is_detected(state_dir, family, data):
    targets = FAMILIES[family](state_dir)
    path = data.draw(st.sampled_from(targets), label="artifact")
    raw = path.read_bytes()
    pos = data.draw(st.integers(0, len(raw) - 1), label="offset")
    delta = data.draw(st.integers(1, 255), label="xor-delta")
    mutated = bytes([raw[pos] ^ delta if k == pos else raw[k] for k in range(len(raw))])
    try:
        path.write_bytes(mutated)
        report = ArtifactCatalog(state_dir).scan()
        assert report.corrupt or report.warnings, (
            f"mutation of {path.name} byte {pos} (xor {delta:#04x}) scanned clean"
        )
    finally:
        path.write_bytes(raw)


@pytest.mark.parametrize("family", sorted(FAMILIES))
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_any_truncation_is_detected(state_dir, corpus, family, data):
    targets = FAMILIES[family](state_dir)
    path = data.draw(st.sampled_from(targets), label="artifact")
    raw = path.read_bytes()
    keep = data.draw(st.integers(0, len(raw) - 1), label="bytes-kept")
    # the tree log is one segment of two frames (the registry's holds one
    # record): a cut at the end of the first leaves a shorter valid log
    boundaries = set()
    if family == "ptree":
        (_, _, frames, _), = chainlog.iter_log(path.parent, chainlog.TREE)
        boundaries = {frame.end for frame in frames}
    try:
        path.write_bytes(raw[:keep])
        report = ArtifactCatalog(state_dir).scan()
        if keep in boundaries:
            # the accepted loss: nothing to find, and a tree load appends
            # the lost frames again from the corpus, byte for byte
            assert report.clean and not report.warnings, report.to_json()
            telemetry = Telemetry.create()
            tree = PersistentProductTree(spool_dir=path.parent, telemetry=telemetry)
            assert tree.load_or_rebuild(corpus.moduli) is True
            assert telemetry.registry.counter("ptree.rebuilds").value == 0
            assert telemetry.registry.counter("ptree.log_appends").value > 0
            assert path.read_bytes() == raw
            return
        if path.suffix in (".bin", ".log"):
            # every other cut of a pinned blob or a log segment is corrupt
            detected = report.corrupt
        else:
            # manifest truncation that leaves valid JSON (e.g. dropping
            # the trailing newline) is caught by the sidecar as a warning
            detected = report.corrupt or report.warnings
        assert detected, (
            f"truncating {path.name} to {keep}/{len(raw)} bytes scanned clean"
        )
    finally:
        path.write_bytes(raw)
