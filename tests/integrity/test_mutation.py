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
warning — reported, never silently accepted.
"""

import pytest

try:
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover - bare environments skip the property
    pytest.skip("hypothesis is not installed", allow_module_level=True)

from repro.core.attack import find_shared_primes
from repro.core.checkpoint import CheckpointStore, Manifest, StageRecord
from repro.core.ptree import PersistentProductTree
from repro.core.spool import write_blob
from repro.integrity.catalog import ArtifactCatalog
from repro.rsa.corpus import generate_weak_corpus
from repro.service.registry import WeakKeyRegistry


@pytest.fixture(scope="module")
def state_dir(tmp_path_factory):
    """One committed state dir with all three spool kinds, scanned clean."""
    root = tmp_path_factory.mktemp("mutation-state")
    corpus = generate_weak_corpus(10, 64, shared_groups=(2,), seed=31)
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
def test_any_truncation_is_detected(state_dir, family, data):
    targets = FAMILIES[family](state_dir)
    path = data.draw(st.sampled_from(targets), label="artifact")
    raw = path.read_bytes()
    keep = data.draw(st.integers(0, len(raw) - 1), label="bytes-kept")
    try:
        path.write_bytes(raw[:keep])
        report = ArtifactCatalog(state_dir).scan()
        if path.suffix in (".bin", ".log"):
            # every blob byte is pinned, and a log segment never holds zero
            # records: truncation is corrupt, full stop
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
