"""The persistent product tree: shape, arithmetic, persistence, crashes.

The crash/resume matrix mirrors ``tests/core/test_pipeline.py``: a
deterministic fault is armed at every commit point of the tree's persist
protocol (``ptree.commit``, each ``spool.write``, the ``manifest.commit``)
with retries exhausted, and after every crash a restarted tree must come
back byte-equal to a never-crashed one — loading the previous flush
boundary when the durable state is intact, rebuilding from the corpus
when it is not, and never trusting state over arithmetic.
"""

import math

import pytest

from repro.core.checkpoint import CheckpointStore
from repro.core.ptree import SCREEN_MIN_RATIO, PersistentProductTree
from repro.core.spool import write_blob
from repro.resilience import RetryPolicy
from repro.resilience.faults import install_plan, parse_spec, reset_plan
from repro.telemetry import Telemetry

# distinct small semiprimes; values are irrelevant to tree mechanics
_PRIMES = [193, 197, 199, 211, 223, 227, 229, 233, 239, 241, 251, 257]
MODULI = [_PRIMES[i] * _PRIMES[i + 1] for i in range(len(_PRIMES) - 1)]


@pytest.fixture(autouse=True)
def _clean_plan():
    reset_plan()
    yield
    reset_plan()


def _tree(spool_dir=None, **kw):
    kw.setdefault("retry_policy", RetryPolicy(max_attempts=2, base_delay=0))
    return PersistentProductTree(spool_dir=spool_dir, **kw)


def _ints(values):
    return [int(v) for v in values]


class TestShape:
    def test_segment_sizes_are_binary_decomposition(self):
        tree = _tree()
        for m, n in enumerate(MODULI, start=1):
            tree.append([n])
            sizes = tree.segment_sizes()
            assert sizes == sorted(sizes, reverse=True)
            assert sum(sizes) == m
            assert all(s & (s - 1) == 0 for s in sizes)
            assert _ints(tree.leaves()) == MODULI[:m]

    def test_batched_appends_reach_the_same_shape(self):
        one_by_one, batched = _tree(), _tree()
        for n in MODULI:
            one_by_one.append([n])
        batched.append(MODULI[:5])
        batched.append(MODULI[5:])
        assert batched.segment_sizes() == one_by_one.segment_sizes()
        assert _ints(batched.leaves()) == _ints(one_by_one.leaves())

    def test_total_merges_equal_m_minus_popcount(self):
        telemetry = Telemetry.create()
        tree = _tree(telemetry=telemetry)
        tree.append(MODULI)
        m = len(MODULI)
        merges = telemetry.registry.counter("ptree.node_merges").value
        assert merges == m - bin(m).count("1")

    def test_append_nothing_is_a_noop(self):
        tree = _tree()
        tree.append([])
        assert tree.n_leaves == 0 and tree.segment_sizes() == []


def _screened(tree, value):
    """``batch_remainders`` with plain-int leaves and residues."""
    return [
        (start, _ints(leaves), _ints(rems))
        for start, leaves, rems in tree.batch_remainders(value)
    ]


def _segments(tree, corpus=MODULI):
    """``(start, leaves)`` per live segment, plain ints."""
    out, start = [], 0
    for size in tree.segment_sizes():
        out.append((start, corpus[start : start + size]))
        start += size
    return out


def _primes_from(lo: int, count: int) -> list[int]:
    out, p = [], lo | 1
    while len(out) < count:
        if all(p % d for d in range(3, int(p**0.5) + 1, 2)):
            out.append(p)
        p += 2
    return out


# 16-bit primes with the top two bits set, so every product has 32 bits
_P16 = _primes_from(49152, 110)
#: 48 pairwise coprime 32-bit keys: segments of 32 and 16 leaves, roots of
#: ~1,024 and ~512 bits — large enough to screen a batch of a few keys
CORPUS32 = [_P16[2 * i] * _P16[2 * i + 1] for i in range(48)]
#: primes in no CORPUS32 key
_FRESH = _P16[96:]


class TestRemainders:
    def test_remainders_match_direct_mod(self):
        """The contract spelled out: a segment whose root has at least
        ``SCREEN_MIN_RATIO`` times the probe's bits is screened and dropped
        when its root GCD is 1, else descends that GCD; a smaller one
        descends the probe itself."""
        tree = _tree()
        tree.append(MODULI)
        for probe in (193, 3 * 193, 401, 3 * 5 * 7 * 11 * 13 * 193 * 199):
            expected = []
            for start, leaves in _segments(tree):
                top = probe
                root = math.prod(leaves)
                if root.bit_length() >= SCREEN_MIN_RATIO * probe.bit_length():
                    top = math.gcd(probe, root)
                    if top == 1:
                        continue
                expected.append((start, leaves, [top % n for n in leaves]))
            assert _screened(tree, probe) == expected, probe

    def test_flagging_via_remainders_matches_gcd(self):
        """``gcd(n_i, r_i) = gcd(n_i, Π new)`` at every descended leaf, and
        every leaf the screen dropped shares nothing with the batch."""
        tree = _tree()
        tree.append(CORPUS32)
        batches = [
            [_P16[0] * _FRESH[0]],  # one key, shares with key 0
            [_FRESH[1] * _FRESH[2]],  # one key, shares nothing
            [_P16[40] * _FRESH[3], _P16[90] * _FRESH[4]],  # both segments hit
            [_FRESH[5] * _FRESH[6], _P16[95] * _FRESH[7]],  # the last key
            # five keys: too large to screen either segment
            [_FRESH[2 * t] * _FRESH[2 * t + 1] for t in range(4)] + [_P16[7] * _FRESH[13]],
        ]
        for batch in batches:
            product = math.prod(batch)
            flags = [1] * len(CORPUS32)
            for start, leaves, rems in _screened(tree, product):
                for i, (n, r) in enumerate(zip(leaves, rems), start):
                    assert n == CORPUS32[i]
                    flags[i] = math.gcd(n, r)
            assert flags == [math.gcd(n, product) for n in CORPUS32], batch

    def test_batch_sharing_nothing_flags_no_segment(self):
        telemetry = Telemetry.create()
        tree = _tree(telemetry=telemetry)
        tree.append(CORPUS32)
        reg = telemetry.registry
        screened = reg.counter("ptree.segments_screened")
        flagged = reg.counter("ptree.segments_flagged")
        assert tree.batch_remainders(_FRESH[0] * _FRESH[1]) == []
        assert (screened.value, flagged.value) == (2, 0)
        # a batch as large as the segments is not screened: every segment
        # is descended, and no leaf shares a prime with it
        big = math.prod(_FRESH)
        descended = _screened(tree, big)
        assert [start for start, _, _ in descended] == [0, 32]
        assert all(math.gcd(n, r) == 1 for _, ns, rs in descended for n, r in zip(ns, rs))
        assert (screened.value, flagged.value) == (2, 2)

    @pytest.mark.parametrize("corpus_size", [3, 48])
    def test_batch_product_divisible_by_a_leaf_matches_native(self, corpus_size):
        """``n_i = p·q`` against a batch holding ``p·r`` and ``q·s``: ``Π new ≡
        0 (mod n_i)``, so the leaf's residue is 0 and its flag is ``n_i`` —
        whether the batch is too large to screen (3 keys) or the segment is
        screened first (48)."""
        from repro.core.incremental import IncrementalScanner

        p, q = _P16[0], _P16[1]
        r, s = _FRESH[0], _FRESH[1]
        corpus = CORPUS32[:corpus_size]
        batch = [p * r, _FRESH[2] * _FRESH[3], q * s]
        telemetry = Telemetry.create()
        tree = _tree(telemetry=telemetry)
        tree.append(corpus)
        descended = _screened(tree, math.prod(batch))
        assert descended[0][0] == 0 and descended[0][2][0] == 0
        screened = telemetry.registry.counter("ptree.segments_screened").value
        assert (screened > 0) == (corpus_size == 48)
        scanner = IncrementalScanner(bits=32)
        scanner.adopt(corpus)
        report = scanner.cross_scan(batch, include_internal=True)
        native = [
            (i, corpus_size + t, math.gcd(a, b))
            for i, a in enumerate(corpus + batch)
            for t, b in enumerate(batch)
            if i < corpus_size + t and math.gcd(a, b) > 1
        ]
        n = corpus_size
        assert [(h.i, h.j, h.prime) for h in report.hits] == native == [(0, n, p), (0, n + 2, q)]


class TestPersistence:
    def test_reload_restores_exact_shape(self, tmp_path):
        telemetry = Telemetry.create()
        tree = _tree(tmp_path)
        tree.append(MODULI[:7])
        tree.append(MODULI[7:])
        reloaded = _tree(tmp_path, telemetry=telemetry)
        assert reloaded.load_or_rebuild(MODULI) is True
        assert reloaded.segment_sizes() == tree.segment_sizes()
        assert _ints(reloaded.leaves()) == MODULI
        assert telemetry.registry.counter("ptree.rebuilds").value == 0

    def test_unchanged_segments_are_not_rewritten(self, tmp_path):
        telemetry = Telemetry.create()
        tree = _tree(tmp_path, telemetry=telemetry)
        tree.append(MODULI[:8])  # one perfect segment of 8
        writes_before = telemetry.registry.counter("ptree.blob_writes").value
        tree.append([MODULI[8]])  # adds a 1-leaf segment; the 8 stays put
        writes = telemetry.registry.counter("ptree.blob_writes").value - writes_before
        assert writes == 1

    def test_spool_trailing_by_a_batch_loads_and_appends(self, tmp_path):
        # the service appends to its tree only after the registry commits,
        # so a crash in between leaves the spool one batch behind: it loads,
        # and the batch is an ordinary append writing only the segments it
        # creates or merges
        _tree(tmp_path).append(MODULI[:6])  # segments [4, 2]
        telemetry = Telemetry.create()
        trailing = _tree(tmp_path, telemetry=telemetry)
        assert trailing.load_or_rebuild(MODULI[:7]) is True
        counter = telemetry.registry.counter
        assert counter("ptree.rebuilds").value == 0
        assert counter("ptree.node_merges").value == 0
        # [4, 2] from the spool plus the new 1-leaf segment, the one write
        assert trailing.segment_sizes() == [4, 2, 1]
        assert counter("ptree.blob_writes").value == 1
        assert _ints(trailing.leaves()) == MODULI[:7]
        # a batch that carries merges writes the merged segment alone
        merged = _tree(tmp_path, telemetry=telemetry)
        assert merged.load_or_rebuild(MODULI[:8]) is True
        assert merged.segment_sizes() == [8]
        assert counter("ptree.blob_writes").value == 2
        assert counter("ptree.rebuilds").value == 0

    def test_spool_ahead_of_the_corpus_is_rebuilt(self, tmp_path):
        _tree(tmp_path).append(MODULI[:6])
        telemetry = Telemetry.create()
        recovered = _tree(tmp_path, telemetry=telemetry)
        assert recovered.load_or_rebuild(MODULI[:5]) is False
        assert telemetry.registry.counter("ptree.rebuilds").value == 1
        assert _ints(recovered.leaves()) == MODULI[:5]

    def test_corrupt_blob_falls_back_to_rebuild(self, tmp_path):
        _tree(tmp_path).append(MODULI)
        blob = max(tmp_path.glob("seg-*.bin"))
        blob.write_bytes(blob.read_bytes()[:-3] + b"\x00\x00\x00")
        telemetry = Telemetry.create()
        recovered = _tree(tmp_path, telemetry=telemetry)
        assert recovered.load_or_rebuild(MODULI) is False
        assert telemetry.registry.counter("ptree.rebuilds").value == 1
        assert _ints(recovered.leaves()) == MODULI

    def test_corpus_drift_falls_back_to_rebuild(self, tmp_path):
        _tree(tmp_path).append(MODULI)
        drifted = list(MODULI)
        drifted[3] = 401 * 409
        recovered = _tree(tmp_path)
        assert recovered.load_or_rebuild(drifted) is False
        assert _ints(recovered.leaves()) == drifted

    def test_foreign_manifest_falls_back_to_rebuild(self, tmp_path):
        from repro.core.checkpoint import Manifest, StageRecord

        info = write_blob(tmp_path / "other.bin", [1, 2, 3])
        CheckpointStore(tmp_path).save(
            Manifest(
                config={"format": "something-else/1"},
                stages=[
                    StageRecord(
                        name="other", blob="other.bin", count=info.count,
                        nbytes=info.nbytes, sha256=info.sha256, seconds=0.0,
                    )
                ],
            )
        )
        recovered = _tree(tmp_path)
        assert recovered.load_or_rebuild(MODULI[:3]) is False
        assert _ints(recovered.leaves()) == MODULI[:3]

    def test_load_requires_empty_tree(self, tmp_path):
        tree = _tree(tmp_path)
        tree.append(MODULI[:2])
        with pytest.raises(ValueError):
            tree.load_or_rebuild(MODULI[:2])

    def test_transient_write_fault_is_retried_through(self, tmp_path):
        install_plan(parse_spec("spool.write#1=ioerror"))
        telemetry = Telemetry.create()
        tree = _tree(tmp_path, telemetry=telemetry)
        tree.append(MODULI[:4])
        assert telemetry.registry.counter("ptree.commit_retries").value >= 1
        reset_plan()
        assert _tree(tmp_path).load_or_rebuild(MODULI[:4]) is True


BATCHES = [MODULI[:3], MODULI[3:5], MODULI[5:9], MODULI[9:]]
COMMIT_POINTS = ("ptree.commit", "spool.write", "manifest.commit")


class TestCrashResumeMatrix:
    """Kill the persist protocol at every commit point, then restart."""

    @pytest.mark.parametrize("point", COMMIT_POINTS)
    @pytest.mark.parametrize("nth", range(1, 8))
    def test_crash_then_restart_is_equivalent_to_clean(self, tmp_path, point, nth):
        install_plan(parse_spec(f"{point}#{nth}+=ioerror"))
        tree = _tree(tmp_path)
        durable: list[int] = []
        crashed = False
        for batch in BATCHES:
            try:
                tree.append(batch)
            except OSError:
                crashed = True
                break
            durable.extend(batch)
        reset_plan()

        # the previous flush boundary survives every crash: blobs are
        # written before the manifest and stale blobs unlinked only after
        # it, so the old manifest always points at intact files
        boundary = _tree(tmp_path)
        # (a crash on the very first flush leaves no manifest to load)
        assert boundary.load_or_rebuild(durable) is (len(durable) > 0)
        assert _ints(boundary.leaves()) == durable

        # resuming the stream from the boundary converges with a tree
        # that never crashed
        remaining = [n for n in sum(BATCHES, []) if n not in durable]
        boundary.append(remaining)
        clean = _tree()
        clean.append(sum(BATCHES, []))
        assert boundary.segment_sizes() == clean.segment_sizes()
        assert _ints(boundary.leaves()) == _ints(clean.leaves())
        probe = 193 * 239 * 401
        assert _screened(boundary, probe) == _screened(clean, probe)
        if not crashed:
            assert nth > 1  # every point fires at least once over 4 flushes
