"""The persistent product tree: shape, arithmetic, persistence, crashes.

The crash/resume matrix mirrors ``tests/core/test_pipeline.py``: a
deterministic fault is armed at the tree's commit point (``ptree.commit``,
before each log append) with retries exhausted, and after every crash a
restarted tree must come back equal to a never-crashed one, loading the
previous flush boundary from its log.  The spool and manifest points
arm too, and must never fire: a tree append writes no blob and no
manifest.
"""

import math

import pytest

from repro.core import chainlog, ptree
from repro.core.checkpoint import CheckpointStore, Manifest, StageRecord
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

    def test_segments_stop_merging_at_the_cap(self, monkeypatch):
        monkeypatch.setattr(ptree, "MAX_SEGMENT_LEAVES", 4)
        telemetry = Telemetry.create()
        one_by_one, batched = _tree(telemetry=telemetry), _tree()
        for n in MODULI:
            one_by_one.append([n])
        batched.append(MODULI)
        assert one_by_one.segment_sizes() == batched.segment_sizes() == [4, 4, 2, 1]
        assert _ints(batched.leaves()) == MODULI
        # each capped segment took 3 merges, the 3-leaf rest 1
        assert telemetry.registry.counter("ptree.node_merges").value == 2 * 3 + 1
        for seg in batched.segments:
            assert [len(level) for level in seg.levels][-1] == 1
            assert int(seg.root) == math.prod(_ints(seg.levels[0]))

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


def _frames(spool_dir):
    return chainlog.read_log(spool_dir, chainlog.TREE).frames


def _log_bytes(spool_dir):
    return b"".join(p.read_bytes() for _, p in chainlog.segment_paths(spool_dir, chainlog.TREE))


class TestPersistence:
    def test_reload_restores_exact_shape(self, tmp_path):
        telemetry = Telemetry.create()
        tree = _tree(tmp_path)
        tree.append(MODULI[:7])
        tree.append(MODULI[7:])
        before = _log_bytes(tmp_path)
        reloaded = _tree(tmp_path, telemetry=telemetry)
        assert reloaded.load_or_rebuild(MODULI) is True
        assert reloaded.segment_sizes() == tree.segment_sizes()
        assert _ints(reloaded.leaves()) == MODULI
        assert _screened(reloaded, 193 * 401) == _screened(tree, 193 * 401)
        counter = telemetry.registry.counter
        assert counter("ptree.rebuilds").value == 0
        # the replay multiplies nothing and writes nothing
        assert counter("ptree.node_merges").value == 0
        assert counter("ptree.log_appends").value == 0
        assert _log_bytes(tmp_path) == before

    def test_log_written_before_the_cap_loads_without_a_rebuild(self, tmp_path, monkeypatch):
        # an uncapped tree (the forest before the cap) logs every carry;
        # a capped load skips the products above the cap, multiplies and
        # writes nothing, and screens as a tree grown capped from scratch
        monkeypatch.setattr(ptree, "MAX_SEGMENT_LEAVES", 1 << 30)
        uncapped = _tree(tmp_path)
        for batch in (MODULI[:3], MODULI[3:8], MODULI[8:]):
            uncapped.append(batch)
        assert uncapped.segment_sizes() == [8, 2, 1]
        before = _log_bytes(tmp_path)
        monkeypatch.setattr(ptree, "MAX_SEGMENT_LEAVES", 2)
        telemetry = Telemetry.create()
        loaded = _tree(tmp_path, telemetry=telemetry)
        assert loaded.load_or_rebuild(MODULI) is True
        counter = telemetry.registry.counter
        assert counter("ptree.rebuilds").value == 0
        assert counter("ptree.node_merges").value == 0
        assert counter("ptree.log_appends").value == 0
        assert _log_bytes(tmp_path) == before
        fresh = _tree()
        fresh.append(MODULI)
        assert loaded.segment_sizes() == fresh.segment_sizes() == [2, 2, 2, 2, 2, 1]
        assert [_ints(s.levels[-1]) for s in loaded.segments] == [
            _ints(s.levels[-1]) for s in fresh.segments
        ]
        for probe in (193, 193 * 239 * 401):
            assert _screened(loaded, probe) == _screened(fresh, probe)
        # capped frames follow the pre-cap ones, and both kinds reload
        loaded.append([401 * 409])
        again = _tree(tmp_path, telemetry=telemetry)
        assert again.load_or_rebuild(MODULI + [401 * 409]) is True
        assert counter("ptree.rebuilds").value == 0
        assert again.segment_sizes() == [2, 2, 2, 2, 2, 2]

    def test_unchanged_segments_are_not_rewritten(self, tmp_path):
        telemetry = Telemetry.create()
        tree = _tree(tmp_path, telemetry=telemetry)
        tree.append(MODULI[:8])  # one perfect segment of 8
        before = _log_bytes(tmp_path)
        tree.append([MODULI[8]])  # adds a 1-leaf segment; the 8 stays put
        after = _log_bytes(tmp_path)
        assert after.startswith(before)
        assert telemetry.registry.counter("ptree.log_appends").value == 2
        # the new frame holds the one leaf and no merge product
        last = _frames(tmp_path)[-1]
        assert last.header["indices"] == [8]
        assert last.body == chainlog.pack_ints([MODULI[8]])
        assert len(after) - len(before) == last.end - last.start

    def test_an_append_is_one_fsync(self, tmp_path, monkeypatch):
        # one frame, one write, one fsync; plus the directory's when the
        # frame opens a segment file (and the new directory's own)
        import os

        synced = []
        real = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: (synced.append(fd), real(fd)))
        tree = _tree(tmp_path / "ptree")
        tree.append(MODULI[:3])
        assert len(synced) == 3  # the new directory, the new file, its directory
        for batch in ([MODULI[3]], MODULI[4:8], MODULI[8:]):  # carries included
            synced.clear()
            tree.append(batch)
            assert len(synced) == 1
        monkeypatch.setattr(ptree, "SEGMENT_BYTES", 1)  # the next frame opens a segment
        synced.clear()
        _tree(tmp_path / "ptree").load_or_rebuild(MODULI + [401 * 409])
        assert len(synced) == 2

    def test_spool_trailing_by_a_batch_loads_and_appends(self, tmp_path):
        # the service appends to its tree only after the registry commits,
        # so a crash in between leaves the log one batch behind: it loads,
        # and the batch is an ordinary append writing only the nodes it
        # creates
        _tree(tmp_path).append(MODULI[:6])  # segments [4, 2]
        telemetry = Telemetry.create()
        trailing = _tree(tmp_path, telemetry=telemetry)
        assert trailing.load_or_rebuild(MODULI[:7]) is True
        counter = telemetry.registry.counter
        assert counter("ptree.rebuilds").value == 0
        assert counter("ptree.node_merges").value == 0
        # [4, 2] from the log plus the new 1-leaf segment, the one append
        assert trailing.segment_sizes() == [4, 2, 1]
        assert counter("ptree.log_appends").value == 1
        assert _ints(trailing.leaves()) == MODULI[:7]
        # a batch that carries merges logs the new leaf and its 3 products
        merged = _tree(tmp_path, telemetry=telemetry)
        assert merged.load_or_rebuild(MODULI[:8]) is True
        assert merged.segment_sizes() == [8]
        assert counter("ptree.log_appends").value == 2
        assert counter("ptree.node_merges").value == 3
        assert counter("ptree.rebuilds").value == 0
        assert [f.header["indices"] for f in _frames(tmp_path)] == [
            list(range(6)), [6], [7],
        ]

    def test_spool_ahead_of_the_corpus_is_rebuilt(self, tmp_path):
        _tree(tmp_path).append(MODULI[:6])
        telemetry = Telemetry.create()
        recovered = _tree(tmp_path, telemetry=telemetry)
        assert recovered.load_or_rebuild(MODULI[:5]) is False
        assert telemetry.registry.counter("ptree.rebuilds").value == 1
        assert _ints(recovered.leaves()) == MODULI[:5]
        assert [f.header["indices"] for f in _frames(tmp_path)] == [list(range(5))]

    def test_corrupt_blob_falls_back_to_rebuild(self, tmp_path):
        # the whole corpus went in one append: rot in that frame's body
        # leaves the log nothing to supply
        _tree(tmp_path).append(MODULI)
        (_, segment), = chainlog.segment_paths(tmp_path, chainlog.TREE)
        data = bytearray(segment.read_bytes())
        data[-40] ^= 1
        segment.write_bytes(bytes(data))
        telemetry = Telemetry.create()
        recovered = _tree(tmp_path, telemetry=telemetry)
        assert recovered.load_or_rebuild(MODULI) is False
        assert telemetry.registry.counter("ptree.rebuilds").value == 1
        assert _ints(recovered.leaves()) == MODULI
        assert not chainlog.read_log(tmp_path, chainlog.TREE).faults

    @pytest.mark.parametrize("damage", ["torn", "rot"])
    def test_damaged_frame_is_cut_back_and_appended_again(self, tmp_path, damage):
        # the frames before the damage load; the log is cut back to them
        # and the rest of the corpus appended, never a full rebuild
        tree = _tree(tmp_path)
        for batch in (MODULI[:4], MODULI[4:6], MODULI[6:]):
            tree.append(batch)
        (_, segment), = chainlog.segment_paths(tmp_path, chainlog.TREE)
        second = _frames(tmp_path)[1]
        data = bytearray(segment.read_bytes())
        if damage == "torn":
            data = data[: second.body_at + 3]
        else:
            data[second.body_at + 3] ^= 1
        segment.write_bytes(bytes(data))
        telemetry = Telemetry.create()
        recovered = _tree(tmp_path, telemetry=telemetry)
        assert recovered.load_or_rebuild(MODULI) is True
        assert telemetry.registry.counter("ptree.rebuilds").value == 0
        assert _ints(recovered.leaves()) == MODULI
        scan = chainlog.read_log(tmp_path, chainlog.TREE)
        assert not scan.faults
        assert [f.header["indices"] for f in scan.frames] == [
            [0, 1, 2, 3], list(range(4, 11)),
        ]

    def test_corpus_drift_falls_back_to_rebuild(self, tmp_path):
        _tree(tmp_path).append(MODULI)
        drifted = list(MODULI)
        drifted[3] = 401 * 409
        recovered = _tree(tmp_path)
        assert recovered.load_or_rebuild(drifted) is False
        assert _ints(recovered.leaves()) == drifted

    def test_other_indices_fall_back_to_rebuild(self, tmp_path):
        # a shard's slice: the same leaves under other global indices are
        # another slice (a shard-count change), so nothing is kept
        _tree(tmp_path).append(MODULI[:4], [0, 2, 4, 6])
        telemetry = Telemetry.create()
        same = _tree(tmp_path, telemetry=telemetry)
        assert same.load_or_rebuild(MODULI[:4], [0, 2, 4, 6]) is True
        other = _tree(tmp_path, telemetry=telemetry)
        assert other.load_or_rebuild(MODULI[:4], [1, 3, 5, 7]) is False
        assert telemetry.registry.counter("ptree.rebuilds").value == 1
        assert _frames(tmp_path)[0].header["indices"] == [1, 3, 5, 7]

    def test_foreign_manifest_falls_back_to_rebuild(self, tmp_path):
        # a tree dir in the product-tree/1 layout (a manifest pinning one
        # blob per segment) is rebuilt once, and its files are removed
        info = write_blob(tmp_path / "seg-00000000-h01.bin", [MODULI[0], MODULI[1],
                                                              MODULI[0] * MODULI[1]])
        CheckpointStore(tmp_path).save(
            Manifest(
                config={"format": "product-tree/1", "n_leaves": 2},
                stages=[
                    StageRecord(
                        name="seg.0.1", blob=info.path.name, count=info.count,
                        nbytes=info.nbytes, sha256=info.sha256, seconds=0.0,
                    )
                ],
            )
        )
        telemetry = Telemetry.create()
        recovered = _tree(tmp_path, telemetry=telemetry)
        assert recovered.load_or_rebuild(MODULI[:3]) is False
        assert telemetry.registry.counter("ptree.rebuilds").value == 1
        assert _ints(recovered.leaves()) == MODULI[:3]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["tree-000000.log"]

    def test_rebuild_appends_bounded_frames(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ptree, "REBUILD_FRAME_LEAVES", 4)
        _tree(tmp_path).load_or_rebuild(MODULI)
        assert [len(f.header["indices"]) for f in _frames(tmp_path)] == [4, 4, 3]

    def test_load_requires_empty_tree(self, tmp_path):
        tree = _tree(tmp_path)
        tree.append(MODULI[:2])
        with pytest.raises(ValueError):
            tree.load_or_rebuild(MODULI[:2])

    def test_transient_write_fault_is_retried_through(self, tmp_path):
        install_plan(parse_spec("ptree.commit#1=ioerror"))
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

        if point == "ptree.commit":
            assert crashed == (nth <= len(BATCHES))
        else:
            assert not crashed  # a tree append writes no blob and no manifest

        # the previous flush boundary survives every crash: an append is
        # one frame, and a failed one is never acknowledged
        telemetry = Telemetry.create()
        boundary = _tree(tmp_path, telemetry=telemetry)
        assert boundary.load_or_rebuild(durable) is True
        assert telemetry.registry.counter("ptree.rebuilds").value == 0
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
