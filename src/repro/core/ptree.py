"""Persistent, incrementally maintained product tree over a growing corpus.

The incremental scanner's hot path is "test a batch of ``k`` new moduli
against all ``m`` old ones".  Done pairwise that is ``k·m`` GCDs per flush;
done with a product tree it is one GCD per segment root plus a remainder
descent of the flagged segments only.  With ``P = Π new``, a segment is
first *screened*: ``g = gcd(P, root mod P)``, which equals ``gcd(P,
root)``.  A prime that divides both some leaf ``n_i`` and ``P`` divides
the root too, hence ``g``; so ``g == 1`` proves no leaf of the segment
shares a prime with the batch, and the segment is skipped without a
single leaf GCD.  A flagged segment descends ``g`` (not ``P``): since
``n_i`` divides the root, ``gcd(n_i, g mod n_i) = gcd(n_i, P)`` exactly,
and since ``g`` divides the root, that descent is cheap whatever ``k``
is.  No squaring is needed anywhere — unlike classic batch GCD, plain
``mod`` suffices, because ``P`` is built from moduli that are not in the
tree.  Shared primes are rare, so a typical flush pays one GCD per
segment (``m / MAX_SEGMENT_LEAVES + O(log MAX_SEGMENT_LEAVES)`` of them)
instead of ``m``.

The screen is not free: CPython's ``gcd`` takes time quadratic in the
smaller operand, here ``min(|P|, |root|)`` bits, while the descent it
saves grows about linearly.  So a segment is screened only when its root
has at least :data:`SCREEN_MIN_RATIO` times the bits of ``P``; a smaller
segment descends ``P`` itself and takes a GCD at every leaf, exactly as
an unscreened flush would.  Small flushes against a large corpus (the
service's common case) screen every large segment; a batch of more than
a sixth of the biggest segment's leaves screens nothing and costs what
it did before.

Rebuilding the tree from scratch on every flush would cost ``m − 1``
multiplications each time.  :class:`PersistentProductTree` instead keeps
the tree as a *forest of perfect power-of-two segments*: appending a
leaf adds a one-leaf segment and carry-merges equal-sized neighbours
below :data:`MAX_SEGMENT_LEAVES` leaves, and a merge reuses both
children's node arrays wholesale.  So the forest is ``m //
MAX_SEGMENT_LEAVES`` capped segments followed by the binary
decomposition of the rest: one multiplication per merge, fewer than
``m`` in the corpus lifetime, with ``O(m / MAX_SEGMENT_LEAVES + log
MAX_SEGMENT_LEAVES)`` segments live.  The cap bounds both the costliest
carry (the merge that completes a capped segment) and the resident
nodes: a leaf sits under ``log₂ MAX_SEGMENT_LEAVES`` interior levels
whatever ``m`` is.

Persistence is a hash-chained log (:mod:`repro.core.chainlog`, segment
files ``tree-NNNNNN.log``), the registry's own format: each
:meth:`PersistentProductTree.append` is one fsync'd frame whose body
holds the new leaves, then the new merge products (in the order the
carries made them), under the registry's two-part pin, and whose header
carries each new leaf's global index.  The forest never discards a
node, so the log holds the live tree and never needs compaction, and an
append writes only what it created.  A load replays the verified frames
with no multiplication, as long as their leaves and indices agree with
the caller's corpus; it cuts the log back to the last frame it kept and
appends the rest of the corpus.  (A frame written before the cap also
holds the products above it: a load skips them, and their bytes stay in
the log.)  That one rule covers
a log that trails the corpus (the service appends only after the
registry commits), a torn or damaged frame, and a log of some other
corpus (a shard-count change): whatever the log cannot supply is
appended again, and a load that keeps nothing counts in
``ptree.rebuilds``.  A state dir from before the log (a
``product-tree/1`` manifest over per-segment blobs) is rebuilt once and
its files removed.

The ``ptree.commit`` fault point fires before each append attempt, and
its ``corrupt:*`` actions rot the body of the frame just appended.
"""

from __future__ import annotations

import dataclasses
import hashlib
from collections.abc import Sequence
from pathlib import Path

from repro.core import chainlog, durable
# ``write_blob`` stays importable from here: perfbench/launch.py traces it
from repro.core.spool import write_blob  # noqa: F401
from repro.resilience import RetryPolicy, faults
from repro.telemetry import Telemetry
from repro.util.intops import IntBackend, resolve_backend

__all__ = ["PersistentProductTree"]

#: leaves per frame when a load appends what the log lacks, so a rebuild
#: writes bounded frames (a flush of up to ``max_batch`` keys is one)
REBUILD_FRAME_LEAVES = 256
#: the tree log's segment cap: a load holds one segment's bytes beside
#: the nodes it decodes from them, so this bounds its transient memory
#: (a frame larger than the cap gets a segment of its own)
SEGMENT_BYTES = 1 << 20
#: segments stop carry-merging at this many leaves.  It is the largest
#: power of two whose completing append stays under 100 ms at 2048 bits
#: (one-key log-backed append, median of 5, CPython 3.11.7 ``python``
#: backend on a 2 vCPU KVM guest): 512 leaves took 59 ms, 1,024 took
#: 164 ms and 2,048 took 450 ms.  At 512
#: only the roots span more than the service's ``max_batch`` (256)
#: leaves, above which an interior level no longer reduces a flush's
#: residue; so no such level is kept, and resident nodes stay at 10× the
#: corpus whatever its size
MAX_SEGMENT_LEAVES = 1 << 9
#: files of the ``product-tree/1`` layout a load removes
_OLD_LAYOUT = ("manifest.json", "manifest.json.sha256", "seg-*.bin")

#: a segment is screened only when its root has at least this many times
#: the bits of the batch product.  On 2,000 × 2048-bit keys (CPython
#: 3.11, ``python`` backend) every measured segment at ratio ≥ 6 screened
#: 1.28–1.7× faster than its unscreened descent (k = 2…170 keys against
#: 16…1,024-leaf segments); at ratio 4 the gain fell to 1.07× at k = 128
#: and to nothing at k = 256.  A ratio between the powers of two keeps the
#: choice clear of bit-length jitter when ``k`` and the segment size are
#: both powers of two.
SCREEN_MIN_RATIO = 6


class _Segment:
    """One perfect power-of-two subtree: ``levels[0]`` leaves → ``levels[-1]`` root.

    Nodes are backend-native values; ``size`` is the leaf count (a power of
    two) and ``start`` the segment's first global leaf index.
    """

    __slots__ = ("start", "levels")

    def __init__(self, start: int, levels: list[list]) -> None:
        self.start = start
        self.levels = levels

    @property
    def size(self) -> int:
        return len(self.levels[0])

    @property
    def root(self):
        return self.levels[-1][0]


def _merge(a: _Segment, b: _Segment, root) -> _Segment:
    """Merge two adjacent equal-sized segments under ``root`` (their
    product): all child nodes reused by reference."""
    levels = [a.levels[i] + b.levels[i] for i in range(len(a.levels))]
    levels.append([root])
    return _Segment(a.start, levels)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class PersistentProductTree:
    """Incrementally maintained product forest, optionally log-backed.

    >>> t = PersistentProductTree()
    >>> t.append([3, 5, 7])
    >>> t.n_leaves, t.segment_sizes()
    (3, [2, 1])
    >>> [(start, [int(r) for r in rems]) for start, _, rems in t.batch_remainders(11 * 3)]
    [(0, [0, 3]), (2, [5])]
    """

    def __init__(
        self,
        *,
        backend: str | IntBackend | None = None,
        spool_dir: str | Path | None = None,
        telemetry: Telemetry | None = None,
        retry_policy: RetryPolicy | None = None,
    ) -> None:
        self.backend = resolve_backend(backend)
        self.spool_dir = Path(spool_dir) if spool_dir is not None else None
        self._log = self._writer([]) if self.spool_dir else None
        self.telemetry = telemetry
        self.retry_policy = (
            retry_policy
            if retry_policy is not None
            else RetryPolicy(max_attempts=3, base_delay=0.05, max_delay=2.0)
        )
        self.segments: list[_Segment] = []
        self.n_leaves = 0

    # -- queries ---------------------------------------------------------------

    def segment_sizes(self) -> list[int]:
        """Live segment leaf counts: ``n_leaves // MAX_SEGMENT_LEAVES`` capped
        segments, then the binary decomposition of the remainder."""
        return [seg.size for seg in self.segments]

    def leaves(self):
        """Every leaf (backend-native), in global index order."""
        for seg in self.segments:
            yield from seg.levels[0]

    def batch_remainders(self, value) -> list[tuple[int, list, list]]:
        """Screen the segments against ``value``; descend the flagged ones.

        ``value`` is the product of an arriving batch.  A segment whose
        root has at least :data:`SCREEN_MIN_RATIO` times the bits of
        ``value`` is screened with one GCD, ``g = gcd(value, root mod
        value)`` (the backend's ``mod``, so a large ``value`` reduces by
        recursive division), and skipped when ``g == 1``: then no leaf
        shares a prime with ``value``.  A flagged segment descends ``g``,
        a smaller one descends ``value``; either way the residues ``r_i``
        satisfy ``gcd(n_i, r_i) = gcd(n_i, value)``.  Returns ``(start,
        leaves, residues)`` per descended segment: ``start`` is its first
        global leaf index, ``leaves`` its backend-native leaves.

        >>> t = PersistentProductTree()
        >>> t.append([5 * 7, 11 * 13, 17 * 19, 23 * 29])  # one 31-bit root
        >>> t.batch_remainders(3)  # 2 bits: screened, and cleared
        []
        >>> [(start, [int(r) for r in rems]) for start, _, rems in t.batch_remainders(7)]
        [(0, [7, 7, 7, 7])]
        """
        B = self.backend
        mod, gcd = B.mod, B.gcd
        value = B.from_int(value)
        screen_bits = SCREEN_MIN_RATIO * value.bit_length()
        out: list[tuple[int, list, list]] = []
        screened = 0
        for seg in self.segments:
            top = value
            if seg.root.bit_length() >= screen_bits:
                screened += 1
                top = gcd(value, mod(seg.root, value))
                if top == 1:
                    continue
            rems = [mod(top, seg.root)]
            for level in reversed(seg.levels[:-1]):
                rems = [mod(rems[k // 2], node) for k, node in enumerate(level)]
            out.append((seg.start, seg.levels[0], rems))
        if self.telemetry is not None:
            reg = self.telemetry.registry
            reg.counter("ptree.segments_screened").inc(screened)
            reg.counter("ptree.segments_flagged").inc(len(out))
        return out

    # -- growth ----------------------------------------------------------------

    def _grow(self, leaves: list, product) -> None:
        """Push ``leaves`` and carry-merge below the cap; ``product(a, b)``
        is each new root."""
        for leaf in leaves:
            self.segments.append(_Segment(self.n_leaves, [[leaf]]))
            self.n_leaves += 1
            while (
                len(self.segments) >= 2
                and self.segments[-1].size == self.segments[-2].size < MAX_SEGMENT_LEAVES
            ):
                b = self.segments.pop()
                a = self.segments.pop()
                self.segments.append(_merge(a, b, product(a.root, b.root)))

    def _set_gauges(self) -> None:
        if self.telemetry is not None:
            reg = self.telemetry.registry
            reg.gauge("ptree.leaves").set(self.n_leaves)
            reg.gauge("ptree.segments").set(len(self.segments))

    def append(self, values: list[int], indices: Sequence[int] | None = None) -> None:
        """Append leaves (carry-merging below the cap) and log them in one frame.

        ``indices`` are the leaves' global indices, recorded in the frame's
        header (default: their leaf positions).
        """
        if not values:
            return
        if indices is None:
            indices = range(self.n_leaves, self.n_leaves + len(values))
        if len(indices) != len(values):
            raise ValueError(f"{len(indices)} indices for {len(values)} leaves")
        B = self.backend
        mul = B.mul
        products: list = []

        def product(a, b):
            products.append(mul(a, b))
            return products[-1]

        self._grow([B.from_int(v) for v in values], product)
        if self.telemetry is not None:
            self.telemetry.registry.counter("ptree.node_merges").inc(len(products))
        self._set_gauges()
        self._persist(values, products, indices)

    # -- persistence -----------------------------------------------------------

    def _persist(self, values: list[int], products: list, indices: Sequence[int]) -> None:
        """One durable append: the new leaves, then the new merge products.

        A failed attempt is cut back by the log writer before the retry.
        """
        if self._log is None:
            return
        leaves = chainlog.pack_ints(values)
        nodes = chainlog.pack_ints(products)
        header = {
            "kind": "tree", "indices": [int(i) for i in indices],
            "keys_nbytes": len(leaves), "sha256": [_sha256(leaves), _sha256(nodes)],
        }
        body = leaves + nodes
        del leaves, nodes  # a carry's frame is large: keep one copy of it

        def write():
            faults.fire("ptree.commit")
            durable.makedirs(self.spool_dir)
            return self._log.append([(header, body)])[0]

        path, _, body_at = self.retry_policy.run(write, on_retry=self._on_retry)
        faults.corrupt_file("ptree.commit", path, region=(body_at, body_at + len(body)))
        if self.telemetry is not None:
            reg = self.telemetry.registry
            reg.counter("ptree.log_appends").inc()
            reg.counter("ptree.log_bytes").inc(len(body))

    def _on_retry(self, attempt: int, delay: float, exc: BaseException) -> None:
        if self.telemetry is not None:
            self.telemetry.registry.counter("ptree.commit_retries").inc()
            self.telemetry.emit(
                "ptree.commit.retry", attempt=attempt,
                delay=round(delay, 4), error=repr(exc),
            )

    # -- restore ---------------------------------------------------------------

    def load_or_rebuild(
        self, moduli: Sequence[int], indices: Sequence[int] | None = None
    ) -> bool:
        """Make this (empty) tree hold exactly ``moduli``.

        ``indices`` are the moduli's global indices (default: their
        positions).  The log's verified frames are replayed, with no
        multiplication, for as long as their leaves and indices are the
        next ones of ``moduli`` and ``indices``; the log is cut back after
        the last frame kept, and the rest of ``moduli`` is appended in
        frames of at most :data:`REBUILD_FRAME_LEAVES` leaves.  Returns
        False when the log supplied nothing for a non-empty corpus: a
        rebuild from scratch (counted in ``ptree.rebuilds`` when the tree
        is log-backed).
        """
        if self.n_leaves:
            raise ValueError("load_or_rebuild requires an empty tree")
        if indices is None:
            indices = range(len(moduli))
        if self._log is not None:
            self._load(moduli, indices)
        rebuilt = bool(moduli) and not self.n_leaves
        if rebuilt and self._log is not None and self.telemetry is not None:
            self.telemetry.registry.counter("ptree.rebuilds").inc()
        self._set_gauges()
        for start in range(self.n_leaves, len(moduli), REBUILD_FRAME_LEAVES):
            stop = start + REBUILD_FRAME_LEAVES
            self.append(list(moduli[start:stop]), indices[start:stop])
        return not rebuilt

    def _load(self, moduli: Sequence[int], indices: Sequence[int]) -> None:
        """Replay the log's usable prefix, one segment in memory at a time,
        and cut the log back to it."""
        for pattern in _OLD_LAYOUT:
            for stale in self.spool_dir.glob(pattern):
                stale.unlink()
        last = None
        for _, data, frames, problems in chainlog.iter_log(self.spool_dir, chainlog.TREE):
            end = problems[0].offset if problems else None
            kept = 0
            for frame in frames:
                if end is not None and frame.start >= end:
                    break
                if not self._replay(frame, moduli, indices):
                    break
                kept += 1
            if kept:  # keep the last frame's place, not the segment's bytes
                last = dataclasses.replace(frames[kept - 1], body=memoryview(b""))
            stop = problems or kept < len(frames)
            del data, frames
            if stop:
                break
        chainlog.cut_back(self.spool_dir, last, chainlog.TREE)
        self._log = self._writer([last] if last is not None else [])

    def _writer(self, frames: list) -> chainlog.LogWriter:
        return chainlog.LogWriter.after(
            self.spool_dir, frames, stem=chainlog.TREE, segment_bytes=SEGMENT_BYTES
        )

    def _replay(self, frame: chainlog.Frame, moduli: Sequence[int], indices: Sequence[int]) -> bool:
        """Grow by one verified frame if it continues ``moduli``/``indices``."""
        head, n = frame.header, self.n_leaves
        new = head.get("indices")
        if head.get("kind") != "tree" or not isinstance(new, list):
            return False
        k = len(new)
        cut = head.get("keys_nbytes", 0)
        try:
            leaves = chainlog.unpack_ints(frame.body[:cut])
            roots = chainlog.unpack_ints(frame.body[cut:])
        except ValueError:
            return False
        # the sizes an uncapped carry from n to n + k leaves merges into, in
        # order: a frame written before the cap holds all of them, a capped
        # one only those of at most MAX_SEGMENT_LEAVES leaves
        sizes = [
            1 << j for p in range(n + 1, n + k + 1) for j in range(1, (p & -p).bit_length())
        ]
        if len(roots) == len(sizes):
            roots = [r for r, size in zip(roots, sizes) if size <= MAX_SEGMENT_LEAVES]
        if (
            new != list(indices[n : n + k])
            or leaves != list(moduli[n : n + k])
            or len(roots) != sum(size <= MAX_SEGMENT_LEAVES for size in sizes)
        ):
            return False
        from_int = self.backend.from_int
        products = iter([from_int(r) for r in roots])
        self._grow([from_int(v) for v in leaves], lambda a, b: next(products))
        return True
