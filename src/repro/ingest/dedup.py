"""Bounded-memory dedup for crawl-scale modulus streams.

Real CT logs are massively duplicated — the same leaf certificate appears
across logs, renewals reuse keys, and CDNs deploy one key behind thousands
of certificates.  The crawler must remember every modulus it has ever
forwarded without holding them all in RAM.

:class:`DedupIndex` keeps three layers:

* an **in-memory set** of recent digests (bounded by ``max_memory_keys``);
* 256 **sorted bucket files** (``dedup/bucket-XX.bin``, partitioned by the
  digest's first byte) that absorb the memory set on compaction — probes
  binary-search the fixed 32-byte records *in place* with seeks, never
  loading a bucket;
* an append-only **``dedup/seen.log``** of raw digests, the *sole* durable
  record.  :meth:`sync` fsyncs it and returns the record count — the
  **watermark** the crawl cursor commits.  :meth:`load` truncates the log
  back to a committed watermark and rebuilds the derived layers, so after
  a crash the index matches the cursor exactly: entries whose digests were
  added after the last commit are forgotten, re-extracted, and re-deduped
  on the re-crawl instead of being silently swallowed.

Digests are SHA-256 (:func:`repro.ingest.extract.modulus_digest`), so
bucket partitioning is uniform by construction.
"""

from __future__ import annotations

from pathlib import Path

from repro.core import durable

__all__ = ["DedupIndex", "DIGEST_SIZE"]

DIGEST_SIZE = 32


class DedupIndex:
    """A durable seen-set of 32-byte digests with bounded memory.

    >>> import tempfile
    >>> with tempfile.TemporaryDirectory() as d:
    ...     index = DedupIndex(d, max_memory_keys=2)
    ...     [index.add(bytes([i]) * 32) for i in (1, 2, 1, 3, 4, 2)]
    ...     mark = index.sync()
    ...     index = DedupIndex(d, max_memory_keys=2)
    ...     index.load(mark)
    ...     index.add(bytes([3]) * 32), index.add(bytes([9]) * 32)
    [True, True, False, True, True, False]
    (False, True)
    """

    def __init__(self, state_dir: str | Path, *, max_memory_keys: int = 262_144) -> None:
        if max_memory_keys < 1:
            raise ValueError("max_memory_keys must be >= 1")
        self._dir = Path(state_dir) / "dedup"
        durable.makedirs(self._dir)
        self._log_path = self._dir / "seen.log"
        self._max_memory = max_memory_keys
        self._memory: set[bytes] = set()
        self._pending: list[bytes] = []  # added since the last sync()
        self._synced = 0  # durable records in seen.log

    # -- membership ------------------------------------------------------------

    def _bucket_path(self, digest: bytes) -> Path:
        return self._dir / f"bucket-{digest[0]:02x}.bin"

    def _in_bucket(self, digest: bytes) -> bool:
        path = self._bucket_path(digest)
        try:
            size = path.stat().st_size
        except FileNotFoundError:
            return False
        lo, hi = 0, size // DIGEST_SIZE
        with path.open("rb") as fh:
            while lo < hi:
                mid = (lo + hi) // 2
                fh.seek(mid * DIGEST_SIZE)
                record = fh.read(DIGEST_SIZE)
                if record == digest:
                    return True
                if record < digest:
                    lo = mid + 1
                else:
                    hi = mid
        return False

    def seen(self, digest: bytes) -> bool:
        """Is ``digest`` already in the index (memory or spill)?"""
        if len(digest) != DIGEST_SIZE:
            raise ValueError(f"digests are {DIGEST_SIZE} bytes, got {len(digest)}")
        return digest in self._memory or self._in_bucket(digest)

    def add(self, digest: bytes) -> bool:
        """Record ``digest``; returns ``True`` iff it was new."""
        if self.seen(digest):
            return False
        self._memory.add(digest)
        self._pending.append(digest)
        if len(self._memory) >= self._max_memory:
            self._compact()
        return True

    # -- durability ------------------------------------------------------------

    def sync(self) -> int:
        """Fsync pending digests into ``seen.log``; returns the watermark.

        The watermark is the total durable record count — the value the
        crawl cursor stores so :meth:`load` can restore exactly this
        point after a crash.
        """
        if self._pending:
            durable.append(self._log_path, b"".join(self._pending))
            self._synced += len(self._pending)
            self._pending = []
        return self._synced

    def load(self, watermark: int) -> None:
        """Restore the index to a committed watermark.

        Truncates ``seen.log`` to ``watermark`` records (discarding
        digests that outran the last cursor commit), then rebuilds the
        sorted buckets from the surviving log.
        """
        if watermark < 0:
            raise ValueError("watermark must be >= 0")
        size = self._log_path.stat().st_size if self._log_path.exists() else 0
        if watermark * DIGEST_SIZE > size:
            raise ValueError(
                f"watermark {watermark} exceeds seen.log ({size // DIGEST_SIZE} records)"
            )
        durable.truncate(self._log_path, watermark * DIGEST_SIZE)
        # partition the log into per-prefix digest lists, then write each
        # bucket sorted — derived data, rebuilt wholesale on every load
        partitions: dict[int, list[bytes]] = {}
        with self._log_path.open("rb") as fh:
            while chunk := fh.read(DIGEST_SIZE * 4096):
                for pos in range(0, len(chunk), DIGEST_SIZE):
                    digest = chunk[pos : pos + DIGEST_SIZE]
                    partitions.setdefault(digest[0], []).append(digest)
        for old in self._dir.glob("bucket-*.bin"):
            old.unlink()
        for prefix, digests in partitions.items():
            digests = sorted(set(digests))
            (self._dir / f"bucket-{prefix:02x}.bin").write_bytes(b"".join(digests))
        self._memory = set()
        self._pending = []
        self._synced = watermark

    def _compact(self) -> None:
        """Merge the memory set into the sorted buckets and clear it."""
        partitions: dict[int, list[bytes]] = {}
        for digest in self._memory:
            partitions.setdefault(digest[0], []).append(digest)
        for prefix, fresh in partitions.items():
            path = self._dir / f"bucket-{prefix:02x}.bin"
            existing = path.read_bytes() if path.exists() else b""
            merged = sorted(
                {existing[pos : pos + DIGEST_SIZE]
                 for pos in range(0, len(existing), DIGEST_SIZE)}
                | set(fresh)
            )
            path.write_bytes(b"".join(merged))
        self._memory = set()

    @property
    def synced_count(self) -> int:
        """Durable records in ``seen.log`` (== the last :meth:`sync` result)."""
        return self._synced
