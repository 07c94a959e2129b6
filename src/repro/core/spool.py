"""On-disk spill storage for tree levels: length-prefixed integer blobs.

The disk-streamed batch-GCD pipeline (:mod:`repro.core.pipeline`) never
holds a whole product- or remainder-tree level in RAM; each level lives on
disk as a *blob* — a flat file of big integers — and stages stream records
one at a time.  The format is deliberately primitive so a partial
write is detectable and a reader needs no index:

* 8-byte magic ``b"RGSPOOL1"``;
* then one record per integer: a 4-byte little-endian byte count followed
  by that many little-endian value bytes (zero encodes as a zero-length
  record).

Blob writes go through :func:`repro.core.durable.replace_stream` (``.tmp``
sibling, fsync, rename, directory fsync), so a crash mid-stage never leaves
a truncated file under a committed name — the checkpoint manifest
(:mod:`repro.core.checkpoint`) additionally pins each blob's SHA-256.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from repro.core import durable
from repro.resilience import faults

__all__ = [
    "SpoolError",
    "BlobInfo",
    "write_blob",
    "iter_blob",
    "read_blob",
    "blob_sha256",
    "sidecar_path",
    "write_sidecar",
    "read_sidecar",
]

MAGIC = b"RGSPOOL1"
_LEN_BYTES = 4


class SpoolError(ValueError):
    """A malformed, truncated, or foreign spool blob."""


@dataclass(frozen=True)
class BlobInfo:
    """What one completed blob write produced (recorded in the manifest).

    >>> import tempfile, pathlib
    >>> with tempfile.TemporaryDirectory() as d:
    ...     info = write_blob(pathlib.Path(d, "x.bin"), [10, 20])
    ...     (info.count, info.nbytes > len(MAGIC), len(info.sha256))
    (2, True, 64)
    """

    path: Path
    count: int
    nbytes: int
    sha256: str


def _encode_record(value: int) -> bytes:
    if value < 0:
        raise SpoolError("spool blobs hold non-negative integers only")
    if type(value) is not int:
        value = int(value)  # backend-native values (e.g. gmpy2 mpz)
    body = value.to_bytes((value.bit_length() + 7) // 8, "little")
    if len(body) >= 1 << (8 * _LEN_BYTES):
        raise SpoolError("integer too large for a spool record")
    return len(body).to_bytes(_LEN_BYTES, "little") + body


def write_blob(path: str | Path, values: Iterable[int]) -> BlobInfo:
    """Stream ``values`` into a blob at ``path``; atomic rename on success.

    Returns the :class:`BlobInfo` (count, byte size, SHA-256 of the final
    file contents).  The input is consumed lazily, so a generator-backed
    level is spilled with O(1) records in memory.

    >>> import tempfile, pathlib
    >>> with tempfile.TemporaryDirectory() as d:
    ...     p = pathlib.Path(d, "level.bin")
    ...     info = write_blob(p, iter([7, 0, 1 << 100]))
    ...     read_blob(p) == [7, 0, 1 << 100]
    True
    """
    faults.fire("spool.write")
    path = Path(path)
    digest = hashlib.sha256(MAGIC)
    count = 0
    nbytes = len(MAGIC)

    def records() -> Iterator[bytes]:
        nonlocal count, nbytes
        yield MAGIC
        for value in values:
            record = _encode_record(value)
            digest.update(record)
            count += 1
            nbytes += len(record)
            yield record

    durable.replace_stream(path, records())
    faults.corrupt_file("spool.write", path)
    return BlobInfo(path=path, count=count, nbytes=nbytes, sha256=digest.hexdigest())


def iter_blob(path: str | Path, *, backend=None) -> Iterator[int]:
    """Yield a blob's integers in order, reading one record at a time.

    Raises :class:`SpoolError` on a missing magic header or a truncated
    record — the signal the checkpoint layer treats as a corrupt stage.

    ``backend`` (an :class:`repro.util.intops.IntBackend`) decodes records
    straight to backend-native values — under gmpy2 the pipeline's stage
    inputs are born as ``mpz`` at deserialisation, so no stage pays a
    per-record ``int → mpz`` conversion.  ``None`` keeps plain ``int``.

    >>> import tempfile, pathlib
    >>> with tempfile.TemporaryDirectory() as d:
    ...     p = pathlib.Path(d, "level.bin")
    ...     _ = write_blob(p, [3, 5])
    ...     list(iter_blob(p))
    [3, 5]
    """
    path = Path(path)
    decode = (
        backend.from_bytes
        if backend is not None
        else (lambda body: int.from_bytes(body, "little"))
    )
    with path.open("rb") as fh:
        if fh.read(len(MAGIC)) != MAGIC:
            raise SpoolError(f"{path} is not a spool blob (bad magic)")
        while True:
            head = fh.read(_LEN_BYTES)
            if not head:
                return
            if len(head) < _LEN_BYTES:
                raise SpoolError(f"{path}: truncated record header")
            length = int.from_bytes(head, "little")
            body = fh.read(length)
            if len(body) < length:
                raise SpoolError(f"{path}: truncated record body")
            yield decode(body)


def read_blob(path: str | Path) -> list[int]:
    """The whole blob as a list (tests and small root-level reads only).

    >>> import tempfile, pathlib
    >>> with tempfile.TemporaryDirectory() as d:
    ...     p = pathlib.Path(d, "root.bin")
    ...     _ = write_blob(p, [42])
    ...     read_blob(p)
    [42]
    """
    return list(iter_blob(path))


def sidecar_path(path: str | Path) -> Path:
    """The checksum sidecar name for an artifact: ``<name>.sha256``.

    >>> sidecar_path("state/manifest.json").name
    'manifest.json.sha256'
    """
    path = Path(path)
    return path.with_name(path.name + ".sha256")


def write_sidecar(path: str | Path, sha256_hex: str) -> Path:
    """Atomically record ``sha256_hex`` as ``path``'s checksum sidecar.

    JSON artifacts (checkpoint manifests, the ingest cursor) carry no
    internal integrity pin the way spool blobs are
    pinned by their manifest, so their writers drop a sidecar holding the
    SHA-256 of the exact bytes they just committed.  The sidecar is
    written *after* the artifact's own rename; the crash window between
    the two renames leaves a stale sidecar, which the integrity catalog
    reports as a warning, not corruption (``docs/INTEGRITY.md``).

    >>> import tempfile, pathlib, hashlib
    >>> with tempfile.TemporaryDirectory() as d:
    ...     p = pathlib.Path(d, "cursor.json")
    ...     _ = p.write_text("{}")
    ...     digest = hashlib.sha256(b"{}").hexdigest()
    ...     _ = write_sidecar(p, digest)
    ...     read_sidecar(p) == digest
    True
    """
    side = sidecar_path(path)
    durable.replace_bytes(side, (sha256_hex + "\n").encode())
    return side


def read_sidecar(path: str | Path) -> str | None:
    """The recorded checksum for ``path``, or ``None`` if no sidecar exists."""
    try:
        text = sidecar_path(path).read_text().strip()
    except OSError:
        return None
    return text or None


def blob_sha256(path: str | Path) -> str:
    """SHA-256 of the file contents — the checkpoint verification hash.

    >>> import tempfile, pathlib
    >>> with tempfile.TemporaryDirectory() as d:
    ...     p = pathlib.Path(d, "x.bin")
    ...     info = write_blob(p, [9])
    ...     blob_sha256(p) == info.sha256
    True
    """
    digest = hashlib.sha256()
    with Path(path).open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()
