"""Hash-chained segment log: the on-disk format of the weak-key registry
and of every persistent product tree.

A log is a run of *segment* files ``<stem>-000000.log``,
``<stem>-000001.log``, ... in one directory: the registry's stem is
``registry``, a product tree's ``tree``.  A new segment starts once
the active one would grow past :data:`SEGMENT_BYTES`.  Each segment opens
with a 40-byte header: the magic ``b"RGLOG001"`` and the link of the last
record before it (32 zero bytes in the first segment).  Records follow,
one *frame* each::

    u32 header_len | u32 body_len | u32 CRC-32 of those 8 bytes
    header   header_len bytes of compact JSON
    body     body_len bytes: integers as RGSPOOL1 records (4-byte length
             + little-endian bytes), without the blob's magic
    link     SHA-256(previous link || header), 32 bytes

The links chain every header to all before it, across segments.  A
header pins its body with two SHA-256 digests, one per body part: the
first ``keys_nbytes`` bytes (a registry batch's keys, a tree append's new
leaves), then the rest (the batch's hits as flat ``i, j, prime``
triples, the append's new merge products).  So a damaged body under an
intact header can be rebuilt, and the pins prove the rebuild.  A damaged
header, link or frame prefix cannot.

A frame that runs past the end of the last segment is a *torn tail*: the
append that wrote it never completed its fsync, so it was never
acknowledged.  Anywhere else, a short or unparsable frame is damage.

Writes go through :func:`repro.core.durable.append`: one write and one
fsync per segment touched, however many frames.  The append that opens a
segment carries the segment header with its first frame, so a whole
segment never holds zero frames.
"""

from __future__ import annotations

import hashlib
import json
import re
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from repro.core import durable
from repro.core.spool import _encode_record

__all__ = [
    "Frame",
    "GENESIS",
    "LINK_BYTES",
    "LogFault",
    "LogScan",
    "LogWriter",
    "MAGIC",
    "REGISTRY",
    "SEGMENT_BYTES",
    "SEGMENT_HEADER",
    "TREE",
    "cut_back",
    "iter_log",
    "pack_ints",
    "read_log",
    "read_segment",
    "segment_path",
    "segment_paths",
    "unpack_ints",
]

MAGIC = b"RGLOG001"
LINK_BYTES = 32
GENESIS = bytes(LINK_BYTES)
SEGMENT_HEADER = len(MAGIC) + LINK_BYTES
#: a segment is closed once the next frame would take it past this size
SEGMENT_BYTES = 4 << 20

_PREFIX = struct.Struct("<II")
_PREFIX_BYTES = _PREFIX.size + 4
#: segment file stems: the registry's log, and each product tree's
REGISTRY, TREE = "registry", "tree"


def segment_path(directory: str | Path, index: int, stem: str = REGISTRY) -> Path:
    """``directory/<stem>-<index>.log``.

    >>> segment_path("state", 3).name
    'registry-000003.log'
    >>> segment_path("state/ptree", 0, "tree").name
    'tree-000000.log'
    """
    return Path(directory) / f"{stem}-{index:06d}.log"


def segment_paths(directory: str | Path, stem: str = REGISTRY) -> list[tuple[int, Path]]:
    """Every ``(index, path)`` segment in ``directory``, in index order."""
    name = re.compile(re.escape(stem) + r"-(\d{6})\.log")
    found = []
    for path in Path(directory).glob(f"{stem}-*.log"):
        match = name.fullmatch(path.name)
        if match:
            found.append((int(match.group(1)), path))
    return sorted(found)


def pack_ints(values: Iterable[int]) -> bytes:
    """Non-negative integers as RGSPOOL1 records (:mod:`repro.core.spool`).

    >>> unpack_ints(pack_ints([0, 5, 1 << 70])) == [0, 5, 1 << 70]
    True
    """
    return b"".join(map(_encode_record, values))


def unpack_ints(data: bytes) -> list[int]:
    """The inverse of :func:`pack_ints`; ``ValueError`` on a cut record."""
    out = []
    view = memoryview(data)
    pos, size = 0, len(data)
    while pos < size:
        if pos + 4 > size:
            raise ValueError("truncated integer record header")
        length = int.from_bytes(view[pos : pos + 4], "little")
        pos += 4
        if pos + length > size:
            raise ValueError("truncated integer record body")
        out.append(int.from_bytes(view[pos : pos + length], "little"))
        pos += length
    return out


def _body_problem(header: dict, body: bytes) -> str:
    """Why ``body`` does not match ``header``'s pins ("" when it does).

    A header without pins owns an empty body.
    """
    pins = header.get("sha256")
    if pins is None:
        return "" if not body else "unpinned record carries a body"
    cut = header.get("keys_nbytes", 0)
    keys_pin, hits_pin = pins
    if hashlib.sha256(body[:cut]).hexdigest() != keys_pin:
        return "keys differ from their pin"
    if hashlib.sha256(body[cut:]).hexdigest() != hits_pin:
        return "hits differ from their pin"
    return ""


def _frame(prev_link: bytes, header: dict, body: bytes) -> tuple[list[bytes], int, bytes]:
    """``(frame parts, offset of the body in the frame, link)``: the
    parts are joined once per write, so a large body is copied once."""
    head = json.dumps(header, separators=(",", ":")).encode()
    lengths = _PREFIX.pack(len(head), len(body))
    link = hashlib.sha256(prev_link + head).digest()
    prefix = lengths + zlib.crc32(lengths).to_bytes(4, "little") + head
    return [prefix, body, link], len(prefix), link


@dataclass
class Frame:
    """One record as read back, where it sits, and whether it verified.

    ``damage`` is ``None`` for a verified record, ``"body"`` when the
    link verifies the header but the body misses its pins, and
    ``"torn"`` for a final frame cut inside its body or link (the header
    is whole but unverified; ``link`` is the link it should carry).
    ``body`` is a view of the segment's bytes, not a copy.
    """

    segment: int
    start: int
    body_at: int
    body_len: int
    header: dict
    body: memoryview
    link: bytes
    damage: str | None = None

    @property
    def header_at(self) -> int:
        """Where the header's bytes start in the segment."""
        return self.start + _PREFIX_BYTES

    @property
    def end(self) -> int:
        """Where the next frame starts (past the end of a torn one)."""
        return self.body_at + self.body_len + LINK_BYTES


@dataclass(frozen=True)
class LogFault:
    """One problem in one segment, with its frame when the header was readable."""

    segment: int
    offset: int
    verdict: str  # "torn-tail" | "hash-mismatch" | "missing"
    detail: str
    frame: Frame | None = None


def read_segment(
    data: bytes, index: int, *, final: bool, prev: bytes | None
) -> tuple[list[Frame], list[LogFault]]:
    """Parse one segment: ``(frames, faults)``.

    ``prev`` is the link the segment's header must carry (``None`` when
    it is unknown), and ``final`` says whether this is the log's last
    segment, the only one that may end in a torn tail.  Frames with a
    damaged body are returned (marked) and parsing goes on; damage to
    framing, a header or a link ends the segment with a fault.
    """
    cut = "torn-tail" if final else "hash-mismatch"
    frames: list[Frame] = []
    faults: list[LogFault] = []

    def fault(offset: int, verdict: str, detail: str, frame: Frame | None = None):
        faults.append(LogFault(index, offset, verdict, detail, frame))
        return frames, faults

    if data[: len(MAGIC)] != MAGIC[: len(data)]:
        return fault(0, "hash-mismatch", "bad segment magic")
    link = data[len(MAGIC) : SEGMENT_HEADER]
    if prev is not None and len(link) == LINK_BYTES and link != prev:
        fault(0, "hash-mismatch", "segment header does not continue the chain")
    if len(data) <= SEGMENT_HEADER:
        return fault(0, cut, f"segment of {len(data)} bytes holds no whole record")
    pos, size = SEGMENT_HEADER, len(data)
    view = memoryview(data)
    while pos < size:
        if pos + _PREFIX_BYTES > size:
            return fault(pos, cut, "record cut inside its frame prefix")
        lengths = data[pos : pos + _PREFIX.size]
        crc = data[pos + _PREFIX.size : pos + _PREFIX_BYTES]
        if zlib.crc32(lengths).to_bytes(4, "little") != crc:
            return fault(pos, "hash-mismatch", f"frame prefix at byte {pos} fails its checksum")
        head_len, body_len = _PREFIX.unpack(lengths)
        body_at = pos + _PREFIX_BYTES + head_len
        end = body_at + body_len + LINK_BYTES
        if body_at > size:
            return fault(pos, cut, f"record at byte {pos} cut inside its header")
        head = data[pos + _PREFIX_BYTES : body_at]
        try:
            header = json.loads(head)
        except ValueError:
            header = None
        expected = hashlib.sha256(link + head).digest()
        if end > size:
            if not isinstance(header, dict):
                return fault(pos, cut, f"record at byte {pos} cut short, header unreadable")
            frame = Frame(index, pos, body_at, body_len, header, view[body_at:], expected, "torn")
            frames.append(frame)
            return fault(pos, cut, f"record at byte {pos} cut inside its body", frame)
        stored = data[end - LINK_BYTES : end]
        if stored != expected or not isinstance(header, dict):
            return fault(pos, "hash-mismatch", f"record header at byte {pos} fails its link")
        body = view[body_at : end - LINK_BYTES]
        frame = Frame(index, pos, body_at, body_len, header, body, stored)
        frames.append(frame)
        problem = _body_problem(header, body)
        if problem:
            frame.damage = "body"
            detail = f"record at byte {pos}: {problem}"
            faults.append(LogFault(index, pos, "hash-mismatch", detail, frame))
        link = stored
        pos = end
    return frames, faults


@dataclass
class LogScan:
    """A whole log, read and verified in order."""

    segments: list[tuple[int, Path]] = field(default_factory=list)
    frames: list[Frame] = field(default_factory=list)
    faults: list[LogFault] = field(default_factory=list)
    #: the data of every segment read, by index
    data: dict[int, bytes] = field(default_factory=dict)

    def verified(self) -> list[Frame]:
        """The frames before the first fault: the log's verified prefix."""
        if not self.faults:
            return list(self.frames)
        first = self.faults[0]
        return [
            f for f in self.frames if (f.segment, f.start) < (first.segment, first.offset)
        ]


def iter_log(
    directory: str | Path, stem: str = REGISTRY
) -> Iterator[tuple[int, bytes, list[Frame], list[LogFault]]]:
    """Read the log in ``directory`` one segment at a time, checking the chain.

    Yields ``(index, data, frames, faults)`` per segment, in order, so a
    caller that stops early never reads the rest.  A gap in the segment
    numbering is a ``missing`` fault of the segment after it, and
    :func:`read_segment` reports the rest.
    """
    segments = segment_paths(directory, stem)
    link: bytes | None = GENESIS
    for pos, (index, path) in enumerate(segments):
        gap = []
        expected = segments[pos - 1][0] + 1 if pos else 0
        if index != expected:
            gap = [LogFault(index, 0, "missing", f"segment {expected:06d} is gone")]
            link = None
        data = path.read_bytes()
        final = pos == len(segments) - 1
        frames, faults = read_segment(data, index, final=final, prev=link)
        # damaged bodies leave the chain intact; anything else breaks it
        chained = all(f.frame is not None and f.frame.damage == "body" for f in faults)
        link = frames[-1].link if frames and chained else None
        yield index, data, frames, gap + faults
        del data, frames, faults  # one segment in memory at a time


def read_log(directory: str | Path, stem: str = REGISTRY) -> LogScan:
    """Read every segment of the log in ``directory`` and check the chain.

    Faults come back in log order (see :func:`iter_log`).
    """
    scan = LogScan(segments=segment_paths(directory, stem))
    for index, data, frames, faults in iter_log(directory, stem):
        scan.data[index] = data
        scan.frames.extend(frames)
        scan.faults.extend(faults)
    return scan


def cut_back(directory: str | Path, last: Frame | None, stem: str = REGISTRY) -> None:
    """Cut the log back to the end of ``last``.

    Every later segment is removed, newest first, so a crash part way
    leaves a shorter log, never a gap; ``last``'s own segment is
    truncated to its end.  ``None`` removes the whole log.
    """
    for index, path in reversed(segment_paths(directory, stem)):
        if last is not None and index == last.segment:
            if path.stat().st_size > last.end:
                durable.truncate(path, last.end)
            break
        durable.remove(path)


class LogWriter:
    """Appends frames to the log's active segment, rolling at the size cap
    (``segment_bytes``, default :data:`SEGMENT_BYTES`)."""

    def __init__(
        self,
        directory: str | Path,
        *,
        stem: str = REGISTRY,
        segment_bytes: int | None = None,
        segment: int = 0,
        size: int = 0,
        link: bytes = GENESIS,
    ) -> None:
        self.directory = Path(directory)
        self.stem = stem
        self.segment_bytes = segment_bytes
        self.segment = segment
        self.size = size
        self.link = link
        self._dirty = False

    @classmethod
    def after(cls, directory: str | Path, frames: list[Frame], **kwargs) -> "LogWriter":
        """A writer (``kwargs``: ``stem``, ``segment_bytes``) that
        continues after the last of ``frames``."""
        if not frames:
            return cls(directory, **kwargs)
        last = frames[-1]
        return cls(directory, segment=last.segment, size=last.end, link=last.link, **kwargs)

    def append(self, records: list[tuple[dict, bytes]]) -> list[tuple[Path, int, int]]:
        """Durably append one frame per ``(header, body)``.

        Returns ``(segment path, header offset, body offset)`` per frame.
        One :func:`repro.core.durable.append` per segment touched.  After
        a failed append the next call first cuts the log back to the end
        of its last whole frame.
        """
        if self._dirty:
            # a failed append may have left part of a frame behind
            active = segment_path(self.directory, self.segment, self.stem)
            if self.size:
                durable.truncate(active, self.size)
            else:
                durable.remove(active)
            durable.remove(segment_path(self.directory, self.segment + 1, self.stem))
            self._dirty = False
        placed = []
        batch: list[bytes] = []
        segment, size, link = self.segment, self.size, self.link
        pending: list[tuple[int, list[bytes], int, bytes]] = []  # (segment, parts, size, link)

        def flush():
            if batch:
                pending.append((segment, batch[:], size, link))
                batch.clear()

        for header, body in records:
            parts, body_off, new_link = _frame(link, header, body)
            frame_len = body_off + len(body) + LINK_BYTES
            if size and size + frame_len > (self.segment_bytes or SEGMENT_BYTES):
                flush()
                segment, size = segment + 1, 0
            if not size:
                batch.append(MAGIC + link)
                size = SEGMENT_HEADER
            path = segment_path(self.directory, segment, self.stem)
            placed.append((path, size + _PREFIX_BYTES, size + body_off))
            batch += parts
            size += frame_len
            link = new_link
        flush()
        for segment, parts, size, link in pending:
            self._dirty = True
            durable.append(segment_path(self.directory, segment, self.stem), b"".join(parts))
            self._dirty = False
            self.segment, self.size, self.link = segment, size, link
        return placed
