"""The artifact catalog: every durable format, enumerated and deep-verified.

A state directory holds up to five artifact families, each with its own
verification story (see ``docs/INTEGRITY.md`` for the full taxonomy):

``registry``        the ``registry-*.log`` segments of the hash-chained
                    registry log (:mod:`repro.core.chainlog`), one
                    verification unit per segment.  A root
                    ``manifest.json`` of format ``weak-key-registry/1``
                    (per-batch blobs the registry has not converted to
                    the log yet) is in this family too.
``ptree``           a ``product-tree/1`` manifest plus ``seg-*.bin``
                    segment blobs: the service's tree at
                    ``state_dir/ptree/``, and each shard worker's at
                    ``shards/<k>/ptree/``.
``spool``           any other checkpointed spool (the batchscan
                    pipeline's level blobs).
``shard-snapshot``  ``shards/<k>/shard.json`` files
                    (``repro.shard-snapshot/2``, or ``/1`` from before
                    the snapshot dropped its moduli copy), checksummed by
                    a ``.sha256`` sidecar.
``ingest``          the crawl's ``cursor.json`` (sidecar-checksummed),
                    ``dedup/seen.log`` + derived buckets, and the outbox.

Verdicts, per artifact:

``ok``              bytes match every pin that covers them
``torn-tail``       a truncation: the committed prefix is intact but the
                    artifact ends early (size < pinned, JSON cut short,
                    seen.log not a whole number of records, ...)
``hash-mismatch``   the artifact is whole-sized but its contents no
                    longer match the recorded hash — silent bit rot
``missing``         the manifest references a file that does not exist
``orphan``          a file no manifest references (stray blob, leftover
                    ``.tmp``, sidecar without its artifact) — warning
                    severity, normal crash residue
``stale-checksum``  a JSON artifact parses and is structurally sound but
                    its ``.sha256`` sidecar disagrees — either bit rot
                    inside a still-valid JSON value or the legitimate
                    crash window between the artifact's rename and the
                    sidecar's.  Warning severity: it is reported, never
                    silently accepted, but does not trip degraded mode.

Everything here is **read-only**: unlike ``WeakKeyRegistry.load()`` (which
self-heals by cutting the log back to its verified prefix), cataloguing a state
directory never changes it — that is what makes the catalog safe to run
both offline under ``repro fsck`` and online under the scrubber.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.core import chainlog
from repro.core.checkpoint import MANIFEST_VERSION
from repro.core.durable import QUARANTINE_DIR
from repro.core.spool import MAGIC, blob_sha256, read_sidecar

# Mirrors repro.ingest.dedup.DIGEST_SIZE, which fsck takes from here too:
# importing repro.ingest would cycle (ingest -> service.http ->
# integrity.scrub -> this module) and load the CT crawler's HTTP stack,
# so the value is pinned and cross-checked by tests/integrity instead.
DIGEST_SIZE = 32

__all__ = [
    "ArtifactCatalog",
    "CatalogReport",
    "Finding",
    "SEVERITY_CORRUPT",
    "SEVERITY_OK",
    "SEVERITY_WARNING",
    "VERDICTS",
    "VerifyUnit",
]

VERDICTS = ("ok", "torn-tail", "hash-mismatch", "missing", "orphan", "stale-checksum")

SEVERITY_OK = "ok"
SEVERITY_WARNING = "warning"
SEVERITY_CORRUPT = "corrupt"

_SEVERITY = {
    "ok": SEVERITY_OK,
    "orphan": SEVERITY_WARNING,
    "stale-checksum": SEVERITY_WARNING,
    "torn-tail": SEVERITY_CORRUPT,
    "hash-mismatch": SEVERITY_CORRUPT,
    "missing": SEVERITY_CORRUPT,
}

#: the per-batch blob layout ``WeakKeyRegistry.load`` converts to the log
REGISTRY_V1_FORMAT = "weak-key-registry/1"
PTREE_FORMAT = "product-tree/1"
#: ``/1`` also carried a ``scanner`` copy of the slice, which workers ignore
SHARD_FORMATS = ("repro.shard-snapshot/1", "repro.shard-snapshot/2")
CURSOR_FORMAT = "repro-ct-cursor-v1"

_SHARD_KEYS = frozenset(
    {"format", "shard", "shards", "replicas", "indices",
     "pairs_tested", "job", "job_fp", "job_hits", "job_pairs"}
)


@dataclass(frozen=True)
class Finding:
    """One artifact's verdict.

    >>> f = Finding(family="registry", artifact="registry-000000.log",
    ...             verdict="hash-mismatch", detail="sha256 differs")
    >>> f.severity
    'corrupt'
    """

    family: str
    artifact: str
    verdict: str
    detail: str = ""

    @property
    def severity(self) -> str:
        return _SEVERITY[self.verdict]

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "artifact": self.artifact,
            "verdict": self.verdict,
            "severity": self.severity,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class VerifyUnit:
    """One scrub-schedulable verification: a named callable plus its cost.

    ``nbytes`` is how many bytes the check will (re-)read — the unit the
    scrubber's per-cycle byte budget meters.
    """

    name: str
    nbytes: int
    check: object  # () -> list[Finding]

    def run(self) -> list[Finding]:
        return self.check()  # type: ignore[operator]


@dataclass
class CatalogReport:
    """Every finding from one catalog pass, with rollups.

    >>> r = CatalogReport(findings=[Finding("registry", "m", "ok")])
    >>> (r.clean, len(r.corrupt), len(r.warnings))
    (True, 0, 0)
    """

    findings: list[Finding] = field(default_factory=list)

    @property
    def corrupt(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == SEVERITY_CORRUPT]

    @property
    def warnings(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == SEVERITY_WARNING]

    @property
    def clean(self) -> bool:
        return not self.corrupt

    def by_family(self) -> dict[str, list[Finding]]:
        out: dict[str, list[Finding]] = {}
        for f in self.findings:
            out.setdefault(f.family, []).append(f)
        return out

    def to_json(self) -> dict:
        return {
            "clean": self.clean,
            "counts": {
                "total": len(self.findings),
                "corrupt": len(self.corrupt),
                "warnings": len(self.warnings),
            },
            "findings": [f.to_json() for f in self.findings],
        }


def _read_json(path: Path) -> tuple[dict | None, str, str]:
    """Parse ``path``; returns ``(payload, verdict, detail)``.

    The verdict distinguishes a truncation (decoder ran off the end of
    the bytes) from mid-file damage (decoder tripped before the end).
    """
    try:
        raw = path.read_bytes()
    except FileNotFoundError:
        return None, "missing", "file does not exist"
    except OSError as exc:
        return None, "hash-mismatch", f"unreadable: {exc}"
    # decode with replacement first: bit rot can produce invalid UTF-8,
    # which must surface as a verdict, not a UnicodeDecodeError
    text = raw.decode("utf-8", errors="replace")
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        # "Unterminated string" means the scanner hit EOF hunting for a
        # close quote — a truncation signal wherever exc.pos points
        torn = exc.pos >= len(text.rstrip()) or "Unterminated string" in exc.msg
        verdict = "torn-tail" if torn else "hash-mismatch"
        return None, verdict, f"JSON parse failed at byte {exc.pos}: {exc.msg}"
    if not isinstance(payload, dict):
        return None, "hash-mismatch", "JSON root is not an object"
    return payload, "ok", ""


def _sidecar_finding(family: str, rel: str, path: Path, raw: bytes) -> Finding | None:
    """A ``stale-checksum`` finding when the sidecar disagrees, else None."""
    recorded = read_sidecar(path)
    if recorded is None:
        return None  # pre-sidecar state dirs are legitimate
    actual = hashlib.sha256(raw).hexdigest()
    if actual == recorded:
        return None
    return Finding(
        family=family, artifact=rel, verdict="stale-checksum",
        detail=f"sidecar records {recorded[:12]}…, contents hash {actual[:12]}…",
    )


class ArtifactCatalog:
    """Enumerate and deep-verify one state directory.

    >>> import tempfile
    >>> with tempfile.TemporaryDirectory() as d:
    ...     ArtifactCatalog(d).scan().clean
    True
    """

    def __init__(self, state_dir: str | Path) -> None:
        self.state_dir = Path(state_dir)

    # -- discovery -------------------------------------------------------------

    def _rel(self, path: Path) -> str:
        return str(path.relative_to(self.state_dir))

    def _skip(self, path: Path) -> bool:
        rel = path.relative_to(self.state_dir)
        return bool(rel.parts) and rel.parts[0] == QUARANTINE_DIR

    def manifest_dirs(self) -> list[tuple[Path, str]]:
        """Every checkpointed directory as ``(dir, family)``."""
        out = []
        for manifest in sorted(self.state_dir.rglob("manifest.json")):
            if self._skip(manifest):
                continue
            payload, verdict, _ = _read_json(manifest)
            fmt = (payload or {}).get("config", {}).get("format")
            if fmt == REGISTRY_V1_FORMAT:
                family = "registry"
            elif fmt == PTREE_FORMAT:
                family = "ptree"
            else:
                family = "spool"
            if verdict != "ok":
                # an unreadable manifest carries no format tag; classify by
                # the well-known directory layout — the root manifest is a
                # registry not yet converted to the log until proven
                # otherwise (fsck's refuse-to-touch rule keys off this),
                # ``ptree/`` is the product tree
                if manifest.parent == self.state_dir:
                    family = "registry"
                elif manifest.parent.name == "ptree":
                    family = "ptree"
            out.append((manifest.parent, family))
        return out

    # -- verification ----------------------------------------------------------

    def scan(self) -> CatalogReport:
        """Deep-verify everything now (the fsck entry point)."""
        findings: list[Finding] = []
        for unit in self.units():
            findings.extend(unit.run())
        return CatalogReport(findings=findings)

    def units(self) -> list[VerifyUnit]:
        """The scan split into scrub-schedulable units (per artifact)."""
        units: list[VerifyUnit] = []
        if not self.state_dir.is_dir():
            return units
        units.extend(self._log_units())
        for directory, family in self.manifest_dirs():
            units.extend(self._manifest_units(directory, family))
        for snapshot in sorted(self.state_dir.glob("shards/*/shard.json")):
            units.append(self._json_unit("shard-snapshot", snapshot, self._verify_shard))
        cursor = self.state_dir / "cursor.json"
        if cursor.exists() or (self.state_dir / "dedup").is_dir():
            units.extend(self._ingest_units(cursor))
        units.append(
            VerifyUnit(name="tmp-residue", nbytes=0, check=self._find_tmp_orphans)
        )
        return units

    def _file_size(self, path: Path) -> int:
        try:
            return path.stat().st_size
        except OSError:
            return 0

    def _json_unit(self, family: str, path: Path, verify) -> VerifyUnit:
        return VerifyUnit(
            name=self._rel(path),
            nbytes=self._file_size(path),
            check=lambda: verify(family, path),
        )

    # -- the registry log -------------------------------------------------------

    def _log_units(self) -> list[VerifyUnit]:
        segments = chainlog.segment_paths(self.state_dir)
        return [
            VerifyUnit(
                name=self._rel(path),
                nbytes=self._file_size(path),
                check=lambda pos=pos: self._verify_segment(segments, pos),
            )
            for pos, (_, path) in enumerate(segments)
        ]

    def _verify_segment(self, segments: list[tuple[int, Path]], pos: int) -> list[Finding]:
        """One segment on its own, plus its link to the segment before it."""
        index, path = segments[pos]
        rel = self._rel(path)
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            return [Finding("registry", rel, "missing", "segment vanished mid-scan")]
        findings = []
        prev = chainlog.GENESIS
        expected = segments[pos - 1][0] + 1 if pos else 0
        if index != expected:
            prev = None
            findings.append(Finding(
                "registry", chainlog.segment_path(self.state_dir, expected).name,
                "missing", f"the log resumes at {rel}",
            ))
        elif pos:
            # the link the segment before it ends with (its last 32 bytes)
            before = segments[pos - 1][1]
            with before.open("rb") as fh:
                fh.seek(max(0, self._file_size(before) - chainlog.LINK_BYTES))
                prev = fh.read()
        _, faults = chainlog.read_segment(
            data, index, final=pos == len(segments) - 1, prev=prev
        )
        if faults:
            more = f" (+{len(faults) - 1} more)" if len(faults) > 1 else ""
            findings.append(
                Finding("registry", rel, faults[0].verdict, faults[0].detail + more)
            )
        return findings or [Finding("registry", rel, "ok")]

    # -- checkpointed directories (ptree / batchscan spools) --------------------

    def _manifest_units(self, directory: Path, family: str) -> list[VerifyUnit]:
        manifest_path = directory / "manifest.json"
        units = [self._json_unit(family, manifest_path, self._verify_manifest)]
        payload, verdict, _ = _read_json(manifest_path)
        referenced: set[str] = set()
        if verdict == "ok" and payload is not None:
            for record in payload.get("stages", []):
                if not isinstance(record, dict) or "blob" not in record:
                    continue
                referenced.add(str(record["blob"]))
                units.append(self._blob_unit(family, directory, dict(record)))
        rel_dir = self._rel(directory)
        units.append(
            VerifyUnit(
                name=f"{rel_dir}:orphans" if rel_dir != "." else "orphans",
                nbytes=0,
                check=lambda: self._find_blob_orphans(family, directory, referenced),
            )
        )
        return units

    def _verify_manifest(self, family: str, path: Path) -> list[Finding]:
        rel = self._rel(path)
        payload, verdict, detail = _read_json(path)
        if verdict != "ok":
            return [Finding(family=family, artifact=rel, verdict=verdict, detail=detail)]
        findings: list[Finding] = []
        try:
            ok_shape = (
                payload.get("version") == MANIFEST_VERSION
                and isinstance(payload.get("config"), dict)
                and isinstance(payload.get("stages"), list)
                and all(
                    isinstance(r, dict)
                    and {"name", "blob", "count", "nbytes", "sha256"} <= set(r)
                    for r in payload["stages"]
                )
            )
        except (TypeError, AttributeError):
            ok_shape = False
        if not ok_shape:
            findings.append(
                Finding(
                    family=family, artifact=rel, verdict="hash-mismatch",
                    detail="manifest parses but its structure is damaged",
                )
            )
        stale = _sidecar_finding(family, rel, path, path.read_bytes())
        if stale is not None:
            findings.append(stale)
        if not findings:
            findings.append(Finding(family=family, artifact=rel, verdict="ok"))
        return findings

    def _blob_unit(self, family: str, directory: Path, record: dict) -> VerifyUnit:
        path = directory / str(record["blob"])
        return VerifyUnit(
            name=self._rel(path),
            nbytes=int(record.get("nbytes", 0) or 0),
            check=lambda: self._verify_blob(family, path, record),
        )

    def _verify_blob(self, family: str, path: Path, record: dict) -> list[Finding]:
        rel = self._rel(path)
        try:
            size = path.stat().st_size
        except FileNotFoundError:
            return [
                Finding(
                    family=family, artifact=rel, verdict="missing",
                    detail=f"referenced by stage {record.get('name')!r}",
                )
            ]
        pinned = int(record.get("nbytes", -1))
        if size < pinned:
            return [
                Finding(
                    family=family, artifact=rel, verdict="torn-tail",
                    detail=f"{size} bytes on disk, {pinned} pinned",
                )
            ]
        actual = blob_sha256(path)
        if actual != record.get("sha256"):
            kind = "oversized" if size > pinned else "contents"
            return [
                Finding(
                    family=family, artifact=rel, verdict="hash-mismatch",
                    detail=f"{kind}: sha256 {actual[:12]}… != pinned "
                    f"{str(record.get('sha256'))[:12]}…",
                )
            ]
        try:
            with path.open("rb") as fh:
                # the batchscan pairing stage pins a JSON hit list, not a blob
                magic_ok = path.suffix != ".bin" or fh.read(len(MAGIC)) == MAGIC
        except OSError:
            magic_ok = False
        if not magic_ok:
            # can only happen when the *pin itself* was recorded corrupt
            return [
                Finding(
                    family=family, artifact=rel, verdict="hash-mismatch",
                    detail="not an RGSPOOL1 blob (bad magic)",
                )
            ]
        return [Finding(family=family, artifact=rel, verdict="ok")]

    def _find_blob_orphans(
        self, family: str, directory: Path, referenced: set[str]
    ) -> list[Finding]:
        findings = []
        for blob in sorted(directory.glob("*.bin")):
            if blob.name not in referenced:
                findings.append(
                    Finding(
                        family=family, artifact=self._rel(blob), verdict="orphan",
                        detail="no manifest stage references this blob",
                    )
                )
        return findings

    def _find_tmp_orphans(self) -> list[Finding]:
        findings = []
        for tmp in sorted(self.state_dir.rglob("*.tmp")):
            if self._skip(tmp):
                continue
            findings.append(
                Finding(
                    family="residue", artifact=self._rel(tmp), verdict="orphan",
                    detail="interrupted atomic write",
                )
            )
        if not (self.state_dir / "manifest.json").exists():
            # no manifest at the root: any blob there is a registry blob
            # that an interrupted or partial v1 conversion left behind
            for blob in sorted(self.state_dir.glob("*.bin")):
                findings.append(
                    Finding(
                        family="residue", artifact=self._rel(blob), verdict="orphan",
                        detail="registry blob no manifest references",
                    )
                )
        for side in sorted(self.state_dir.rglob("*.sha256")):
            if self._skip(side):
                continue
            if not side.with_name(side.name[: -len(".sha256")]).exists():
                findings.append(
                    Finding(
                        family="residue", artifact=self._rel(side), verdict="orphan",
                        detail="checksum sidecar without its artifact",
                    )
                )
        return findings

    # -- shard snapshots --------------------------------------------------------

    def _verify_shard(self, family: str, path: Path) -> list[Finding]:
        rel = self._rel(path)
        payload, verdict, detail = _read_json(path)
        if verdict != "ok":
            return [Finding(family=family, artifact=rel, verdict=verdict, detail=detail)]
        if payload.get("format") not in SHARD_FORMATS or not _SHARD_KEYS <= set(payload):
            return [
                Finding(
                    family=family, artifact=rel, verdict="hash-mismatch",
                    detail=f"format {payload.get('format')!r} or keys damaged",
                )
            ]
        stale = _sidecar_finding(family, rel, path, path.read_bytes())
        if stale is not None:
            return [stale]
        return [Finding(family=family, artifact=rel, verdict="ok")]

    # -- ingest (cursor / dedup / outbox) ---------------------------------------

    def _ingest_units(self, cursor_path: Path) -> list[VerifyUnit]:
        units = [self._json_unit("ingest", cursor_path, self._verify_cursor)]
        seen = self.state_dir / "dedup" / "seen.log"
        units.append(
            VerifyUnit(
                name=self._rel(seen) if seen.exists() else "dedup/seen.log",
                nbytes=self._file_size(seen),
                check=lambda: self._verify_dedup(cursor_path),
            )
        )
        outbox = self.state_dir / "outbox.txt"
        if outbox.exists():
            units.append(
                VerifyUnit(
                    name=self._rel(outbox),
                    nbytes=self._file_size(outbox),
                    check=lambda: self._verify_outbox(cursor_path, outbox),
                )
            )
        return units

    def _cursor_state(self, cursor_path: Path) -> dict | None:
        payload, verdict, _ = _read_json(cursor_path)
        if verdict != "ok" or payload is None or payload.get("format") != CURSOR_FORMAT:
            return None
        return payload

    def _verify_cursor(self, family: str, path: Path) -> list[Finding]:
        rel = self._rel(path)
        payload, verdict, detail = _read_json(path)
        if verdict == "missing":
            return [
                Finding(
                    family=family, artifact=rel, verdict="missing",
                    detail="dedup/ exists but cursor.json does not",
                )
            ]
        if verdict != "ok":
            return [Finding(family=family, artifact=rel, verdict=verdict, detail=detail)]
        if payload.get("format") != CURSOR_FORMAT:
            return [
                Finding(
                    family=family, artifact=rel, verdict="hash-mismatch",
                    detail=f"format {payload.get('format')!r} != {CURSOR_FORMAT!r}",
                )
            ]
        stale = _sidecar_finding(family, rel, path, path.read_bytes())
        if stale is not None:
            return [stale]
        return [Finding(family=family, artifact=rel, verdict="ok")]

    def _verify_dedup(self, cursor_path: Path) -> list[Finding]:
        findings: list[Finding] = []
        seen = self.state_dir / "dedup" / "seen.log"
        state = self._cursor_state(cursor_path)
        watermark = int(state.get("dedup_watermark", 0)) if state else None
        size = self._file_size(seen)
        rel = self._rel(seen) if seen.exists() else "dedup/seen.log"
        if not seen.exists():
            if watermark:
                findings.append(
                    Finding(
                        family="ingest", artifact=rel, verdict="missing",
                        detail=f"cursor watermark is {watermark} records",
                    )
                )
        elif size % DIGEST_SIZE:
            findings.append(
                Finding(
                    family="ingest", artifact=rel, verdict="torn-tail",
                    detail=f"{size} bytes is not a whole number of "
                    f"{DIGEST_SIZE}-byte records",
                )
            )
        elif watermark is not None and size < watermark * DIGEST_SIZE:
            findings.append(
                Finding(
                    family="ingest", artifact=rel, verdict="torn-tail",
                    detail=f"{size // DIGEST_SIZE} records on disk, cursor "
                    f"watermark is {watermark}",
                )
            )
        else:
            findings.append(Finding(family="ingest", artifact=rel, verdict="ok"))
        for bucket in sorted((self.state_dir / "dedup").glob("bucket-*.bin")):
            brel = self._rel(bucket)
            bsize = self._file_size(bucket)
            if bsize % DIGEST_SIZE:
                findings.append(
                    Finding(
                        family="ingest", artifact=brel, verdict="torn-tail",
                        detail="bucket is not a whole number of records "
                        "(derived data; rebuilt from seen.log)",
                    )
                )
        return findings

    def _verify_outbox(self, cursor_path: Path, outbox: Path) -> list[Finding]:
        rel = self._rel(outbox)
        state = self._cursor_state(cursor_path)
        if state is None:
            return [Finding(family="ingest", artifact=rel, verdict="ok",
                            detail="no readable cursor to check against")]
        committed_bytes = int(state.get("outbox_bytes", 0))
        committed_lines = int(state.get("outbox_count", 0))
        size = self._file_size(outbox)
        if size < committed_bytes:
            return [
                Finding(
                    family="ingest", artifact=rel, verdict="torn-tail",
                    detail=f"{size} bytes on disk, {committed_bytes} committed",
                )
            ]
        lines = 0
        with outbox.open("rb") as fh:
            remaining = committed_bytes
            last = b""
            while remaining:
                chunk = fh.read(min(1 << 20, remaining))
                if not chunk:
                    break
                lines += chunk.count(b"\n")
                last = chunk
                remaining -= len(chunk)
        if committed_bytes and (lines != committed_lines or not last.endswith(b"\n")):
            return [
                Finding(
                    family="ingest", artifact=rel, verdict="hash-mismatch",
                    detail=f"committed prefix holds {lines} lines, cursor "
                    f"records {committed_lines}",
                )
            ]
        detail = ""
        if size > committed_bytes:
            detail = (
                f"{size - committed_bytes} uncommitted tail bytes "
                "(normal crash residue; resume truncates)"
            )
        return [Finding(family="ingest", artifact=rel, verdict="ok", detail=detail)]
