"""Offline check-and-repair for one state directory: ``repro fsck``.

The repair ladder (full narrative in ``docs/INTEGRITY.md``), in the
order the steps run — ordering matters because later rungs consume
redundancy that earlier rungs must read first:

1. **Registry keys** of a log record whose body is damaged (its header
   still verifies) are rebuilt from redundancy: the persistent product
   tree's leaves hold every registered modulus in global-index order,
   and each shard's tree (``shards/<k>/ptree``) holds its slice, whose
   global indices the shard snapshot lists in leaf order.  A rebuild is
   accepted only if its SHA-256 matches the header's pin — the pin is
   the authority, never the rebuild.  The damaged segment is copied to
   the quarantine, then replaced whole.
2. **Registry hits** of such a record are recomputed by a pairwise GCD
   rescan of the (now complete) moduli, again accepted only on pin
   match.  A torn final record is rebuilt the same way when its header
   survived and redundancy proves it, and cut off, as a load would,
   otherwise — never refused.
3. **Derived data is rebuilt, damaged originals quarantined**: corrupt
   ptree segments/manifest are quarantined wholesale and the tree is
   regrown from registry moduli; a damaged shard tree and corrupt shard
   snapshots are quarantined (workers rebuild from the registry at next
   start); dedup buckets are rebuilt from ``seen.log``.
4. **Torn tails are truncated to the committed watermark**: ``seen.log``
   is cut back to a whole number of records (never below the cursor's
   watermark — losing committed dedup records is refused, see below).
5. **Crash residue is quarantined**: interrupted ``.tmp`` writes and
   checksum sidecars whose artifact is gone.
6. **Stale checksum sidecars are refreshed** — but only when the
   artifact's whole family otherwise verifies, so a refresh can never
   launder real corruption into a valid checksum.

``fsck`` **refuses loudly** — reports, repairs nothing dependent, exits
nonzero — when the damaged party is the root of truth itself: a damaged
registry record header, link or frame, a missing log segment, a corrupt
ingest cursor, a registry body with no intact redundancy, or a
``seen.log`` that lost committed records.  A damaged registry still in
the ``weak-key-registry/1`` layout is refused whole, and nothing in its
state directory is touched: fsck repairs only the log, and converting
that registry would keep only its verified prefix.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from repro.core import chainlog, durable
from repro.core.spool import SpoolError, blob_sha256, read_blob, write_sidecar
from repro.integrity.catalog import (
    DIGEST_SIZE,
    ArtifactCatalog,
    CatalogReport,
    Finding,
    SEVERITY_CORRUPT,
)

__all__ = ["FsckError", "FsckReport", "run_fsck"]


class FsckError(RuntimeError):
    """A repair attempt that must not proceed (never raised on check-only runs)."""


class _Unprovable(Exception):
    """A damaged registry body that no rebuild can match to its pins."""


@dataclass
class FsckReport:
    """What one fsck pass found and (optionally) fixed.

    >>> import tempfile
    >>> with tempfile.TemporaryDirectory() as d:
    ...     r = run_fsck(d)
    ...     (r.clean, r.repairs, r.refusals)
    (True, [], [])
    """

    state_dir: Path
    scan: CatalogReport
    repairs: list[dict] = field(default_factory=list)
    refusals: list[dict] = field(default_factory=list)
    post_scan: CatalogReport | None = None

    @property
    def clean(self) -> bool:
        """No corruption found (pre-repair)."""
        return self.scan.clean

    @property
    def healed(self) -> bool:
        """A repair ran, refused nothing, and the re-scan came back clean."""
        return (
            self.post_scan is not None
            and not self.refusals
            and self.post_scan.clean
        )

    def to_json(self) -> dict:
        out = {
            "state_dir": str(self.state_dir),
            "clean": self.clean,
            "scan": self.scan.to_json(),
            "repairs": self.repairs,
            "refusals": self.refusals,
        }
        if self.post_scan is not None:
            out["post_scan"] = self.post_scan.to_json()
            out["healed"] = self.healed
        return out


def run_fsck(state_dir: str | Path, *, repair: bool = False) -> FsckReport:
    """Deep-verify ``state_dir``; with ``repair`` walk the repair ladder.

    Read-only unless ``repair`` is set.  Callers racing a live service
    must hold the :class:`repro.integrity.lock.StateLock` first — the
    CLI does this for you.
    """
    state_dir = Path(state_dir)
    catalog = ArtifactCatalog(state_dir)
    scan = catalog.scan()
    report = FsckReport(state_dir=state_dir, scan=scan)
    if not repair:
        return report
    _Repairer(state_dir, report).run()
    report.post_scan = ArtifactCatalog(state_dir).scan()
    return report


class _Repairer:
    """One repair pass over a scanned state directory."""

    def __init__(self, state_dir: Path, report: FsckReport) -> None:
        self.state_dir = state_dir
        self.report = report
        self._redundancy: dict[int, int] | None = None

    # -- bookkeeping -----------------------------------------------------------

    def _did(self, action: str, artifact: str, detail: str = "") -> None:
        self.report.repairs.append(
            {"action": action, "artifact": artifact, "detail": detail}
        )

    def _refuse(self, artifact: str, reason: str) -> None:
        self.report.refusals.append({"artifact": artifact, "reason": reason})

    def _quarantine(self, path: Path) -> None:
        """Move ``path`` under ``quarantine/`` preserving its relative path."""
        dest = durable.quarantine(self.state_dir, path)
        self._did(
            "quarantine", str(path.relative_to(self.state_dir)),
            f"moved to {dest.relative_to(self.state_dir)}",
        )

    # -- the ladder ------------------------------------------------------------

    def run(self) -> None:
        corrupt = {f.artifact: f for f in self.report.scan.corrupt}
        unconverted = sorted(
            a for a, f in corrupt.items()
            if f.family == "registry" and not a.endswith(".log")
        )
        if unconverted:
            self._refuse(
                unconverted[0],
                "the registry is still in the weak-key-registry/1 layout and is "
                "damaged; fsck repairs only the registry log, and converting now "
                "would keep only the verified prefix — refusing to touch this "
                "state directory (restore the damaged files, then start the "
                "service, which converts the registry)",
            )
            return
        moduli, complete = self._repair_registry()
        self._repair_ptree(corrupt, moduli, complete)
        self._repair_spools(corrupt)
        self._repair_shards(corrupt)
        self._repair_ingest(corrupt)
        self._sweep_residue()
        self._refresh_sidecars()

    # -- registry --------------------------------------------------------------

    def _repair_registry(self) -> tuple[dict[int, int], bool]:
        """Heal the registry log; returns (global index → modulus, complete).

        A damaged body under an intact header is rebuilt: keys from
        redundancy, hits by a GCD rescan, each accepted only if it matches
        the header's pin.  A torn final commit whose header survived is
        rebuilt the same way — on disk, a tear and a truncation of an
        acknowledged record look alike — and cut off, as a load would,
        when nothing proves it; so is a torn tail that lost its header,
        and a torn state record, which only repeats bookkeeping the
        commits before it hold.  Any other damage — a header, a link, the
        framing, a missing segment, a body nothing proves — is the root of
        truth itself, so the registry is refused.
        """
        scan = chainlog.read_log(self.state_dir)
        if not scan.segments:
            return {}, False
        for fault in scan.faults:
            if fault.frame is not None or fault.verdict == "torn-tail":
                continue
            self._refuse(
                self._segment_rel(fault.segment),
                f"registry log is the damaged party ({fault.verdict}: {fault.detail}); "
                "no redundancy holds a record header — refusing to repair anything "
                "that depends on it",
            )
        if self.report.refusals:
            return {}, False

        final = scan.segments[-1][0]
        layout = []  # (frame, base, count)
        moduli: dict[int, int] = {}
        base = 0
        for frame in scan.frames:
            if frame.header.get("kind") != "commit":
                continue
            count = int(frame.header["keys"])
            layout.append((frame, base, count))
            keys = self._verified_part(frame, "keys")
            if keys is not None and frame.damage != "torn":
                moduli.update(enumerate(chainlog.unpack_ints(keys), start=base))
            base += count
        total = base

        fixes: dict[int, list] = {}  # segment -> [(frame or fault, new body or None to cut)]
        for frame, base, count in layout:
            if frame.damage is None:
                continue
            try:
                body = self._rebuilt_body(frame, base, count, moduli)
            except _Unprovable as exc:
                if frame.damage == "torn" and frame.segment == final:
                    fixes.setdefault(frame.segment, []).append((frame, None))
                    total -= count
                else:
                    self._refuse(
                        self._segment_rel(frame.segment), f"batch {frame.header['batch']}: {exc}"
                    )
                continue
            fixes.setdefault(frame.segment, []).append((frame, body))

        for fault in scan.faults:
            torn = fault.verdict == "torn-tail"
            if torn and (fault.frame is None or fault.frame.header.get("kind") != "commit"):
                fixes.setdefault(fault.segment, []).append((fault, None))
        for index, segment_fixes in sorted(fixes.items()):
            self._rewrite_segment(scan, index, segment_fixes)
        return moduli, len(moduli) == total

    def _segment_rel(self, index: int) -> str:
        return chainlog.segment_path(self.state_dir, index).name

    def _verified_part(self, frame: chainlog.Frame, part: str) -> bytes | None:
        """One body part of ``frame`` if it is whole and matches its pin."""
        cut = int(frame.header["keys_nbytes"])
        end = cut if part == "keys" else frame.body_len
        data = frame.body[:cut] if part == "keys" else frame.body[cut:]
        return data if len(frame.body) >= end and self._matches(frame, part, data) else None

    def _matches(self, frame: chainlog.Frame, part: str, data: bytes) -> bool:
        return hashlib.sha256(data).hexdigest() == frame.header["sha256"][part == "hits"]

    def _pinned(self, frame: chainlog.Frame, part: str, data: bytes, detail: str) -> bytes:
        """``data`` if it matches ``part``'s pin; :class:`_Unprovable` otherwise."""
        if not self._matches(frame, part, data):
            raise _Unprovable(
                f"{part} {detail} miss the log's pin — redundancy disagrees with the registry"
            )
        return data

    def _rebuilt_body(
        self, frame: chainlog.Frame, base: int, count: int, moduli: dict[int, int]
    ) -> bytes:
        """``frame``'s pinned body: its intact part, the rest rebuilt.

        Adds the batch's keys to ``moduli`` once the whole body is proved;
        raises :class:`_Unprovable` when it cannot be.
        """
        keys = self._verified_part(frame, "keys")
        if keys is None:
            if self._redundancy is None:
                self._redundancy = self._redundant_moduli()
            values = [self._redundancy.get(g) for g in range(base, base + count)]
            if None in values:
                raise _Unprovable(
                    "no intact redundancy (service or shard product-tree leaf) holds "
                    f"modulus {base + values.index(None)}"
                )
            keys = self._pinned(frame, "keys", chainlog.pack_ints(values), "rebuilt from redundancy")
        else:
            values = chainlog.unpack_ints(keys)
        batch = dict(enumerate(values, start=base))
        hits = self._verified_part(frame, "hits")
        if hits is None:
            flat = self._rescan_hits(base, count, {**moduli, **batch})
            hits = self._pinned(frame, "hits", flat, "recomputed by GCD rescan")
        moduli.update(batch)
        return keys + hits

    def _redundant_moduli(self) -> dict[int, int]:
        """Global index → modulus, from every intact redundancy source:
        the service's product tree, whose leaves are the registry in
        global order, and each shard's tree, whose leaves its snapshot's
        indices place."""
        out = _tree_leaves(self.state_dir / "ptree")
        for snapshot in sorted(self.state_dir.glob("shards/*/shard.json")):
            try:
                indices = json.loads(snapshot.read_bytes())["indices"]
                leaves = _tree_leaves(snapshot.parent / "ptree")
                for pos, gidx in enumerate(indices):
                    if pos in leaves:
                        out.setdefault(int(gidx), leaves[pos])
            except (OSError, ValueError, KeyError, TypeError):
                continue
        return out

    def _rescan_hits(self, base: int, count: int, moduli: dict[int, int]) -> bytes:
        """The batch's hits, flat, by a pairwise GCD rescan of ``moduli``."""
        if any(g not in moduli for g in range(base + count)):
            raise _Unprovable("cannot rescan hits, the registry's moduli are incomplete")
        hits = []
        for j in range(base, base + count):
            for i in range(j):
                g = math.gcd(moduli[i], moduli[j])
                if g > 1 and g != moduli[i]:
                    hits.append((i, j, g))
        hits.sort()
        return chainlog.pack_ints(x for hit in hits for x in hit)

    def _rewrite_segment(self, scan: chainlog.LogScan, index: int, fixes: list) -> None:
        """Write one segment back with its rebuilt bodies or its torn tail cut.

        The damaged original is copied to the quarantine first; the
        segment itself is replaced atomically, so it is never missing.
        """
        data = scan.data[index]
        for fix, body in sorted(fixes, key=lambda fb: -_start(fb[0])):
            if body is None:  # a torn tail we do not rebuild: cut it off
                data = data[: _start(fix)]
            elif fix.damage == "torn":
                data = data[: fix.body_at] + body + fix.link
            else:
                data = data[: fix.body_at] + body + data[fix.body_at + fix.body_len :]
        path = chainlog.segment_path(self.state_dir, index)
        rel = self._segment_rel(index)
        dest = durable.quarantine(self.state_dir, path, scan.data[index])
        self._did("quarantine", rel, f"copied to {dest.relative_to(self.state_dir)}")
        if len(data) > chainlog.SEGMENT_HEADER:
            durable.replace_bytes(path, data)
        else:
            durable.remove(path)
        for fix, body in fixes:
            if body is None:
                self._did("truncate", rel, "cut off a torn final record, as a load would")
            else:
                self._did(
                    "rebuild", rel,
                    f"batch {fix.header['batch']} rebuilt from redundancy and GCD rescan",
                )

    # -- ptree -----------------------------------------------------------------

    def _repair_ptree(
        self, corrupt: dict[str, Finding], moduli: dict[int, int], complete: bool
    ) -> None:
        """Rebuild every damaged product tree.  The service's tree regrows
        from the recovered registry; any other (a shard's) is quarantined,
        and its worker rebuilds it from the registry slice at next start."""
        main = self.state_dir / "ptree"
        damaged = {(self.state_dir / a).parent for a, f in corrupt.items() if f.family == "ptree"}
        for ptree_dir in sorted(damaged):
            rel = str(ptree_dir.relative_to(self.state_dir))
            if ptree_dir == main and not complete:
                self._refuse(
                    rel,
                    "cannot rebuild the product tree: no fully recovered registry "
                    "in this state directory to regrow it from",
                )
                continue
            for item in sorted(ptree_dir.iterdir()):
                if item.is_file():
                    self._quarantine(item)
            if ptree_dir != main:
                self._did(
                    "drop-derived", rel,
                    "a shard's product tree is derived; its worker rebuilds it "
                    "from the registry slice at next start",
                )
                continue
            # regrow from registry truth — the tree is derived data
            from repro.core.ptree import PersistentProductTree

            tree = PersistentProductTree(spool_dir=ptree_dir)
            ordered = [moduli[g] for g in sorted(moduli)]
            tree.append(ordered)
            self._did("rebuild", rel, f"regrown from {len(ordered)} registry moduli")

    # -- batchscan spools -------------------------------------------------------

    def _repair_spools(self, corrupt: dict[str, Finding]) -> None:
        """Truncate a damaged spool checkpoint to its intact stage prefix.

        Batchscan blobs have no redundancy; the pipeline's own resume
        contract re-runs any stage whose record is gone, so the honest
        repair is exactly what ``verified_prefix`` would do at load time:
        quarantine the damaged blobs and cut the manifest back to the
        stages that still verify.
        """
        spool_dirs = {
            (self.state_dir / a).parent
            for a, f in corrupt.items()
            if f.family == "spool"
        }
        for directory in sorted(spool_dirs):
            manifest_path = directory / "manifest.json"
            rel_manifest = str(manifest_path.relative_to(self.state_dir))
            if rel_manifest in corrupt:
                self._refuse(
                    rel_manifest,
                    "spool manifest is itself damaged; the pipeline restarts "
                    "this run from scratch",
                )
                continue
            from repro.core.checkpoint import CheckpointStore

            store = CheckpointStore(directory)
            manifest = store.load()
            if manifest is None:
                continue
            keep: list = []
            for record in manifest.stages:
                if store.verify(record):
                    keep.append(record)
                else:
                    break
            dropped = manifest.stages[len(keep):]
            for record in dropped:
                path = directory / record.blob
                if path.exists():
                    self._quarantine(path)
            manifest.stages = keep
            store.save(manifest)
            self._did(
                "truncate", rel_manifest,
                f"kept {len(keep)} verified stages, dropped {len(dropped)} "
                "(the pipeline re-runs them on resume)",
            )

    # -- shard snapshots --------------------------------------------------------

    def _repair_shards(self, corrupt: dict[str, Finding]) -> None:
        for artifact, finding in corrupt.items():
            if finding.family != "shard-snapshot":
                continue
            path = self.state_dir / artifact
            if path.exists():
                self._quarantine(path)
            side = path.with_name(path.name + ".sha256")
            if side.exists():
                self._quarantine(side)
            self._did(
                "drop-derived", artifact,
                "shard snapshots are derived; the worker rebuilds from the "
                "registry at next start",
            )

    # -- ingest ----------------------------------------------------------------

    def _repair_ingest(self, corrupt: dict[str, Finding]) -> None:
        ingest = {a: f for a, f in corrupt.items() if f.family == "ingest"}
        if not ingest:
            return
        cursor_path = self.state_dir / "cursor.json"
        if "cursor.json" in ingest:
            self._refuse(
                "cursor.json",
                "the crawl cursor is the root of ingest exactly-once; a damaged "
                "cursor cannot be reconstructed — restart the crawl from scratch",
            )
            return
        watermark = 0
        try:
            state = json.loads(cursor_path.read_bytes())
            watermark = int(state.get("dedup_watermark", 0))
        except (OSError, ValueError):
            pass

        seen = self.state_dir / "dedup" / "seen.log"
        rebuild_buckets = False
        for artifact, finding in ingest.items():
            if artifact.endswith("seen.log"):
                size = seen.stat().st_size if seen.exists() else 0
                whole = (size // DIGEST_SIZE) * DIGEST_SIZE
                if whole < watermark * DIGEST_SIZE:
                    self._refuse(
                        artifact,
                        f"seen.log holds {whole // DIGEST_SIZE} whole records but "
                        f"the cursor committed {watermark}; committed dedup state "
                        "is lost (the registry's own dedup is the backstop)",
                    )
                    continue
                if size != whole:
                    durable.truncate(seen, whole)
                    self._did(
                        "truncate", artifact,
                        f"cut torn tail to {whole // DIGEST_SIZE} whole records",
                    )
                rebuild_buckets = True
            elif "bucket-" in artifact:
                rebuild_buckets = True
            elif artifact.endswith("outbox.txt"):
                self._repair_outbox(artifact)
        if rebuild_buckets and seen.exists():
            self._rebuild_buckets(seen, watermark)

    def _rebuild_buckets(self, seen: Path, watermark: int) -> None:
        partitions: dict[int, set[bytes]] = {}
        limit = watermark * DIGEST_SIZE
        with seen.open("rb") as fh:
            raw = fh.read(limit) if limit else fh.read()
        for pos in range(0, len(raw) - len(raw) % DIGEST_SIZE, DIGEST_SIZE):
            digest = raw[pos : pos + DIGEST_SIZE]
            partitions.setdefault(digest[0], set()).add(digest)
        for old in seen.parent.glob("bucket-*.bin"):
            old.unlink()
        for prefix, digests in partitions.items():
            (seen.parent / f"bucket-{prefix:02x}.bin").write_bytes(
                b"".join(sorted(digests))
            )
        self._did(
            "rebuild", "dedup/bucket-*.bin",
            f"repartitioned from the first {watermark or len(raw) // DIGEST_SIZE} "
            "seen.log records",
        )

    def _repair_outbox(self, artifact: str) -> None:
        path = self.state_dir / "outbox.txt"
        try:
            state = json.loads((self.state_dir / "cursor.json").read_bytes())
            committed = int(state.get("outbox_bytes", 0))
        except (OSError, ValueError):
            self._refuse(artifact, "no readable cursor to recover the outbox against")
            return
        size = path.stat().st_size if path.exists() else 0
        if size < committed:
            self._refuse(
                artifact,
                f"outbox holds {size} bytes but the cursor committed {committed}; "
                "committed submissions are lost",
            )
            return
        durable.truncate(path, committed)
        self._did("truncate", artifact, f"cut to the committed {committed} bytes")

    # -- residue and sidecars ---------------------------------------------------

    def _sweep_residue(self) -> None:
        for finding in self.report.scan.warnings:
            if finding.family != "residue":
                continue
            path = self.state_dir / finding.artifact
            if path.exists():
                self._quarantine(path)

    def _refresh_sidecars(self) -> None:
        """Re-record checksums for stale sidecars — only on otherwise-clean families.

        Runs against a *post-repair* scan: a family that still carries
        corruption (a refused rebuild, say a bit-flipped manifest pin)
        keeps its stale sidecar, so a refresh can never launder damage
        into a valid checksum.
        """
        interim = ArtifactCatalog(self.state_dir).scan()
        dirty_families = {f.family for f in interim.corrupt}
        for finding in interim.findings:
            if finding.verdict != "stale-checksum" or finding.family in dirty_families:
                continue
            path = self.state_dir / finding.artifact
            try:
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
            except OSError:
                continue
            write_sidecar(path, digest)
            self._did("refresh-checksum", finding.artifact, "sidecar re-recorded")


def _start(fix) -> int:
    """Where a fix applies in its segment: a frame's or a fault's offset."""
    return fix.start if isinstance(fix, chainlog.Frame) else fix.offset


def _tree_leaves(ptree_dir: Path) -> dict[int, int]:
    """Leaf position → modulus, from a product-tree spool's intact segments."""
    out: dict[int, int] = {}
    try:
        payload = json.loads((ptree_dir / "manifest.json").read_bytes())
        for record in payload.get("stages", []):
            name = str(record.get("name", ""))
            if not name.startswith("seg."):
                continue
            _, start, _height = name.split(".")
            path = ptree_dir / str(record["blob"])
            if blob_sha256(path) != record.get("sha256"):
                continue
            nodes = read_blob(path)
            n_leaves = (len(nodes) + 1) // 2
            for offset, n in enumerate(nodes[:n_leaves]):
                out[int(start) + offset] = n
    except (OSError, ValueError, SpoolError, KeyError, AttributeError):
        pass
    return out
