"""Command-line interface: the attack pipeline as a tool.

Subcommands (``python -m repro <cmd> --help`` for details):

=========  ==================================================================
keygen     generate RSA keys as a PEM bundle (optionally private)
corpus     build a weak-key corpus (JSON ground truth + optional PEM bundle)
scan       all-pairs shared-prime scan over a PEM bundle or corpus JSON
batchscan  disk-streamed, checkpointed batch-GCD pipeline (resumable)
serve      long-running weak-key registry service (HTTP, durable state dir)
submit     client for a running registry service (submit keys, fetch hits)
fsck       deep-verify / repair a state directory offline (docs/INTEGRITY.md)
ingest     harvest real corpora (``ingest ct``: checkpointed CT log crawl)
backends   show detected big-integer backends and what ``auto`` resolves to
census     iteration statistics of algorithms A–E (a Table IV slice)
trace      print a paper-style trace (Tables I–III) for one pair
gcd        one GCD with a chosen algorithm
=========  ==================================================================

Everything prints deterministic, machine-greppable text; ``scan --json``
emits a structured report.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING

# Only what build_parser needs and the modules of the two entry points
# the traced launcher (perfbench/launch.py) patches by name on this module
# load here: each command handler imports the rest, so a command loads
# only the code it runs, and all of it before its ready event.
from repro.core.attack import find_shared_primes
from repro.core.pipeline import PipelineConfig, run_pipeline
from repro.telemetry import ProgressUpdate, Telemetry
from repro.util.intops import BACKEND_CHOICES, backend_info, resolve_backend

if TYPE_CHECKING:
    from repro.service.client import ServiceClient

__all__ = ["main", "build_parser"]

#: ``trace --algorithm`` choices: ``repro.gcd.trace.trace_<name>``
_TRACERS = ("approx", "binary", "fast", "fast_binary", "original")


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree (exposed for docs and tests)."""
    p = argparse.ArgumentParser(
        prog="repro",
        description="Bulk GCD computation to break weak RSA keys (IPDPSW 2015 reproduction)",
    )
    sub = p.add_subparsers(dest="command", required=True)

    kg = sub.add_parser("keygen", help="generate RSA keys as a PEM bundle")
    kg.add_argument("--bits", type=int, default=256, help="modulus size (default 256)")
    kg.add_argument("--count", type=int, default=1, help="number of keys")
    kg.add_argument("--seed", default="0", help="deterministic seed")
    kg.add_argument("--private", action="store_true", help="emit private keys")
    kg.add_argument(
        "--cert", action="store_true",
        help="emit self-signed certificates instead of bare keys (bits >= 512)",
    )
    kg.add_argument("--out", type=Path, default=None, help="write to file instead of stdout")

    co = sub.add_parser("corpus", help="build a weak-key corpus with ground truth")
    co.add_argument("--keys", type=int, default=50, help="corpus size")
    co.add_argument("--bits", type=int, default=128)
    co.add_argument("--groups", default="2", help="shared-prime group sizes, e.g. 2,2,3")
    co.add_argument("--seed", default="0")
    co.add_argument("--out", type=Path, required=True, help="corpus JSON output path")
    co.add_argument("--pem", type=Path, default=None, help="also write a public PEM bundle")
    co.add_argument(
        "--moduli-out", type=Path, default=None,
        help="also write bare moduli as streaming text (one per line) — "
        "the batchscan pipeline's at-scale input format",
    )

    sc = sub.add_parser("scan", help="all-pairs shared-prime scan")
    src = sc.add_mutually_exclusive_group(required=True)
    src.add_argument("--pem", type=Path, help="PEM bundle of public keys")
    src.add_argument("--certs", type=Path, help="PEM bundle of certificates (web-scrape style)")
    src.add_argument("--corpus", type=Path, help="corpus JSON (scored against ground truth)")
    sc.add_argument(
        "--verify-certs", action="store_true",
        help="with --certs: skip certificates whose self-signature fails",
    )
    sc.add_argument(
        "--backend", choices=("bulk", "scalar", "batch", "parallel"), default="bulk",
        help="'parallel' fans blocks across a supervised process pool "
        "(worker death is healed; see docs/RESILIENCE.md)",
    )
    sc.add_argument(
        "--workers", type=int, default=0,
        help="with --backend parallel: pool size (default 0 = one per core)",
    )
    sc.add_argument(
        "--int-backend", choices=BACKEND_CHOICES, default=None, metavar="NAME",
        help="big-integer implementation for the batch trees and hit grouping "
        "(auto/python/gmpy2; default: REPRO_INT_BACKEND or auto)",
    )
    sc.add_argument("--algorithm", choices=("approx", "fast_binary", "binary"), default="approx")
    sc.add_argument("--group-size", type=int, default=64, help="Section VI r (batch size)")
    sc.add_argument("--no-early-terminate", action="store_true")
    sc.add_argument("--json", action="store_true", help="emit a JSON report")
    sc.add_argument(
        "--stats-json", type=Path, default=None, metavar="PATH",
        help="write the full stats report (stage timings, throughput, "
        "histogram quantiles) as JSON to PATH ('-' for stdout)",
    )
    sc.add_argument(
        "--progress", action="store_true",
        help="report progress (throughput + ETA) on stderr during the scan",
    )
    sc.add_argument(
        "--events-jsonl", type=Path, default=None, metavar="PATH",
        help="stream structured JSONL events (scan.start/block.done/...) to PATH",
    )
    sc.add_argument(
        "--memlog", action="store_true",
        help="count Section IV word accesses (scalar backend only; slow — "
        "routes every GCD through the instrumented word-array tier)",
    )
    sc.add_argument(
        "--stream", type=int, default=0, metavar="N",
        help="feed the corpus through the incremental scanner in batches "
        "of N keys instead of one all-pairs pass (exercises the serving "
        "path with its product-tree scanner; 0 = off). --algorithm and "
        "--no-early-terminate apply only to the all-pairs backends",
    )

    bs = sub.add_parser(
        "batchscan",
        help="disk-streamed batch-GCD pipeline: spooled trees, resumable checkpoints",
    )
    bsrc = bs.add_mutually_exclusive_group(required=True)
    bsrc.add_argument("--corpus", type=Path, help="corpus JSON (scored against ground truth)")
    bsrc.add_argument("--pem", type=Path, help="PEM bundle of public keys (streamed)")
    bsrc.add_argument(
        "--moduli", type=Path,
        help="text file of moduli, one per line (the streaming at-scale format)",
    )
    bs.add_argument(
        "--spool-dir", type=Path, required=True,
        help="directory for spilled tree levels and the checkpoint manifest",
    )
    bs.add_argument(
        "--resume", action="store_true",
        help="continue from the spool directory's last verified checkpoint",
    )
    bs.add_argument(
        "--retries", type=int, default=1,
        help="re-attempts per failed stage before giving up (default 1; "
        "only transiently-classified failures retry)",
    )
    bs.add_argument(
        "--stage-deadline", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget per stage across all of its attempts "
        "(default: unbounded)",
    )
    bs.add_argument(
        "--backend", choices=BACKEND_CHOICES, default=None, metavar="NAME",
        help="big-integer implementation for every pipeline stage "
        "(auto/python/gmpy2; default: REPRO_INT_BACKEND or auto)",
    )
    bs.add_argument("--json", action="store_true", help="emit a JSON report")
    bs.add_argument(
        "--stats-json", type=Path, default=None, metavar="PATH",
        help="write the full stats report as JSON to PATH ('-' for stdout)",
    )
    bs.add_argument(
        "--progress", action="store_true",
        help="report per-stage progress on stderr",
    )
    bs.add_argument(
        "--events-jsonl", type=Path, default=None, metavar="PATH",
        help="stream structured JSONL events (pipeline.stage.done/...) to PATH",
    )

    sv = sub.add_parser(
        "serve",
        help="run the weak-key registry service (async submissions, "
        "micro-batched incremental scanning, durable state)",
    )
    sv.add_argument(
        "--state-dir", type=Path, required=True,
        help="directory for the durable registry (created if missing; "
        "survives kill -9)",
    )
    sv.add_argument("--host", default="127.0.0.1")
    sv.add_argument(
        "--port", type=int, default=8571,
        help="TCP port (default 8571; 0 = OS-assigned, see --port-file)",
    )
    sv.add_argument(
        "--port-file", type=Path, default=None,
        help="write the bound port here once listening (for --port 0 scripts)",
    )
    sv.add_argument(
        "--bits", type=int, default=0,
        help="pin the modulus size; 0 (default) pins to the first "
        "submitted key and persists the choice",
    )
    sv.add_argument(
        "--int-backend", choices=BACKEND_CHOICES, default=None, metavar="NAME",
        help="big-integer implementation for the scan hot path "
        "(auto/python/gmpy2; default: REPRO_INT_BACKEND or auto)",
    )
    sv.add_argument(
        "--max-batch", type=int, default=256,
        help="flush a scan batch at this many keys (default 256)",
    )
    sv.add_argument(
        "--linger-ms", type=float, default=0.0,
        help="max milliseconds a submission waits for batch-mates; 0 flushes "
        "at once and batches whatever arrives during a flush (default 0)",
    )
    sv.add_argument(
        "--max-pending", type=int, default=4096,
        help="admission-queue bound in keys; beyond it submissions get "
        "429 + Retry-After (default 4096)",
    )
    sv.add_argument(
        "--shards", type=int, default=1, metavar="N",
        help="scanner fleet width: 1 (default) runs today's in-process "
        "scanner unchanged; N >= 2 shards the corpus over N supervised "
        "worker processes via consistent hashing (see docs/SHARDING.md)",
    )
    sv.add_argument(
        "--events-jsonl", type=Path, default=None, metavar="PATH",
        help="stream structured JSONL events (service.start/batcher.flush/"
        "registry.commit/...) to PATH",
    )
    sv.add_argument(
        "--scrub-interval", type=float, default=5.0, metavar="SECONDS",
        help="seconds between online integrity-scrubber cycles; corruption "
        "found trips the service into degraded read-only mode "
        "(default 5.0; 0 disables scrubbing — see docs/INTEGRITY.md)",
    )
    sv.add_argument(
        "--scrub-max-bytes", type=int, default=16 << 20, metavar="BYTES",
        help="byte budget one scrub cycle may re-hash (rate limit; "
        "default 16 MiB)",
    )

    fs = sub.add_parser(
        "fsck",
        help="deep-verify (and with --repair, heal) a state directory's "
        "durable artifacts offline",
    )
    fs.add_argument(
        "--state-dir", type=Path, required=True,
        help="the state directory to check (registry, ptree, shard "
        "snapshots, batchscan spools, ingest state)",
    )
    fs.add_argument(
        "--repair", action="store_true",
        help="walk the repair ladder: quarantine corrupt artifacts to "
        "state_dir/quarantine/, truncate torn tails, rebuild derived "
        "data from registry truth (see docs/INTEGRITY.md)",
    )
    fs.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the full report as JSON on stdout",
    )

    sm = sub.add_parser(
        "submit",
        help="submit keys to (or query) a running registry service",
    )
    sm.add_argument(
        "--url", default="http://127.0.0.1:8571",
        help="service base URL (default http://127.0.0.1:8571)",
    )
    sm.add_argument("hex_moduli", nargs="*", metavar="MODULUS",
                    help="hex moduli to submit (0x prefix optional)")
    sm.add_argument("--pem", type=Path, default=None,
                    help="PEM bundle of public keys to submit")
    sm.add_argument(
        "--moduli", type=Path, default=None,
        help="text file of moduli, one per line (decimal or 0x-hex)",
    )
    sm.add_argument(
        "--fetch", choices=("hits", "broken", "health", "metrics"), default=None,
        help="fetch a service view instead of submitting",
    )
    sm.add_argument(
        "--wait", action="store_true",
        help="long-poll until the submission's verdicts are in",
    )
    sm.add_argument(
        "--binary", action="store_true",
        help="submit moduli with the RGWIRE1 binary wire format "
        "(Content-Type application/x-repro-moduli): length-prefixed "
        "big-endian bytes, no hex/JSON round-trip on either side; "
        "--pem bundles still ride JSON (they carry exponents)",
    )
    sm.add_argument(
        "--chunk", type=int, default=500,
        help="keys per HTTP request for bulk submissions (default 500)",
    )
    sm.add_argument(
        "--retries", type=int, default=5,
        help="max retries on 429 backpressure, honouring Retry-After (default 5)",
    )
    sm.add_argument("--timeout", type=float, default=120.0,
                    help="per-request timeout in seconds (default 120)")
    sm.add_argument("--json", action="store_true", help="emit machine-readable JSON")

    ig = sub.add_parser(
        "ingest",
        help="harvest real keys from external corpora (see: ingest ct)",
    )
    ig_sub = ig.add_subparsers(dest="source", required=True)
    ct = ig_sub.add_parser(
        "ct",
        help="crawl an RFC 6962 Certificate Transparency log into the registry",
    )
    ct.add_argument(
        "--log-url", required=True,
        help="CT log base URL (the part before /ct/v1/...)",
    )
    ct.add_argument(
        "--state-dir", type=Path, required=True,
        help="crawl state directory (cursor, dedup spill, outbox)",
    )
    ct.add_argument("--start", type=int, default=0,
                    help="first entry index to crawl (default 0)")
    ct.add_argument(
        "--end", type=int, default=None,
        help="stop before this entry index (default: the log's tree size)",
    )
    ct.add_argument(
        "--resume", action="store_true",
        help="continue a checkpointed crawl from its cursor",
    )
    ct.add_argument(
        "--submit-to", default=None, metavar="URL",
        help="feed unique moduli into a running `repro serve` at URL "
        "(RGWIRE1 binary wire, exactly-once across crashes)",
    )
    ct.add_argument(
        "--moduli-out", type=Path, default=None, metavar="PATH",
        help="spool extracted moduli to PATH as bare hex lines "
        "(default STATE_DIR/outbox.txt; readable via "
        "stream_moduli(format='hexlines'))",
    )
    ct.add_argument(
        "--batch-size", type=int, default=256,
        help="initial get-entries window; adapts to the log's cap (default 256)",
    )
    ct.add_argument(
        "--max-batch-size", type=int, default=2048,
        help="ceiling for the adaptive get-entries window (default 2048)",
    )
    ct.add_argument(
        "--submit-chunk", type=int, default=500,
        help="unique keys per submission batch (default 500)",
    )
    ct.add_argument("--min-bits", type=int, default=512,
                    help="skip moduli below this size (default 512)")
    ct.add_argument("--max-bits", type=int, default=16384,
                    help="skip moduli above this size (default 16384)")
    ct.add_argument("--timeout", type=float, default=60.0,
                    help="per-request timeout in seconds (default 60)")
    ct.add_argument(
        "--events-jsonl", type=Path, default=None, metavar="PATH",
        help="stream structured JSONL events (ingest.window/ingest.submit/"
        "ingest.resume/...) to PATH",
    )
    ct.add_argument("--json", action="store_true",
                    help="emit the crawl report as JSON")

    be = sub.add_parser(
        "backends",
        help="show detected big-integer backends and what 'auto' resolves to",
    )
    be.add_argument("--json", action="store_true", help="emit machine-readable JSON")

    ce = sub.add_parser("census", help="iteration statistics (Table IV slice)")
    ce.add_argument("--bits", type=int, default=128)
    ce.add_argument("--pairs", type=int, default=20)
    ce.add_argument("--early", action="store_true", help="early-terminate variant")
    ce.add_argument("--seed", default="census")

    tr = sub.add_parser("trace", help="paper-style per-iteration trace")
    tr.add_argument("x", type=int)
    tr.add_argument("y", type=int)
    tr.add_argument("--algorithm", choices=_TRACERS, default="approx")
    tr.add_argument("--d", type=int, default=4, help="word size for approx (default 4)")

    gc = sub.add_parser("gcd", help="compute one GCD")
    gc.add_argument("x", type=int)
    gc.add_argument("y", type=int)
    gc.add_argument("--algorithm", choices=tuple("ABCDE"), default="E")
    gc.add_argument("--d", type=int, default=32)
    return p


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    handler = {
        "keygen": _cmd_keygen,
        "corpus": _cmd_corpus,
        "scan": _cmd_scan,
        "batchscan": _cmd_batchscan,
        "serve": _cmd_serve,
        "submit": _cmd_submit,
        "fsck": _cmd_fsck,
        "ingest": _cmd_ingest,
        "backends": _cmd_backends,
        "census": _cmd_census,
        "trace": _cmd_trace,
        "gcd": _cmd_gcd,
    }[args.command]
    try:
        return handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _cmd_keygen(args: argparse.Namespace) -> int:
    from repro.rsa.keys import generate_key
    from repro.rsa.pem import private_key_to_pem, public_key_to_pem
    from repro.rsa.x509 import certificate_to_pem, create_self_signed_certificate
    from repro.util.rng import derive_rng

    rng = derive_rng(args.seed, "cli-keygen", args.bits)
    chunks = []
    for idx in range(max(1, args.count)):
        key = generate_key(args.bits, rng)
        if args.cert:
            der = create_self_signed_certificate(
                key, common_name=f"host{idx}.weak.example", serial=idx + 1
            )
            chunks.append(certificate_to_pem(der))
        elif args.private:
            chunks.append(private_key_to_pem(key))
        else:
            chunks.append(public_key_to_pem(key))
    text = "".join(chunks)
    if args.out:
        args.out.write_text(text)
        print(f"wrote {args.count} key(s) to {args.out}")
    else:
        print(text, end="")
    return 0


def _cmd_corpus(args: argparse.Namespace) -> int:
    from repro.rsa.corpus import generate_weak_corpus, write_moduli_text
    from repro.rsa.pem import public_key_to_pem

    groups = tuple(int(g) for g in args.groups.split(",") if g.strip())
    corpus = generate_weak_corpus(
        args.keys, args.bits, shared_groups=groups, seed=args.seed
    )
    args.out.write_text(corpus.to_json())
    print(
        f"corpus: {corpus.n_keys} keys x {corpus.bits} bits, "
        f"{len(corpus.weak_pairs)} weak pair(s) planted -> {args.out}"
    )
    if args.pem:
        args.pem.write_text("".join(public_key_to_pem(k) for k in corpus.keys))
        print(f"public PEM bundle -> {args.pem}")
    if args.moduli_out:
        count = write_moduli_text(args.moduli_out, corpus.moduli)
        print(f"{count} bare moduli (streaming text) -> {args.moduli_out}")
    return 0


def _cmd_backends(args: argparse.Namespace) -> int:
    info = backend_info()
    if args.json:
        print(json.dumps(info, indent=2))
        return 0
    print("big-integer backends:")
    for name in info["available"]:
        if name == "gmpy2":
            versions = info["gmpy2"]
            detail = f"gmpy2 {versions.get('gmpy2', '?')}, {versions.get('mp', '?')}"
        else:
            detail = f"CPython int ({sys.version.split()[0]})"
        print(f"  {name:<8} available   {detail}")
    if not info["gmpy2"]["installed"]:
        reason = info["gmpy2"].get("error", "not importable")
        print(f"  gmpy2    missing     {reason} (pip install -e '.[fast]')")
    env = info["env"]
    print(f"REPRO_INT_BACKEND = {env if env else '(unset)'}")
    print(f"auto resolves to: {info['auto']}")
    return 0


def _stderr_progress(update: ProgressUpdate) -> None:
    """The ``scan --progress`` callback: one self-overwriting stderr line."""
    print(f"\r{update.render()}", end="", file=sys.stderr, flush=True)


def _cmd_scan(args: argparse.Namespace) -> int:
    from repro.mp.memlog import CountingMemLog
    from repro.rsa.corpus import WeakCorpus
    from repro.rsa.pem import load_public_moduli
    from repro.rsa.x509 import extract_moduli_from_certificates

    expected = None
    if args.pem:
        moduli = load_public_moduli(args.pem.read_text())
        source = str(args.pem)
    elif args.certs:
        moduli = extract_moduli_from_certificates(
            args.certs.read_text(), verify=args.verify_certs
        )
        source = str(args.certs)
    else:
        corpus = WeakCorpus.from_json(args.corpus.read_text())
        moduli = corpus.moduli
        expected = corpus.weak_pair_set()
        source = str(args.corpus)
    if len(moduli) < 2:
        print(f"error: {source} holds {len(moduli)} key(s); need at least 2", file=sys.stderr)
        return 2
    if args.stream:
        return _cmd_scan_stream(args, moduli, source, expected)

    progress_cb = _stderr_progress if args.progress else None
    event_stream = None
    try:
        if args.events_jsonl is not None:
            event_stream = args.events_jsonl.open("w")
        telemetry = Telemetry.create(
            progress_callback=progress_cb,
            progress_interval_seconds=0.2,
            event_stream=event_stream,
        )
        if args.backend == "parallel":
            if args.memlog:
                raise ValueError("--memlog requires the scalar backend")
            from repro.core.parallel import find_shared_primes_parallel

            report = find_shared_primes_parallel(
                moduli,
                processes=args.workers or None,
                algorithm=args.algorithm,
                group_size=args.group_size,
                early_terminate=not args.no_early_terminate,
                telemetry=telemetry,
                int_backend=args.int_backend,
            )
        else:
            report = find_shared_primes(
                moduli,
                backend=args.backend,
                algorithm=args.algorithm,
                group_size=args.group_size,
                early_terminate=not args.no_early_terminate,
                telemetry=telemetry,
                memlog=CountingMemLog() if args.memlog else None,
                int_backend=args.int_backend,
            )
    finally:
        if event_stream is not None:
            event_stream.close()
    if args.progress:
        print(file=sys.stderr)  # finish the \r progress line
    elapsed = report.elapsed_seconds

    payload = {
        "source": source,
        "moduli": report.m,
        "pairs_tested": report.pairs_tested,
        "backend": report.backend,
        "algorithm": report.algorithm,
        "int_backend": resolve_backend(args.int_backend).name,
        "elapsed_seconds": elapsed,
        "pairs_per_second": report.pairs_tested / elapsed if elapsed > 0 else 0.0,
        "hits": [
            {"i": h.i, "j": h.j, "prime": str(h.prime)} for h in report.hits
        ],
        "metrics": report.metrics,
    }
    if expected is not None:
        payload["ground_truth_matched"] = report.hit_pairs == expected
    # with --stats-json -, stdout IS the JSON report; the human summary
    # moves to stderr so the output stays machine-parseable
    human = sys.stdout
    if args.stats_json is not None:
        text = json.dumps(payload, indent=2)
        if str(args.stats_json) == "-":
            print(text)
            human = sys.stderr
        else:
            args.stats_json.write_text(text + "\n")
            print(f"stats report -> {args.stats_json}")

    if args.json:
        print(json.dumps(payload, indent=2))
        return 0 if expected is None or payload["ground_truth_matched"] else 1
    else:
        print(
            f"scanned {report.pairs_tested} pairs of {report.m} moduli "
            f"({report.backend}) in {elapsed:.2f}s",
            file=human,
        )
        for h in report.hits:
            print(f"WEAK keys {h.i} and {h.j} share prime {h.prime:#x}", file=human)
        if not report.hits:
            print("no shared primes found", file=human)
    if expected is not None:
        if report.hit_pairs == expected:
            print(
                f"ground truth: all {len(expected)} planted pair(s) found, no extras",
                file=human,
            )
        else:
            missing = expected - report.hit_pairs
            extra = report.hit_pairs - expected
            print(
                f"ground truth MISMATCH: missing={sorted(missing)} extra={sorted(extra)}",
                file=human,
            )
            return 1
    return 0


def _cmd_scan_stream(
    args: argparse.Namespace, moduli: list[int], source: str, expected
) -> int:
    """``scan --stream N``: the corpus as an arriving key stream."""
    from repro.core.incremental import IncrementalScanner

    if args.memlog:
        print("error: --memlog is incompatible with --stream", file=sys.stderr)
        return 2
    event_stream = None
    try:
        if args.events_jsonl is not None:
            event_stream = args.events_jsonl.open("w")
        telemetry = Telemetry.create(
            progress_callback=_stderr_progress if args.progress else None,
            progress_interval_seconds=0.2,
            event_stream=event_stream,
        )
        scanner = IncrementalScanner(
            bits=moduli[0].bit_length(),
            int_backend=args.int_backend,
            telemetry=telemetry,
        )
        started = time.perf_counter()
        batches = 0
        hits = []
        for start in range(0, len(moduli), args.stream):
            hits.extend(scanner.add_batch(moduli[start : start + args.stream]).hits)
            batches += 1
        elapsed = time.perf_counter() - started
    finally:
        if event_stream is not None:
            event_stream.close()
    if args.progress:
        print(file=sys.stderr)
    hits.sort(key=lambda h: (h.i, h.j))
    hit_pairs = {(h.i, h.j) for h in hits}
    payload = {
        "source": source,
        "moduli": scanner.n_keys,
        "pairs_tested": scanner.total_pairs_tested,
        "backend": "stream/ptree",
        "int_backend": scanner.backend.name,
        "batches": batches,
        "batch_size": args.stream,
        "coverage_complete": scanner.coverage_is_complete(),
        "elapsed_seconds": elapsed,
        "pairs_per_second": scanner.total_pairs_tested / elapsed if elapsed > 0 else 0.0,
        "hits": [
            {"i": h.i, "j": h.j, "prime": str(h.prime)} for h in hits
        ],
        "metrics": telemetry.snapshot(),
    }
    if expected is not None:
        payload["ground_truth_matched"] = hit_pairs == expected
    human = sys.stdout
    if args.stats_json is not None:
        text = json.dumps(payload, indent=2)
        if str(args.stats_json) == "-":
            print(text)
            human = sys.stderr
        else:
            args.stats_json.write_text(text + "\n")
            print(f"stats report -> {args.stats_json}")
    if args.json:
        print(json.dumps(payload, indent=2))
        return 0 if expected is None or payload["ground_truth_matched"] else 1
    print(
        f"streamed {scanner.n_keys} moduli in {batches} batch(es) of "
        f"{args.stream} ({payload['backend']}): {scanner.total_pairs_tested} "
        f"pairs in {elapsed:.2f}s",
        file=human,
    )
    for h in hits:
        print(f"WEAK keys {h.i} and {h.j} share prime {h.prime:#x}", file=human)
    if not hits:
        print("no shared primes found", file=human)
    if expected is not None and hit_pairs != expected:
        missing = expected - hit_pairs
        extra = hit_pairs - expected
        print(
            f"ground truth MISMATCH: missing={sorted(missing)} extra={sorted(extra)}",
            file=human,
        )
        return 1
    if expected is not None:
        print(
            f"ground truth: all {len(expected)} planted pair(s) found, no extras",
            file=human,
        )
    return 0


def _cmd_batchscan(args: argparse.Namespace) -> int:
    from repro.rsa.corpus import ModulusStream, WeakCorpus, stream_moduli

    expected = None
    if args.corpus:
        corpus = WeakCorpus.from_json(args.corpus.read_text())
        moduli = corpus.moduli
        source: object = ModulusStream(
            source=str(args.corpus), _factory=lambda: iter(moduli), count=len(moduli)
        )
        expected = corpus.weak_pair_set()
        source_name = str(args.corpus)
    elif args.pem:
        source = stream_moduli(args.pem, format="pem")
        source_name = str(args.pem)
    else:
        source = stream_moduli(args.moduli, format="text")
        source_name = str(args.moduli)

    config = PipelineConfig(
        spool_dir=args.spool_dir,
        resume=args.resume,
        retries=args.retries,
        backend=args.backend,
        stage_deadline=args.stage_deadline,
    )
    progress_cb = _stderr_progress if args.progress else None
    event_stream = None
    try:
        if args.events_jsonl is not None:
            event_stream = args.events_jsonl.open("w")
        telemetry = Telemetry.create(
            progress_callback=progress_cb,
            progress_interval_seconds=0.2,
            event_stream=event_stream,
        )
        result = run_pipeline(source, config, telemetry=telemetry)
    finally:
        if event_stream is not None:
            event_stream.close()
    if args.progress:
        print(file=sys.stderr)  # finish the \r progress line

    payload = {
        "source": source_name,
        "spool_dir": str(result.spool_dir),
        "int_backend": resolve_backend(args.backend).name,
        "moduli": result.n_moduli,
        "levels": result.levels,
        "resumed": result.resumed,
        "stages_run": result.stages_run,
        "stages_skipped": result.stages_skipped,
        "elapsed_seconds": result.elapsed_seconds,
        "hits": [
            {"i": h.i, "j": h.j, "prime": str(h.prime)} for h in result.hits
        ],
        "metrics": result.metrics,
    }
    if expected is not None:
        payload["ground_truth_matched"] = result.hit_pairs == expected
    human = sys.stdout
    if args.stats_json is not None:
        text = json.dumps(payload, indent=2)
        if str(args.stats_json) == "-":
            print(text)
            human = sys.stderr
        else:
            args.stats_json.write_text(text + "\n")
            print(f"stats report -> {args.stats_json}")

    if args.json:
        print(json.dumps(payload, indent=2))
        return 0 if expected is None or payload["ground_truth_matched"] else 1

    spilled = result.metrics["counters"].get("pipeline.bytes_spilled", 0)
    resumed = (
        f" (resumed; {len(result.stages_skipped)} stage(s) skipped)"
        if result.resumed
        else ""
    )
    print(
        f"batch-GCD pipeline: {result.n_moduli} moduli, {result.levels} tree "
        f"levels, {len(result.stages_run)} stage(s) in {result.elapsed_seconds:.2f}s, "
        f"{spilled} bytes spooled{resumed}",
        file=human,
    )
    for h in result.hits:
        print(f"WEAK keys {h.i} and {h.j} share prime {h.prime:#x}", file=human)
    if not result.hits:
        print("no shared primes found", file=human)
    if expected is not None:
        if result.hit_pairs == expected:
            print(
                f"ground truth: all {len(expected)} planted pair(s) found, no extras",
                file=human,
            )
        else:
            missing = expected - result.hit_pairs
            extra = result.hit_pairs - expected
            print(
                f"ground truth MISMATCH: missing={sorted(missing)} extra={sorted(extra)}",
                file=human,
            )
            return 1
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from repro.service.http import HttpServer, ServiceConfig, WeakKeyService

    if args.bits and (args.bits < 16 or args.bits % 2):
        raise ValueError(f"--bits must be an even size >= 16, got {args.bits}")
    config = ServiceConfig(
        state_dir=args.state_dir,
        bits=args.bits or None,
        int_backend=args.int_backend,
        max_batch=args.max_batch,
        linger_ms=args.linger_ms,
        max_pending=args.max_pending,
        shards=args.shards,
        scrub_interval=args.scrub_interval,
        scrub_max_bytes=args.scrub_max_bytes,
    )
    if args.shards < 1:
        raise ValueError(f"--shards must be >= 1, got {args.shards}")
    event_stream = args.events_jsonl.open("w") if args.events_jsonl else None
    try:
        telemetry = Telemetry.create(event_stream=event_stream)
        service = WeakKeyService(config, telemetry=telemetry)
        server = HttpServer(service, host=args.host, port=args.port)

        async def run() -> None:
            await server.start()
            if args.port_file is not None:
                args.port_file.write_text(f"{server.port}\n")
            print(
                f"weak-key registry listening on {server.address} — "
                f"{service.registry.n_keys} key(s), "
                f"{len(service.registry.hits)} hit(s) restored from "
                f"{args.state_dir}",
                flush=True,
            )
            stop = asyncio.Event()
            loop = asyncio.get_running_loop()
            for sig in (signal.SIGINT, signal.SIGTERM):
                try:
                    loop.add_signal_handler(sig, stop.set)
                except NotImplementedError:  # pragma: no cover - non-POSIX
                    pass
            await stop.wait()
            print("draining backlog and shutting down...", file=sys.stderr)
            await server.close()
            print(
                "shutdown complete: backlog drained, registry synced",
                file=sys.stderr,
            )

        try:
            asyncio.run(run())
        except KeyboardInterrupt:  # signal handlers unavailable: hard stop
            pass
    finally:
        if event_stream is not None:
            event_stream.close()
    return 0


def _cmd_fsck(args: argparse.Namespace) -> int:
    """Deep-verify (and with ``--repair`` heal) one state directory.

    Exit codes: 0 clean (or fully healed), 1 corruption found on a
    check-only run, 2 a repair was refused or did not heal, 3 the state
    directory is locked by a running service.
    """
    from repro.integrity.fsck import run_fsck
    from repro.integrity.lock import LockHeld, StateLock

    lock = StateLock(args.state_dir)
    try:
        lock.acquire(purpose="fsck")
    except LockHeld as exc:
        print(f"fsck: {exc}", file=sys.stderr)
        return 3
    try:
        report = run_fsck(args.state_dir, repair=args.repair)
    finally:
        lock.release()

    if args.as_json:
        print(json.dumps(report.to_json(), indent=2))
    else:
        human = sys.stdout
        for f in report.scan.findings:
            if f.verdict != "ok":
                print(f"{f.severity.upper():7s} {f.family}/{f.artifact}: "
                      f"{f.verdict}" + (f" ({f.detail})" if f.detail else ""),
                      file=human)
        for r in report.repairs:
            print(f"REPAIR  {r['artifact']}: {r['action']}"
                  + (f" ({r['detail']})" if r.get("detail") else ""), file=human)
        for r in report.refusals:
            print(f"REFUSED {r['artifact']}: {r['reason']}", file=human)
        n = len(report.scan.findings)
        print(f"checked {n} artifact(s): {len(report.scan.corrupt)} corrupt, "
              f"{len(report.scan.warnings)} warning(s)", file=human)
        if report.post_scan is not None:
            print("healed: all artifacts verify" if report.healed else
                  f"NOT healed: {len(report.post_scan.corrupt)} corrupt "
                  f"artifact(s) remain, {len(report.refusals)} refusal(s)",
                  file=human)

    if not args.repair:
        return 0 if report.clean else 1
    if report.clean and not report.repairs and not report.refusals:
        return 0
    return 0 if report.healed else 2


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient

    client = ServiceClient(args.url.rstrip("/"), timeout=args.timeout)
    try:
        return _run_submit(args, client)
    finally:
        client.close()


def _print_backpressure(retries: int):
    """The CLI's retry narration for :meth:`ServiceClient.request`."""

    def on_backpressure(attempt: int, delay: float, exc) -> None:
        print(
            f"backpressure ({exc.code}): retrying in {delay:.2f}s "
            f"({attempt}/{retries})",
            file=sys.stderr,
        )

    return on_backpressure


def _run_submit(args: argparse.Namespace, client: ServiceClient) -> int:
    from repro.rsa.corpus import stream_moduli
    from repro.service import wire

    if args.fetch:
        path = {
            "hits": "/hits", "broken": "/broken",
            "health": "/healthz", "metrics": "/metricsz",
        }[args.fetch]
        payload = client.request("GET", path)
        if args.json or args.fetch == "metrics":
            print(json.dumps(payload, indent=2))
        elif args.fetch == "hits":
            for h in payload["hits"]:
                print(f"WEAK keys {h['i']} and {h['j']} share prime {h['prime']}")
            print(f"{len(payload['hits'])} hit(s) across {payload['keys']} key(s)")
        elif args.fetch == "broken":
            for entry in payload["broken"]:
                print(f"key {entry['index']} ({entry['modulus']}): private key recovered")
            print(f"{len(payload['broken'])} private key(s) recovered")
        else:
            for name, value in payload.items():
                print(f"{name}: {value}")
        return 0

    # gather submissions: positional hex, --moduli text file, --pem bundle
    chunk = max(1, args.chunk)
    posts: list[dict] = []
    if args.binary:
        moduli_int = [int(m, 16) for m in args.hex_moduli]
        if args.moduli is not None:
            moduli_int.extend(int(n) for n in stream_moduli(args.moduli, format="text"))
        for start in range(0, len(moduli_int), chunk):
            posts.append({
                "body": wire.encode_moduli(moduli_int[start : start + chunk]),
                "content_type": wire.CONTENT_TYPE,
            })
    else:
        moduli: list[object] = [m if m.lower().startswith("0x") else "0x" + m
                                for m in args.hex_moduli]
        if args.moduli is not None:
            moduli.extend(int(n) for n in stream_moduli(args.moduli, format="text"))
        for start in range(0, len(moduli), chunk):
            posts.append({"payload": {"moduli": moduli[start : start + chunk]}})
    if args.pem is not None:
        # PEM bundles carry exponents, which RGWIRE1 deliberately omits
        posts.append({"payload": {"pem": args.pem.read_text()}})
    if not posts:
        raise ValueError("nothing to submit (give moduli, --moduli or --pem)")

    wait = "?wait=1" if args.wait else ""
    on_bp = _print_backpressure(args.retries)
    responses = [
        client.request(
            "POST", f"/submit{wait}", retries=args.retries,
            on_backpressure=on_bp, **post,
        )
        for post in posts
    ]
    if args.json:
        print(json.dumps(responses, indent=2))
    tally = {"registered": 0, "duplicate": 0, "invalid": 0}
    weak_lines = []
    submitted = rejected = 0
    for response in responses:
        submitted += response["submitted"]
        rejected += len(response.get("rejected", ()))
        for result in response.get("results") or ():
            tally[result["status"]] = tally.get(result["status"], 0) + 1
            if result.get("weak"):
                for h in result["hits"]:
                    weak_lines.append(
                        f"WEAK key {result['index']} shares prime "
                        f"{h['prime']} with key {h['partner']}"
                    )
    if not args.json:
        if args.wait:
            print(
                f"submitted {submitted} key(s) in {len(responses)} request(s): "
                f"{tally['registered']} registered, {tally['duplicate']} "
                f"duplicate, {tally['invalid']} invalid, {rejected} unparsable"
            )
            for line in weak_lines:
                print(line)
        else:
            tickets = ", ".join(r["ticket"] for r in responses)
            print(
                f"submitted {submitted} key(s) in {len(responses)} request(s); "
                f"ticket(s): {tickets}"
            )
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    # one source today (ct); the subparser enforces it, the dict
    # documents where the next one (pgp keyservers, ssh scans) plugs in
    return {"ct": _cmd_ingest_ct}[args.source](args)


def _cmd_ingest_ct(args: argparse.Namespace) -> int:
    from repro.ingest import CrawlConfig, run_crawl

    if args.batch_size < 1:
        raise ValueError(f"--batch-size must be >= 1, got {args.batch_size}")
    if args.submit_chunk < 1:
        raise ValueError(f"--submit-chunk must be >= 1, got {args.submit_chunk}")
    if args.max_batch_size < args.batch_size:
        raise ValueError(
            f"--max-batch-size must be >= --batch-size, got {args.max_batch_size}"
        )
    config = CrawlConfig(
        log_url=args.log_url.rstrip("/"),
        state_dir=args.state_dir,
        start=args.start,
        end=args.end,
        resume=args.resume,
        submit_url=args.submit_to,
        moduli_out=args.moduli_out,
        batch_size=args.batch_size,
        max_batch_size=args.max_batch_size,
        submit_chunk=args.submit_chunk,
        min_bits=args.min_bits,
        max_bits=args.max_bits,
        timeout=args.timeout,
    )
    event_stream = args.events_jsonl.open("w") if args.events_jsonl else None
    try:
        telemetry = Telemetry.create(event_stream=event_stream)
        report = run_crawl(config, telemetry=telemetry)
    finally:
        if event_stream is not None:
            event_stream.close()
    if args.json:
        print(json.dumps({
            "log_url": report.log_url,
            "start": report.start,
            "end": report.end,
            "resumed": report.resumed,
            "entries": report.entries,
            "unique": report.unique,
            "duplicates": report.duplicates,
            "skipped": report.skipped,
            "submitted": report.submitted,
            "registry_keys": report.registry_keys,
            "registry_hits": report.registry_hits,
            "metrics": report.metrics,
        }, indent=2))
        return 0
    skipped = sum(report.skipped.values())
    detail = ", ".join(
        f"{count} {reason}" for reason, count in sorted(report.skipped.items())
    ) or "none"
    print(
        f"crawled entries [{report.start}, {report.end}) of {report.log_url}"
        + (" (resumed)" if report.resumed else "")
    )
    print(
        f"{report.entries} entrie(s) this run: {report.unique} unique key(s), "
        f"{report.duplicates} duplicate(s), {skipped} skipped ({detail})"
    )
    print(f"moduli spooled to {config.outbox_path}")
    if report.registry_keys is not None:
        print(
            f"registry now holds {report.registry_keys} key(s), "
            f"{report.registry_hits} hit(s) "
            f"({report.submitted} submitted this run)"
        )
    return 0


def _cmd_census(args: argparse.Namespace) -> int:
    from repro.gcd.census import run_all_algorithms
    from repro.gcd.reference import ALGORITHM_NAMES
    from repro.rsa.corpus import generate_weak_corpus

    corpus = generate_weak_corpus(
        2 * args.pairs, args.bits, shared_groups=(), seed=args.seed
    )
    ms = corpus.moduli
    pairs = [(ms[2 * k], ms[2 * k + 1]) for k in range(args.pairs)]
    results = run_all_algorithms(pairs, early_terminate=args.early, bits=args.bits)
    mode = "early-terminate" if args.early else "non-terminate"
    print(f"mean iterations per GCD ({args.pairs} pairs, {args.bits}-bit moduli, {mode}):")
    for letter in "ABCDE":
        r = results[letter]
        print(f"  ({letter}) {ALGORITHM_NAMES[letter]:<36} {r.mean_iterations:10.1f}")
    diff = results["E"].mean_iterations - results["B"].mean_iterations
    print(f"  (E) - (B) = {diff:+.4f}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.gcd import trace

    tracer = getattr(trace, f"trace_{args.algorithm}")
    t = tracer(args.x, args.y, args.d) if args.algorithm == "approx" else tracer(args.x, args.y)
    for k, s in enumerate(t.steps):
        extra = ""
        if s.q is not None:
            extra = f"  Q={s.q}"
        if s.case is not None:
            extra = f"  case {s.case}  (alpha, beta)=({s.alpha}, {s.beta})"
        print(
            f"{k + 1:>4}  X={trace.format_binary_grouped(s.x)} ({s.x})  "
            f"Y={trace.format_binary_grouped(s.y)} ({s.y}){extra}"
        )
    print(f"   -  X={trace.format_binary_grouped(t.final_x)} ({t.final_x})  Y={t.final_y}")
    print(f"gcd = {t.gcd} in {t.iterations} iterations")
    return 0


def _cmd_gcd(args: argparse.Namespace) -> int:
    from repro.gcd.reference import gcd as gcd_any

    g = gcd_any(args.x, args.y, algorithm=args.algorithm, d=args.d)
    print(g)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
