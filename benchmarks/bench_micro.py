"""Hot-path micro benchmarks: GCD kernels, the ptree flush, wire formats.

``bench_e2e_scaling`` times whole attacks and ``bench_service`` times the
service under concurrent load; this harness isolates the innermost
costs those numbers are made of, so a regression shows up *named* instead
of as a vague end-to-end slowdown:

* ``leaf_gcd``       — the batch-GCD leaf ``gcd(n, u)``
  (:meth:`repro.util.intops.IntBackend.leaf_gcd`) over honest cofactor
  residues ``u = (N/n) mod n``, in operations/second;
* ``remainder_tree`` — one full cofactor descent
  (:func:`repro.core.batch_gcd.cofactor_tree`) over a prebuilt product
  tree (the dominant cost of a batch scan), in keys/second;
* ``division``       — builtin ``%`` against the python backend's
  recursive ``mod`` on ``2k``-bit / ``k``-bit operands, at divisor sizes
  from 16K to 512K bits (to 256K with ``--quick``; the cofactor
  descent's shape); ``speedup`` is the ratio at the largest size.  Always the python backend: its division is
  the subject, whatever ``--int-backend`` says;
* ``parse``          — decoding a bulk ``POST /submit`` body: the JSON
  path (``json.loads`` + ``parse_submission``) against the ``RGWIRE1``
  binary path (:func:`repro.service.wire.decode_moduli`), same moduli,
  keys/second each plus the speedup and body-size ratio;
* ``submit``         — full submit-to-verdict round trips against an
  in-process :class:`~repro.service.http.HttpServer`, single keys with
  ``?wait=1`` over one keep-alive connection, once per wire format on
  identical fresh registries — RPS, p50/p99 latency, and a hit-digest
  parity check between the formats;
* ``bulk``           — one paper-sized block through the bulk SIMT engine
  (:meth:`repro.bulk.BulkGcdEngine.run_pairs`: Approximate Euclid, d=32,
  early termination, compaction) over all 2016 pairs of 64 1024-bit
  moduli, in pairs/second and loop trips, against the same pairs run
  serially on the word-level tier (:func:`repro.gcd.word.gcd_approx_words`,
  timed on a prefix of the block); ``speedup`` is the per-pair ratio.
  Independent of ``--int-backend``: the engine works on NumPy words;
* ``flush_scan``     — one incremental ``ptree`` flush
  (:meth:`repro.core.incremental.IncrementalScanner.cross_scan`) of
  ``k`` ∈ {1, 4, 16, 64, 256} fresh keys (256 is the service's
  ``max_batch``) against a prebuilt registry of 2,000 × 2048-bit keys
  (256 with ``--quick``) that shares nothing with them: the screened scan
  (one GCD per large segment root, descent only where a segment is
  flagged or too small to screen) against an inlined unscreened
  reference (descent of ``Π new`` plus a GCD at every leaf).  Each row
  counts the segments screened and flagged; at ``k = 256`` no segment is
  screened and the two paths do the same work.  ``speedup`` is the
  ratio at ``k = 1``;
* ``manifest_save``  — :meth:`repro.core.checkpoint.CheckpointStore.save`
  of a ``weak-key-registry/1``-shaped manifest at 1,000 and 10,000 stage
  records (that layout's per-commit rewrite, which grew with registry
  age; the ``commit_age`` section times what replaced it), split into the
  encode and the durable write, with the older ``indent=2`` encoding of
  the same payload as a reference; ``records_per_second`` is the whole
  save at 10,000 records;
* ``commit_age``     — :meth:`repro.service.registry.WeakKeyRegistry.commit_batch`
  of one 2048-bit key into registries that already hold 1, 1,000 and
  10,000 one-key batches, timed in rounds across the three: p50/p99 wall
  time and the bytes each commit adds to the state dir.  The registry
  log appends one record per commit, so neither should grow with age;
  ``p50_ratio`` is the p50 at 10,000 prior batches over the p50 at 1;
* ``shard_persist``  — what one shard apply writes: a one-key
  :meth:`repro.core.ptree.PersistentProductTree.append` (its carries,
  then one durable log append) on a tree of 1,000, 5,000 and 25,000
  2048-bit keys (every other global index, as at two shards), timed in
  rounds across the three: p50/p99 wall time and the bytes each append
  adds to the log.  The forests are grown in memory with stand-in merge
  products of the right sizes, so setting up a large slice multiplies
  nothing.  ``p50_ratio`` is the p50 at 25,000 keys over the p50 at
  1,000; ``carry`` is the one append that completes a capped
  (:data:`repro.core.ptree.MAX_SEGMENT_LEAVES`-leaf) segment, the
  largest carry a tree makes: its wall time and bytes, against the bytes
  of the whole merged segment (what the per-segment blob layout
  rewrote);
* ``ptree_age``      — a log-backed tree of 2048-bit keys grown from
  1,000 to 20,000 keys one key per append (real products, cheap
  moduli), with a row at 2,000, 5,000, 10,000 and 20,000: the maximum
  and p50 append wall time since the previous row, the log bytes per
  append, and the bytes of every resident node per key held.  Capped
  segments keep all three flat; ``max_append_ms`` is the maximum over
  every row;
* ``startup``        — the start-up cost every command pays: a fresh
  ``python -c "import repro.cli"`` and a fresh 64-key ``repro batchscan``,
  each run several times in new processes, with the median wall time,
  the median peak RSS (``ru_maxrss``) and the number of loaded modules.
  Independent of ``--int-backend``.

Results land in ``BENCH_micro.json`` (schema ``repro.bench_micro/1``).
Each ``REPRO_BENCH_MICRO_MIN_*`` environment variable (or the matching
``--min-*`` flag) turns one number into a hard CI floor, and each
``REPRO_BENCH_MICRO_MAX_*`` (``--max-*``) into a ceiling; unset bounds are
off, so the committed JSON records honest numbers for whatever host ran
it.

Runs standalone (CI uses this form, once per int backend)::

    PYTHONPATH=src REPRO_BENCH_MICRO_MIN_WIRE_SPEEDUP=2 \
        python benchmarks/bench_micro.py --quick --out BENCH_micro.json

and is also collected by pytest as a quick smoke test.
"""

from __future__ import annotations

import argparse
import asyncio
import dataclasses
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import repro
from repro.bulk.engine import BulkGcdEngine
from repro.core import durable
from repro.core.batch_gcd import cofactor_tree, product_tree
from repro.core.checkpoint import (
    CheckpointStore,
    Manifest,
    StageRecord,
    encode_manifest,
)
from repro.core.incremental import IncrementalScanner
from repro.core.ptree import MAX_SEGMENT_LEAVES, PersistentProductTree
from repro.core.spool import write_sidecar
from repro.gcd.word import gcd_approx_words
from repro.mp.wordint import WordInt
from repro.rsa.primes import is_prime
from repro.service import wire
from repro.service.http import (
    HttpServer,
    ServiceConfig,
    WeakKeyService,
    parse_submission,
)
from repro.service.registry import WeakKeyRegistry
from repro.util.intops import (
    DIV_CUTOFF_BITS,
    PythonBackend,
    backend_info,
    resolve_backend,
)

SCHEMA = "repro.bench_micro/1"

QUICK_TREE_KEYS, QUICK_TREE_BITS = 192, 256
FULL_TREE_KEYS, FULL_TREE_BITS = 768, 512
QUICK_PARSE_KEYS, QUICK_PARSE_BITS = 1500, 1024
FULL_PARSE_KEYS, FULL_PARSE_BITS = 4000, 2048
QUICK_SUBMIT_KEYS, FULL_SUBMIT_KEYS = 120, 400
QUICK_DIV_BITS = (16_000, 64_000, 256_000)
FULL_DIV_BITS = (16_000, 32_000, 64_000, 128_000, 256_000, 512_000)
SUBMIT_BITS = 64
#: the bulk section's block: all pairs of BULK_MODULI moduli of BULK_BITS
#: bits (64 -> 2016 lanes, the paper's r = 64 diagonal block)
BULK_MODULI, BULK_BITS = 64, 1024
#: block prefix timed serially on the word tier (~8 ms a pair at 1024 bits)
QUICK_BULK_WORD_PAIRS, FULL_BULK_WORD_PAIRS = 16, 64
#: the flush_scan section: registry size, modulus size, flush sizes
QUICK_FLUSH_KEYS, FULL_FLUSH_KEYS = 256, 2000
FLUSH_BITS = 2048
FLUSH_KS = (1, 4, 16, 64, 256)
#: the manifest_save section's manifest sizes, in stage records (two per
#: batch of the older per-batch registry layout)
MANIFEST_RECORDS = (1_000, 10_000)
#: the commit_age section: prior one-key batches at each measurement, the
#: key size, and the timed commits at each age
COMMIT_AGES = (1, 1_000, 10_000)
COMMIT_BITS = 2048
QUICK_COMMIT_SAMPLES, FULL_COMMIT_SAMPLES = 60, 200
#: the shard_persist section: keys per shard, key size, appends timed at
#: each size, and the segment size whose completing carry is measured
SHARD_KEYS = (1_000, 5_000, 25_000)
SHARD_BITS = 2048
QUICK_SHARD_SAMPLES, FULL_SHARD_SAMPLES = 60, 200
SHARD_CARRY_LEAVES = MAX_SEGMENT_LEAVES
#: the ptree_age section: tree sizes (the first is one append, the keys
#: up to each later size one append each) and the key size
PTREE_AGE_KEYS = (1_000, 2_000, 5_000, 10_000, 20_000)
PTREE_AGE_BITS = 2048
#: the startup section: fresh processes per measurement, and its batchscan
#: input (small, so the run is mostly start-up)
QUICK_STARTUP_RUNS, FULL_STARTUP_RUNS = 5, 11
STARTUP_KEYS, STARTUP_BITS = 64, 256

#: (flag/env suffix, path into the sections doc) for every optional floor
FLOORS = (
    ("leaf_ops", ("leaf_gcd", "ops_per_second")),
    ("remtree_keys", ("remainder_tree", "keys_per_second")),
    ("div_speedup", ("division", "speedup")),
    ("parse_keys", ("parse", "json", "keys_per_second")),
    ("wire_keys", ("parse", "wire", "keys_per_second")),
    ("wire_speedup", ("parse", "speedup")),
    ("submit_rps", ("submit", "wire", "submissions_per_second")),
    ("bulk_speedup", ("bulk", "speedup")),
    ("flush_speedup", ("flush_scan", "speedup")),
    ("manifest_records", ("manifest_save", "records_per_second")),
)

#: (flag/env suffix, path into the sections doc) for every optional ceiling
CEILINGS = (
    ("import_rss_mib", ("startup", "import_cli", "rss_mib")),
    ("commit_age_ratio", ("commit_age", "p50_ratio")),
    ("shard_persist_ratio", ("shard_persist", "p50_ratio")),
    ("ptree_append_ms", ("ptree_age", "max_append_ms")),
)


def synthetic_moduli(n: int, bits: int, seed: str) -> list[int]:
    """``n`` random odd semiprime-shaped ``bits``-bit values.

    Kernel and parser timings only need realistic operand sizes, not
    honest prime factors (the ``submit`` section, whose registry counts
    real hits, uses ``bench_service.synthetic_moduli`` instead).
    """
    rng = random.Random((seed, n, bits).__repr__())
    half = bits // 2
    top_two = 0b11 << (half - 2)
    out = []
    for _ in range(n):
        p = rng.getrandbits(half) | top_two | 1
        q = rng.getrandbits(half) | top_two | 1
        out.append(p * q)
    return out


def _best_of(fn, repeat: int) -> tuple[float, object]:
    """Best-of-``repeat`` wall time and the last result."""
    best, result = None, None
    for _ in range(max(1, repeat)):
        t0 = time.perf_counter()
        result = fn()
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best, result


def bench_leaf_gcd(backend, moduli: list[int], bits: int, repeat: int) -> dict:
    """Time the leaf formula over honest ``(N/n_i) mod n_i`` residues."""
    levels = product_tree(moduli, backend=backend, native=True)
    us = cofactor_tree(levels, backend=backend, native=True)
    pairs = list(zip(levels[0], us))
    leaf = backend.leaf_gcd

    def run():
        for n, u in pairs:
            leaf(n, u)

    seconds, _ = _best_of(run, repeat)
    return {
        "n_moduli": len(moduli),
        "bits": bits,
        "seconds": round(seconds, 6),
        "ops_per_second": round(len(moduli) / seconds, 1),
    }


def bench_remainder_tree(backend, moduli: list[int], bits: int, repeat: int) -> dict:
    """Time one cofactor descent over a prebuilt product tree."""
    levels = product_tree(moduli, backend=backend, native=True)
    seconds, _ = _best_of(
        lambda: cofactor_tree(levels, backend=backend, native=True), repeat
    )
    return {
        "n_moduli": len(moduli),
        "bits": bits,
        "seconds": round(seconds, 6),
        "keys_per_second": round(len(moduli) / seconds, 1),
    }


def bench_division(divisor_bits: tuple[int, ...], seed: str, repeat: int) -> dict:
    """Builtin ``%`` against ``PythonBackend.mod`` on cofactor-descent shapes.

    Each row divides a ``2k``-bit dividend by a ``k``-bit divisor, the
    shape of a node's residue (or its children's product) reduced by a
    child, and checks the two remainders agree before timing.
    """
    mod = PythonBackend.mod
    rng = random.Random(seed)
    rows = []
    for k in divisor_bits:
        b = rng.getrandbits(k) | 1 << (k - 1)
        a = rng.getrandbits(2 * k)
        assert mod(a, b) == a % b, "recursive/builtin remainder parity"
        builtin_s, _ = _best_of(lambda: a % b, repeat)
        mod_s, _ = _best_of(lambda: mod(a, b), repeat)
        rows.append({
            "divisor_bits": k,
            "builtin_seconds": round(builtin_s, 6),
            "mod_seconds": round(mod_s, 6),
            "speedup": round(builtin_s / mod_s, 3),
        })
    return {
        "cutoff_bits": DIV_CUTOFF_BITS,
        "rows": rows,
        "speedup": rows[-1]["speedup"],
    }


def bench_parse(backend, moduli: list[int], bits: int, repeat: int) -> dict:
    """JSON vs RGWIRE1 decoding of one bulk submission, same moduli.

    Each timed path covers everything the server does between "body bytes
    arrived" and "the batcher's ``(modulus, exponent)`` list exists".  A
    decoded-value parity check runs once before timing — a wire decoder
    that were fast but wrong would be worse than useless.
    """
    json_body = json.dumps({"moduli": [hex(n) for n in moduli]}).encode()
    wire_body = wire.encode_moduli(moduli)

    keys_json, rejected = parse_submission(json.loads(json_body))
    assert not rejected
    assert keys_json == wire.decode_moduli(wire_body), "wire/JSON decode parity"

    n = len(moduli)
    json_s, _ = _best_of(lambda: parse_submission(json.loads(json_body)), repeat)
    wire_s, _ = _best_of(lambda: wire.decode_moduli(wire_body), repeat)
    doc = {
        "n_keys": n,
        "bits": bits,
        "json": {
            "seconds": round(json_s, 6),
            "keys_per_second": round(n / json_s, 1),
            "body_bytes": len(json_body),
        },
        "wire": {
            "seconds": round(wire_s, 6),
            "keys_per_second": round(n / wire_s, 1),
            "body_bytes": len(wire_body),
        },
        "speedup": round(json_s / wire_s, 3),
        "body_bytes_ratio": round(len(json_body) / len(wire_body), 3),
    }
    if backend.name != "python":
        # the pipeline-consumer path: decode straight to backend-native
        native_s, _ = _best_of(
            lambda: wire.decode_moduli(wire_body, backend=backend), repeat
        )
        doc["wire_native"] = {
            "int_backend": backend.name,
            "seconds": round(native_s, 6),
            "keys_per_second": round(n / native_s, 1),
        }
    return doc


def bench_bulk(word_pairs: int, seed: str, repeat: int) -> dict:
    """One 2016-lane bulk block against the same pairs on the word tier.

    The engine runs exactly as a pairwise scan drives it (Approximate
    Euclid, ``d = 32``, ``stop_bits = bits // 2``, compaction on).  The
    serial word-level kernel is timed on the first ``word_pairs`` pairs of
    the block and must return the engine's GCDs for them.
    """
    moduli = synthetic_moduli(BULK_MODULI, BULK_BITS, seed)
    pairs = [(a, b) for i, a in enumerate(moduli) for b in moduli[i + 1:]]
    stop_bits = BULK_BITS // 2
    engine = BulkGcdEngine(d=32, algorithm="approx")
    seconds, result = _best_of(
        lambda: engine.run_pairs(pairs, stop_bits=stop_bits, compact=True), repeat
    )
    sample = pairs[:word_pairs]
    cap = -(-BULK_BITS // 32)

    def serial():
        return [
            gcd_approx_words(
                WordInt.from_int(a, 32, capacity=cap, name="X"),
                WordInt.from_int(b, 32, capacity=cap, name="Y"),
                stop_bits=stop_bits,
            )
            for a, b in sample
        ]

    word_s, word_gcds = _best_of(serial, 1)
    assert word_gcds == result.gcds[: len(sample)], "bulk/word GCD parity"
    bulk_rate = len(pairs) / seconds
    word_rate = len(sample) / word_s
    return {
        "lanes": len(pairs),
        "bits": BULK_BITS,
        "d": 32,
        "stop_bits": stop_bits,
        "seconds": round(seconds, 6),
        "pairs_per_second": round(bulk_rate, 1),
        "loop_trips": result.loop_trips,
        "word_pairs": len(sample),
        "word_seconds": round(word_s, 6),
        "word_pairs_per_second": round(word_rate, 1),
        "speedup": round(bulk_rate / word_rate, 3),
    }


def prime_power_halves(n: int, bits: int, seed: str) -> list[int]:
    """``n`` pairwise coprime halves ``q**e``: any two multiply to a
    modulus of exactly ``bits`` bits.

    ``q`` is a fresh 64-bit prime and ``e = bits // 128``, drawn from the
    range that lands every product of two halves on exactly ``bits``
    bits.  A 64-bit prime costs microseconds where an honest
    ``bits/2``-bit one costs a large fraction of a second, and the GCD
    arithmetic does not care that a half is a power.  Random odd values
    would not do: they share small factors, so every segment of the tree
    would screen positive.
    """
    rng = random.Random((seed, n, bits).__repr__())
    e = bits // 128
    target = 1 << (bits - 1)
    lo, hi = 1, 1 << 64  # least q with q**(2e) >= 2**(bits-1)
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if mid ** (2 * e) >= target else (mid + 1, hi)
    seen: set[int] = set()
    out = []
    while len(out) < n:
        q = rng.randrange(lo, 1 << 64) | 1
        if q not in seen and is_prime(q):
            seen.add(q)
            out.append(q**e)
    return out


def _unscreened_cross(scanner: IncrementalScanner, batch: list[int]) -> list[tuple]:
    """The flush before screening, inlined: descend ``Π new`` through every
    segment of the scanner's tree and take a GCD at every leaf."""
    B = scanner.backend
    mod, gcd, to_int = B.mod, B.gcd, B.to_int
    native_new = [B.from_int(n) for n in batch]
    value = B.prod(native_new)
    base = scanner.n_keys
    hits = []
    for seg in scanner._ptree.segments:
        rems = [mod(value, seg.root)]
        for level in reversed(seg.levels[:-1]):
            rems = [mod(rems[k // 2], node) for k, node in enumerate(level)]
        for i, (leaf, r) in enumerate(zip(seg.levels[0], rems), seg.start):
            g = gcd(leaf, r)
            if g == 1:
                continue
            for t, nk in enumerate(native_new):
                if to_int(gcd(g, nk)) > 1:
                    hits.append((i, base + t, to_int(gcd(leaf, nk))))
    return sorted(hits)


def bench_flush_scan(backend, n_keys: int, seed: str, repeat: int) -> dict:
    """One ``cross_scan`` per flush size, screened vs the unscreened reference.

    The registry and the timed batches are pairwise coprime, the shape of
    nearly every real flush.  Before timing, one batch holding a key that
    reuses a registry key's half checks that both paths report the same
    hits.
    """
    halves = prime_power_halves(2 * (n_keys + sum(FLUSH_KS)) + 1, FLUSH_BITS, seed)
    moduli = [a * b for a, b in zip(halves[0:-1:2], halves[1:-1:2])]
    registry, fresh = moduli[:n_keys], moduli[n_keys:]
    scanner = IncrementalScanner(bits=FLUSH_BITS, int_backend=backend)
    t0 = time.perf_counter()
    scanner.adopt(registry)
    build_s = time.perf_counter() - t0

    planted = [fresh[0], halves[0] * halves[-1]]  # shares a half with key 0
    report = scanner.cross_scan(planted)
    screened_hits = sorted((h.i, h.j, h.prime) for h in report.hits)
    assert screened_hits, "planted flush must hit"
    assert screened_hits == _unscreened_cross(scanner, planted), "screen/reference hit parity"

    counter = scanner.telemetry.registry.counter
    rows = []
    pos = 0
    for k in FLUSH_KS:
        batch = fresh[pos : pos + k]
        pos += k
        screened = counter("ptree.segments_screened").value
        flagged = counter("ptree.segments_flagged").value
        # the two paths alternate, so host drift lands on both alike
        runs = max(1, repeat)
        screened_s = reference_s = float("inf")
        for _ in range(runs):
            t0 = time.perf_counter()
            report = scanner.cross_scan(batch)
            t1 = time.perf_counter()
            reference = _unscreened_cross(scanner, batch)
            t2 = time.perf_counter()
            screened_s = min(screened_s, t1 - t0)
            reference_s = min(reference_s, t2 - t1)
        screened = (counter("ptree.segments_screened").value - screened) // runs
        flagged = (counter("ptree.segments_flagged").value - flagged) // runs
        assert report.hits == [] and reference == [], "coprime flush must not hit"
        rows.append({
            "k": k,
            "screened_seconds": round(screened_s, 6),
            "unscreened_seconds": round(reference_s, 6),
            "speedup": round(reference_s / screened_s, 3),
            "segments_screened": screened,
            "segments_flagged": flagged,
        })
    return {
        "registry_keys": n_keys,
        "bits": FLUSH_BITS,
        "segment_sizes": scanner._ptree.segment_sizes(),
        "build_seconds": round(build_s, 4),
        "rows": rows,
        "speedup": rows[0]["speedup"],
    }


class _Client:
    """One keep-alive HTTP/1.1 connection that can post either format."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.reader = self.writer = None

    async def __aenter__(self):
        self.reader, self.writer = await asyncio.open_connection(
            "127.0.0.1", self.port
        )
        return self

    async def __aexit__(self, *exc):
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except ConnectionError:
            pass

    async def post(self, path: str, body: bytes, content_type: str):
        self.writer.write(
            (
                f"POST {path} HTTP/1.1\r\nHost: bench\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(body)}\r\n\r\n"
            ).encode()
            + body
        )
        await self.writer.drain()
        status = int((await self.reader.readline()).split()[1])
        length = 0
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        return status, json.loads(await self.reader.readexactly(length))


async def _submit_run(moduli: list[int], binary: bool, state_dir: Path) -> dict:
    """Submit every modulus as its own waited request; fresh registry."""
    service = WeakKeyService(
        ServiceConfig(state_dir=state_dir, bits=SUBMIT_BITS, linger_ms=0.0)
    )
    server = HttpServer(service, port=0)
    await server.start()
    latencies: list[float] = []
    try:
        async with _Client(server.port) as client:
            t0 = time.perf_counter()
            for n in moduli:
                if binary:
                    body, ctype = wire.encode_moduli([n]), wire.CONTENT_TYPE
                else:
                    body = json.dumps({"moduli": [hex(n)]}).encode()
                    ctype = "application/json"
                t1 = time.perf_counter()
                status, doc = await client.post("/submit?wait=1", body, ctype)
                latencies.append(time.perf_counter() - t1)
                assert status == 200, doc
            elapsed = time.perf_counter() - t0
        rows = sorted((h.i, h.j, h.prime) for h in service.registry.hits)
        digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]
        keys = len(service.registry.moduli)
    finally:
        await server.close()
    lat_ms = sorted(x * 1000 for x in latencies)
    q = statistics.quantiles(lat_ms, n=100, method="inclusive")
    return {
        "format": "wire" if binary else "json",
        "keys": len(moduli),
        "registered": keys,
        "seconds": round(elapsed, 4),
        "submissions_per_second": round(len(moduli) / elapsed, 1),
        "p50_ms": round(q[49], 3),
        "p99_ms": round(q[98], 3),
        "hits": len(rows),
        "hit_digest": digest,
    }


def registry_manifest(n_records: int, seed: str) -> Manifest:
    """A registry manifest of ``n_records`` stage records, shaped like the
    service's: per batch a ``keys`` record with its commit time and a
    ``hits`` record with none."""
    rng = random.Random(f"{seed}:{n_records}")
    stages = []
    for batch in range(n_records // 2):
        for kind, seconds in (("keys", rng.random() / 50), ("hits", 0.0)):
            stages.append(StageRecord(
                name=f"{kind}.{batch}", blob=f"{kind}-{batch:06d}.bin",
                count=rng.randrange(1, 9), nbytes=rng.randrange(8, 2100),
                sha256=rng.randbytes(32).hex(), seconds=seconds,
            ))
    config = {"format": "weak-key-registry/1", "bits": 2048,
              "duplicate_submissions": 0, "exponents": {}}
    return Manifest(config=config, stages=stages)


def _indented_encode(manifest: Manifest) -> bytes:
    """The encode before compact manifests, inlined: the same payload
    through ``json.dumps(indent=2)``, which runs CPython's pure-Python
    encoder (any ``indent`` does)."""
    payload = {
        "version": manifest.version,
        "config": manifest.config,
        "stages": [
            {f.name: getattr(r, f.name) for f in dataclasses.fields(StageRecord)}
            for r in manifest.stages
        ],
    }
    return (json.dumps(payload, indent=2) + "\n").encode()


def bench_manifest_save(seed: str, repeat: int) -> dict:
    """``CheckpointStore.save`` at each of ``MANIFEST_RECORDS`` stage records.

    Each row times the whole save, and apart from it its two steps: the
    encode (:func:`encode_manifest`) and the durable write of the encoded
    bytes (atomic replace with its fsyncs, then the hashed sidecar).  The
    older ``indent=2`` encode of the same manifest is the reference.
    """
    rows = []
    for n_records in MANIFEST_RECORDS:
        manifest = registry_manifest(n_records, seed)
        encode_s, body = _best_of(lambda: encode_manifest(manifest), repeat)
        indented_s, indented = _best_of(lambda: _indented_encode(manifest), repeat)
        assert json.loads(indented) == json.loads(body), "compact/indented parity"
        with tempfile.TemporaryDirectory(prefix="bench_micro_") as d:
            store = CheckpointStore(d)

            def write():
                durable.replace_bytes(store.path, body)
                write_sidecar(store.path, hashlib.sha256(body).hexdigest())

            save_s, _ = _best_of(lambda: store.save(manifest), repeat)
            write_s, _ = _best_of(write, repeat)
        rows.append({
            "records": n_records,
            "bytes": len(body),
            "encode_seconds": round(encode_s, 6),
            "write_seconds": round(write_s, 6),
            "save_seconds": round(save_s, 6),
            "indented_encode_seconds": round(indented_s, 6),
            "records_per_second": round(n_records / save_s, 1),
        })
    return {"rows": rows, "records_per_second": rows[-1]["records_per_second"]}


def bench_commit_age(samples: int, seed: str) -> dict:
    """``commit_batch`` latency and bytes per commit over registry age.

    One registry per age in :data:`COMMIT_AGES`, each grown through the
    real commit path, one key a batch.  Then ``samples`` rounds time one
    commit on each registry in turn, so drift in the host's fsync cost
    lands on every age alike; the state dir's size is read around each.
    """
    total = sum(COMMIT_AGES) + samples * len(COMMIT_AGES)
    moduli = iter(synthetic_moduli(total, COMMIT_BITS, seed))
    with tempfile.TemporaryDirectory(prefix="bench_micro_") as d:
        registries = []
        for age in COMMIT_AGES:
            registry = WeakKeyRegistry(Path(d) / f"age-{age}")
            registry.load()
            for _ in range(age):
                registry.commit_batch([next(moduli)], [])
            registries.append(registry)

        def state_bytes(registry) -> int:
            return sum(p.stat().st_size for p in registry.state_dir.iterdir())

        seconds = [[] for _ in COMMIT_AGES]
        written = [[] for _ in COMMIT_AGES]
        for _ in range(samples):
            for k, registry in enumerate(registries):
                n = next(moduli)
                before = state_bytes(registry)
                t0 = time.perf_counter()
                registry.commit_batch([n], [])
                seconds[k].append(time.perf_counter() - t0)
                written[k].append(state_bytes(registry) - before)
        rows = []
        for age, registry, times, sizes in zip(COMMIT_AGES, registries, seconds, written):
            q = statistics.quantiles(times, n=100, method="inclusive")
            rows.append({
                "prior_batches": age,
                "p50_ms": round(statistics.median(times) * 1e3, 4),
                "p99_ms": round(q[98] * 1e3, 4),
                "bytes_per_commit": statistics.median(sizes),
                "files": sum(1 for _ in registry.state_dir.iterdir()),
            })
    return {
        "bits": COMMIT_BITS, "samples": samples, "rows": rows,
        "p50_ratio": round(rows[-1]["p50_ms"] / rows[0]["p50_ms"], 3),
    }


def _stand_in_tree(backend, spool_dir: Path, n_keys: int, seed: str) -> PersistentProductTree:
    """A log-backed tree holding ``n_keys`` leaves (global indices 0, 2, 4,
    ...), grown in memory: every merge product is one shared random value
    of the product's size, so no multiplication runs and the forest costs
    little more than its leaves."""
    tree = PersistentProductTree(backend=backend, spool_dir=spool_dir)
    rng = random.Random(seed)
    stand_ins: dict[int, object] = {}

    def product(a, b):
        bits = a.bit_length() + b.bit_length()
        if bits not in stand_ins:
            stand_ins[bits] = backend.from_int(rng.getrandbits(bits) | 1 << (bits - 1))
        return stand_ins[bits]

    leaves = synthetic_moduli(n_keys, SHARD_BITS, seed)
    tree._grow([backend.from_int(n) for n in leaves], product)
    return tree


def _log_bytes(spool_dir: Path) -> int:
    return sum(p.stat().st_size for p in spool_dir.glob("*.log"))


def bench_shard_persist(backend, samples: int, seed: str) -> dict:
    """One shard apply's tree append at each of :data:`SHARD_KEYS` keys.

    ``samples`` rounds append one fresh key to each tree in turn, so host
    drift lands on every size alike; the log's size is read around each.
    Then one append completes a :data:`SHARD_CARRY_LEAVES`-leaf segment.
    """
    fresh = iter(synthetic_moduli(samples * len(SHARD_KEYS) + 1, SHARD_BITS, seed + "-fresh"))
    with tempfile.TemporaryDirectory(prefix="bench_micro_") as d:
        trees = [
            _stand_in_tree(backend, Path(d) / f"keys-{n}", n, f"{seed}-{n}")
            for n in SHARD_KEYS
        ]
        seconds = [[] for _ in SHARD_KEYS]
        written = [[] for _ in SHARD_KEYS]
        for _ in range(samples):
            for k, tree in enumerate(trees):
                before = _log_bytes(tree.spool_dir)
                t0 = time.perf_counter()
                tree.append([next(fresh)], [2 * tree.n_leaves])
                seconds[k].append(time.perf_counter() - t0)
                written[k].append(_log_bytes(tree.spool_dir) - before)
        del trees
        carry = _stand_in_tree(backend, Path(d) / "carry", SHARD_CARRY_LEAVES - 1, seed)
        t0 = time.perf_counter()
        carry.append([next(fresh)])
        carry_seconds = time.perf_counter() - t0
        merged = carry.segments[0]
        segment_bytes = sum(
            4 + (int(node).bit_length() + 7) // 8 for level in merged.levels for node in level
        )
        carry_row = {
            "leaves": merged.size, "ms": round(carry_seconds * 1e3, 3),
            "bytes": _log_bytes(carry.spool_dir), "segment_bytes": segment_bytes,
        }
    rows = []
    for n_keys, times, sizes in zip(SHARD_KEYS, seconds, written):
        q = statistics.quantiles(times, n=100, method="inclusive")
        rows.append({
            "keys": n_keys,
            "p50_ms": round(statistics.median(times) * 1e3, 4),
            "p99_ms": round(q[98] * 1e3, 4),
            "bytes_per_apply": statistics.median(sizes),
        })
    return {
        "bits": SHARD_BITS, "samples": samples, "rows": rows,
        "p50_ratio": round(rows[-1]["p50_ms"] / rows[0]["p50_ms"], 3),
        "carry": carry_row,
    }


def bench_ptree_age(backend, seed: str) -> dict:
    """A log-backed tree grown one key per append through :data:`PTREE_AGE_KEYS`.

    Each row covers the appends since the previous one; the products are
    real, so every carry, up to those completing a capped segment, is
    timed.
    """
    moduli = synthetic_moduli(PTREE_AGE_KEYS[-1], PTREE_AGE_BITS, seed)
    rows = []
    with tempfile.TemporaryDirectory(prefix="bench_micro_") as d:
        tree = PersistentProductTree(backend=backend, spool_dir=Path(d))
        tree.append(moduli[: PTREE_AGE_KEYS[0]])
        for lo, hi in zip(PTREE_AGE_KEYS, PTREE_AGE_KEYS[1:]):
            before = _log_bytes(tree.spool_dir)
            seconds = []
            for n in moduli[lo:hi]:
                t0 = time.perf_counter()
                tree.append([n])
                seconds.append(time.perf_counter() - t0)
            node_bytes = sum(
                (int(node).bit_length() + 7) // 8
                for seg in tree.segments for level in seg.levels for node in level
            )
            rows.append({
                "keys": hi,
                "max_append_ms": round(max(seconds) * 1e3, 3),
                "p50_append_ms": round(statistics.median(seconds) * 1e3, 4),
                "bytes_per_append": round((_log_bytes(tree.spool_dir) - before) / (hi - lo)),
                "node_bytes_per_key": round(node_bytes / hi),
                "segments": len(tree.segments),
            })
    return {
        "bits": PTREE_AGE_BITS, "from_keys": PTREE_AGE_KEYS[0],
        "segment_leaves": MAX_SEGMENT_LEAVES, "rows": rows,
        "max_append_ms": max(r["max_append_ms"] for r in rows),
    }


def bench_submit(n_keys: int, seed: str) -> dict:
    """Submit-to-verdict latency, JSON vs binary, identical fresh registries."""
    from bench_service import synthetic_moduli as honest_moduli

    moduli = honest_moduli(n_keys, SUBMIT_BITS, seed)
    out = {"keys": n_keys, "bits": SUBMIT_BITS}
    for binary in (False, True):
        with tempfile.TemporaryDirectory(prefix="bench_micro_") as d:
            out["wire" if binary else "json"] = asyncio.run(
                _submit_run(moduli, binary, Path(d) / "state")
            )
    out["hit_digest_parity"] = (
        out["json"]["hit_digest"] == out["wire"]["hit_digest"]
    )
    return out


def bench_startup(runs: int, seed: str) -> dict:
    """Median wall time, peak RSS and module count of fresh processes,
    started by ``startup_probe.py`` (see there for why not from here)."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    env.pop("REPRO_FAULTS", None)
    probe = str(Path(__file__).resolve().with_name("startup_probe.py"))
    out = {"runs": runs, "batchscan_keys": STARTUP_KEYS, "batchscan_bits": STARTUP_BITS}
    with tempfile.TemporaryDirectory(prefix="bench_micro_") as d:
        moduli = Path(d) / "moduli.txt"
        moduli.write_text("".join(f"{n}\n" for n in synthetic_moduli(STARTUP_KEYS, STARTUP_BITS, seed)))
        spool = str(Path(d) / "spool")
        batchscan = ["batchscan", "--moduli", str(moduli), "--spool-dir", spool]
        for name, args in (("import_cli", ["--"]), ("batchscan", [spool, "--", *batchscan])):
            proc = subprocess.run(
                [sys.executable, probe, str(runs), *args], env=env,
                capture_output=True, text=True, check=True,
            )
            walls, rss, modules = zip(*json.loads(proc.stdout))
            out[name] = {
                "wall_seconds": round(statistics.median(walls), 4),
                "rss_mib": round(statistics.median(rss), 2),
                "modules": max(modules),
            }
    return out


def _floor_value(sections: dict, path: tuple[str, ...]):
    node = sections
    for part in path:
        node = node[part]
    return node


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        description="hot-path micro benchmarks: GCD kernels and wire formats"
    )
    p.add_argument("--quick", action="store_true",
                   help="CI smoke scale (smaller corpora, fewer repeats)")
    p.add_argument("--int-backend", default="auto",
                   help='big-integer backend for the kernel sections '
                        '(default "auto")')
    p.add_argument("--tree-keys", type=int, default=None,
                   help="moduli in the tree-kernel sections "
                        f"(default {QUICK_TREE_KEYS} quick / {FULL_TREE_KEYS})")
    p.add_argument("--tree-bits", type=int, default=None,
                   help="modulus size in the tree-kernel sections "
                        f"(default {QUICK_TREE_BITS} quick / {FULL_TREE_BITS})")
    p.add_argument("--parse-keys", type=int, default=None,
                   help="moduli in the parse section "
                        f"(default {QUICK_PARSE_KEYS} quick / {FULL_PARSE_KEYS})")
    p.add_argument("--parse-bits", type=int, default=None,
                   help="modulus size in the parse section "
                        f"(default {QUICK_PARSE_BITS} quick / {FULL_PARSE_BITS})")
    p.add_argument("--submit-keys", type=int, default=None,
                   help="waited single-key submissions per wire format "
                        f"(default {QUICK_SUBMIT_KEYS} quick / {FULL_SUBMIT_KEYS})")
    p.add_argument("--repeat", type=int, default=None,
                   help="timing repeats per section (best-of-k; "
                        "default 3 quick / 5)")
    for suffix, path in FLOORS:
        env = f"REPRO_BENCH_MICRO_MIN_{suffix.upper()}"
        p.add_argument(f"--min-{suffix.replace('_', '-')}", type=float,
                       dest=f"min_{suffix}",
                       default=float(os.environ.get(env, "0")),
                       help=f"fail unless {'.'.join(path)} reaches this floor "
                            f"(default: ${env} or 0 = off)")
    for suffix, path in CEILINGS:
        env = f"REPRO_BENCH_MICRO_MAX_{suffix.upper()}"
        p.add_argument(f"--max-{suffix.replace('_', '-')}", type=float,
                       dest=f"max_{suffix}",
                       default=float(os.environ.get(env, "0")),
                       help=f"fail if {'.'.join(path)} exceeds this ceiling "
                            f"(default: ${env} or 0 = off)")
    p.add_argument("--seed", default="bench-micro")
    p.add_argument("--out", default="BENCH_micro.json",
                   help='output path ("-" for stdout)')
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        backend = resolve_backend(args.int_backend)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    repeat = args.repeat or (3 if args.quick else 5)
    tree_keys = args.tree_keys or (QUICK_TREE_KEYS if args.quick else FULL_TREE_KEYS)
    tree_bits = args.tree_bits or (QUICK_TREE_BITS if args.quick else FULL_TREE_BITS)
    parse_keys = args.parse_keys or (QUICK_PARSE_KEYS if args.quick else FULL_PARSE_KEYS)
    parse_bits = args.parse_bits or (QUICK_PARSE_BITS if args.quick else FULL_PARSE_BITS)
    submit_keys = args.submit_keys or (QUICK_SUBMIT_KEYS if args.quick else FULL_SUBMIT_KEYS)
    div_bits = QUICK_DIV_BITS if args.quick else FULL_DIV_BITS
    bulk_word_pairs = QUICK_BULK_WORD_PAIRS if args.quick else FULL_BULK_WORD_PAIRS
    flush_keys = QUICK_FLUSH_KEYS if args.quick else FULL_FLUSH_KEYS
    startup_runs = QUICK_STARTUP_RUNS if args.quick else FULL_STARTUP_RUNS
    commit_samples = QUICK_COMMIT_SAMPLES if args.quick else FULL_COMMIT_SAMPLES
    shard_samples = QUICK_SHARD_SAMPLES if args.quick else FULL_SHARD_SAMPLES

    tree_moduli = synthetic_moduli(tree_keys, tree_bits, args.seed)
    parse_moduli = synthetic_moduli(parse_keys, parse_bits, args.seed + "-parse")

    sections = {}
    sections["leaf_gcd"] = bench_leaf_gcd(backend, tree_moduli, tree_bits, repeat)
    print(f"  leaf_gcd        {sections['leaf_gcd']['ops_per_second']:>12.1f} ops/s"
          f"  ({tree_keys} x {tree_bits}-bit, backend={backend.name})",
          file=sys.stderr)
    sections["remainder_tree"] = bench_remainder_tree(
        backend, tree_moduli, tree_bits, repeat
    )
    print(f"  remainder_tree  {sections['remainder_tree']['keys_per_second']:>12.1f} keys/s",
          file=sys.stderr)
    sections["division"] = bench_division(div_bits, args.seed + "-div", repeat)
    for row in sections["division"]["rows"]:
        print(f"  division {row['divisor_bits']:>7}b  builtin {row['builtin_seconds'] * 1e3:9.2f} ms"
              f"  mod {row['mod_seconds'] * 1e3:9.2f} ms  {row['speedup']:.2f}x",
              file=sys.stderr)
    sections["parse"] = bench_parse(backend, parse_moduli, parse_bits, repeat)
    pj, pw = sections["parse"]["json"], sections["parse"]["wire"]
    print(f"  parse json      {pj['keys_per_second']:>12.1f} keys/s"
          f"  ({parse_keys} x {parse_bits}-bit, {pj['body_bytes']} B)",
          file=sys.stderr)
    print(f"  parse wire      {pw['keys_per_second']:>12.1f} keys/s"
          f"  ({pw['body_bytes']} B, {sections['parse']['speedup']}x)",
          file=sys.stderr)
    sections["bulk"] = bench_bulk(bulk_word_pairs, args.seed + "-bulk", repeat)
    b = sections["bulk"]
    print(f"  bulk            {b['pairs_per_second']:>12.1f} pairs/s"
          f"  ({b['lanes']} lanes x {b['bits']}-bit, {b['loop_trips']} trips,"
          f" {b['speedup']:.1f}x the word tier)", file=sys.stderr)
    sections["flush_scan"] = bench_flush_scan(
        backend, flush_keys, args.seed + "-flush", repeat
    )
    for row in sections["flush_scan"]["rows"]:
        print(f"  flush_scan k={row['k']:<3}  screened {row['screened_seconds'] * 1e3:8.2f} ms"
              f"  unscreened {row['unscreened_seconds'] * 1e3:8.2f} ms  {row['speedup']:.2f}x"
              f"  ({row['segments_screened']} segments screened, {flush_keys} x"
              f" {FLUSH_BITS}-bit registry)", file=sys.stderr)
    sections["manifest_save"] = bench_manifest_save(args.seed + "-manifest", repeat)
    for row in sections["manifest_save"]["rows"]:
        print(f"  manifest_save {row['records']:>6} records  encode {row['encode_seconds'] * 1e3:7.2f} ms"
              f"  write {row['write_seconds'] * 1e3:7.2f} ms  ({row['bytes']} B;"
              f" indent=2 encode {row['indented_encode_seconds'] * 1e3:7.2f} ms)",
              file=sys.stderr)
    sections["commit_age"] = bench_commit_age(commit_samples, args.seed + "-commit")
    for row in sections["commit_age"]["rows"]:
        print(f"  commit_age {row['prior_batches']:>6} batches  p50 {row['p50_ms']:7.3f} ms"
              f"  p99 {row['p99_ms']:7.3f} ms  {row['bytes_per_commit']:.0f} B/commit"
              f"  {row['files']} files", file=sys.stderr)
    sections["shard_persist"] = bench_shard_persist(backend, shard_samples, args.seed + "-shard")
    for row in sections["shard_persist"]["rows"]:
        print(f"  shard_persist {row['keys']:>6} keys  p50 {row['p50_ms']:7.3f} ms"
              f"  p99 {row['p99_ms']:7.3f} ms  {row['bytes_per_apply']:.0f} B/apply",
              file=sys.stderr)
    c = sections["shard_persist"]["carry"]
    print(f"  shard_persist {c['leaves']}-leaf carry  {c['ms']:.1f} ms  {c['bytes']} B"
          f"  (the merged segment: {c['segment_bytes']} B)", file=sys.stderr)
    sections["ptree_age"] = bench_ptree_age(backend, args.seed + "-age")
    for row in sections["ptree_age"]["rows"]:
        print(f"  ptree_age {row['keys']:>6} keys  max {row['max_append_ms']:7.1f} ms"
              f"  p50 {row['p50_append_ms']:6.3f} ms  {row['bytes_per_append']} B/append"
              f"  {row['node_bytes_per_key']} node B/key", file=sys.stderr)
    sections["submit"] = bench_submit(submit_keys, args.seed + "-submit")
    for fmt in ("json", "wire"):
        r = sections["submit"][fmt]
        print(f"  submit {fmt:<5}    {r['submissions_per_second']:>12.1f} subs/s"
              f"  p50={r['p50_ms']:.2f}ms p99={r['p99_ms']:.2f}ms"
              f"  hits={r['hits']}", file=sys.stderr)

    sections["startup"] = bench_startup(startup_runs, args.seed + "-startup")
    for name in ("import_cli", "batchscan"):
        r = sections["startup"][name]
        print(f"  startup {name:<10}  {r['wall_seconds'] * 1e3:9.1f} ms"
              f"  {r['rss_mib']:6.1f} MiB  {r['modules']} modules", file=sys.stderr)

    floors = {}
    failures = []
    for suffix, path in FLOORS:
        floor = getattr(args, f"min_{suffix}")
        floors[suffix] = floor or None
        if floor:
            measured = _floor_value(sections, path)
            if measured < floor:
                failures.append({
                    "metric": ".".join(path), "floor": floor,
                    "measured": measured,
                })
    ceilings = {}
    for suffix, path in CEILINGS:
        ceiling = getattr(args, f"max_{suffix}")
        ceilings[suffix] = ceiling or None
        if ceiling:
            measured = _floor_value(sections, path)
            if measured > ceiling:
                failures.append({
                    "metric": ".".join(path), "ceiling": ceiling,
                    "measured": measured,
                })
    if not sections["submit"]["hit_digest_parity"]:
        failures.append({
            "metric": "submit.hit_digest_parity",
            "floor": True,
            "measured": False,
        })

    doc = {
        "schema": SCHEMA,
        "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "config": {
            "quick": args.quick, "int_backend": backend.name,
            "tree_keys": tree_keys, "tree_bits": tree_bits,
            "parse_keys": parse_keys, "parse_bits": parse_bits,
            "submit_keys": submit_keys, "div_bits": list(div_bits),
            "bulk_word_pairs": bulk_word_pairs, "flush_keys": flush_keys,
            "startup_runs": startup_runs, "commit_samples": commit_samples,
            "shard_samples": shard_samples,
            "repeat": repeat, "seed": args.seed,
        },
        "environment": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
            "int_backends": backend_info(),
        },
        "sections": sections,
        "floors": floors,
        "ceilings": ceilings,
        "floor_failures": failures,
    }
    payload = json.dumps(doc, indent=2) + "\n"
    if args.out == "-":
        sys.stdout.write(payload)
    else:
        Path(args.out).write_text(payload)
        print(f"wrote {args.out}", file=sys.stderr)

    if failures:
        print("MICRO-BENCH FLOOR FAILURES:", file=sys.stderr)
        print(json.dumps(failures, indent=2), file=sys.stderr)
        return 1
    return 0


def test_bench_micro_quick(tmp_path, report):
    """Smoke: every section runs, wire beats JSON parsing, digests agree."""
    out = tmp_path / "BENCH_micro.json"
    rc = main([
        "--quick", "--int-backend", "python",
        "--tree-keys", "64", "--parse-keys", "400", "--submit-keys", "40",
        "--out", str(out),
    ])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == SCHEMA
    assert doc["floor_failures"] == []
    s = doc["sections"]
    assert s["leaf_gcd"]["ops_per_second"] > 0
    assert s["remainder_tree"]["keys_per_second"] > 0
    assert [r["divisor_bits"] for r in s["division"]["rows"]] == list(QUICK_DIV_BITS)
    assert s["division"]["speedup"] > 0
    # binary decoding must beat hex-in-JSON, and by a wide margin
    assert s["parse"]["speedup"] > 1.0
    assert s["parse"]["wire"]["body_bytes"] < s["parse"]["json"]["body_bytes"]
    assert s["submit"]["hit_digest_parity"] is True
    assert s["bulk"]["lanes"] == 2016
    # lock-step execution beats the same kernel run serially, by a lot
    assert s["bulk"]["speedup"] > 3
    assert [r["k"] for r in s["flush_scan"]["rows"]] == list(FLUSH_KS)
    # a flush that shares nothing is flagged by no screen: only segments
    # too small to screen pay leaf GCDs, and at k = 256 that is all of them
    n_segments = len(s["flush_scan"]["segment_sizes"])
    for r in s["flush_scan"]["rows"]:
        assert r["segments_flagged"] == n_segments - r["segments_screened"]
    assert s["flush_scan"]["rows"][0]["segments_screened"] == n_segments
    assert s["flush_scan"]["rows"][-1]["segments_screened"] == 0
    assert s["flush_scan"]["speedup"] > 1
    assert [r["records"] for r in s["manifest_save"]["rows"]] == list(MANIFEST_RECORDS)
    for r in s["manifest_save"]["rows"]:
        assert r["save_seconds"] > 0 and r["encode_seconds"] > 0 and r["write_seconds"] > 0
    for fmt in ("json", "wire"):
        assert s["submit"][fmt]["registered"] == s["submit"][fmt]["keys"]
    ages = s["commit_age"]["rows"]
    assert [r["prior_batches"] for r in ages] == list(COMMIT_AGES)
    # an append-only registry writes the same record size at any age
    assert max(r["bytes_per_commit"] for r in ages) - min(
        r["bytes_per_commit"] for r in ages
    ) <= len(str(COMMIT_AGES[-1]))
    shard = s["shard_persist"]
    assert [r["keys"] for r in shard["rows"]] == list(SHARD_KEYS)
    # an apply writes what it creates, whatever the slice's size: at most
    # one 2048-bit key and the few merge products its carry makes
    for r in shard["rows"]:
        assert 0 < r["bytes_per_apply"] < 2_000
    # the carry writes one new node per level, not the whole segment again
    carry = shard["carry"]
    assert carry["leaves"] == SHARD_CARRY_LEAVES
    assert carry["bytes"] * 4 < carry["segment_bytes"]
    age = s["ptree_age"]["rows"]
    assert [r["keys"] for r in age] == list(PTREE_AGE_KEYS[1:])
    # capped segments: the log growth and the resident nodes per key do
    # not grow with the tree (the append time has its CI ceiling)
    first, last = age[0], age[-1]
    assert last["bytes_per_append"] < 1.2 * first["bytes_per_append"]
    assert last["node_bytes_per_key"] < 1.2 * first["node_bytes_per_key"]
    for name in ("import_cli", "batchscan"):
        r = s["startup"][name]
        assert r["wall_seconds"] > 0 and r["rss_mib"] > 0
    # a batchscan run imports at least what the bare CLI import does
    assert s["startup"]["batchscan"]["modules"] >= s["startup"]["import_cli"]["modules"]
    report(
        "",
        "== micro benchmarks ==",
        f"  leaf_gcd {s['leaf_gcd']['ops_per_second']:.0f} ops/s, "
        f"remtree {s['remainder_tree']['keys_per_second']:.0f} keys/s",
        f"  parse: json {s['parse']['json']['keys_per_second']:.0f} keys/s, "
        f"wire {s['parse']['wire']['keys_per_second']:.0f} keys/s "
        f"({s['parse']['speedup']}x)",
        f"  submit: json {s['submit']['json']['submissions_per_second']:.0f}, "
        f"wire {s['submit']['wire']['submissions_per_second']:.0f} subs/s",
        f"  bulk: {s['bulk']['pairs_per_second']:.0f} pairs/s, "
        f"{s['bulk']['speedup']:.1f}x the word tier",
        f"  flush_scan: screened {s['flush_scan']['speedup']:.1f}x unscreened at k=1",
        f"  startup: import repro.cli {s['startup']['import_cli']['wall_seconds'] * 1e3:.0f} ms, "
        f"{s['startup']['import_cli']['rss_mib']:.1f} MiB",
    )


if __name__ == "__main__":
    raise SystemExit(main())
