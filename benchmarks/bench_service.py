"""Registry-service throughput: submissions/sec and ticket latency vs linger.

Every other benchmark here times an algorithm; this one times the *service*
(``docs/SERVICE.md``) the way a client experiences it: a real
:class:`~repro.service.http.HttpServer` on a loopback port, hammered by
concurrent keep-alive HTTP clients each submitting **single keys** with
``?wait=1`` — the worst case for the micro-batcher, since every key is its
own request and its own round-trip.  The sweep varies ``linger_ms``, the
batcher's wait for batch-mates:

* ``linger 0``   — the default: flush at the next worker wakeup; keys
  that arrive during a flush queue behind it and form the next one
  (group commit);
* larger lingers — every flush also waits out the linger first.  Under
  this concurrent load the batches are already full-sized at linger 0
  (the committed run: 63.5 keys per flush at 0, 5 and 20 ms), so a
  linger adds latency and costs throughput rather than buying it
  (2,960 subs/s and p50 20.2 ms at 0; 2,345 subs/s and 26.6 ms at 20).

Results land in ``BENCH_service.json`` (schema ``repro.bench_service/2``):
per linger setting, submissions/sec over the wall clock plus p50/p99
ticket latency.  Moduli are synthetic honest semiprimes over small primes
(cheap to generate, genuinely pairwise coprime apart from a planted hit
per ~200 keys), so the service performs the full dedup →
incremental-scan → durable-commit cycle at a realistic hit rate.

The v2 schema adds a **shard sweep** (``docs/SHARDING.md``): the same
submit-to-verdict workload against ``--shards {1,2,4}`` fleets, made
scan-bound by preloading a corpus of fat 2048-bit moduli first (every
fresh key's flush screens and descends the product tree over the whole
corpus, which is where the fleet parallelises; at 64 bits the tree makes
a flush too cheap for the sweep to be scan-bound).  The sweep records
per-shard-count throughput, the speedup over one shard, and a digest of
the hit set — which must be identical across shard counts.
``REPRO_BENCH_SHARD_MIN_SPEEDUP`` (CI) turns the largest count's speedup
into a hard floor; the committed JSON records honest numbers for whatever
host ran it (``environment.cpu_count`` says how many cores that was — on
a single-core container the fleet cannot beat one shard).

The v3 schema adds a **wire sweep**: the same bulk submission posted as
hex-JSON and as the ``RGWIRE1`` binary format (``docs/SERVICE.md``),
against fat (default 8192-bit) moduli where parsing is a visible share
of the request.  To isolate the *submit path* — socket → parse → dedup →
verdict — from scan cost, the corpus is registered first (untimed) and
the timed rounds resubmit the same bodies, so every timed key takes the
duplicate path whose cost is identical across formats.  Throughput is
best-of-rounds (single-core containers jitter ±15 % between rounds) and
the hit-set digest must match between formats — same bytes in, same
verdicts out.  ``REPRO_BENCH_WIRE_MIN_SPEEDUP`` (CI) turns the binary
format's advantage into a hard floor.

Runs standalone (CI uses this form, with a throughput floor)::

    PYTHONPATH=src REPRO_BENCH_SERVICE_MIN_RPS=500 \
        python benchmarks/bench_service.py --quick --out BENCH_service.json

and is also collected by pytest as a quick smoke test.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import random
import statistics
import sys
import tempfile
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro.rsa.primes import generate_prime
from repro.service import wire
from repro.service.http import HttpServer, ServiceConfig, WeakKeyService
from repro.util.intops import backend_info

SCHEMA = "repro.bench_service/3"

QUICK_KEYS, QUICK_CLIENTS = 800, 48
FULL_KEYS, FULL_CLIENTS = 4000, 64
DEFAULT_LINGERS = (0.0, 5.0, 20.0)
DEFAULT_SHARDS = (1, 2, 4)
QUICK_PRELOAD, QUICK_TIMED, QUICK_SHARD_CLIENTS = 1200, 240, 24
FULL_PRELOAD, FULL_TIMED, FULL_SHARD_CLIENTS = 3000, 600, 32
BITS = 64
SHARD_BITS = 2048
QUICK_WIRE_KEYS, QUICK_WIRE_BITS, QUICK_WIRE_ROUNDS, QUICK_WIRE_REPS = 160, 2048, 3, 4
FULL_WIRE_KEYS, FULL_WIRE_BITS, FULL_WIRE_ROUNDS, FULL_WIRE_REPS = 800, 8192, 5, 8


@dataclass
class RunResult:
    """One linger setting's measurement — a row of ``runs``."""

    linger_ms: float
    keys: int
    clients: int
    seconds: float
    submissions_per_second: float
    p50_ms: float
    p99_ms: float
    max_ms: float
    flushes: int
    mean_flush_keys: float
    registered: int
    hits: int
    latencies_ms: list[float] = field(default_factory=list, repr=False)


def synthetic_moduli(n: int, bits: int, seed: str) -> list[int]:
    """``n`` unique honest ``bits``-bit semiprimes from distinct primes.

    Unlike ``bench_e2e_scaling``'s semiprime-*shaped* random values, these
    must be genuinely pairwise coprime: random odd 64-bit values share a
    small factor ~39 % of the time, which would drown the service in
    bogus "hits" and measure hit bookkeeping instead of serving.  Every
    ~200th modulus deliberately reuses its predecessor's prime so the hit
    path is exercised at a realistic (rare) rate.
    """
    rng = random.Random((seed, n, bits).__repr__())
    half = bits // 2
    seen_primes: set[int] = set()
    out: list[int] = []
    prev_p = None
    for k in range(n):
        if k % 200 == 199 and prev_p is not None:
            p = prev_p  # plant one shared-prime pair per ~200 keys
        else:
            p = generate_prime(half, rng, avoid=seen_primes)
            seen_primes.add(p)
        q = generate_prime(half, rng, avoid=seen_primes)
        seen_primes.add(q)
        prev_p = p
        out.append(p * q)
    return out


def fat_moduli(n: int, bits: int, seed: str) -> list[int]:
    """``n`` unique moduli of *exactly* ``bits`` bits, cheap at any size.

    Honest balanced semiprimes are prohibitively slow to generate past a
    few thousand bits, so each value is ``p^k * q``: a 128-bit prime
    raised to fill most of the width, times one fresh prime sized to land
    the product on exactly ``bits`` bits (the registry rejects any other
    length as ``invalid``, which would silently bench the wrong path).
    Distinct 128-bit ``p``s keep the set pairwise coprime; every ~100th
    modulus reuses its predecessor's prime-power head so the hit path
    fires at a realistic rate and the cross-format digest check has
    actual hits to compare.
    """
    rng = random.Random((seed, n, bits).__repr__())
    head_exp = (bits - 160) // 128
    seen: set[int] = set()
    out: list[int] = []
    prev = None  # (p, p**head_exp) of the previous modulus
    for k in range(n):
        while True:
            if k % 100 == 99 and prev is not None:
                p, head = prev  # plant: gcd(m_k, m_{k-1}) == p**head_exp
            else:
                p = generate_prime(128, rng, avoid=seen)
                head = p ** head_exp
            q = generate_prime(bits - head.bit_length(), rng, avoid=seen)
            m = head * q
            if m.bit_length() == bits:
                seen.add(p)
                seen.add(q)
                prev = (p, head)
                out.append(m)
                break
    return out


class KeepAliveClient:
    """A minimal pipelining-free HTTP/1.1 client over one connection."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.reader: asyncio.StreamReader | None = None
        self.writer: asyncio.StreamWriter | None = None

    async def connect(self) -> None:
        self.reader, self.writer = await asyncio.open_connection(
            "127.0.0.1", self.port
        )

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except ConnectionError:
                pass

    async def post_json(self, path: str, doc: dict) -> tuple[int, dict]:
        return await self.post(path, json.dumps(doc).encode())

    async def post(
        self, path: str, body: bytes, content_type: str = "application/json"
    ) -> tuple[int, dict]:
        self.writer.write(
            (
                f"POST {path} HTTP/1.1\r\nHost: bench\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(body)}\r\n\r\n"
            ).encode()
            + body
        )
        await self.writer.drain()
        status_line = await self.reader.readline()
        status = int(status_line.split()[1])
        length = 0
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        payload = await self.reader.readexactly(length)
        return status, json.loads(payload)


async def _client_task(
    port: int, moduli: list[int], latencies: list[float]
) -> int:
    """Submit each modulus as its own waited request; record latencies."""
    client = KeepAliveClient(port)
    await client.connect()
    registered = 0
    try:
        for n in moduli:
            t0 = time.perf_counter()
            status, doc = await client.post_json(
                "/submit?wait=1", {"moduli": [hex(n)]}
            )
            latencies.append(time.perf_counter() - t0)
            if status == 429:
                # honest backpressure: honour the estimate and resubmit
                await asyncio.sleep(float(doc.get("retry_after", 0.05)))
                status, doc = await client.post_json(
                    "/submit?wait=1", {"moduli": [hex(n)]}
                )
            assert status == 200, doc
            if doc["results"][0]["status"] == "registered":
                registered += 1
    finally:
        await client.close()
    return registered


async def _run_one(
    linger_ms: float, moduli: list[int], clients: int, state_dir: Path
) -> RunResult:
    service = WeakKeyService(
        ServiceConfig(
            state_dir=state_dir, bits=BITS, linger_ms=linger_ms,
            max_batch=max(64, clients), max_pending=8192,
        )
    )
    server = HttpServer(service, port=0)
    await server.start()
    latencies: list[float] = []
    shards = [moduli[k::clients] for k in range(clients)]
    try:
        t0 = time.perf_counter()
        registered = await asyncio.gather(
            *(_client_task(server.port, shard, latencies) for shard in shards)
        )
        elapsed = time.perf_counter() - t0
        snap = service.telemetry.snapshot()
    finally:
        await server.close()
    lat_ms = sorted(x * 1000 for x in latencies)
    q = statistics.quantiles(lat_ms, n=100, method="inclusive")
    flushes = snap["counters"].get("batcher.flushes", 0)
    return RunResult(
        linger_ms=linger_ms,
        keys=len(moduli),
        clients=clients,
        seconds=round(elapsed, 4),
        submissions_per_second=round(len(moduli) / elapsed, 1),
        p50_ms=round(q[49], 3),
        p99_ms=round(q[98], 3),
        max_ms=round(lat_ms[-1], 3),
        flushes=flushes,
        mean_flush_keys=round(len(moduli) / flushes, 1) if flushes else 0.0,
        registered=sum(registered),
        hits=len(service.registry.hits),
        latencies_ms=[round(x, 3) for x in lat_ms],
    )


@dataclass
class ShardRunResult:
    """One shard-count measurement of the scan-bound workload."""

    shards: int
    preload_keys: int
    timed_keys: int
    clients: int
    seconds: float
    submissions_per_second: float
    p50_ms: float
    p99_ms: float
    hits: int
    hit_digest: str
    pairs_tested: int


def _hit_digest(service: WeakKeyService) -> str:
    import hashlib

    rows = sorted((h.i, h.j, h.prime) for h in service.registry.hits)
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]


async def _get_json(port: int, path: str) -> dict:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(
            f"GET {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n".encode()
        )
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass
    return json.loads(raw.partition(b"\r\n\r\n")[2])


async def _preload(port: int, moduli: list[int]) -> None:
    """Bulk-submit the corpus and poll the ticket to completion (no 60 s
    long-poll ceiling on slow hosts)."""
    client = KeepAliveClient(port)
    await client.connect()
    try:
        status, doc = await client.post_json(
            "/submit", {"moduli": [hex(n) for n in moduli]}
        )
        assert status in (200, 202), doc
    finally:
        await client.close()
    while doc.get("status") != "done":
        await asyncio.sleep(0.2)
        doc = await _get_json(port, f"/ticket/{doc['ticket']}")


async def _run_shards(
    shards: int, preload: list[int], timed: list[int], clients: int, state_dir: Path
) -> ShardRunResult:
    """Scan-bound submit-to-verdict throughput against an N-shard fleet."""
    service = WeakKeyService(
        ServiceConfig(
            state_dir=state_dir, bits=SHARD_BITS, linger_ms=5.0,
            max_batch=max(64, clients), max_pending=8192, shards=shards,
        )
    )
    server = HttpServer(service, port=0)
    await server.start()
    latencies: list[float] = []
    lanes = [timed[k::clients] for k in range(clients)]
    try:
        await _preload(server.port, preload)
        t0 = time.perf_counter()
        await asyncio.gather(
            *(_client_task(server.port, lane, latencies) for lane in lanes)
        )
        elapsed = time.perf_counter() - t0
        view = service.shards_view()
        digest = _hit_digest(service)
        hits = len(service.registry.hits)
    finally:
        await server.close()
    lat_ms = sorted(x * 1000 for x in latencies)
    q = statistics.quantiles(lat_ms, n=100, method="inclusive")
    return ShardRunResult(
        shards=shards,
        preload_keys=len(preload),
        timed_keys=len(timed),
        clients=clients,
        seconds=round(elapsed, 4),
        submissions_per_second=round(len(timed) / elapsed, 1),
        p50_ms=round(q[49], 3),
        p99_ms=round(q[98], 3),
        hits=hits,
        hit_digest=digest,
        pairs_tested=view["pairs_tested"],
    )


@dataclass
class WireRunResult:
    """One wire-format measurement of the dedup-bound bulk workload."""

    format: str
    bits: int
    keys: int
    chunk: int
    rounds: int
    reps_per_round: int
    body_bytes: int
    round_keys_per_second: list[float]
    best_keys_per_second: float
    registered: int
    hits: int
    hit_digest: str


async def _run_wire(
    binary: bool,
    moduli: list[int],
    bits: int,
    chunk: int,
    rounds: int,
    reps: int,
    state_dir: Path,
) -> WireRunResult:
    """Submit-path throughput for one wire format, dedup-bound.

    Phase one registers the corpus (untimed — it pays the scan, which no
    format can change).  The timed rounds resubmit the exact same bodies:
    every key takes the duplicate path, so the only cost that differs
    between formats is socket → parse.  Each round replays the bodies
    ``reps`` times so round length swamps scheduler jitter.
    """
    service = WeakKeyService(
        ServiceConfig(
            state_dir=state_dir, bits=bits, linger_ms=0.0,
            max_batch=2 * chunk, max_pending=max(8192, 4 * len(moduli)),
        )
    )
    server = HttpServer(service, port=0)
    await server.start()
    client = KeepAliveClient(server.port)
    fmt = "binary" if binary else "json"
    try:
        await client.connect()
        bodies: list[tuple[bytes, str, int]] = []
        for start in range(0, len(moduli), chunk):
            part = moduli[start:start + chunk]
            if binary:
                bodies.append((wire.encode_moduli(part), wire.CONTENT_TYPE, len(part)))
            else:
                body = json.dumps({"moduli": [hex(m) for m in part]}).encode()
                bodies.append((body, "application/json", len(part)))
        registered = 0
        for body, ctype, _ in bodies:
            status, doc = await client.post("/submit?wait=1", body, ctype)
            assert status == 200, doc
            registered += sum(
                1 for r in doc["results"] if r["status"] == "registered"
            )
        rates: list[float] = []
        for _ in range(rounds):
            t0 = time.perf_counter()
            n_keys = 0
            for _ in range(reps):
                for body, ctype, count in bodies:
                    status, _ = await client.post("/submit?wait=1", body, ctype)
                    assert status == 200
                    n_keys += count
            rates.append(n_keys / (time.perf_counter() - t0))
        digest = _hit_digest(service)
        hits = len(service.registry.hits)
    finally:
        await client.close()
        await server.close()
    return WireRunResult(
        format=fmt,
        bits=bits,
        keys=len(moduli),
        chunk=chunk,
        rounds=rounds,
        reps_per_round=reps,
        body_bytes=sum(len(b) for b, _, _ in bodies),
        round_keys_per_second=[round(r, 1) for r in rates],
        best_keys_per_second=round(max(rates), 1),
        registered=registered,
        hits=hits,
        hit_digest=digest,
    )


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        description="registry-service submission throughput vs linger"
    )
    p.add_argument("--quick", action="store_true",
                   help=f"CI smoke scale ({QUICK_KEYS} keys, {QUICK_CLIENTS} "
                        "clients)")
    p.add_argument("--keys", type=int, default=None,
                   help="total single-key submissions per linger setting")
    p.add_argument("--clients", type=int, default=None,
                   help="concurrent keep-alive HTTP clients")
    p.add_argument("--lingers", type=lambda s: tuple(float(x) for x in s.split(",")),
                   default=DEFAULT_LINGERS,
                   help="comma-separated linger_ms settings to sweep "
                        f"(default {','.join(str(x) for x in DEFAULT_LINGERS)})")
    p.add_argument("--min-rps", type=float,
                   default=float(os.environ.get("REPRO_BENCH_SERVICE_MIN_RPS", "0")),
                   help="fail unless the best setting sustains this many "
                        "submissions/sec (default: REPRO_BENCH_SERVICE_MIN_RPS "
                        "or no floor)")
    p.add_argument("--shards", type=lambda s: tuple(int(x) for x in s.split(",") if x),
                   default=DEFAULT_SHARDS,
                   help="comma-separated fleet widths for the scan-bound shard "
                        f"sweep (default {','.join(str(x) for x in DEFAULT_SHARDS)}; "
                        "empty string skips the sweep)")
    p.add_argument("--shard-preload", type=int, default=None,
                   help="corpus preloaded before the timed shard phase "
                        f"(default {QUICK_PRELOAD} quick / {FULL_PRELOAD} full)")
    p.add_argument("--shard-keys", type=int, default=None,
                   help="timed single-key submissions per shard setting "
                        f"(default {QUICK_TIMED} quick / {FULL_TIMED} full)")
    p.add_argument("--shard-clients", type=int, default=None,
                   help="concurrent clients in the shard sweep "
                        f"(default {QUICK_SHARD_CLIENTS} quick / "
                        f"{FULL_SHARD_CLIENTS} full)")
    p.add_argument("--min-shard-speedup", type=float,
                   default=float(os.environ.get("REPRO_BENCH_SHARD_MIN_SPEEDUP", "0")),
                   help="fail unless the widest fleet beats 1 shard by this "
                        "factor (default: REPRO_BENCH_SHARD_MIN_SPEEDUP or no "
                        "floor; only meaningful on multi-core hosts)")
    p.add_argument("--wire-keys", type=int, default=None,
                   help="corpus size for the JSON-vs-binary wire sweep "
                        f"(default {QUICK_WIRE_KEYS} quick / {FULL_WIRE_KEYS} "
                        "full; 0 skips the sweep)")
    p.add_argument("--wire-bits", type=int, default=None,
                   help="modulus width for the wire sweep "
                        f"(default {QUICK_WIRE_BITS} quick / {FULL_WIRE_BITS} "
                        "full; fatter keys shift cost toward parsing)")
    p.add_argument("--wire-chunk", type=int, default=None,
                   help="keys per bulk POST in the wire sweep "
                        "(default: half the corpus)")
    p.add_argument("--wire-rounds", type=int, default=None,
                   help="timed rounds per format; throughput is best-of "
                        f"(default {QUICK_WIRE_ROUNDS} quick / "
                        f"{FULL_WIRE_ROUNDS} full)")
    p.add_argument("--wire-reps", type=int, default=None,
                   help="corpus replays per timed round "
                        f"(default {QUICK_WIRE_REPS} quick / {FULL_WIRE_REPS} "
                        "full)")
    p.add_argument("--min-wire-speedup", type=float,
                   default=float(os.environ.get("REPRO_BENCH_WIRE_MIN_SPEEDUP", "0")),
                   help="fail unless the binary format beats JSON by this "
                        "factor (default: REPRO_BENCH_WIRE_MIN_SPEEDUP or no "
                        "floor)")
    p.add_argument("--seed", default="bench-service")
    p.add_argument("--out", default="BENCH_service.json",
                   help='output path ("-" for stdout)')
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    keys = args.keys or (QUICK_KEYS if args.quick else FULL_KEYS)
    clients = args.clients or (QUICK_CLIENTS if args.quick else FULL_CLIENTS)
    moduli = synthetic_moduli(keys, BITS, args.seed)

    runs: list[RunResult] = []
    for linger in args.lingers:
        with tempfile.TemporaryDirectory(prefix="bench_service_") as d:
            r = asyncio.run(_run_one(linger, moduli, clients, Path(d) / "state"))
        runs.append(r)
        print(
            f"  linger={linger:>5.1f}ms  {r.submissions_per_second:8.1f} subs/s"
            f"  p50={r.p50_ms:7.2f}ms  p99={r.p99_ms:7.2f}ms"
            f"  flushes={r.flushes} (mean {r.mean_flush_keys} keys)",
            file=sys.stderr,
        )

    shard_runs: list[ShardRunResult] = []
    shard_failure = None
    if args.shards:
        shard_counts = sorted(set(args.shards))
        preload_n = args.shard_preload or (QUICK_PRELOAD if args.quick else FULL_PRELOAD)
        timed_n = args.shard_keys or (QUICK_TIMED if args.quick else FULL_TIMED)
        shard_clients = args.shard_clients or (
            QUICK_SHARD_CLIENTS if args.quick else FULL_SHARD_CLIENTS
        )
        shard_moduli = fat_moduli(preload_n + timed_n, SHARD_BITS, args.seed + "-shards")
        preload_moduli, timed_moduli = shard_moduli[:preload_n], shard_moduli[preload_n:]
        for count in shard_counts:
            with tempfile.TemporaryDirectory(prefix="bench_shards_") as d:
                r = asyncio.run(_run_shards(
                    count, preload_moduli, timed_moduli, shard_clients,
                    Path(d) / "state",
                ))
            shard_runs.append(r)
            print(
                f"  shards={count}  {r.submissions_per_second:8.1f} subs/s"
                f"  p50={r.p50_ms:7.2f}ms  p99={r.p99_ms:7.2f}ms"
                f"  pairs={r.pairs_tested}  digest={r.hit_digest}",
                file=sys.stderr,
            )
        digests = {r.hit_digest for r in shard_runs}
        if len(digests) > 1:
            shard_failure = f"hit-set digests diverge across fleet widths: {digests}"
        baseline = shard_runs[0].submissions_per_second
        widest = shard_runs[-1]
        speedup = widest.submissions_per_second / baseline if baseline else 0.0
        if args.min_shard_speedup and speedup < args.min_shard_speedup:
            shard_failure = shard_failure or (
                f"shards={widest.shards} sustained only {speedup:.2f}x the "
                f"1-shard throughput (< {args.min_shard_speedup:.2f}x floor)"
            )

    wire_runs: list[WireRunResult] = []
    wire_failure = None
    wire_speedup = 0.0
    wire_keys = (
        args.wire_keys
        if args.wire_keys is not None
        else (QUICK_WIRE_KEYS if args.quick else FULL_WIRE_KEYS)
    )
    if wire_keys:
        wire_bits = args.wire_bits or (
            QUICK_WIRE_BITS if args.quick else FULL_WIRE_BITS
        )
        wire_chunk = args.wire_chunk or max(1, wire_keys // 2)
        wire_rounds = args.wire_rounds or (
            QUICK_WIRE_ROUNDS if args.quick else FULL_WIRE_ROUNDS
        )
        wire_reps = args.wire_reps or (
            QUICK_WIRE_REPS if args.quick else FULL_WIRE_REPS
        )
        wire_moduli = fat_moduli(wire_keys, wire_bits, args.seed + "-wire")
        for binary in (False, True):
            with tempfile.TemporaryDirectory(prefix="bench_wire_") as d:
                r = asyncio.run(_run_wire(
                    binary, wire_moduli, wire_bits, wire_chunk,
                    wire_rounds, wire_reps, Path(d) / "state",
                ))
            wire_runs.append(r)
            print(
                f"  wire[{r.format:>6}]  {r.best_keys_per_second:9.1f} keys/s"
                f"  (best of {r.rounds})  body={r.body_bytes}B"
                f"  hits={r.hits}  digest={r.hit_digest}",
                file=sys.stderr,
            )
        json_run, bin_run = wire_runs
        wire_speedup = (
            bin_run.best_keys_per_second / json_run.best_keys_per_second
            if json_run.best_keys_per_second else 0.0
        )
        if json_run.hit_digest != bin_run.hit_digest:
            wire_failure = (
                "hit-set digests diverge between wire formats: "
                f"json={json_run.hit_digest} binary={bin_run.hit_digest}"
            )
        elif args.min_wire_speedup and wire_speedup < args.min_wire_speedup:
            wire_failure = (
                f"binary format sustained only {wire_speedup:.2f}x the JSON "
                f"throughput (< {args.min_wire_speedup:.2f}x floor)"
            )
        print(f"  wire speedup: {wire_speedup:.2f}x", file=sys.stderr)

    best = max(r.submissions_per_second for r in runs)
    doc = {
        "schema": SCHEMA,
        "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "config": {
            "quick": args.quick, "keys": keys, "clients": clients,
            "bits": BITS, "lingers_ms": list(args.lingers),
            "min_rps": args.min_rps, "seed": args.seed,
        },
        "environment": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
            "int_backends": backend_info(),
        },
        "runs": [
            {k: v for k, v in asdict(r).items() if k != "latencies_ms"}
            for r in runs
        ],
        "best_submissions_per_second": best,
        "shard_sweep": {
            "bits": SHARD_BITS,
            "runs": [asdict(r) for r in shard_runs],
            "speedups_vs_one_shard": {
                str(r.shards): round(
                    r.submissions_per_second / shard_runs[0].submissions_per_second, 3
                )
                for r in shard_runs
            } if shard_runs else {},
            "digest_parity": len({r.hit_digest for r in shard_runs}) <= 1,
            "min_speedup": args.min_shard_speedup,
            "failure": shard_failure,
        },
        "wire_sweep": {
            "runs": [asdict(r) for r in wire_runs],
            "binary_speedup": round(wire_speedup, 3),
            "body_bytes_ratio": round(
                wire_runs[1].body_bytes / wire_runs[0].body_bytes, 3
            ) if wire_runs else 0.0,
            "digest_parity": len({r.hit_digest for r in wire_runs}) <= 1,
            "min_speedup": args.min_wire_speedup,
            "failure": wire_failure,
        },
    }
    payload = json.dumps(doc, indent=2) + "\n"
    if args.out == "-":
        sys.stdout.write(payload)
    else:
        Path(args.out).write_text(payload)
        print(f"wrote {args.out} ({len(runs)} runs)", file=sys.stderr)

    if args.min_rps and best < args.min_rps:
        print(
            f"THROUGHPUT FLOOR FAILED: best {best:.1f} subs/s "
            f"< required {args.min_rps:.1f}",
            file=sys.stderr,
        )
        return 1
    if shard_failure:
        print(f"SHARD SWEEP FAILED: {shard_failure}", file=sys.stderr)
        return 1
    if wire_failure:
        print(f"WIRE SWEEP FAILED: {wire_failure}", file=sys.stderr)
        return 1
    return 0


def test_bench_service_quick(tmp_path, report):
    """Smoke: the quick sweep runs, every key registers, schema is stable,
    the shard sweep's hit digests agree between 1 and 2 shards, and the
    wire sweep sees identical verdicts from JSON and binary bodies."""
    out = tmp_path / "BENCH_service.json"
    rc = main([
        "--quick", "--keys", "300", "--clients", "16",
        "--lingers", "0,10",
        "--shards", "1,2", "--shard-preload", "220",
        "--shard-keys", "60", "--shard-clients", "8",
        "--wire-keys", "60", "--wire-bits", "2048",
        "--wire-rounds", "2", "--wire-reps", "2",
        "--out", str(out),
    ])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == SCHEMA
    assert len(doc["runs"]) == 2
    for r in doc["runs"]:
        assert r["registered"] == r["keys"]  # synthetic moduli are unique
        assert r["submissions_per_second"] > 0
        assert r["p50_ms"] <= r["p99_ms"] <= r["max_ms"]
        assert r["flushes"] >= 1
    sweep = doc["shard_sweep"]
    assert sweep["failure"] is None
    assert sweep["digest_parity"] is True
    assert [r["shards"] for r in sweep["runs"]] == [1, 2]
    assert len({r["pairs_tested"] for r in sweep["runs"]}) == 1
    wires = doc["wire_sweep"]
    assert wires["failure"] is None
    assert wires["digest_parity"] is True
    assert [r["format"] for r in wires["runs"]] == ["json", "binary"]
    for r in wires["runs"]:
        assert r["registered"] == r["keys"]  # fat moduli are unique too
        assert r["hits"] >= 0 and r["best_keys_per_second"] > 0
    assert wires["body_bytes_ratio"] < 1.0  # binary bodies are smaller
    lines = ["", "== registry service sweep =="]
    for r in doc["runs"]:
        lines.append(
            f"  linger={r['linger_ms']:>5.1f}ms "
            f"{r['submissions_per_second']:8.1f} subs/s  "
            f"p50={r['p50_ms']:.2f}ms p99={r['p99_ms']:.2f}ms "
            f"flushes={r['flushes']}"
        )
    for r in sweep["runs"]:
        lines.append(
            f"  shards={r['shards']} {r['submissions_per_second']:8.1f} subs/s  "
            f"p50={r['p50_ms']:.2f}ms digest={r['hit_digest']}"
        )
    for r in wires["runs"]:
        lines.append(
            f"  wire[{r['format']:>6}] {r['best_keys_per_second']:9.1f} keys/s  "
            f"digest={r['hit_digest']}"
        )
    lines.append(f"  wire speedup: {wires['binary_speedup']:.2f}x")
    report(*lines)


if __name__ == "__main__":
    raise SystemExit(main())
