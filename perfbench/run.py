"""The repository benchmark: one workload, one seed, one JSON result line.

Usage, from the repository root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the workload twice for ``S/2`` seconds each, untraced
then through ``perfbench/launch.py``, and prints the per-layer metrics.
The last line of standard output is the result::

    {"correct": true, "attempted": 80, "failed": 0, "metrics": {...}}

Every operation is checked against the planted truth; a wrong hit set,
a wrong verdict, a non-2xx response or a failed request counts in
``failed``.  ``perfbench/catalog.json`` records why each workload exists,
its load shape, and which end-to-end metric each layer metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import layers  # noqa: E402

clock = time.perf_counter
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

WORKLOADS = ("batchscan-2048", "serve-mixed", "paper-bulk")

#: input sizes; ``tiny`` is for the self-tests only
SCALES = {
    "full": {
        "batchscan": {"bits": 2048, "keys": 512, "pairs": 8},
        "bulk": {"bits": 1024, "keys": 128, "pairs": 4},
        "aged": {"bits": 2048, "keys": 2000, "batch": 4, "pairs": 40},
    },
    "tiny": {
        "batchscan": {"bits": 256, "keys": 24, "pairs": 2},
        "bulk": {"bits": 256, "keys": 16, "pairs": 2},
        "aged": {"bits": 256, "keys": 40, "batch": 4, "pairs": 3},
    },
}

#: serve-mixed open loop, requests per second: fresh and duplicate
#: single-key submits share one keep-alive connection, reads another
FRESH_RATE, DUP_RATE, READ_RATE = 2.0, 2.0, 1.0
#: one fresh key in this many shares a half with an aged key
PLANT_EVERY = 8
READ_PATHS = ("/metricsz", "/healthz", "/hits")
#: extra program starts per run, timed to ready and then stopped: start-up
#: time varies far more from start to start than a solve does
SETUP_STARTS = 4


class BenchError(RuntimeError):
    """The benchmark could not run the program at all (no result is printed)."""


def program_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


# -- processes -------------------------------------------------------------------


class Program:
    """One ``repro`` process, plain or through the traced launcher."""

    #: every process started, so an aborted run can stop them all
    started_all: list[Program] = []

    def __init__(self, args: list[str], workdir: Path, tag: str, traced: bool) -> None:
        self.spans_path = workdir / f"spans-{tag}.json" if traced else None
        if traced:
            argv = [sys.executable, str(HERE / "launch.py"), str(self.spans_path), "--", *args]
        else:
            argv = [sys.executable, "-m", "repro", *args]
        self.log_path = workdir / f"{tag}.log"
        self._log = self.log_path.open("wb")
        self.started = clock()
        self.proc = subprocess.Popen(
            argv, env=program_env(), cwd=ROOT, stdout=self._log, stderr=subprocess.STDOUT
        )
        self.ended = 0.0
        self.maxrss_mib = 0.0
        self.spans: list[list] = []
        Program.started_all.append(self)

    def poll(self) -> bool:
        """True once the process has exited (and been reaped)."""
        if self.ended:
            return True
        pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
        if not pid:
            return False
        self._reaped(status, usage)
        return True

    def wait(self, timeout: float) -> int:
        killer = threading.Timer(timeout, self.proc.kill)
        killer.start()
        try:
            if not self.ended:
                _, status, usage = os.wait4(self.proc.pid, 0)
                self._reaped(status, usage)
        finally:
            killer.cancel()
        return self.proc.returncode

    def _reaped(self, status: int, usage) -> None:
        self.ended = clock()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.maxrss_mib = usage.ru_maxrss / 1024
        self._log.close()
        if self.spans_path is not None and self.spans_path.exists():
            self.spans = json.loads(self.spans_path.read_text())["spans"]

    def kill(self) -> None:
        if not self.ended:
            self.proc.kill()
            self.wait(30)

    def log_tail(self) -> str:
        return self.log_path.read_text(errors="replace")[-2000:]


class Server:
    """``repro serve`` on a state dir, ready once it answers ``/healthz``."""

    def __init__(self, state_dir: Path, workdir: Path, tag: str, traced: bool) -> None:
        port_file = workdir / f"port-{tag}.txt"
        self.program = Program(
            ["serve", "--state-dir", str(state_dir), "--port", "0", "--port-file", str(port_file)],
            workdir, tag, traced,
        )
        deadline = self.program.started + 120
        while True:
            if self.program.poll():
                raise BenchError(f"serve exited during start-up:\n{self.program.log_tail()}")
            text = port_file.read_text() if port_file.exists() else ""
            if text.endswith("\n"):
                self.port = int(text)
                # a served request, not just an accepted connection: serve
                # installs its SIGTERM handler before its loop first yields
                try:
                    conn = self.connect()
                    try:
                        if request(conn, "GET", "/healthz")[0] == 200:
                            break
                    finally:
                        conn.close()
                except (OSError, http.client.HTTPException):
                    pass
            if clock() > deadline:
                self.program.kill()
                raise BenchError("serve did not come up within 120 s")
            time.sleep(0.002)
        self.setup_s = clock() - self.program.started

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)

    def stop(self) -> None:
        self.program.proc.send_signal(signal.SIGTERM)
        if self.program.wait(60) != 0:
            raise BenchError(f"serve exited {self.program.proc.returncode}:\n{self.program.log_tail()}")


def request(conn: http.client.HTTPConnection, method: str, path: str, body=None, content_type="application/json"):
    """One request on a keep-alive connection: ``(status, parsed JSON)``."""
    headers = {"Content-Type": content_type} if body is not None else {}
    conn.request(method, path, body=body, headers=headers)
    response = conn.getresponse()
    data = response.read()
    return response.status, json.loads(data)


# -- results ---------------------------------------------------------------------


@dataclass
class Run:
    """What one pass over a workload measured."""

    setups: list[float] = field(default_factory=list)
    rss_mib: list[float] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)
    work_per_s: list[float] = field(default_factory=list)
    ops: list[tuple[float, float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    programs: list[Program] = field(default_factory=list)
    stage_s: dict[str, float] = field(default_factory=dict)
    metricsz: dict | None = None
    state: dict = field(default_factory=dict)
    loadgen: dict[str, float] = field(default_factory=dict)

    def check(self, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
        return ok


def hit_set(hits, base: int = 10) -> set[tuple[int, int, int]]:
    return {(h["i"], h["j"], int(h["prime"], base)) for h in hits}


# -- one-shot workloads ----------------------------------------------------------


def one_shot_inputs(workload: str, seed: int, scale: str, workdir: Path) -> tuple[Path, Path]:
    """Write the workload's PEM bundle and ``truth.json``; return both paths."""
    cfg = SCALES[scale]["batchscan" if workload == "batchscan-2048" else "bulk"]
    moduli, truth, _ = gen.corpus(cfg["bits"], cfg["keys"], cfg["pairs"], random.Random(f"{workload}:{seed}"))
    pem = workdir / "input.pem"
    pem.write_text(gen.pem_bundle(moduli))
    truth_path = workdir / "truth.json"
    truth_path.write_text(json.dumps({"pairs": len(moduli) * (len(moduli) - 1) // 2,
                                      "hits": [[i, j, str(p)] for i, j, p in truth]}))
    return pem, truth_path


def run_one_shot(workload: str, pem: Path, truth_path: Path, seconds: float, workdir: Path, traced: bool) -> Run:
    """Solve repeatedly until ``seconds`` have passed, each solve a fresh process."""
    truth = json.loads(truth_path.read_text())
    expected = {(i, j, int(p)) for i, j, p in truth["hits"]}
    if workload == "batchscan-2048":
        start_event, work = "pipeline.start", None
    else:
        start_event, work = "scan.start", truth["pairs"]

    def start(tag: str) -> tuple[Program, Path, Path]:
        stats, events = workdir / f"{tag}.json", workdir / f"{tag}.jsonl"
        if workload == "batchscan-2048":
            args = ["batchscan", "--pem", str(pem), "--spool-dir", str(workdir / f"spool-{tag}")]
        else:
            args = ["scan", "--pem", str(pem), "--backend", "bulk"]
        return Program([*args, "--stats-json", str(stats), "--events-jsonl", str(events)], workdir, tag, traced), stats, events

    run = Run()
    for k in range(SETUP_STARTS):
        program, _, events = start(f"setup{k}")
        ready = _wait_for_event(program, events, start_event)
        program.kill()
        if ready is None:
            raise BenchError(f"{workload} exited before {start_event}:\n{program.log_tail()}")
        run.setups.append(ready - program.started)
        shutil.rmtree(workdir / f"spool-setup{k}", ignore_errors=True)
    began = clock()
    # start a solve only if a typical one ends within the run, so a run
    # measures about ``seconds`` and never a long overrun
    while not run.attempted or clock() - began + statistics.median(run.latencies) <= seconds:
        tag = f"solve{run.attempted}"
        program, stats, events = start(tag)
        run.programs.append(program)
        ready = _wait_for_event(program, events, start_event)
        code = program.wait(170)
        report = json.loads(stats.read_text()) if code == 0 and stats.exists() else {}
        ok = run.check(bool(report) and hit_set(report["hits"]) == expected)
        if not ok:
            print(f"{tag}: exit {code}, hit set wrong or missing\n{program.log_tail()}", file=sys.stderr)
        total = program.ended - program.started
        setup = (ready or program.ended) - program.started
        run.setups.append(setup)
        run.rss_mib.append(program.maxrss_mib)
        run.latencies.append(total)
        run.ops.append((program.started, program.ended))
        units = work if work is not None else report.get("moduli", 0)
        run.work_per_s.append(units / (total - setup) if total > setup else 0.0)
        for stage, secs in _stage_seconds(events).items():
            run.stage_s[stage] = run.stage_s.get(stage, 0.0) + secs
        shutil.rmtree(workdir / f"spool-{tag}", ignore_errors=True)
    run.stage_s = {k: v / len(run.latencies) for k, v in run.stage_s.items()}
    return run


def _wait_for_event(program: Program, events: Path, name: str) -> float | None:
    """Poll the event log until ``name`` appears; its arrival time, or None."""
    marker = f'"event": "{name}"'
    seen = 0
    while True:
        exited = program.poll()
        if events.exists():
            text = events.read_text()
            if marker in text[seen:]:
                return clock()
            seen = max(0, text.rfind("\n") + 1)
        if exited:
            return None
        time.sleep(0.002)


def _stage_seconds(events: Path) -> dict[str, float]:
    """Seconds per pipeline stage family (``product.3`` counts as product)."""
    out: dict[str, float] = {}
    if not events.exists():
        return out
    for line in events.read_text().splitlines():
        event = json.loads(line)
        if event.get("event") == "pipeline.stage.done":
            family = event["stage"].split(".")[0]
            out[family] = out.get(family, 0.0) + event["seconds"]
    return out


# -- serve workloads -------------------------------------------------------------


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), HERE / "gen.py", HERE / "age.py"]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def aged_state(scale: str) -> Path:
    """The pristine aged registry for this source tree, built on first use.

    The aged history is fixed (it does not depend on ``--seed``; the seed
    drives the traffic), so every run of one checkout restarts from the
    same registry.  The cache key hashes the program's source: a state dir
    is never reused by other code.
    """
    cfg = SCALES[scale]["aged"]
    cached = WORK / f"aged-{scale}-{_source_digest()}"
    if (cached / "corpus.json").exists():
        return cached
    tmp = WORK / f"building-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    try:
        subprocess.run(
            [sys.executable, str(HERE / "age.py"), str(tmp), str(cfg["bits"]), str(cfg["keys"]),
             str(cfg["batch"]), str(cfg["pairs"]), "v1"],
            env=program_env(), cwd=ROOT, check=True, timeout=600,
        )
        # a first start checkpoints the product tree, as on any served registry
        Server(tmp / "state", tmp, "warm", traced=False).stop()
        shutil.rmtree(cached, ignore_errors=True)
        os.replace(tmp, cached)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return cached


class Aged:
    """The aged corpus: moduli, planted truth, and which keys traffic may use."""

    def __init__(self, path: Path, rng: random.Random) -> None:
        raw = json.loads((path / "corpus.json").read_text())
        self.path = path
        self.bits = raw["bits"]
        self.moduli = [int(n, 16) for n in raw["moduli"]]
        self.halves = [int(h, 16) for h in raw["halves"]]
        self.truth = {(i, j, int(p, 16)) for i, j, p in raw["truth"]}
        self.partners: dict[int, set[tuple[int, int]]] = {}
        for i, j, p in self.truth:
            self.partners.setdefault(i, set()).add((j, p))
            self.partners.setdefault(j, set()).add((i, p))
        free = [k for k in range(len(self.moduli)) if k not in self.partners]
        rng.shuffle(free)
        # fresh keys plant pairs with `plantable` keys, duplicates resubmit
        # the others, so no verdict depends on the order requests land in
        self.plantable = free[: len(free) // 2]
        self.resubmittable = sorted(set(range(len(self.moduli))) - set(self.plantable))

    def copy_state(self, dst: Path) -> Path:
        shutil.copytree(self.path / "state", dst)
        return dst


def verdict_ok(row: dict, status: str, required: set, allowed: set | None = None, index: int | None = None) -> bool:
    """``row`` has ``status`` and lists every ``(partner, half)`` in
    ``required`` and nothing outside ``allowed`` (default: ``required``)."""
    got = {(h["partner"], int(h["prime"], 16)) for h in row.get("hits", [])}
    return (
        row.get("status") == status
        and (index is None or row.get("index") == index)
        and row.get("weak") == bool(got)
        and required <= got <= (required if allowed is None else allowed)
    )


def state_stat(state_dir: Path) -> dict:
    files = [p for p in state_dir.rglob("*") if p.is_file()]
    manifest = state_dir / "manifest.json"
    return {
        "files": len(files),
        "bytes": sum(p.stat().st_size for p in files),
        "manifest_bytes": manifest.stat().st_size if manifest.exists() else 0,
    }


def warm_setups(aged: Aged, workdir: Path, traced: bool, run: Run) -> None:
    """Restart the service a few times on a copy, for set-up samples."""
    state = aged.copy_state(workdir / "state-setup")
    for k in range(SETUP_STARTS):
        server = Server(state, workdir, f"setup{k}", traced)
        run.setups.append(server.setup_s)
        run.programs.append(server.program)
        server.stop()
    shutil.rmtree(state)


def finish_server(server: Server, state: Path, run: Run, expected_hits: set, traced: bool) -> None:
    """Check the final hit list, collect telemetry, stop, stat the state dir."""
    conn = server.connect()
    try:
        status, body = request(conn, "GET", "/hits")
        if not run.check(status == 200 and hit_set(body["hits"], 16) == expected_hits):
            print("final /hits disagrees with the planted truth", file=sys.stderr)
        if traced:
            run.metricsz = request(conn, "GET", "/metricsz")[1]
    finally:
        conn.close()
    server.stop()
    run.rss_mib.append(server.program.maxrss_mib)
    run.state = state_stat(state)


@dataclass
class Outcome:
    kind: str
    due: float
    sent: float
    done: float
    ok: bool


def run_serve_mixed(seed: int, scale: str, seconds: float, workdir: Path, traced: bool) -> Run:
    """Open loop: single-key submits and reads on a seeded, even schedule."""
    rng = random.Random(f"serve-mixed:{seed}")
    aged = Aged(aged_state(scale), rng)
    factory = gen.ModulusFactory(aged.bits, rng)
    n_fresh, n_dup, n_read = (max(1, round(rate * seconds)) for rate in (FRESH_RATE, DUP_RATE, READ_RATE))
    plants = iter(rng.sample(aged.plantable, n_fresh // PLANT_EVERY + 1))
    writes = []
    for k in range(n_fresh):
        partner = next(plants) if k % PLANT_EVERY == PLANT_EVERY - 1 else None
        shared = aged.halves[partner] if partner is not None else None
        writes.append(("fresh", factory.modulus(shared), partner))
    for _ in range(n_dup):
        key = rng.choice(aged.resubmittable)
        writes.append(("dup", aged.moduli[key], key))
    rng.shuffle(writes)
    # evenly spaced, seeded phase: a request never queues behind its own
    # connection's previous one unless the service is slower than the gap
    write_gap, read_gap = seconds / len(writes), 1.0 / READ_RATE
    write_phase, read_phase = rng.uniform(0, write_gap), rng.uniform(0, read_gap)
    write_plan = [(write_phase + k * write_gap, w) for k, w in enumerate(writes)]
    read_plan = [(read_phase + k * read_gap, READ_PATHS[k % len(READ_PATHS)]) for k in range(n_read)]

    run = Run()
    warm_setups(aged, workdir, traced, run)
    state = aged.copy_state(workdir / "state")
    server = Server(state, workdir, "serve", traced)
    run.setups.append(server.setup_s)
    run.programs.append(server.program)
    n_aged = len(aged.moduli)
    fresh_hits: set[tuple[int, int, int]] = set()
    lock = threading.Lock()
    outcomes: list[Outcome] = []

    def submit(conn, item) -> bool:
        kind, n, key = item
        status, body = request(conn, "POST", "/submit?wait=1", json.dumps({"moduli": [hex(n)]}))
        rows = body.get("results") or [{}]
        row = rows[0]
        if status != 200 or body.get("status") != "done" or len(rows) != 1:
            return False
        if kind == "dup":
            return verdict_ok(row, "duplicate", aged.partners.get(key, set()), index=key)
        partners = {(key, aged.halves[key])} if key is not None else set()
        index = row.get("index", -1)
        if key is not None:
            with lock:
                fresh_hits.add((key, index, aged.halves[key]))
        return index >= n_aged and verdict_ok(row, "registered", partners)

    def read(conn, path) -> bool:
        status, body = request(conn, "GET", path)
        if path == "/healthz":
            return status == 200 and body.get("status") == "ok"
        return status == 200 and isinstance(body, dict)

    def drive(plan, send, kind_of) -> None:
        conn = server.connect()
        try:
            for offset, item in plan:
                due = t0 + offset
                delay = due - clock()
                if delay > 0:
                    time.sleep(delay)
                sent = clock()
                try:
                    ok = send(conn, item)
                except Exception as exc:  # any error is one failed request, never a dead generator
                    print(f"request failed: {exc!r}", file=sys.stderr)
                    ok = False
                    conn.close()
                    conn = server.connect()
                with lock:
                    outcomes.append(Outcome(kind_of(item), due, sent, clock(), ok))
        finally:
            conn.close()

    t0 = clock() + 0.1
    threads = [
        threading.Thread(target=drive, args=(write_plan, submit, lambda item: item[0])),
        threading.Thread(target=drive, args=(read_plan, read, lambda item: "read")),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    for outcome in outcomes:
        run.check(outcome.ok)
    lat = {kind: [o.done - o.due for o in outcomes if o.kind == kind] for kind in ("fresh", "dup", "read")}
    run.latencies = lat["fresh"]
    run.ops = [(o.due, o.done) for o in outcomes if o.kind == "fresh"]
    last = max(o.done for o in outcomes)
    run.work_per_s.append(sum(o.ok for o in outcomes) / (last - t0))
    run.loadgen = {
        "loadgen.late_p90_ms": layers.quantile([o.sent - o.due for o in outcomes], 0.9) * 1e3,
        "loadgen.fresh_p90_ms": layers.quantile(lat["fresh"], 0.9) * 1e3,
        "loadgen.dup_p50_ms": layers.quantile(lat["dup"], 0.5) * 1e3,
        "loadgen.dup_p90_ms": layers.quantile(lat["dup"], 0.9) * 1e3,
        "loadgen.read_p50_ms": layers.quantile(lat["read"], 0.5) * 1e3,
        "loadgen.read_p90_ms": layers.quantile(lat["read"], 0.9) * 1e3,
    }
    finish_server(server, state, run, aged.truth | fresh_hits, traced)
    return run


# -- entry point --------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, workdir: Path, traced: bool, scale: str) -> Run:
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if workload == "serve-mixed":
            return run_serve_mixed(seed, scale, seconds, workdir, traced)
        pem, truth = one_shot_inputs(workload, seed, scale, workdir)
        return run_one_shot(workload, pem, truth, seconds, workdir, traced)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def end_to_end(run: Run) -> dict[str, float]:
    return {
        "setup_s": statistics.median(run.setups),
        "rss_peak_mib": max(run.rss_mib),
        "p50_ms": statistics.median(run.latencies) * 1e3,
        "work_per_s": statistics.median(run.work_per_s),
    }


def per_layer(plain: Run, traced: Run, loadgen_names: list[str]) -> dict[str, float]:
    spans = layers.SpanSet([p.spans for p in traced.programs])
    loadgen = {name: plain.loadgen.get(name, 0.0) for name in loadgen_names}
    return layers.per_layer(
        spans, traced.ops, stage_s=traced.stage_s, metricsz=traced.metricsz, state=traced.state,
        loadgen=loadgen,
        overhead_ratio=statistics.median(traced.latencies) / statistics.median(plain.latencies),
    )


def measure(workload: str, seed: int, seconds: float, trace: bool, scale: str, spec: dict) -> dict:
    """Run the workload and build the result object (metrics named as in ``spec``)."""
    base = WORK / f"run-{workload}-{seed}-{os.getpid()}"
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    if trace:
        plain = run_workload(workload, seed, seconds / 2, base / "plain", False, scale)
        traced = run_workload(workload, seed, seconds / 2, base / "traced", True, scale)
        runs = [plain, traced]
        loadgen_names = [m["name"] for m in declared if m["name"].startswith("loadgen.")]
        values = per_layer(plain, traced, loadgen_names)
    else:
        runs = [run_workload(workload, seed, seconds, base, False, scale)]
        values = end_to_end(runs[0])
    mismatch = {m["name"] for m in declared} ^ set(values)
    if mismatch:
        raise BenchError(f"metric set differs from BENCHMARK.json: {sorted(mismatch)}")
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SCALES), default="full",
                        help="input sizes (tiny is for the self-tests)")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"error: no program source at {SRC}; run from the repository root", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.scale, spec)
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        for program in Program.started_all:
            program.kill()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
