"""Import footprint: each command loads only the code it runs.

Every check runs in a fresh interpreter, since this test process has long
since imported everything.  The rule (docs/PERFORMANCE.md, "Start-up and
import footprint"): ``import repro.cli`` loads no subsystem a command
might not need, a one-shot ``batchscan`` never loads the bulk engine, the
service or the crawler (only a run whose remainder stages use a worker
pool loads ``multiprocessing``), and a command imports nothing after its
ready event (``pipeline.start``, ``scan.start``, the first ``/healthz``
that ``serve`` answers): ``scan --backend bulk`` loads its engine before
``scan.start``, so the import counts as setup, not scan time.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro.rsa.corpus import generate_weak_corpus
from repro.rsa.pem import public_key_to_pem

REPO_ROOT = Path(__file__).resolve().parents[1]

#: modules (and packages: a submodule counts) no bare CLI import may load
HEAVY = (
    "numpy",
    "asyncio",
    "ssl",
    "email",
    "http.client",
    "multiprocessing",
    "repro.bulk",
    "repro.gpusim",
    "repro.ingest.crawl",
    "repro.service.http",
)


def program_env() -> dict[str, str]:
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    env.pop("REPRO_FAULTS", None)
    return env


def run_python(code: str) -> dict:
    """Run ``code`` in a fresh interpreter; it prints one JSON object."""
    env = program_env()
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def loaded_heavy(modules: list[str]) -> list[str]:
    return sorted(
        m for m in modules if any(m == h or m.startswith(h + ".") for h in HEAVY)
    )


def small_pem(tmp_path: Path) -> Path:
    corpus = generate_weak_corpus(16, 128, shared_groups=(2,), seed="footprint")
    pem = tmp_path / "keys.pem"
    pem.write_text("".join(public_key_to_pem(k) for k in corpus.keys))
    return pem


def run_command(argv: list[str], ready_event: str, prelude: str = "") -> dict:
    """Run one CLI command in a fresh interpreter (after ``prelude``): its
    exit code, the modules loaded when ``ready_event`` was emitted, and
    those loaded after."""
    return run_python(
        prelude +
        "import contextlib, io, json, sys\n"
        "from repro.telemetry import Telemetry\n"
        "at_ready = []\n"
        "emit = Telemetry.emit\n"
        "def spy(self, event, /, **fields):\n"
        f"    if event == {ready_event!r} and not at_ready:\n"
        "        at_ready.extend(sys.modules)\n"
        "    emit(self, event, **fields)\n"
        "Telemetry.emit = spy\n"
        "from repro.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    rc = main({argv!r})\n"
        "print(json.dumps({'rc': rc, 'at_ready': sorted(at_ready),\n"
        "                  'after': sorted(set(sys.modules) - set(at_ready))}))"
    )


def test_cli_import_loads_no_heavy_module():
    got = run_python(
        "import json, sys, repro.cli; print(json.dumps(sorted(sys.modules)))"
    )
    assert loaded_heavy(got) == []


def test_batchscan_loads_no_heavy_module(tmp_path):
    # the toy corpus runs every stage inline and loads no heavy module; 32
    # odd 2048-bit moduli on two CPUs put remainder levels 2 and 3 on the
    # worker pool, whose imports (and only those) land before pipeline.start
    inline = run_command(
        ["batchscan", "--pem", str(small_pem(tmp_path)), "--spool-dir", str(tmp_path / "s1")],
        "pipeline.start",
    )
    rng = random.Random(1)
    moduli = tmp_path / "moduli.txt"
    moduli.write_text("".join(f"{rng.getrandbits(2048) | 1 | 1 << 2047:#x}\n" for _ in range(32)))
    pooled = run_command(
        ["batchscan", "--moduli", str(moduli), "--spool-dir", str(tmp_path / "s2")],
        "pipeline.start",
        "import repro.core.pipeline as pipeline\npipeline._usable_cpus = lambda: 2\n",
    )
    assert inline["rc"] == pooled["rc"] == 0
    assert loaded_heavy(inline["at_ready"] + inline["after"]) == []
    assert "concurrent.futures.process" in pooled["at_ready"]
    heavy = loaded_heavy(pooled["at_ready"])
    assert [m for m in heavy if not m.startswith("multiprocessing")] == []
    assert inline["after"] == pooled["after"] == []


def test_bulk_scan_loads_engine_before_scan_start(tmp_path):
    pem = small_pem(tmp_path)
    got = run_command(["scan", "--pem", str(pem), "--backend", "bulk"], "scan.start")
    assert got["rc"] == 0
    assert "repro.bulk.engine" in got["at_ready"]
    assert got["after"] == []


def test_serve_loads_nothing_after_first_healthz(tmp_path):
    # -X importtime writes one stderr line per import as it completes, so
    # the log's length at the first answered /healthz marks the ready event
    port_file, log = tmp_path / "port.txt", tmp_path / "imports.txt"
    argv = [sys.executable, "-X", "importtime", "-m", "repro", "serve",
            "--state-dir", str(tmp_path / "state"), "--port", "0",
            "--port-file", str(port_file)]
    with log.open("w") as err:
        proc = subprocess.Popen(argv, env=program_env(), stdout=subprocess.DEVNULL, stderr=err)
    try:
        deadline = time.monotonic() + 60
        while not (port_file.exists() and port_file.read_text().endswith("\n")):
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
        conn = http.client.HTTPConnection("127.0.0.1", int(port_file.read_text()), timeout=60)

        def call(method, path, body=None):
            conn.request(method, path, body=body, headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            response.read()
            return response.status

        assert call("GET", "/healthz") == 200
        ready = log.stat().st_size
        # the first key pins the registry and builds the scanner
        p, q, r = 1_000_000_007, 998_244_353, 1_000_000_009
        moduli = json.dumps({"moduli": [hex(p * q), hex(p * r)]})
        assert call("POST", "/submit?wait=1", moduli) == 200
        for path in ("/hits", "/broken", "/metricsz", "/healthz"):
            assert call("GET", path) == 200
        conn.close()
    finally:
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60) == 0
    after = [line for line in log.read_text()[ready:].splitlines()
             if line.startswith("import time:")]
    assert after == []


def test_lazy_public_names_resolve_to_their_definitions():
    # import every submodule first: the first import of a submodule binds
    # it on its parent, which hides a lazy export of the same name, so a
    # name must still be the defining module's object afterwards
    got = run_python(
        "import importlib, json, pkgutil, types, repro\n"
        "modules = [importlib.import_module(m.name)\n"
        "           for m in pkgutil.walk_packages(repro.__path__, 'repro.')\n"
        "           if not m.name.endswith('__main__')]\n"
        "out = {}\n"
        "for name in ('repro', 'repro.core', 'repro.gcd', 'repro.resilience'):\n"
        "    pkg = importlib.import_module(name)\n"
        "    wrong = []\n"
        "    for n in pkg.__all__:\n"
        "        value = getattr(pkg, n, None)\n"
        "        defs = [vars(m)[n] for m in modules if m is not pkg and n in vars(m)\n"
        "                and not isinstance(vars(m)[n], types.ModuleType)]\n"
        "        if (value is None or isinstance(value, types.ModuleType)\n"
        "                or any(d is not value for d in defs)):\n"
        "            wrong.append(n)\n"
        "    out[name] = {'wrong': wrong, 'undir': sorted(set(pkg.__all__) - set(dir(pkg)))}\n"
        "print(json.dumps(out))"
    )
    for package, result in got.items():
        assert result == {"wrong": [], "undir": []}, package


def test_functions_named_like_submodules_stay_functions():
    # repro.gcd is a subpackage and the top-level gcd function, and
    # repro.gcd.approx a submodule and the estimator
    got = run_python(
        "import json, repro.gcd.approx, repro.gcd.census, repro.gcd.trace\n"
        "from repro import gcd\n"
        "from repro.gcd import approx\n"
        "print(json.dumps([gcd(1043915, 768955), callable(approx)]))"
    )
    assert got == [5, True]
