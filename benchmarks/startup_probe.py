"""Start-up probe: time fresh ``repro`` processes from a small parent.

Usage::

    PYTHONPATH=src python benchmarks/startup_probe.py RUNS [SPOOL] -- [repro arguments]

Starts ``RUNS`` fresh interpreters one after another.  Each imports
``repro.cli``, runs ``main`` on the arguments when there are any, and
reports how many modules it loaded; ``SPOOL`` (a spool directory the
arguments name) is removed after every run.  Prints one JSON list of
``[wall_seconds, maxrss_mib, modules]`` rows.

The parent matters: on Linux a child's ``ru_maxrss`` starts at its
parent's resident size (``exec`` keeps the peak of the image it
replaces), so ``bench_micro`` starts this script, which imports only the
standard library, rather than spawning the probes from its own large
process.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

PROBE = (
    "import sys\n"
    "from repro.cli import main\n"
    "rc = main(sys.argv[1:]) if len(sys.argv) > 1 else 0\n"
    "print(len(sys.modules), file=sys.stderr)\n"
    "sys.exit(rc)\n"
)


def probe(argv: list[str]) -> list[float]:
    """One fresh interpreter: wall seconds, peak RSS in MiB, modules loaded."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", PROBE, *argv],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
    )
    err = proc.stderr.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.stderr.close()
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        raise SystemExit(f"probe {argv} exited {code}: {err[-500:]!r}")
    return [wall, usage.ru_maxrss / 1024, int(err.split()[-1])]


def main(argv: list[str]) -> int:
    split = argv.index("--")
    runs, spool = int(argv[0]), argv[1:split]
    rows = []
    for _ in range(runs):
        rows.append(probe(argv[split + 1 :]))
        for path in spool:
            shutil.rmtree(path, ignore_errors=True)
    print(json.dumps(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
