"""Traced launcher: run ``repro`` with a span around each layer's entry points.

Usage::

    python3 perfbench/launch.py SPANS.json -- <repro arguments>

The launcher replaces the public functions and methods named in
:data:`TARGETS` (class attributes, or the name in each importing module)
with wrappers that record one span per call, then calls
``repro.cli.main``.  Wrappers pass arguments, results and exceptions
through unchanged.  Spans stay in memory and are written to ``SPANS.json``
when ``main`` returns: ``[id, parent, root, name, start, end, extra]``,
with ``perf_counter`` times (the system-wide monotonic clock on Linux, so
they compare with the load generator's).  ``root`` is the id of the
outermost span on the calling thread, so every span of one scan-thread
flush shares it.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import math
import os
import sys
import threading
import time

clock = time.perf_counter


class Tracer:
    """Thread-aware span recorder."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, name: str, fn, extra=None):
        """``fn`` with a span per call; ``extra(args, result)`` adds a figure."""
        local = self._local
        ids = self._ids
        record = self.spans.append

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent, root = stack[-1] if stack else (0, sid)
            stack.append((sid, root))
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                record((sid, parent, root, name, t0, clock(), None))
                raise
            finally:
                stack.pop()
            t1 = clock()
            record((sid, parent, root, name, t0, t1, extra(args, result) if extra else None))
            return result

        return traced


def _blob_bytes(args, info):
    return info.nbytes


def _manifest_bytes(args, result):
    return os.path.getsize(args[0].path)


def _batch_report(args, report):
    return [report.pairs_tested, int(report.engine == "ptree")]


def _bulk_run(args, result):
    pairs = args[1]
    if not pairs:
        return [0, 0, 0, 0]
    bits = max(max(a, b).bit_length() for a, b in pairs)
    words = math.ceil(bits / args[0].d)
    return [len(pairs), result.loop_trips, int(result.iterations.sum()), words]


def _unit_bytes(args, result):
    return args[0].nbytes


#: (span name, module, attribute path, extra) -- an attribute path of
#: ``Class.method`` patches the class; a bare name patches the module global
TARGETS = [
    ("util.intops.mod", "repro.util.intops", "PythonBackend.mod", None),
    ("util.intops.mul", "repro.util.intops", "PythonBackend.mul", None),
    ("util.intops.sqr", "repro.util.intops", "PythonBackend.sqr", None),
    ("util.intops.leaf_gcd", "repro.util.intops", "IntBackend.leaf_gcd", None),
    ("core.pipeline.run_pipeline", "repro.cli", "run_pipeline", None),
    ("core.attack.find_shared_primes", "repro.cli", "find_shared_primes", None),
    ("core.spool.write_blob", "repro.core.spool", "write_blob", _blob_bytes),
    ("core.spool.write_blob", "repro.core.pipeline", "write_blob", _blob_bytes),
    ("core.spool.write_blob", "repro.core.ptree", "write_blob", _blob_bytes),
    ("core.spool.write_blob", "repro.service.registry", "write_blob", _blob_bytes),
    ("core.checkpoint.save", "repro.core.checkpoint", "CheckpointStore.save", _manifest_bytes),
    ("service.registry.commit_batch", "repro.service.registry", "WeakKeyRegistry.commit_batch", None),
    ("service.registry.note_duplicates", "repro.service.registry", "WeakKeyRegistry.note_duplicates", None),
    ("service.registry.load", "repro.service.registry", "WeakKeyRegistry.load", None),
    ("core.ptree.load_or_rebuild", "repro.core.ptree", "PersistentProductTree.load_or_rebuild", None),
    ("core.ptree.batch_remainders", "repro.core.ptree", "PersistentProductTree.batch_remainders", None),
    ("core.ptree.append", "repro.core.ptree", "PersistentProductTree.append", None),
    ("core.incremental.add_batch", "repro.core.incremental", "IncrementalScanner.add_batch", _batch_report),
    ("service.http.parse", "repro.service.http", "parse_submission", None),
    ("service.http.flush", "repro.service.http", "WeakKeyService._scan_sync", None),
    ("telemetry.snapshot", "repro.telemetry", "Telemetry.snapshot", None),
    ("integrity.units", "repro.integrity.catalog", "ArtifactCatalog.units", None),
    ("integrity.unit_run", "repro.integrity.catalog", "VerifyUnit.run", _unit_bytes),
    ("bulk.run_pairs", "repro.bulk.engine", "BulkGcdEngine.run_pairs", _bulk_run),
]


def install(tracer: Tracer) -> None:
    """Patch every target in place (call before ``repro.cli.main``)."""
    wrapped: dict[tuple[int, str], object] = {}
    for name, module_name, path, extra in TARGETS:
        module = importlib.import_module(module_name)
        owner, _, attr = path.rpartition(".")
        holder = getattr(module, owner) if owner else module
        raw = holder.__dict__[attr] if owner else getattr(module, attr)
        is_static = isinstance(raw, staticmethod)
        fn = raw.__func__ if is_static else raw
        key = (id(fn), name)
        if key not in wrapped:  # one wrapper per function, however many importers
            wrapped[key] = tracer.wrap(name, fn, extra)
        setattr(holder, attr, staticmethod(wrapped[key]) if is_static else wrapped[key])


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: launch.py SPANS.json -- <repro arguments>", file=sys.stderr)
        return 2
    out, repro_args = argv[0], argv[2:]
    tracer = Tracer()
    install(tracer)
    from repro.cli import main as repro_main

    try:
        return repro_main(repro_args)
    finally:
        with open(out, "w") as fh:
            json.dump({"spans": tracer.spans}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
