"""Build the aged registry the serve workloads restart on.

Usage (with the program's ``src`` on ``PYTHONPATH``)::

    python3 perfbench/age.py OUT_DIR BITS KEYS BATCH PAIRS SEED

Generates ``KEYS`` moduli with ``PAIRS`` planted pairs and registers them
in batches of ``BATCH`` through the public
``WeakKeyRegistry.commit_batch``, each batch with the planted hits it
completes.  The on-disk format is the program's own, so the state is
rebuilt by the code under test and never shared between versions.
Writes ``OUT_DIR/state`` and ``OUT_DIR/corpus.json`` (moduli, truth and
each key's first half, in hex).
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gen  # noqa: E402
from repro.core.attack import WeakHit  # noqa: E402
from repro.service.registry import WeakKeyRegistry  # noqa: E402


def build(out: Path, bits: int, keys: int, batch: int, pairs: int, seed: str) -> None:
    moduli, truth, halves = gen.corpus(bits, keys, pairs, random.Random(f"aged:{seed}"))
    hits_at: dict[int, list[WeakHit]] = {}
    for i, j, half in truth:
        hits_at.setdefault(j, []).append(WeakHit(i, j, half))
    registry = WeakKeyRegistry(out / "state")
    registry.load()
    for base in range(0, keys, batch):
        hits = [h for j in range(base, min(base + batch, keys)) for h in hits_at.get(j, [])]
        registry.commit_batch(moduli[base : base + batch], hits)
    (out / "corpus.json").write_text(json.dumps({
        "bits": bits,
        "moduli": [hex(n) for n in moduli],
        "truth": [[i, j, hex(half)] for i, j, half in truth],
        "halves": [hex(h) for h in halves],
    }))


if __name__ == "__main__":
    out, bits, keys, batch, pairs, seed = sys.argv[1:7]
    build(Path(out), int(bits), int(keys), int(batch), int(pairs), seed)
