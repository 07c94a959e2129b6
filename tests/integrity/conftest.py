"""Shared fixtures: committed state directories with known-good artifacts.

The integrity subsystem verifies what the *service* writes, so the
fixtures here build state directories the same way the service does —
through :class:`WeakKeyRegistry` commits and
:class:`PersistentProductTree` appends — rather than hand-crafting
files.  Each test then damages specific bytes and asserts the catalog /
fsck verdicts.
"""

from pathlib import Path

import pytest

from repro.core import chainlog
from repro.core.attack import find_shared_primes
from repro.core.ptree import PersistentProductTree
from repro.resilience.faults import reset_plan
from repro.rsa.corpus import generate_weak_corpus
from repro.service.registry import WeakKeyRegistry

BITS = 64


@pytest.fixture(autouse=True)
def _clean_plan():
    reset_plan()
    yield
    reset_plan()


@pytest.fixture(scope="session")
def corpus():
    # 16 keys, two planted shared-prime pairs
    return generate_weak_corpus(16, BITS, shared_groups=(2, 2), seed=99)


@pytest.fixture(scope="session")
def corpus_hits(corpus):
    return find_shared_primes(corpus.moduli).hits


def build_state(
    state_dir: Path,
    corpus,
    hits,
    *,
    batches: int = 2,
    with_ptree: bool = True,
) -> WeakKeyRegistry:
    """Commit ``corpus`` into ``state_dir`` in ``batches`` registry batches.

    Hits are attributed to the batch registering their higher index, the
    same rule the live scan path follows (a hit lands with the batch that
    completes the pair).
    """
    registry = WeakKeyRegistry(state_dir)
    registry.load()
    ptree = PersistentProductTree(spool_dir=state_dir / "ptree") if with_ptree else None
    moduli = corpus.moduli
    per = max(1, len(moduli) // batches)
    starts = list(range(0, len(moduli), per))
    for b, start in enumerate(starts):
        chunk = moduli[start : start + per] if b < len(starts) - 1 else moduli[start:]
        end = start + len(chunk)
        batch_hits = [h for h in hits if start <= max(h.i, h.j) < end]
        registry.commit_batch(chunk, batch_hits)
        if ptree is not None:
            ptree.append(chunk)
        if b == len(starts) - 1:
            break
    return registry


def flip_byte(path: Path, offset: int | None = None) -> None:
    data = bytearray(path.read_bytes())
    pos = len(data) // 2 if offset is None else offset
    data[pos] ^= 0x01
    path.write_bytes(bytes(data))


def truncate_tail(path: Path, drop: int | None = None) -> None:
    data = path.read_bytes()
    n = max(1, len(data) // 4) if drop is None else drop
    path.write_bytes(data[: len(data) - n])


def record_region(state_dir: Path, batch: int, part: str = "body") -> tuple[Path, int, int]:
    """``(segment, start, end)`` of one commit record's ``body``, ``keys``,
    ``hits`` or ``header`` bytes in the registry log."""
    frame = next(
        f for f in chainlog.read_log(state_dir).frames if f.header.get("batch") == batch
    )
    cut = frame.body_at + frame.header["keys_nbytes"]
    start, end = {
        "body": (frame.body_at, frame.body_at + frame.body_len),
        "keys": (frame.body_at, cut),
        "hits": (cut, frame.body_at + frame.body_len),
        "header": (frame.header_at, frame.body_at),
    }[part]
    return chainlog.segment_path(state_dir, frame.segment), start, end


def flip_record_byte(state_dir: Path, batch: int, part: str = "body") -> Path:
    """Flip the middle byte of one part of a commit record; returns its segment."""
    path, start, end = record_region(state_dir, batch, part)
    assert end > start, f"batch {batch} has no {part} bytes"
    flip_byte(path, (start + end) // 2)
    return path
