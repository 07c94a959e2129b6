"""Weak-key corpora: key collections with planted shared primes.

The paper's motivation is the Lenstra et al. finding ("Ron was wrong, Whit
is right") that a measurable fraction of deployed RSA moduli share prime
factors.  A :class:`WeakCorpus` reproduces that situation deterministically:
``n_keys`` moduli of a given size, of which chosen *groups* reuse a single
prime — a group of size ``g`` creates ``g·(g−1)/2`` breakable pairs.  The
ground truth (which pairs share which prime) is retained so attack output
can be scored exactly.

Corpora serialise to/from JSON so experiments can be frozen to disk and
reloaded without regenerating primes.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path
from typing import Callable, Iterable, Iterator

from repro.rsa.keys import DEFAULT_E, RSAKey, generate_key, key_from_primes
from repro.rsa.primes import generate_prime
from repro.util.rng import derive_rng

__all__ = [
    "WeakPair",
    "WeakCorpus",
    "generate_weak_corpus",
    "ModulusStream",
    "stream_moduli",
    "write_moduli_text",
]


@dataclass(frozen=True)
class WeakPair:
    """Ground truth: keys ``i`` and ``j`` (i < j) share ``prime``.

    >>> WeakPair(i=0, j=3, prime=101)
    WeakPair(i=0, j=3, prime=101)
    """

    i: int
    j: int
    prime: int


@dataclass
class WeakCorpus:
    """A deterministic collection of RSA keys with known weak pairs.

    >>> c = generate_weak_corpus(4, 32, shared_groups=(2,), seed=1)
    >>> (c.n_keys, c.total_pairs, len(c.weak_pair_set()))
    (4, 6, 1)
    >>> WeakCorpus.from_json(c.to_json()).moduli == c.moduli
    True
    """

    bits: int
    seed: int | str
    keys: list[RSAKey]
    weak_pairs: list[WeakPair] = field(default_factory=list)

    @property
    def moduli(self) -> list[int]:
        """Just the moduli, in key order — the attack's input vector."""
        return [k.n for k in self.keys]

    @property
    def n_keys(self) -> int:
        return len(self.keys)

    @property
    def total_pairs(self) -> int:
        """All-pairs count ``m(m−1)/2`` the paper's schedules cover."""
        m = len(self.keys)
        return m * (m - 1) // 2

    def weak_pair_set(self) -> set[tuple[int, int]]:
        """Index pairs expected to be broken, as a set for scoring."""
        return {(w.i, w.j) for w in self.weak_pairs}

    def to_json(self) -> str:
        """Serialise (including private ground truth) to a JSON string."""
        return json.dumps(
            {
                "bits": self.bits,
                "seed": self.seed,
                "keys": [
                    {"n": str(k.n), "e": k.e, "p": str(k.p) if k.p else None}
                    for k in self.keys
                ],
                "weak_pairs": [
                    {"i": w.i, "j": w.j, "prime": str(w.prime)} for w in self.weak_pairs
                ],
            }
        )

    @classmethod
    def from_json(cls, text: str) -> WeakCorpus:
        """Inverse of :meth:`to_json`; reconstructs full keys where p known."""
        raw = json.loads(text)
        keys = []
        for k in raw["keys"]:
            n, e = int(k["n"]), int(k["e"])
            if k.get("p"):
                p = int(k["p"])
                keys.append(key_from_primes(p, n // p, e))
            else:
                keys.append(RSAKey(n, e))
        pairs = [WeakPair(w["i"], w["j"], int(w["prime"])) for w in raw["weak_pairs"]]
        return cls(bits=raw["bits"], seed=raw["seed"], keys=keys, weak_pairs=pairs)


def generate_weak_corpus(
    n_keys: int,
    bits: int,
    *,
    shared_groups: tuple[int, ...] | list[int] = (2,),
    duplicates: int = 0,
    seed: int | str = 0,
    e: int = DEFAULT_E,
) -> WeakCorpus:
    """Generate ``n_keys`` RSA keys with planted shared-prime groups.

    ``shared_groups`` lists group sizes: ``(2, 3)`` plants one prime shared
    by two keys and another shared by three.  Group members are placed at
    deterministic-random positions.  All other primes are globally distinct,
    so the *only* non-coprime pairs are the planted ones.

    ``duplicates`` additionally plants that many *exact key reuses* (the
    same modulus deployed twice — observed in real scrapes); each consumes
    two slots and is recorded as a :class:`WeakPair` whose ``prime`` is the
    full modulus, matching the attack's duplicate-hit convention.

    The construction: each group gets one shared prime ``P``; member ``k``
    of the group gets modulus ``P·q_k`` with a fresh unique prime ``q_k``.

    >>> c = generate_weak_corpus(4, 32, shared_groups=(2,), seed=1)
    >>> w = c.weak_pairs[0]
    >>> (c.moduli[w.i] % w.prime, c.moduli[w.j] % w.prime)
    (0, 0)
    """
    if n_keys < 2:
        raise ValueError("a corpus needs at least two keys")
    if bits % 2:
        raise ValueError(f"modulus size must be even, got {bits}")
    need = sum(shared_groups) + 2 * duplicates
    if need > n_keys:
        raise ValueError(f"plants need {need} keys but corpus has {n_keys}")
    if any(g < 2 for g in shared_groups):
        raise ValueError("every shared group must have size >= 2")
    if duplicates < 0:
        raise ValueError("duplicates must be >= 0")

    rng = derive_rng(seed, "corpus", bits, n_keys, tuple(shared_groups), duplicates)
    half = bits // 2
    used: set[int] = set()

    def fresh_prime() -> int:
        p = generate_prime(half, rng, avoid=used)
        used.add(p)
        return p

    # choose which key slots belong to which group
    slots = list(range(n_keys))
    rng.shuffle(slots)
    keys: list[RSAKey | None] = [None] * n_keys
    weak_pairs: list[WeakPair] = []
    cursor = 0
    for g in shared_groups:
        members = sorted(slots[cursor : cursor + g])
        cursor += g
        shared = fresh_prime()
        for m in members:
            keys[m] = key_from_primes(shared, fresh_prime(), e)
        for i, j in combinations(members, 2):
            weak_pairs.append(WeakPair(i, j, shared))
    for _ in range(duplicates):
        a, b = sorted(slots[cursor : cursor + 2])
        cursor += 2
        dup = key_from_primes(fresh_prime(), fresh_prime(), e)
        keys[a] = dup
        keys[b] = dup
        weak_pairs.append(WeakPair(a, b, dup.n))
    for idx in range(n_keys):
        if keys[idx] is None:
            keys[idx] = generate_key(bits, rng, e=e, avoid=used)
            used.add(keys[idx].p)
            used.add(keys[idx].q)

    weak_pairs.sort(key=lambda w: (w.i, w.j))
    return WeakCorpus(bits=bits, seed=seed, keys=list(keys), weak_pairs=weak_pairs)


# -- streaming modulus sources -------------------------------------------------
#
# The batch pipeline's scaling story starts here: its input is an
# *iterator* of moduli, never a materialised ``list[int]``, so a corpus
# bigger than RAM flows through ingest one modulus at a time.


@dataclass(frozen=True)
class ModulusStream:
    """A restartable, lazy source of RSA moduli.

    Iterating yields moduli in order; each iteration restarts from the
    beginning (the factory builds a fresh iterator), so a resumed pipeline
    can re-read its input.  ``count`` is filled in when the source knows it
    cheaply and ``None`` otherwise.

    >>> s = ModulusStream(source="<literal>", _factory=lambda: iter([33, 35]), count=2)
    >>> list(s), list(s)  # restartable
    ([33, 35], [33, 35])
    """

    source: str
    _factory: Callable[[], Iterator[int]]
    count: int | None = None

    def __iter__(self) -> Iterator[int]:
        return self._factory()


def _iter_text_moduli(path: Path) -> Iterator[int]:
    with path.open() as fh:
        for lineno, line in enumerate(fh, 1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            try:
                yield int(text, 16) if text.lower().startswith("0x") else int(text)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: not an integer: {text!r}") from None


def _iter_pem_moduli(path: Path) -> Iterator[int]:
    # line-level streaming: accumulate one armored block at a time, never the
    # whole bundle.  Only the two public-key labels carry moduli; others
    # (certificates, junk between blocks) are skipped, matching
    # ``repro.rsa.pem.load_public_moduli``.
    from repro.rsa.der import decode_rsa_public_key, decode_subject_public_key_info

    label = None
    body: list[str] = []
    with path.open() as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("-----BEGIN "):
                label = line.removeprefix("-----BEGIN ").removesuffix("-----")
                body = []
            elif label is not None and line.startswith("-----END "):
                der = base64.b64decode("".join(body))
                if label == "PUBLIC KEY":
                    yield decode_subject_public_key_info(der)[0]
                elif label == "RSA PUBLIC KEY":
                    yield decode_rsa_public_key(der)[0]
                label = None
            elif label is not None:
                body.append(line)


def _iter_hexlines_moduli(path: Path) -> Iterator[int]:
    # bare lowercase/uppercase hex, one modulus per line, no 0x prefix —
    # the CT ingest outbox spool format (append-only, trivially seekable).
    with path.open() as fh:
        for lineno, line in enumerate(fh, 1):
            text = line.strip()
            if not text:
                continue
            try:
                yield int(text, 16)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: not hex: {text!r}") from None


def _iter_corpus_moduli(path: Path) -> Iterator[int]:
    # corpus JSON is one document, so this source costs a full parse up
    # front (documented in docs/BATCH_PIPELINE.md); the text format is the
    # one that streams for real.
    raw = json.loads(path.read_text())
    for key in raw["keys"]:
        yield int(key["n"])


def stream_moduli(path: str | Path, *, format: str = "auto") -> ModulusStream:
    """Open a modulus source on disk without materialising ``list[int]``.

    ``format`` is one of ``"text"`` (one decimal or ``0x``-hex modulus per
    line, ``#`` comments), ``"hexlines"`` (bare hex, one modulus per line —
    the CT ingest spool format), ``"pem"`` (a public-key bundle, streamed
    block by block), ``"corpus"`` (corpus JSON — parsed whole, then yielded
    lazily) or ``"auto"``, which sniffs the first bytes: ``{`` means
    corpus, ``-----BEGIN`` means PEM, anything else text.  (``auto`` never
    guesses hexlines — bare hex is also valid decimal-ish text, so that
    format must be named explicitly.)

    >>> import tempfile
    >>> with tempfile.TemporaryDirectory() as d:
    ...     p = Path(d, "moduli.txt")
    ...     _ = p.write_text("33\\n0x23  # 35 in hex\\n\\n55\\n")
    ...     list(stream_moduli(p))
    [33, 35, 55]
    """
    path = Path(path)
    if format == "auto":
        with path.open() as fh:
            head = fh.read(64).lstrip()
        if head.startswith("{"):
            format = "corpus"
        elif head.startswith("-----BEGIN"):
            format = "pem"
        else:
            format = "text"
    factories = {
        "text": _iter_text_moduli,
        "hexlines": _iter_hexlines_moduli,
        "pem": _iter_pem_moduli,
        "corpus": _iter_corpus_moduli,
    }
    if format not in factories:
        raise ValueError(f"unknown modulus source format {format!r}")
    factory = factories[format]
    return ModulusStream(source=str(path), _factory=lambda: factory(path))


def write_moduli_text(
    path: str | Path, moduli: Iterable[int], *, mode: str = "w"
) -> int:
    """Write moduli as the streaming text format; returns the count.

    The inverse of ``stream_moduli(path, format="text")`` — the format the
    pipeline recommends for corpora too large for JSON in RAM.  Pass
    ``mode="a"`` to append: long crawls spool extracted moduli
    incrementally instead of rewriting the file per batch.

    >>> import tempfile
    >>> with tempfile.TemporaryDirectory() as d:
    ...     p = Path(d, "m.txt")
    ...     write_moduli_text(p, [33, 55])
    ...     write_moduli_text(p, [77], mode="a")
    ...     list(stream_moduli(p))
    2
    1
    [33, 55, 77]
    """
    if mode not in ("w", "a"):
        raise ValueError(f"mode must be 'w' or 'a', got {mode!r}")
    count = 0
    with Path(path).open(mode) as fh:
        for n in moduli:
            fh.write(f"{n}\n")
            count += 1
    return count
