"""Seeded benchmark inputs: RSA-shaped moduli with planted shared factors.

The generator is self-contained on purpose: it has its own Miller-Rabin
and imports nothing from ``repro``, so a change to the program's key
generation cannot change what the benchmark feeds it.

Each s-bit modulus is ``A * B`` where each half is ``q**k`` for a distinct
128-bit prime ``q`` and ``k = s / 256``.  A prime power costs one 128-bit
prime instead of an s/2-bit one (milliseconds instead of half a second per
modulus), and GCD arithmetic does not care that a half is a power.  Every
``q`` is used once, so moduli are pairwise coprime except where a pair is
planted to share a half.  The base ``q`` is drawn so that each half has
exactly s/2 bits and each modulus exactly s bits: the paper's
early-terminate rule (stop below s/2 bits) would miss a smaller shared
factor.
"""

from __future__ import annotations

import base64
import math
import random

E = 65537
_SMALL_PRIMES = [p for p in range(3, 2000, 2) if all(p % d for d in range(3, int(p**0.5) + 1, 2))]
_PRIMORIAL = math.prod(_SMALL_PRIMES)


def is_probable_prime(n: int, rng: random.Random, rounds: int = 4) -> bool:
    """Miller-Rabin with ``rounds`` random bases drawn from ``rng``."""
    if n < 2000:
        return n == 2 or n in _SMALL_PRIMES
    if math.gcd(n, 2 * _PRIMORIAL) != 1:
        return False
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(rounds):
        x = pow(rng.randrange(2, n - 1), d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _iroot_ceil(value: int, k: int) -> int:
    """The least ``q`` with ``q**k >= value``."""
    lo, hi = 1, 1 << (value.bit_length() // k + 1)
    while lo < hi:
        mid = (lo + hi) // 2
        if mid**k >= value:
            hi = mid
        else:
            lo = mid + 1
    return lo


class ModulusFactory:
    """Draws exact-``bits`` moduli whose halves are distinct prime powers."""

    def __init__(self, bits: int, rng: random.Random) -> None:
        if bits % 256:
            raise ValueError(f"bits must be a multiple of 256, got {bits}")
        self.bits = bits
        self.k = bits // 256
        self.rng = rng
        # q**(2k) >= 2**(bits-1) makes every product exactly `bits` bits long
        self.q_lo = _iroot_ceil(1 << (bits - 1), 2 * self.k)
        self.q_hi = 1 << 128
        self._used: set[int] = set()

    def half(self) -> int:
        """A fresh s/2-bit half ``q**k`` (``q`` never used before)."""
        while True:
            q = self.rng.randrange(self.q_lo, self.q_hi) | 1
            if q not in self._used and is_probable_prime(q, self.rng):
                self._used.add(q)
                return q**self.k

    def modulus(self, shared: int | None = None) -> int:
        """A fresh modulus, sharing the half ``shared`` if one is given."""
        a = shared if shared is not None else self.half()
        return a * self.half()


def corpus(
    bits: int, count: int, pairs: int, rng: random.Random, factory: ModulusFactory | None = None
) -> tuple[list[int], list[tuple[int, int, int]], list[int]]:
    """``count`` moduli with ``pairs`` planted pairs at random positions.

    Returns the moduli, the truth list of ``(i, j, shared_half)`` with
    ``i < j`` (every other pair is coprime), and each modulus's first half,
    which later traffic may share to plant a pair with that key.
    """
    if 2 * pairs > count:
        raise ValueError("more planted pairs than the corpus can hold")
    factory = factory if factory is not None else ModulusFactory(bits, rng)
    slots = rng.sample(range(count), 2 * pairs)
    partner = {}
    for t in range(pairs):
        i, j = sorted(slots[2 * t : 2 * t + 2])
        partner[j] = i
    moduli: list[int] = []
    halves: list[int] = []
    truth = []
    for idx in range(count):
        if idx in partner:
            i = partner[idx]
            a = halves[i]
            truth.append((i, idx, a))
        else:
            a = factory.half()
        moduli.append(factory.modulus(a))
        halves.append(a)
    truth.sort()
    return moduli, truth, halves


def _der_integer(value: int) -> bytes:
    body = value.to_bytes(value.bit_length() // 8 + 1, "big")
    return b"\x02" + _der_length(len(body)) + body


def _der_length(n: int) -> bytes:
    if n < 0x80:
        return bytes([n])
    raw = n.to_bytes((n.bit_length() + 7) // 8, "big")
    return bytes([0x80 | len(raw)]) + raw


def pem_bundle(moduli: list[int]) -> str:
    """PKCS#1 ``RSA PUBLIC KEY`` blocks, one per modulus, e = 65537."""
    out = []
    for n in moduli:
        body = _der_integer(n) + _der_integer(E)
        der = b"\x30" + _der_length(len(body)) + body
        b64 = base64.b64encode(der).decode()
        lines = [b64[i : i + 64] for i in range(0, len(b64), 64)]
        out.append("-----BEGIN RSA PUBLIC KEY-----\n" + "\n".join(lines) + "\n-----END RSA PUBLIC KEY-----\n")
    return "".join(out)
