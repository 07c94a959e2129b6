"""Pluggable big-integer operation backends for every GCD hot path.

The reproduction's asymptotically fast paths — the Bernstein product
tree and cofactor descent (:mod:`repro.core.batch_gcd`), the
disk-streamed pipeline's stages (:mod:`repro.core.pipeline`), and
Miller–Rabin prime generation (:mod:`repro.rsa.primes`) — all reduce to
a handful of arbitrary-precision operations: multiply, square, reduce,
GCD, modular exponentiation.  CPython's generic ``int`` implements them
correctly but 5–20× slower than GMP at the 2048–65536-bit operand sizes
the trees reach; ``fastgcd`` (the tool behind Heninger et al.'s "Mining
your Ps and Qs") and Pelofske's all-to-all GCD scans both close that gap
by building on GMP.  This module is the seam that lets us do the same
without a hard dependency:

* ``python``  — plain ``int`` operators, always available, zero deps,
  plus a Burnikel–Ziegler recursive remainder for the large divisions
  (below);
* ``gmpy2``   — GMP via `gmpy2 <https://pypi.org/project/gmpy2/>`_
  (``pip install -e .[fast]``), auto-detected at import time.

Backend selection (:func:`resolve_backend`) checks, in order: an explicit
name argument, the ``REPRO_INT_BACKEND`` environment variable, then
``auto`` (gmpy2 when importable, else python).  Values flowing *between*
tree levels stay backend-native (``mpz`` under gmpy2) — callers convert at
API boundaries with ``to_int`` so public results are always plain ``int``
and therefore byte-identical across backends.

CPython 3.11's ``%`` is schoolbook division, ``O(len(divisor) ·
len(quotient))``, and the cofactor descent's divisions have divisor and
quotient of the same size, up to half the corpus product.  Above
:data:`DIV_CUTOFF_BITS` the python backend's ``mod`` therefore divides by
Burnikel–Ziegler recursion ("Fast Recursive Division", MPI-I-98-1-022,
1998), which turns one big division into half-size divisions plus
Karatsuba multiplies; the remainder is bit-for-bit ``a % b``.  CPython
3.12+ does the same inside ``%`` (``_pylong.int_divmod``); on 3.11 this
module has to.  ``docs/PERFORMANCE.md`` ("Division on the python
backend") has the measured crossover.

The deliberately SIMT-unfriendly word-level algorithms A–E
(:mod:`repro.gcd`, :mod:`repro.mp`) are *not* routed through this seam:
they are the paper's measurement subject, and replacing their arithmetic
would change what is being measured.
"""

from __future__ import annotations

import math
import operator
import os

__all__ = [
    "BACKEND_CHOICES",
    "BACKEND_ENV",
    "DIV_CUTOFF_BITS",
    "Gmpy2Backend",
    "IntBackend",
    "PythonBackend",
    "available_backends",
    "backend_info",
    "resolve_backend",
]

#: environment variable consulted when no explicit backend name is given
BACKEND_ENV = "REPRO_INT_BACKEND"

#: the names :func:`resolve_backend` accepts
BACKEND_CHOICES = ("auto", "python", "gmpy2")

#: divisor and quotient length (bits) above which :class:`PythonBackend`
#: divides by recursion instead of CPython's schoolbook ``%``; also the
#: size at which the recursion bottoms out in builtin ``divmod``.  Measured
#: crossover on CPython 3.11, see ``docs/PERFORMANCE.md``.
DIV_CUTOFF_BITS = 8_000


def _div2n1n(a: int, b: int, n: int) -> tuple[int, int]:
    """``divmod(a, b)`` for ``b`` of exactly ``n`` bits and ``0 <= a < b << n``."""
    if a.bit_length() - n <= DIV_CUTOFF_BITS:
        return divmod(a, b)
    pad = n & 1
    if pad:  # the halving below needs an even n
        a <<= 1
        b <<= 1
        n += 1
    half = n >> 1
    mask = (1 << half) - 1
    b1, b2 = b >> half, b & mask
    q1, r = _div3n2n(a >> n, (a >> half) & mask, b, b1, b2, half)
    q2, r = _div3n2n(r, a & mask, b, b1, b2, half)
    return q1 << half | q2, r >> pad


def _div3n2n(a12: int, a3: int, b: int, b1: int, b2: int, n: int) -> tuple[int, int]:
    """``divmod(a12 << n | a3, b)`` for ``b = b1 << n | b2`` of exactly
    ``2n`` bits, ``a3 < 2**n`` and ``a12 < b``."""
    if a12 >> n == b1:
        # a12 // b1 would be >= 2**n, but the quotient fits n bits: clamp it
        q, r = (1 << n) - 1, a12 - (b1 << n) + b1
    else:
        q, r = _div2n1n(a12, b1, n)
    # q estimates from the top half of b alone: it is never low, at most 2 high
    r = (r << n | a3) - q * b2
    while r < 0:
        q -= 1
        r += b
    return q, r


def _digits(a: int, n: int) -> list[int]:
    """``a > 0`` in base ``2**n``, most significant digit first."""
    out: list[int] = []

    def split(x: int, count: int) -> None:
        if count == 1:
            out.append(x)
            return
        low = count >> 1
        high = x >> (low * n)
        split(high, count - low)
        split(x ^ (high << (low * n)), low)

    split(a, -(-a.bit_length() // n))
    return out


def _mod(a: int, b: int) -> int:
    """``a % b``, by Burnikel–Ziegler recursion when divisor and quotient
    both exceed :data:`DIV_CUTOFF_BITS`; builtin ``%`` otherwise."""
    n = b.bit_length()
    if n <= DIV_CUTOFF_BITS or a.bit_length() - n <= DIV_CUTOFF_BITS or a < 0 or b < 0:
        return a % b
    # schoolbook long division in base 2**n, each digit step a 2n/1n division
    r = 0
    for digit in _digits(a, n):
        r = _div2n1n(r << n | digit, b, n)[1]
    return r


def _balanced_prod(values, mul):
    """Product of ``values`` by pairwise rounds (empty → 1).

    A left fold multiplies a growing product by one small factor per
    step, which costs quadratically in the number of factors on
    CPython; pairing equal-sized halves keeps every multiply balanced,
    so Karatsuba (or GMP) does the work.  ``math.prod`` folds left.

    >>> _balanced_prod([3, 5, 7], operator.mul)
    105
    """
    level = list(values)
    if not level:
        return 1
    while len(level) > 1:
        paired = [mul(level[i], level[i + 1]) for i in range(0, len(level) - 1, 2)]
        if len(level) % 2:
            paired.append(level[-1])
        level = paired
    return level[0]


class IntBackend:
    """One big-integer implementation: a bundle of arithmetic callables.

    Concrete backends bind the operations as cheap attributes so hot loops
    can hoist them into locals (``mul = backend.mul``) and pay only the
    call, never a lookup.  All operations accept both plain ``int`` and the
    backend's native type; outputs are backend-native unless noted.

    ========== =========================================================
    ``mul``     ``a * b``
    ``sqr``     ``a * a`` (GMP squares ~1.5× faster than a generic mul)
    ``mod``     ``a % m`` for non-negative operands
    ``gcd``     greatest common divisor
    ``powmod``  ``pow(b, e, m)``
    ``prod``    product of an iterable (empty → 1), pairwise-balanced
    ``from_int``/``to_int``  convert at API boundaries (both idempotent)
    ``from_bytes``  little-endian unsigned bytes → native value (the
                spool-blob record codec, so disk reads skip the
                ``int`` round-trip)
    ``from_bytes_be``  big-endian unsigned bytes → native value (the
                RGWIRE1 wire codec, :mod:`repro.service.wire`; network
                order is canonical on the wire, little-endian on disk)
    ``leaf_gcd``  the batch-GCD leaf ``gcd(n, u)``, see below
    ========== =========================================================
    """

    name: str

    def leaf_gcd(self, n, u):
        """The batch-GCD leaf: ``gcd(n, u)`` for the cofactor residue
        ``u = (N/n) mod n`` of :func:`repro.core.batch_gcd.cofactor_tree`,
        ``N`` the product of all moduli.  Both leaf passes call it.

        >>> resolve_backend("python").leaf_gcd(15, (315 // 15) % 15)
        3
        """
        return self.gcd(n, u)


class PythonBackend(IntBackend):
    """Plain CPython ``int`` arithmetic — the always-available reference.

    The operation attributes are the raw builtins/operators themselves, so
    routing through this backend costs one extra function call per
    operation and nothing else -- except ``mod``, which switches to
    Burnikel–Ziegler recursion when divisor and quotient both exceed
    :data:`DIV_CUTOFF_BITS` (same remainder, subquadratic cost), and
    ``prod``, which multiplies pairwise instead of folding left.
    """

    name = "python"

    mul = staticmethod(operator.mul)
    mod = staticmethod(_mod)
    gcd = staticmethod(math.gcd)
    powmod = staticmethod(pow)
    to_int = staticmethod(int)

    @staticmethod
    def prod(values):
        return _balanced_prod(values, operator.mul)

    @staticmethod
    def sqr(x):
        return x * x

    @staticmethod
    def from_int(x):
        return x

    @staticmethod
    def from_bytes(data: bytes) -> int:
        return int.from_bytes(data, "little")

    @staticmethod
    def from_bytes_be(data: bytes) -> int:
        return int.from_bytes(data, "big")


class Gmpy2Backend(IntBackend):
    """GMP arithmetic through ``gmpy2`` — the accelerated path.

    Instantiation imports ``gmpy2`` and raises ``ImportError`` when it is
    absent; use :func:`resolve_backend` for graceful detection.
    """

    name = "gmpy2"

    def __init__(self) -> None:
        import gmpy2

        self._gmpy2 = gmpy2
        self._mpz = gmpy2.mpz
        self.mul = gmpy2.mul
        self.gcd = gmpy2.gcd
        self.powmod = gmpy2.powmod
        # f_mod == % for the non-negative operands every hot path uses
        self.mod = gmpy2.f_mod
        # gmpy2 >= 2.1 exposes a dedicated squaring entry point
        square = getattr(gmpy2, "square", None)
        self.sqr = square if square is not None else (lambda x: x * x)
        # mpz.from_bytes (gmpy2 >= 2.2) decodes without an int round-trip
        native_from_bytes = getattr(self._mpz, "from_bytes", None)
        if native_from_bytes is not None:
            self.from_bytes = lambda data: native_from_bytes(data, byteorder="little")
            self.from_bytes_be = lambda data: native_from_bytes(data, byteorder="big")
        else:
            self.from_bytes = lambda data: self._mpz(
                int.from_bytes(data, "little")
            )
            self.from_bytes_be = lambda data: self._mpz(
                int.from_bytes(data, "big")
            )

    def from_int(self, x):
        # mpz is immutable; skip the copy when the value is already native
        return x if isinstance(x, self._mpz) else self._mpz(x)

    @staticmethod
    def to_int(x) -> int:
        return int(x)

    def prod(self, values):
        return self.from_int(_balanced_prod(values, self.mul))

    def versions(self) -> dict:
        """gmpy2 and underlying GMP/MPIR versions (for ``repro backends``)."""
        return {
            "gmpy2": self._gmpy2.version(),
            "mp": self._gmpy2.mp_version(),
        }


_PYTHON = PythonBackend()
_GMPY2: Gmpy2Backend | None = None
_GMPY2_ERROR: str | None = None
_GMPY2_PROBED = False


def _load_gmpy2() -> Gmpy2Backend | None:
    """Import gmpy2 once; remember the failure reason for diagnostics."""
    global _GMPY2, _GMPY2_ERROR, _GMPY2_PROBED
    if not _GMPY2_PROBED:
        _GMPY2_PROBED = True
        try:
            _GMPY2 = Gmpy2Backend()
        except ImportError as exc:
            _GMPY2_ERROR = str(exc)
    return _GMPY2


def available_backends() -> tuple[str, ...]:
    """Names of the backends importable in this interpreter.

    >>> "python" in available_backends()
    True
    """
    names = ["python"]
    if _load_gmpy2() is not None:
        names.append("gmpy2")
    return tuple(names)


def resolve_backend(name: str | IntBackend | None = None) -> IntBackend:
    """Resolve a backend name to a live backend instance.

    ``name`` may be a backend instance (returned unchanged — lets threaded
    APIs accept either), an explicit name, ``"auto"``, or ``None`` /
    ``""`` meaning "consult ``REPRO_INT_BACKEND``, default ``auto``".
    ``auto`` picks gmpy2 when importable, else python.  An explicit
    ``"gmpy2"`` request raises ``ValueError`` when gmpy2 is missing —
    silently degrading a requested accelerated run would invalidate its
    benchmark numbers.

    >>> resolve_backend("python").name
    'python'
    >>> resolve_backend(resolve_backend("python")).name  # passthrough
    'python'
    """
    if isinstance(name, IntBackend):
        return name
    if not name:
        name = os.environ.get(BACKEND_ENV) or "auto"
    name = name.lower()
    if name == "auto":
        backend = _load_gmpy2()
        return backend if backend is not None else _PYTHON
    if name == "python":
        return _PYTHON
    if name == "gmpy2":
        backend = _load_gmpy2()
        if backend is None:
            raise ValueError(
                f"gmpy2 backend requested but gmpy2 is not importable "
                f"({_GMPY2_ERROR}); install it with: pip install -e '.[fast]'"
            )
        return backend
    raise ValueError(
        f"unknown int backend {name!r}; expected one of {BACKEND_CHOICES}"
    )


def backend_info() -> dict:
    """A JSON-ready report of what is installed and what ``auto`` picks.

    The ``repro backends`` CLI subcommand prints this, and benchmark
    artifacts embed it so every measurement is self-describing.

    >>> info = backend_info()
    >>> info["auto"] in info["available"]
    True
    """
    gmpy2_backend = _load_gmpy2()
    info: dict = {
        "available": list(available_backends()),
        "auto": resolve_backend("auto").name,
        "env": os.environ.get(BACKEND_ENV),
        "gmpy2": {"installed": gmpy2_backend is not None},
    }
    if gmpy2_backend is not None:
        info["gmpy2"].update(gmpy2_backend.versions())
    elif _GMPY2_ERROR is not None:
        info["gmpy2"]["error"] = _GMPY2_ERROR
    return info
