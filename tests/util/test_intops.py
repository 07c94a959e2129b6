"""Unit tests for the pluggable big-integer backend seam.

Backend *parity* over the attack entry points lives in
``tests/core/test_backend_parity.py``; this module covers the seam itself:
resolution precedence, operation semantics, the unified leaf formula, and
the python backend's recursive division.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batch_gcd import batch_gcd
from repro.core.pipeline import PipelineConfig, run_pipeline
from repro.rsa.primes import generate_prime
from repro.util import intops
from repro.util.intops import (
    BACKEND_CHOICES,
    BACKEND_ENV,
    DIV_CUTOFF_BITS,
    IntBackend,
    PythonBackend,
    available_backends,
    backend_info,
    resolve_backend,
)

GMPY2_AVAILABLE = "gmpy2" in available_backends()
needs_gmpy2 = pytest.mark.skipif(not GMPY2_AVAILABLE, reason="gmpy2 not installed")


# ---------------------------------------------------------------- resolution


def test_python_always_available():
    assert "python" in available_backends()
    assert resolve_backend("python").name == "python"


def test_resolution_precedence(monkeypatch):
    # explicit name beats the environment variable
    monkeypatch.setenv(BACKEND_ENV, "python")
    assert resolve_backend("auto").name == resolve_backend("auto").name
    assert resolve_backend("python").name == "python"
    # no explicit name: the environment variable decides
    assert resolve_backend(None).name == "python"
    assert resolve_backend("").name == "python"
    # no name, no env: auto
    monkeypatch.delenv(BACKEND_ENV)
    auto = resolve_backend("auto").name
    assert resolve_backend(None).name == auto
    assert auto in available_backends()


def test_env_var_garbage_raises(monkeypatch):
    monkeypatch.setenv(BACKEND_ENV, "riscv")
    with pytest.raises(ValueError, match="riscv"):
        resolve_backend(None)


def test_instance_passthrough():
    b = resolve_backend("python")
    assert resolve_backend(b) is b


def test_unknown_name_raises():
    with pytest.raises(ValueError, match="unknown int backend"):
        resolve_backend("bignum")


@pytest.mark.skipif(GMPY2_AVAILABLE, reason="gmpy2 IS installed here")
def test_explicit_gmpy2_raises_when_missing():
    # silent degradation would invalidate benchmark numbers: explicit
    # requests for an absent backend must fail loudly, while auto degrades
    with pytest.raises(ValueError, match="gmpy2"):
        resolve_backend("gmpy2")
    assert resolve_backend("auto").name == "python"


def test_names_are_case_insensitive():
    assert resolve_backend("PYTHON").name == "python"


def test_backend_info_shape():
    info = backend_info()
    assert set(info["available"]) <= set(BACKEND_CHOICES)
    assert info["auto"] in info["available"]
    assert info["gmpy2"]["installed"] == GMPY2_AVAILABLE
    if not GMPY2_AVAILABLE:
        assert "error" in info["gmpy2"]


# ---------------------------------------------------------- op semantics


def _backend_params():
    params = [pytest.param("python", id="python")]
    params.append(pytest.param("gmpy2", id="gmpy2", marks=needs_gmpy2))
    return params


@pytest.fixture(params=_backend_params())
def backend(request) -> IntBackend:
    return resolve_backend(request.param)


def test_core_ops(backend):
    a, b = 2**521 - 1, 3**200 + 7
    assert backend.mul(a, b) == a * b
    assert backend.sqr(a) == a * a
    assert backend.mod(a, b) == a % b
    assert backend.gcd(a * 15, b * 15) == math.gcd(a * 15, b * 15)
    assert backend.divexact(a * b, b) == a
    assert backend.powmod(2, a, b) == pow(2, a, b)
    assert backend.prod([a, b, 7]) == a * b * 7
    assert backend.prod([]) == 1


def test_int_boundary_round_trips(backend):
    v = 2**300 + 12345
    native = backend.from_int(v)
    assert backend.to_int(native) == v
    # idempotent in both directions
    assert backend.to_int(backend.from_int(native)) == v
    assert type(backend.to_int(native)) is int
    data = v.to_bytes((v.bit_length() + 7) // 8, "little")
    assert backend.to_int(backend.from_bytes(data)) == v


def test_python_backend_is_zero_copy():
    v = 2**100
    assert PythonBackend().from_int(v) is v


def test_leaf_gcd_matches_historical_floor_division_form(backend):
    # the three call sites this formula unified used gcd(n, (r//n) % n);
    # exact division agrees because n | r whenever r = N mod n^2 with n | N
    rng = random.Random(7)
    primes = [7919, 104729, 1299709, 15485863, 32452843]
    for _ in range(50):
        shared = rng.choice(primes)
        n = shared * rng.choice(primes)
        others = math.prod(rng.choice(primes) for _ in range(4))
        N = n * others
        r = N % (n * n)
        expected = math.gcd(n, (r // n) % n)
        assert backend.to_int(backend.leaf_gcd(n, r)) == expected


def test_leaf_gcd_accepts_native_operands(backend):
    n, N = 15, 15 * 21
    r = backend.from_int(N % (15 * 15))
    assert backend.to_int(backend.leaf_gcd(backend.from_int(n), r)) == 3


# ------------------------------------------------------------ gmpy2 extras


@needs_gmpy2
def test_gmpy2_versions_reported():
    info = backend_info()
    assert info["gmpy2"]["installed"]
    assert "gmpy2" in info["gmpy2"] and "mp" in info["gmpy2"]


@needs_gmpy2
def test_mpz_pickles_for_process_pool():
    import pickle

    b = resolve_backend("gmpy2")
    v = b.from_int(2**4096 + 1)
    assert pickle.loads(pickle.dumps(v)) == v


# ------------------------------------------------ python recursive division

CUT = DIV_CUTOFF_BITS
mod = PythonBackend.mod


def _bits(rng, k):
    """A random integer of exactly ``k`` bits."""
    return rng.getrandbits(k) | 1 << (k - 1)


@pytest.fixture
def recursion_calls(monkeypatch):
    """Count entries into the recursive 2n/1n step."""
    calls = []
    real = intops._div2n1n

    def spy(a, b, n):
        calls.append(n)
        return real(a, b, n)

    monkeypatch.setattr(intops, "_div2n1n", spy)
    return calls


@settings(max_examples=60, deadline=None)
@given(
    divisor_bits=st.integers(CUT // 2, 3 * CUT),
    quotient_bits=st.integers(0, 3 * CUT),
    rng=st.randoms(use_true_random=False),
)
def test_python_mod_equals_builtin(divisor_bits, quotient_bits, rng):
    b = _bits(rng, divisor_bits)
    a = rng.getrandbits(divisor_bits + quotient_bits)
    assert mod(a, b) == a % b


@pytest.mark.parametrize("extra", [1, 2, 3, 4])
def test_odd_and_even_divisor_lengths(extra, recursion_calls):
    rng = random.Random(extra)
    k = 2 * CUT + extra
    b = _bits(rng, k)
    a = rng.getrandbits(2 * k)
    assert mod(a, b) == a % b
    assert k in recursion_calls  # entered at this parity (odd k pads)


def test_quotient_estimate_clamp(monkeypatch):
    # a = b * 2**k - 1 makes the top digits of the first 3n/2n step equal
    # the divisor's top half, where the 2n/1n estimate would overflow
    clamped = []
    real = intops._div3n2n

    def spy(a12, a3, b, b1, b2, n):
        clamped.append(a12 >> n == b1)
        return real(a12, a3, b, b1, b2, n)

    monkeypatch.setattr(intops, "_div3n2n", spy)
    rng = random.Random(11)
    k = 3 * CUT
    b = _bits(rng, k)
    a = (b << k) - 1
    assert mod(a, b) == a % b == b - 1
    assert any(clamped)


def test_small_and_trivial_dividends(recursion_calls):
    rng = random.Random(12)
    b = _bits(rng, 3 * CUT)
    assert mod(0, b) == 0
    assert mod(b - 1, b) == b - 1
    assert mod(b, b) == 0
    assert recursion_calls == []  # no quotient to speak of: builtin %


def test_exact_multiples_and_powers_of_two(recursion_calls):
    rng = random.Random(13)
    b = _bits(rng, 3 * CUT)
    assert mod(b * _bits(rng, 2 * CUT), b) == 0
    p2 = 1 << (3 * CUT)
    a = rng.getrandbits(7 * CUT)
    assert mod(a, p2) == a % p2 == a & (p2 - 1)
    assert recursion_calls


def test_dividend_beyond_b_cubed_runs_the_digit_loop(recursion_calls):
    rng = random.Random(14)
    k = 2 * CUT + 5
    b = _bits(rng, k)
    a = _bits(rng, 3 * k + k // 2)  # >= b**3: four base-2**k digits
    assert mod(a, b) == a % b
    assert sum(n == k for n in recursion_calls) >= 3


def test_negative_and_small_operands_use_builtin(recursion_calls):
    rng = random.Random(15)
    big, b = rng.getrandbits(6 * CUT), _bits(rng, 3 * CUT)
    assert mod(-big, b) == -big % b
    assert mod(big, -b) == big % -b
    assert mod(big, 2**2048 - 159) == big % (2**2048 - 159)
    assert recursion_calls == []
    with pytest.raises(ZeroDivisionError):
        mod(big, 0)


def test_one_mod_call_per_division(monkeypatch):
    # a tracer wraps PythonBackend.mod; the recursion must not re-enter it
    calls = []
    real = PythonBackend.__dict__["mod"].__func__

    def traced(a, b):
        calls.append(1)
        return real(a, b)

    monkeypatch.setattr(PythonBackend, "mod", staticmethod(traced))
    rng = random.Random(16)
    a, b = rng.getrandbits(10 * CUT), _bits(rng, 3 * CUT)
    assert resolve_backend("python").mod(a, b) == a % b
    assert calls == [1]


@pytest.fixture(scope="module")
def corpus_2048():
    """16 moduli of ~2048 bits, pairwise coprime except three planted pairs.

    Each half is a 128-bit prime to the 8th power (one cheap prime per
    half); GCD arithmetic does not care that a half is a prime power.
    """
    rng = random.Random(2048)
    halves = [generate_prime(128, rng) ** 8 for _ in range(29)]
    moduli = [halves[2 * i] * halves[2 * i + 1] for i in range(13)]
    shared = halves[26:]
    moduli += [shared[0] * halves[0], shared[1] * halves[9], shared[2] * halves[20]]
    return moduli


def test_batch_gcd_and_pipeline_parity_across_the_cutoff(
    corpus_2048, recursion_calls, tmp_path
):
    moduli = corpus_2048
    expected = [
        math.gcd(n, math.prod(moduli[:i] + moduli[i + 1 :]))
        for i, n in enumerate(moduli)
    ]
    assert batch_gcd(moduli, backend="python") == expected
    assert recursion_calls, "the tree never reached the recursive division"

    recursion_calls.clear()
    result = run_pipeline(
        moduli, PipelineConfig(spool_dir=tmp_path, backend="python")
    )
    assert recursion_calls
    pairwise = {
        (i, j, math.gcd(moduli[i], moduli[j]))
        for i in range(len(moduli))
        for j in range(i + 1, len(moduli))
        if math.gcd(moduli[i], moduli[j]) > 1
    }
    assert len(pairwise) == 3
    assert {(h.i, h.j, h.prime) for h in result.hits} == pairwise
