"""Bernstein-style batch GCD: product tree + cofactor descent.

The modern way to scan ``m`` moduli for shared primes (used by Heninger et
al.'s "Mining your Ps and Qs" and the ``fastgcd`` tool the paper competes
with) computes, for every modulus ``n_i``,

    ``g_i = gcd(n_i, (N / n_i) mod n_i)``   where ``N = Π n_j``,

in ``O(M(m·b) · log m)`` big-integer time instead of ``O(m²)`` GCDs, for
``b``-bit moduli, where ``M(k)`` is the cost of one ``k``-bit multiply (a
``k``-bit division reduces to multiplies).  That is quasi-linear only with
GMP's FFT multiply; the python backend is bound by CPython's Karatsuba,
``O((m·b)^1.58)``, and gets even that only because its ``mod`` divides by
recursion rather than schoolbook (:mod:`repro.util.intops`):

1. a *product tree* over the moduli gives ``N`` and all subtree products;
2. a *cofactor descent* pushes ``N`` down: each node ``v`` holds
   ``u_v = (N/v) mod v``, from ``u = 1`` at the root (:func:`cofactor_step`);
3. a leaf then holds ``(N/n_i) mod n_i``: one final GCD per modulus.

Unlike the textbook remainder tree (``N mod v²`` per node, then an exact
division by ``n_i`` at the leaf), the descent never squares, and it
divides ``|v|``-bit values by ``|v|/2``-bit children, half the size.

All big-integer arithmetic routes through a pluggable backend
(:mod:`repro.util.intops`): plain Python ints by default, GMP via gmpy2
when installed (``pip install -e .[fast]``).  Tree nodes stay
backend-native *between* levels — the product tree hands ``mpz`` values
straight to the cofactor descent, which hands leaf residues straight to
the final GCDs — so an accelerated run never round-trips through ``int``
mid-tree.  The trade-off against the paper's all-pairs
approach (giant multiplications and memory vs embarrassing parallelism) is
measured in ``benchmarks/bench_ablation_batch_vs_pairwise.py`` and
``benchmarks/bench_e2e_scaling.py``.
"""

from __future__ import annotations

from contextlib import nullcontext

from repro.telemetry import Telemetry
from repro.util.intops import IntBackend, resolve_backend

__all__ = ["product_tree", "cofactor_step", "cofactor_tree", "batch_gcd"]


def product_tree(
    values: list[int],
    *,
    keep_levels: bool = True,
    telemetry: Telemetry | None = None,
    backend: str | IntBackend | None = None,
    native: bool = False,
) -> list[list[int]]:
    """Bottom-up product tree: ``levels[0]`` is the input, the last level
    holds the single total product.

    Odd-length levels carry their last element up unmultiplied.  With
    ``telemetry``, each level's build time lands in the
    ``batch.product_level_seconds`` histogram — the tree's upper levels
    multiply ever-larger integers, and that skew is exactly what the
    all-pairs-vs-batch trade-off hinges on.

    ``keep_levels=False`` is the root-only path: each level is dropped as
    soon as its parent level exists, so the peak retained node count is
    ``~1.5·m`` instead of the full tree's ``2·m − 1`` (every level's bytes
    roughly equal the input's, so the full tree costs ``height ×`` the
    input in RAM).  The return value is then a single-level list holding
    only the root.  Callers that need the cofactor descent (i.e.
    :func:`batch_gcd`) must keep the levels; callers that only need
    ``N = Π n_i`` — e.g. the pipeline's single-modulus
    :func:`repro.core.pipeline.quick_check` — should not pay for them.
    Either way the gauge ``batch.peak_retained_nodes`` records the peak.

    ``backend`` selects the big-integer implementation (default: the
    ``auto`` resolution of :func:`repro.util.intops.resolve_backend`);
    ``native=True`` skips the final ``int`` conversion and returns
    backend-native nodes — the contract :func:`batch_gcd` uses to keep the
    whole tree in ``mpz`` form.

    >>> product_tree([3, 5, 7])
    [[3, 5, 7], [15, 7], [105]]
    >>> product_tree([3, 5, 7], keep_levels=False)
    [[105]]
    """
    if not values:
        raise ValueError("product tree needs at least one value")
    B = resolve_backend(backend)
    mul, from_int = B.mul, B.from_int
    clock = telemetry.timer.clock if telemetry else None
    levels = [[from_int(v) for v in values]]
    retained = len(levels[0])
    peak = retained
    while len(levels[-1]) > 1:
        t0 = clock() if clock else 0.0
        prev = levels[-1]
        nxt = [mul(prev[k], prev[k + 1]) for k in range(0, len(prev) - 1, 2)]
        if len(prev) % 2:
            nxt.append(prev[-1])
        peak = max(peak, retained + len(nxt))  # prev still referenced here
        if keep_levels:
            levels.append(nxt)
            retained += len(nxt)
        else:
            levels = [nxt]
            retained = len(nxt)
        if telemetry is not None:
            telemetry.registry.histogram("batch.product_level_seconds").observe(
                clock() - t0
            )
            telemetry.advance(1)
    if telemetry is not None:
        telemetry.registry.gauge("batch.levels").set(len(levels))
        telemetry.registry.gauge("batch.peak_retained_nodes").max_of(peak)
    if native:
        return levels
    to_int = B.to_int
    return [[to_int(v) for v in level] for level in levels]


def cofactor_step(u, a, b, backend: IntBackend) -> tuple:
    """Both children's cofactor residues from their parent's.

    For a node ``v = a·b`` holding ``u = (N/v) mod v``, returns
    ``((N/a) mod a, (N/b) mod b)``: ``N/a = (N/v)·b`` and ``a | v``, so
    ``(N/a) mod a = (u mod a)·(b mod a) mod a``.  Used by
    :func:`cofactor_tree` and the pipeline's ``remainder.k`` stages.

    >>> from repro.util.intops import resolve_backend
    >>> cofactor_step(1, 15, 7, resolve_backend("python"))  # root 105 = 15 * 7
    (7, 1)
    """
    mul, mod = backend.mul, backend.mod
    return mod(mul(mod(u, a), mod(b, a)), a), mod(mul(mod(u, b), mod(a, b)), b)


def cofactor_tree(
    levels: list[list[int]],
    *,
    telemetry: Telemetry | None = None,
    backend: str | IntBackend | None = None,
    native: bool = False,
) -> list[int]:
    """Push the root product down: leaf ``n_i`` receives ``(N/n_i) mod n_i``.

    The descent starts from ``u = 1`` at the root (``N/N``) and applies
    :func:`cofactor_step` at every multiplied node; an odd level's carried
    node keeps its parent's residue.  With ``telemetry``, per-level
    descent times land in the ``batch.remainder_level_seconds``
    histogram.  ``backend``/``native`` behave as in :func:`product_tree`;
    levels may hold plain ints or backend-native nodes (a native tree from
    ``product_tree(..., native=True)`` descends without any conversion).

    >>> cofactor_tree(product_tree([3, 5, 7]))  # 105 / {3, 5, 7} mod itself
    [2, 1, 1]
    """
    B = resolve_backend(backend)
    from_int = B.from_int
    clock = telemetry.timer.clock if telemetry else None
    us = [from_int(1)]
    for level in reversed(levels[:-1]):
        t0 = clock() if clock else 0.0
        nxt = []
        for k in range(0, len(level) - 1, 2):
            a, b = from_int(level[k]), from_int(level[k + 1])
            nxt.extend(cofactor_step(us[k // 2], a, b, B))
        if len(level) % 2:
            nxt.append(us[-1])
        us = nxt
        if telemetry is not None:
            telemetry.registry.histogram("batch.remainder_level_seconds").observe(
                clock() - t0
            )
            telemetry.advance(1)
    if native:
        return us
    to_int = B.to_int
    return [to_int(u) for u in us]


def batch_gcd(
    moduli: list[int],
    *,
    telemetry: Telemetry | None = None,
    backend: str | IntBackend | None = None,
) -> list[int]:
    """For each modulus, its GCD with the product of all the others.

    Returns one value per input: 1 (shares nothing), a proper factor (shares
    one prime), or the modulus itself (both primes shared elsewhere — e.g. a
    duplicated key).  Pairing the hits back to partners needs one extra
    pairwise pass over the (few) flagged moduli; :mod:`repro.core.attack`
    does that.

    ``backend`` selects the big-integer implementation; results are plain
    ``int`` and identical across backends (property-tested in
    ``tests/core/test_backend_parity.py``).  With ``telemetry``, the three
    phases are timed as ``product_tree``, ``remainder_tree`` (the cofactor
    descent) and ``final_gcds`` stage spans, with per-tree-level histograms recorded by
    the tree builders themselves.

    >>> batch_gcd([33, 35, 55])  # 55 = 5 * 11 shares both its primes
    [11, 5, 55]
    """
    if len(moduli) < 2:
        raise ValueError("batch GCD needs at least two moduli")
    if any(n <= 0 for n in moduli):
        raise ValueError("moduli must be positive")
    B = resolve_backend(backend)
    span = telemetry.timer.span if telemetry else (lambda name: nullcontext())
    with span("product_tree"):
        levels = product_tree(moduli, telemetry=telemetry, backend=B, native=True)
    with span("remainder_tree"):
        us = cofactor_tree(levels, telemetry=telemetry, backend=B, native=True)
    with span("final_gcds"):
        leaf_gcd, to_int = B.leaf_gcd, B.to_int
        # levels[0] holds the backend-native moduli — reuse them so the
        # leaf pass converts each result exactly once, on the way out
        out = [to_int(leaf_gcd(n, u)) for n, u in zip(levels[0], us)]
    if telemetry is not None:
        telemetry.registry.counter("batch.moduli").inc(len(moduli))
        telemetry.advance(1)
    return out
