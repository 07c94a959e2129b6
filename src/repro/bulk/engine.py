"""The bulk GCD engine: algorithms C, D and E over whole pair collections.

``BulkGcdEngine.run_pairs`` is this library's analogue of launching the
paper's CUDA grid: every pair is a lane, lanes advance in lock step under an
active mask, and one Python-level loop trip corresponds to one warp-wide
iteration of the do-while loop.  The iteration bodies are the vector
kernels of :mod:`repro.bulk.kernels`, which update X in place (lanes that
sit a step out get α = 0, the identity); the rare paths the paper also treats
as negligible-divergence branches — ``β > 0`` and the ≤ 2-word Case 1
endgame — serialize onto a scalar per-lane step, and are counted.

The engine implements:

* ``"approx"`` — (E) Approximate Euclid, the paper's kernel;
* ``"fast_binary"`` — (D), the strongest classical GPU baseline
  (Fujimoto / Scharfglass / White all shipped Binary-Euclid variants);
* ``"binary"`` — (C), which pays its three-way branch in full: all three
  masked branch bodies execute on every trip, exactly the SIMT
  serialization the paper blames for (C)'s poor GPU ratio.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from repro.bulk.divergence import DivergenceStats
from repro.bulk.kernels import (
    CASE_CODES,
    approx_bulk,
    compare_bulk,
    halve_columns,
    rshift_strip_bulk,
    subtract_mul_bulk,
    swap_columns,
    trailing_zeros_u64,
)
from repro.bulk.layout import BulkOperands
from repro.gcd.approx import approx
from repro.telemetry import Telemetry
from repro.util.bits import rshift_to_odd, word_count

__all__ = ["BulkGcdEngine", "BulkResult"]

_ALGORITHMS = ("approx", "fast_binary", "binary")


@dataclass
class BulkResult:
    """Outcome of one bulk run."""

    #: per-pair GCD (1 for pairs that early-terminated as coprime)
    gcds: list[int]
    #: per-pair iteration count (lock-step trips in which the lane was active)
    iterations: np.ndarray
    #: total lock-step loop trips executed by the engine
    loop_trips: int
    #: lanes that hit the early-terminate rule
    early_terminated: np.ndarray
    #: per-trip active-lane counts and warp bookkeeping
    divergence: DivergenceStats
    #: lock-step trips that needed the rare β > 0 scalar path, per lane total
    beta_nonzero: int = 0
    #: scalar Case-1 endgame steps taken (0 under RSA early-termination)
    scalar_steps: int = 0
    case_counts: dict[str, int] = field(default_factory=dict)


class BulkGcdEngine:
    """Lock-step bulk GCD over column-stored pairs."""

    def __init__(self, d: int = 32, algorithm: str = "approx") -> None:
        if algorithm not in _ALGORITHMS:
            raise ValueError(f"unknown algorithm {algorithm!r}; expected one of {_ALGORITHMS}")
        if not 2 <= d <= 32:
            raise ValueError(f"bulk word size must satisfy 2 <= d <= 32, got {d}")
        self.d = d
        self.algorithm = algorithm

    # -- public API ----------------------------------------------------------

    def run_pairs(
        self,
        pairs: list[tuple[int, int]],
        *,
        stop_bits: int | None = None,
        capacity: int | None = None,
        record_masks: bool = False,
        compact: bool = False,
        telemetry: Telemetry | None = None,
    ) -> BulkResult:
        """Compute the GCD of every (odd, odd) pair in lock step.

        ``stop_bits`` enables the paper's early-terminate rule (pass
        ``s // 2`` for s-bit RSA moduli).  ``capacity`` overrides the word
        capacity (defaults to fitting the widest operand).
        ``record_masks`` keeps every per-trip active mask for warp-level
        divergence analysis (memory: trips × pairs booleans).
        ``compact`` retires finished lanes by physically dropping their
        columns once fewer than half remain active — the software analogue
        of finished CUDA blocks freeing the SMs for waiting ones.  Results
        are bit-identical either way; ``record_masks`` is incompatible with
        compaction (lane positions change mid-run).
        ``telemetry`` adds this run to a shared measurement bundle: the
        lock-step loop is timed as a ``kernel`` stage span and the
        ``kernel.*`` counters/histograms of ``docs/OBSERVABILITY.md``
        accumulate into its registry.
        """
        if compact and record_masks:
            raise ValueError("record_masks cannot be combined with compact")
        if not pairs:
            return BulkResult(
                gcds=[],
                iterations=np.zeros(0, dtype=np.int64),
                loop_trips=0,
                early_terminated=np.zeros(0, dtype=bool),
                divergence=DivergenceStats(n_lanes=0),
            )
        for a, b in pairs:
            if a <= 0 or b <= 0 or a % 2 == 0 or b % 2 == 0:
                raise ValueError("bulk GCD requires odd positive operands")
        d = self.d
        if capacity is None:
            capacity = max(word_count(max(a, b), d) for a, b in pairs)
        x = BulkOperands.from_ints([a for a, _ in pairs], d, capacity)
        y = BulkOperands.from_ints([b for _, b in pairs], d, capacity)
        # establish X >= Y per lane
        swap_columns(x, y, compare_bulk(x, y) < 0)

        n = x.n
        iterations = np.zeros(n, dtype=np.int64)
        early = np.zeros(n, dtype=bool)
        divergence = DivergenceStats(n_lanes=n)
        result = BulkResult(
            gcds=[0] * n,
            iterations=iterations,
            loop_trips=0,
            early_terminated=early,
            divergence=divergence,
        )

        step = {
            "approx": self._step_approx,
            "fast_binary": self._step_fast_binary,
            "binary": self._step_binary,
        }[self.algorithm]

        orig = np.arange(n)  # original index of each live column
        with telemetry.timer.span("kernel") if telemetry else nullcontext():
            orig = self._lockstep_loop(
                x, y, step=step, orig=orig, stop_bits=stop_bits,
                compact=compact, record_masks=record_masks, result=result,
            )

        for lane in range(orig.size):
            oj = int(orig[lane])
            result.gcds[oj] = 1 if early[oj] else x.column(lane)
        result.early_terminated = early
        if telemetry is not None:
            reg = telemetry.registry
            reg.counter("kernel.runs").inc()
            reg.counter("kernel.lanes").inc(n)
            reg.counter("kernel.loop_trips").inc(result.loop_trips)
            reg.counter("kernel.scalar_steps").inc(result.scalar_steps)
            reg.counter("kernel.beta_nonzero").inc(result.beta_nonzero)
            reg.counter("kernel.early_terminated").inc(int(early.sum()))
            reg.histogram("kernel.batch_pairs").observe(n)
            if result.loop_trips:
                reg.histogram("kernel.trips_per_batch").observe(result.loop_trips)
        return result

    def _lockstep_loop(
        self,
        x: BulkOperands,
        y: BulkOperands,
        *,
        step,
        orig: np.ndarray,
        stop_bits: int | None,
        compact: bool,
        record_masks: bool,
        result: BulkResult,
    ) -> np.ndarray:
        """The warp-wide do-while loop, split out so a telemetry span can
        time exactly the lock-step portion of :meth:`run_pairs`.

        Returns the final live-column → original-index map (compaction
        shrinks it; the caller reads surviving columns through it)."""
        early = result.early_terminated
        iterations = result.iterations
        divergence = result.divergence
        while True:
            active = y.lengths > 0
            if stop_bits is not None:
                stopped = active & (y.bit_lengths() < stop_bits)
                early[orig[stopped]] = True
                active &= ~stopped
            if not active.any():
                break
            if compact and active.sum() * 2 < active.size:
                # retire finished lanes: record their results, drop columns
                for lane in np.where(~active)[0]:
                    oj = int(orig[lane])
                    result.gcds[oj] = 1 if early[oj] else x.column(int(lane))
                keep = active
                x.words = np.ascontiguousarray(x.words[:, keep])
                x.lengths = x.lengths[keep]
                y.words = np.ascontiguousarray(y.words[:, keep])
                y.lengths = y.lengths[keep]
                orig = orig[keep]
                active = np.ones(orig.size, dtype=bool)
            step(x, y, active, result)
            swap_mask = active & (compare_bulk(x, y) < 0)
            swap_columns(x, y, swap_mask)
            iterations[orig[active]] += 1
            result.loop_trips += 1
            divergence.record(active, keep_mask=record_masks)
        return orig

    def run_pairs_general(
        self,
        pairs: list[tuple[int, int]],
        **kwargs,
    ) -> BulkResult:
        """GCDs of arbitrary non-negative pairs (Section II's reductions).

        Per pair: ``gcd(v, 0) = v``; shared factors of two are pulled out
        (``gcd = 2^k · gcd(odd, odd)``); lone even operands are shifted odd.
        The odd cores run through :meth:`run_pairs`; the twos are restored
        on the way out.  Zero-involving pairs bypass the engine entirely.

        ``gcds`` is indexed like ``pairs``; the statistics fields
        (``iterations``, ``early_terminated``, divergence) cover only the
        odd cores that actually entered the engine, in core order.
        """
        cores: list[tuple[int, int]] = []
        twos: list[int] = []
        passthrough: dict[int, int] = {}
        core_slots: list[int] = []
        for idx, (a, b) in enumerate(pairs):
            if a < 0 or b < 0:
                raise ValueError("run_pairs_general takes non-negative operands")
            if a == 0 or b == 0:
                passthrough[idx] = a | b
                continue
            k = 0
            while ((a | b) & 1) == 0:
                a >>= 1
                b >>= 1
                k += 1
            a >>= (a & -a).bit_length() - 1
            b >>= (b & -b).bit_length() - 1
            cores.append((a, b))
            twos.append(k)
            core_slots.append(idx)
        inner = self.run_pairs(cores, **kwargs) if cores else None
        gcds = [0] * len(pairs)
        for idx, v in passthrough.items():
            gcds[idx] = v
        if inner is not None:
            for slot, g, k in zip(core_slots, inner.gcds, twos):
                gcds[slot] = g << k
        result = inner if inner is not None else BulkResult(
            gcds=[],
            iterations=np.zeros(0, dtype=np.int64),
            loop_trips=0,
            early_terminated=np.zeros(0, dtype=bool),
            divergence=DivergenceStats(n_lanes=0),
        )
        result.gcds = gcds
        return result

    # -- iteration bodies ------------------------------------------------

    @staticmethod
    def _live_words(x: BulkOperands, y: BulkOperands) -> int:
        """Highest significant word count in flight — the register-tracked
        ``l_X`` bound that lets every pass skip the dead upper words."""
        return max(int(x.lengths.max(initial=0)), int(y.lengths.max(initial=0)), 1)

    def _step_approx(
        self, x: BulkOperands, y: BulkOperands, active: np.ndarray, result: BulkResult
    ) -> None:
        alpha, beta, code = approx_bulk(x, y)
        counts = np.bincount(code[active], minlength=8)
        for c, cnt in enumerate(counts):
            if cnt:
                name = CASE_CODES[c]
                result.case_counts[name] = result.case_counts.get(name, 0) + int(cnt)
        case1 = active & (x.lengths <= 2)
        scalar = active & ~case1 & (beta > 0)
        vec = active & ~case1 & ~scalar
        if vec.any():
            # α = 0 off the vector path makes the step the identity there;
            # on it, α is forced odd (paper: Q even -> Q - 1)
            a = np.where(vec, alpha, np.uint64(0))
            a -= vec & ((a & np.uint64(1)) == 0)
            self._subtract_strip(x, y, a, vec)
        if case1.any():
            self._step_case1(x, y, case1, result)
        if scalar.any():
            self._scalar_approx_step(x, y, np.where(scalar)[0], result)

    def _subtract_strip(
        self, x: BulkOperands, y: BulkOperands, alpha: np.ndarray, moved: np.ndarray
    ) -> None:
        """``X ← rshift_to_odd(X − α·Y)`` in place; α = 0 lanes are untouched."""
        hi = self._live_words(x, y)
        xs = x.words[:hi]
        _, borrow = subtract_mul_bulk(xs, y.words[:hi], alpha, self.d, out=xs)
        if (borrow[moved] != 0).any():
            raise AssertionError("bulk sub-mul underflow on an active lane")
        _, x.lengths = rshift_strip_bulk(xs, self.d, out=xs, lengths=x.lengths)

    def _step_case1(
        self, x: BulkOperands, y: BulkOperands, mask: np.ndarray, result: BulkResult
    ) -> None:
        """Vectorised Case-1 endgame: both operands fit in two d-bit words,
        i.e. a single uint64 register — exact quotient, no approximation.

        This is how the paper's kernel would treat ≤ 64-bit residues if it
        kept the non-terminate descent (the RSA kernel early-terminates long
        before reaching here).
        """
        d = self.d
        du = np.uint64(d)
        word_mask = (np.uint64(1) << du) - np.uint64(1)
        w0x = x.words[0]
        w1x = x.words[1] if x.capacity >= 2 else np.zeros_like(w0x)
        w0y = y.words[0]
        w1y = y.words[1] if y.capacity >= 2 else np.zeros_like(w0y)
        xv = w0x | (w1x << du)
        yv = w0y | (w1y << du)
        q = xv // np.maximum(yv, np.uint64(1))
        q = np.where((q & np.uint64(1)) == 0, q - np.uint64(1), q)  # force odd
        t = xv - q * yv
        tz = trailing_zeros_u64(t).astype(np.uint64)
        t = t >> tz
        new_w0 = t & word_mask
        new_w1 = t >> du
        new_len = np.where(t == 0, 0, np.where(new_w1 == 0, 1, 2))
        x.words[0] = np.where(mask, new_w0, x.words[0])
        if x.capacity >= 2:
            x.words[1] = np.where(mask, new_w1, x.words[1])
        x.lengths = np.where(mask, new_len, x.lengths)
        result.scalar_steps += int(mask.sum())

    def _scalar_approx_step(
        self, x: BulkOperands, y: BulkOperands, lanes: np.ndarray, result: BulkResult
    ) -> None:
        """Per-lane Python step for the rare diverging branches.

        Mirrors a serialized SIMT branch: Case 1 endgames (operands fit two
        words — never reached under RSA early-termination) and β > 0 steps.
        """
        d = self.d
        for j in lanes:
            xv = x.column(int(j))
            yv = y.column(int(j))
            a, b, _case = approx(xv, yv, d)
            if b == 0:
                if a % 2 == 0:
                    a -= 1
                xv = rshift_to_odd(xv - yv * a)
                result.scalar_steps += 1
            else:
                xv = rshift_to_odd(xv - ((yv * a) << (d * b)) + yv)
                result.beta_nonzero += 1
            x.set_column(int(j), xv)

    def _step_fast_binary(
        self, x: BulkOperands, y: BulkOperands, active: np.ndarray, result: BulkResult
    ) -> None:
        self._subtract_strip(x, y, active.astype(np.uint64), active)

    def _step_binary(
        self, x: BulkOperands, y: BulkOperands, active: np.ndarray, result: BulkResult
    ) -> None:
        d = self.d
        x_even = (x.words[0] & np.uint64(1)) == 0
        y_even = (y.words[0] & np.uint64(1)) == 0
        b_halve_x = active & x_even
        b_halve_y = active & ~x_even & y_even
        b_sub = active & ~x_even & ~y_even
        # three masked branch bodies, all executed every trip (SIMT
        # serialization — the divergence cost the paper attributes to (C))
        if b_halve_x.any():
            halve_columns(x, b_halve_x)
        if b_halve_y.any():
            halve_columns(y, b_halve_y)
        if b_sub.any():
            hi = self._live_words(x, y)
            xs = x.words[:hi]
            one = b_sub.astype(np.uint64)
            _, borrow = subtract_mul_bulk(xs, y.words[:hi], one, d, out=xs)
            if (borrow[b_sub] != 0).any():
                raise AssertionError("bulk subtract underflow on an active lane")
            halve_columns(x, b_sub)
