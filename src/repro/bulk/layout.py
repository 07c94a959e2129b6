"""Column-wise bulk operand storage (structure of arrays).

``BulkOperands`` holds ``n`` multiprecision numbers as a ``(capacity, n)``
uint64 matrix of ``d``-bit words (little-endian along axis 0) plus a length
vector — the vector analogue of :class:`repro.mp.wordint.WordInt` and the
software image of the paper's Figure 3 arrangement: row ``i`` holds word
``i`` of *every* number contiguously, so a lock-step kernel touching word
``i`` streams one contiguous row.

Unlike the scalar ``WordInt`` (which tolerates stale words above
``length``), bulk storage keeps words above the length **zero**.  The
vector kernels run every column over the full capacity; zeroed tails make
that both correct (borrow chains stay quiet past the top word) and cheap
(no per-column bounds logic).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

__all__ = ["BulkOperands"]


class BulkOperands:
    """``n`` non-negative integers in d-bit-word columns."""

    __slots__ = ("d", "capacity", "words", "lengths")

    def __init__(self, d: int, capacity: int, n: int) -> None:
        if not 2 <= d <= 32:
            raise ValueError(f"bulk word size must satisfy 2 <= d <= 32, got {d}")
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.d = d
        self.capacity = capacity
        self.words = np.zeros((capacity, n), dtype=np.uint64)
        self.lengths = np.zeros(n, dtype=np.int64)

    @property
    def n(self) -> int:
        """Number of columns (pairs in flight)."""
        return self.words.shape[1]

    @classmethod
    def from_ints(
        cls, values: Sequence[int], d: int, capacity: int | None = None
    ) -> BulkOperands:
        """Pack integers into columns; capacity defaults to the widest value.

        Each distinct value is split into words once and its column is then
        gathered wherever it repeats — a block of all pairs over ``r``
        moduli holds only ``r`` distinct values per operand.
        """
        slot: dict[int, int] = {}
        index = np.fromiter(
            (slot.setdefault(v, len(slot)) for v in values),
            dtype=np.intp,
            count=len(values),
        )
        distinct = list(slot)
        if any(v < 0 for v in distinct):
            raise ValueError("BulkOperands holds non-negative integers")
        mask = (1 << d) - 1
        need = max((max(1, -(-v.bit_length() // d)) for v in distinct), default=1)
        if capacity is None:
            capacity = need
        elif capacity < need:
            raise ValueError(f"values need {need} words, capacity={capacity}")
        packed = cls(d, capacity, len(distinct))
        for j, v in enumerate(distinct):
            i = 0
            while v:
                packed.words[i, j] = v & mask
                v >>= d
                i += 1
            packed.lengths[j] = i
        out = cls(d, capacity, len(values))
        np.take(packed.words, index, axis=1, out=out.words)
        np.take(packed.lengths, index, out=out.lengths)
        return out

    def to_ints(self) -> list[int]:
        """Unpack all columns back to Python integers."""
        out = []
        for j in range(self.n):
            v = 0
            for i in range(int(self.lengths[j]) - 1, -1, -1):
                v = (v << self.d) | int(self.words[i, j])
            out.append(v)
        return out

    def column(self, j: int) -> int:
        """The integer in column ``j``."""
        v = 0
        for i in range(int(self.lengths[j]) - 1, -1, -1):
            v = (v << self.d) | int(self.words[i, j])
        return v

    def set_column(self, j: int, value: int) -> None:
        """Overwrite column ``j`` (used by the scalar-fallback path)."""
        if value < 0:
            raise ValueError("negative value")
        mask = (1 << self.d) - 1
        i = 0
        while value:
            if i >= self.capacity:
                raise ValueError("value does not fit column capacity")
            self.words[i, j] = value & mask
            value >>= self.d
            i += 1
        self.words[i:, j] = 0
        self.lengths[j] = i

    def check(self) -> None:
        """Assert representation invariants (tests / debugging)."""
        assert self.words.dtype == np.uint64
        assert (self.words < (1 << self.d)).all(), "word out of range"
        for j in range(self.n):
            ln = int(self.lengths[j])
            assert (self.words[ln:, j] == 0).all(), f"nonzero tail in column {j}"
            if ln:
                assert self.words[ln - 1, j] != 0, f"leading zero word in column {j}"

    def bit_lengths(self) -> np.ndarray:
        """Per-column bit length (0 for zero columns)."""
        from repro.bulk.kernels import word_bit_length

        n = self.n
        top = self.words[np.maximum(self.lengths - 1, 0), np.arange(n)]
        bl = word_bit_length(top)
        return np.where(self.lengths > 0, (self.lengths - 1) * self.d + bl, 0)
