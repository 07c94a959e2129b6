#!/usr/bin/env python3
"""Streamed weak-key monitoring: keys arrive in batches, hits surface live.

Simulates a web-crawl pipeline: every "day" a batch of freshly collected
public keys arrives.  The incremental scanner checks each arrival against
everything seen so far (new×old + new×new pairs only — never rescanning),
so a key that shares a prime with one collected weeks earlier is flagged
the moment it shows up.

Run:  python examples/streaming_scan.py
"""

from repro.core.incremental import IncrementalScanner
from repro.rsa.corpus import generate_weak_corpus


def main() -> None:
    bits = 128
    n_keys, batch_size = 90, 15
    corpus = generate_weak_corpus(
        n_keys, bits, shared_groups=(2, 2, 3), seed="stream-demo"
    )
    expected = corpus.weak_pair_set()
    print(f"{n_keys} keys arriving in batches of {batch_size}; "
          f"{len(expected)} weak pairs hidden among them\n")

    scanner = IncrementalScanner(bits=bits)
    found: set[tuple[int, int]] = set()
    for day, start in enumerate(range(0, n_keys, batch_size), start=1):
        batch = corpus.moduli[start : start + batch_size]
        report = scanner.add_batch(batch)
        found |= report.hit_pairs
        line = (f"day {day}: +{report.new_keys} keys "
                f"({report.total_keys} total), "
                f"{report.pairs_tested} new pairs in {report.elapsed_seconds * 1e3:.0f} ms")
        if report.hits:
            hits = ", ".join(f"({h.i},{h.j})" for h in report.hits)
            line += f"  ->  WEAK: {hits}"
        print(line)

    assert found == expected, (found, expected)
    assert scanner.coverage_is_complete()
    print(f"\nall {len(expected)} planted pairs surfaced as their second member "
          f"arrived; total pairs scanned: {scanner.total_pairs_tested} "
          f"(= C({n_keys},2) = {n_keys * (n_keys - 1) // 2})")


if __name__ == "__main__":
    main()
