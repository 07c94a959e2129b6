"""Tests for weak-key corpus generation and serialisation."""

import math
from itertools import combinations

import pytest

from repro.rsa.corpus import (
    WeakCorpus,
    generate_weak_corpus,
    stream_moduli,
    write_moduli_text,
)

BITS = 64  # small keys keep corpus tests fast


class TestGeneration:
    def test_basic_shape(self):
        c = generate_weak_corpus(10, BITS, shared_groups=(2,), seed=1)
        assert c.n_keys == 10
        assert c.total_pairs == 45
        assert len(c.weak_pairs) == 1
        assert all(k.bits == BITS for k in c.keys)

    def test_planted_pair_shares_prime(self):
        c = generate_weak_corpus(10, BITS, shared_groups=(2,), seed=2)
        w = c.weak_pairs[0]
        g = math.gcd(c.keys[w.i].n, c.keys[w.j].n)
        assert g == w.prime
        assert g.bit_length() == BITS // 2

    def test_group_of_three_gives_three_pairs(self):
        c = generate_weak_corpus(12, BITS, shared_groups=(3,), seed=3)
        assert len(c.weak_pairs) == 3
        primes = {w.prime for w in c.weak_pairs}
        assert len(primes) == 1  # same shared prime across the triple

    def test_multiple_groups(self):
        c = generate_weak_corpus(15, BITS, shared_groups=(2, 2, 3), seed=4)
        assert len(c.weak_pairs) == 1 + 1 + 3
        assert len({w.prime for w in c.weak_pairs}) == 3

    def test_non_planted_pairs_are_coprime(self):
        c = generate_weak_corpus(12, BITS, shared_groups=(2, 3), seed=5)
        weak = c.weak_pair_set()
        for i, j in combinations(range(c.n_keys), 2):
            g = math.gcd(c.keys[i].n, c.keys[j].n)
            if (i, j) in weak:
                assert g > 1
            else:
                assert g == 1

    def test_deterministic_by_seed(self):
        a = generate_weak_corpus(8, BITS, shared_groups=(2,), seed=42)
        b = generate_weak_corpus(8, BITS, shared_groups=(2,), seed=42)
        assert a.moduli == b.moduli
        assert a.weak_pairs == b.weak_pairs

    def test_different_seeds_differ(self):
        a = generate_weak_corpus(8, BITS, shared_groups=(2,), seed=1)
        b = generate_weak_corpus(8, BITS, shared_groups=(2,), seed=2)
        assert a.moduli != b.moduli

    def test_all_keys_private_and_valid(self):
        c = generate_weak_corpus(6, BITS, shared_groups=(2,), seed=6)
        for k in c.keys:
            assert k.is_private
            k.validate()

    def test_no_weak_pairs_possible(self):
        c = generate_weak_corpus(6, BITS, shared_groups=(), seed=7)
        assert c.weak_pairs == []
        for i, j in combinations(range(6), 2):
            assert math.gcd(c.keys[i].n, c.keys[j].n) == 1


class TestValidation:
    def test_too_few_keys(self):
        with pytest.raises(ValueError):
            generate_weak_corpus(1, BITS)

    def test_groups_exceed_keys(self):
        with pytest.raises(ValueError):
            generate_weak_corpus(3, BITS, shared_groups=(2, 2))

    def test_singleton_group_rejected(self):
        with pytest.raises(ValueError):
            generate_weak_corpus(5, BITS, shared_groups=(1,))

    def test_odd_bits_rejected(self):
        with pytest.raises(ValueError):
            generate_weak_corpus(4, 63)


class TestSerialisation:
    def test_roundtrip(self):
        c = generate_weak_corpus(8, BITS, shared_groups=(2, 2), seed=8)
        back = WeakCorpus.from_json(c.to_json())
        assert back.bits == c.bits
        assert back.moduli == c.moduli
        assert back.weak_pairs == c.weak_pairs
        assert all(k.is_private for k in back.keys)

    def test_public_only_roundtrip(self):
        c = generate_weak_corpus(4, BITS, shared_groups=(2,), seed=9)
        c.keys = [k.public() for k in c.keys]
        back = WeakCorpus.from_json(c.to_json())
        assert back.moduli == c.moduli
        assert all(not k.is_private for k in back.keys)


class TestStreaming:
    @pytest.fixture(scope="class")
    def corpus(self):
        return generate_weak_corpus(6, BITS, shared_groups=(2,), seed=11)

    def test_text_round_trip(self, corpus, tmp_path):
        path = tmp_path / "m.txt"
        assert write_moduli_text(path, corpus.moduli) == 6
        stream = stream_moduli(path)
        assert list(stream) == corpus.moduli
        assert list(stream) == corpus.moduli  # restartable
        assert stream.source == str(path)

    def test_text_hex_comments_blanks(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("# header\n33\n\n0x23  # 35\n55\n")
        assert list(stream_moduli(path, format="text")) == [33, 35, 55]

    def test_text_garbage_names_line(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("33\nnope\n")
        with pytest.raises(ValueError, match="m.txt:2"):
            list(stream_moduli(path))

    def test_corpus_json_auto_sniffed(self, corpus, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(corpus.to_json())
        assert list(stream_moduli(path)) == corpus.moduli

    def test_pem_bundle_auto_sniffed(self, corpus, tmp_path):
        from repro.rsa.pem import public_key_to_pem

        path = tmp_path / "keys.pem"
        path.write_text("".join(public_key_to_pem(k) for k in corpus.keys))
        assert list(stream_moduli(path)) == corpus.moduli

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("33\n")
        with pytest.raises(ValueError, match="unknown modulus source format"):
            stream_moduli(path, format="csv")


class TestHexlines:
    """The ``hexlines`` format is the ingest outbox spool: bare hex, one
    modulus per line, appendable."""

    def test_round_trip(self, tmp_path):
        path = tmp_path / "outbox.txt"
        path.write_text("21\nff\n10001\n")
        assert list(stream_moduli(path, format="hexlines")) == [0x21, 0xFF, 0x10001]

    def test_blank_lines_tolerated(self, tmp_path):
        path = tmp_path / "outbox.txt"
        path.write_text("21\n\nff\n")
        assert list(stream_moduli(path, format="hexlines")) == [0x21, 0xFF]

    def test_bad_hex_names_line(self, tmp_path):
        path = tmp_path / "outbox.txt"
        path.write_text("21\nzz\n")
        with pytest.raises(ValueError, match="outbox.txt:2"):
            list(stream_moduli(path, format="hexlines"))

    def test_auto_never_guesses_hexlines(self, tmp_path):
        # "ff" is valid hex but not a decimal-text modulus: auto-sniffing
        # must not silently reinterpret it
        path = tmp_path / "m.txt"
        path.write_text("ff\n")
        with pytest.raises(ValueError):
            list(stream_moduli(path))


class TestAppendMode:
    def test_append_accumulates(self, tmp_path):
        path = tmp_path / "m.txt"
        assert write_moduli_text(path, [3, 5]) == 2
        assert write_moduli_text(path, [7], mode="a") == 1
        assert list(stream_moduli(path)) == [3, 5, 7]

    def test_append_to_missing_file_creates_it(self, tmp_path):
        path = tmp_path / "fresh.txt"
        assert write_moduli_text(path, [11], mode="a") == 1
        assert list(stream_moduli(path)) == [11]

    def test_invalid_mode_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="mode"):
            write_moduli_text(tmp_path / "m.txt", [3], mode="x")
