"""Tests for the length-prefixed spool blob format."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.spool import (
    MAGIC,
    BlobInfo,
    SpoolError,
    blob_sha256,
    iter_blob,
    read_blob,
    write_blob,
)


class TestRoundTrip:
    @given(values=st.lists(st.integers(min_value=0, max_value=1 << 2048), max_size=50))
    @settings(max_examples=100)
    def test_write_then_read(self, tmp_path_factory, values):
        path = tmp_path_factory.mktemp("spool") / "blob.bin"
        info = write_blob(path, values)
        assert read_blob(path) == values
        assert info.count == len(values)

    def test_lazy_write_consumes_iterator(self, tmp_path):
        path = tmp_path / "b.bin"
        info = write_blob(path, iter([1, 2, 3]))
        assert info.count == 3
        assert read_blob(path) == [1, 2, 3]

    def test_zero_encodes_as_empty_body(self, tmp_path):
        path = tmp_path / "z.bin"
        write_blob(path, [0])
        assert path.stat().st_size == len(MAGIC) + 4
        assert read_blob(path) == [0]

    def test_empty_blob(self, tmp_path):
        path = tmp_path / "e.bin"
        info = write_blob(path, [])
        assert info.count == 0
        assert read_blob(path) == []


class TestAccounting:
    @given(value=st.integers(min_value=0, max_value=1 << 512))
    @settings(max_examples=100)
    def test_record_nbytes_matches_disk(self, tmp_path_factory, value):
        path = tmp_path_factory.mktemp("spool") / "one.bin"
        info = write_blob(path, [value])
        # a 4-byte length prefix, then the value's little-endian bytes
        assert info.nbytes == len(MAGIC) + 4 + (value.bit_length() + 7) // 8
        assert path.stat().st_size == info.nbytes

    def test_info_hash_matches_file(self, tmp_path):
        path = tmp_path / "h.bin"
        info = write_blob(path, [7, 11])
        assert blob_sha256(path) == info.sha256
        assert isinstance(info, BlobInfo)


class TestCorruption:
    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOTSPOOL" + b"\x00" * 8)
        with pytest.raises(SpoolError, match="bad magic"):
            list(iter_blob(path))

    def test_truncated_header_rejected(self, tmp_path):
        path = tmp_path / "t.bin"
        path.write_bytes(MAGIC + b"\x01\x02")  # dangling partial length field
        with pytest.raises(SpoolError, match="truncated record header"):
            list(iter_blob(path))

    def test_truncated_body_rejected(self, tmp_path):
        path = tmp_path / "t2.bin"
        write_blob(path, [1 << 64])
        path.write_bytes(path.read_bytes()[:-2])
        with pytest.raises(SpoolError, match="truncated record body"):
            list(iter_blob(path))

    def test_negative_rejected(self, tmp_path):
        with pytest.raises(SpoolError):
            write_blob(tmp_path / "n.bin", [-1])

    def test_failed_write_leaves_no_blob(self, tmp_path):
        path = tmp_path / "crash.bin"

        def explode():
            yield 5
            raise RuntimeError("mid-write crash")

        with pytest.raises(RuntimeError):
            write_blob(path, explode())
        assert not path.exists()  # only the .tmp sibling, never the real name

    def test_bitflip_changes_hash(self, tmp_path):
        path = tmp_path / "f.bin"
        info = write_blob(path, [12345])
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF
        path.write_bytes(bytes(data))
        assert blob_sha256(path) != info.sha256
