"""Unit tests for :mod:`repro.core.durable`, the one durable-write primitive."""

from __future__ import annotations

import os
import stat

import pytest

from repro.core import durable
from repro.integrity.catalog import ArtifactCatalog


@pytest.fixture
def fsynced(monkeypatch):
    """Record what every ``os.fsync`` call flushed: ``("dir"|"file", name)``."""
    calls: list[tuple[str, str]] = []
    real = os.fsync

    def spy(fd):
        kind = "dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file"
        calls.append((kind, os.path.basename(os.readlink(f"/proc/self/fd/{fd}"))))
        real(fd)

    if not os.path.isdir("/proc/self/fd"):
        pytest.skip("names fsync'd descriptors through /proc/self/fd")
    monkeypatch.setattr(os, "fsync", spy)
    return calls


def test_replace_stream_failure_keeps_old_file_and_leaves_only_orphan_residue(tmp_path):
    target = tmp_path / "manifest.json"
    durable.replace_bytes(target, b'{"old": true}\n')

    def chunks():
        yield b'{"new": '
        raise RuntimeError("producer died mid-stream")

    with pytest.raises(RuntimeError, match="mid-stream"):
        durable.replace_stream(target, chunks())
    assert target.read_bytes() == b'{"old": true}\n'
    assert {p.name for p in tmp_path.iterdir()} <= {"manifest.json", "manifest.json.tmp"}
    findings = ArtifactCatalog(tmp_path).scan().findings
    assert [(f.artifact, f.verdict) for f in findings if f.family == "residue"] == [
        ("manifest.json.tmp", "orphan")
    ]


def test_replace_fsyncs_data_before_the_directory(tmp_path, fsynced):
    durable.replace_bytes(tmp_path / "a.json", b"{}")
    assert fsynced == [("file", "a.json.tmp"), ("dir", tmp_path.name)]
    assert (tmp_path / "a.json").read_bytes() == b"{}"
    assert not (tmp_path / "a.json.tmp").exists()


def test_append_fsyncs_the_directory_only_when_it_creates_the_file(tmp_path, fsynced):
    log = tmp_path / "seen.log"
    durable.append(log, b"ab")
    assert fsynced == [("file", "seen.log"), ("dir", tmp_path.name)]
    fsynced.clear()
    durable.append(log, b"cd")
    assert fsynced == [("file", "seen.log")]
    assert log.read_bytes() == b"abcd"


def test_truncate_cuts_and_creates(tmp_path, fsynced):
    outbox = tmp_path / "outbox.txt"
    durable.truncate(outbox, 0)
    assert outbox.read_bytes() == b"" and ("dir", tmp_path.name) in fsynced
    durable.append(outbox, b"0123456789")
    fsynced.clear()
    durable.truncate(outbox, 4)
    assert outbox.read_bytes() == b"0123" and fsynced == [("file", "outbox.txt")]


def test_rename_across_directories_fsyncs_both(tmp_path, fsynced):
    (tmp_path / "q").mkdir()
    src = tmp_path / "blob.bin"
    src.write_bytes(b"x")
    durable.rename(src, tmp_path / "q" / "blob.bin")
    assert fsynced == [("dir", "q"), ("dir", tmp_path.name)]
    assert not src.exists() and (tmp_path / "q" / "blob.bin").read_bytes() == b"x"


def test_makedirs_fsyncs_each_new_directory_into_its_parent(tmp_path, fsynced):
    (tmp_path / "state").mkdir()
    durable.makedirs(tmp_path / "state" / "spool" / "ptree")
    # top-down: each new entry is durable before its child is created
    assert fsynced == [("dir", "state"), ("dir", "spool")]
    assert (tmp_path / "state" / "spool" / "ptree").is_dir()
    fsynced.clear()
    durable.makedirs(tmp_path / "state" / "spool" / "ptree")
    assert fsynced == []  # every component exists: the per-commit call is free


def test_makedirs_refuses_a_file_in_the_way(tmp_path):
    (tmp_path / "state").write_bytes(b"")
    with pytest.raises(FileExistsError):
        durable.makedirs(tmp_path / "state")
