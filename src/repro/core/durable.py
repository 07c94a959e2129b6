"""The one place in this package that makes a file durable.

A replace writes ``<name>.tmp``, fsyncs it, renames it over ``<name>`` and
fsyncs the directory; that last step makes the new name survive power loss,
not only ``kill -9`` (Pillai et al., OSDI 2014).  A replace that raises
before its rename leaves the old file intact and at most a ``.tmp`` (an
``orphan`` to the integrity catalog).  Appends and truncations fsync the
file, and its directory too when they created the file.  A new directory
is fsynced into its parent the same way (:func:`makedirs`).
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Iterable

__all__ = ["append", "makedirs", "rename", "replace_bytes", "replace_stream", "truncate"]


def _fsync_dir(directory: Path) -> None:
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def makedirs(path: str | Path) -> None:
    """Create ``path`` and its missing parents, each fsynced into its parent.

    Costs one ``stat`` and no fsync when ``path`` already exists, so it is
    cheap enough to call before every commit.
    """
    path = Path(path)
    missing = []
    while not path.is_dir():
        missing.append(path)
        path = path.parent
    for directory in reversed(missing):
        directory.mkdir(exist_ok=True)  # FileExistsError if a file is in the way
        _fsync_dir(directory.parent)


def rename(src: str | Path, dst: str | Path) -> None:
    """Move ``src`` over ``dst`` and make both directory entries durable."""
    src, dst = Path(src), Path(dst)
    os.replace(src, dst)
    _fsync_dir(dst.parent)
    if src.parent != dst.parent:
        _fsync_dir(src.parent)


def replace_stream(path: str | Path, chunks: Iterable[bytes]) -> None:
    """Atomically replace ``path`` with the concatenated ``chunks``."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with tmp.open("wb") as fh:
        fh.writelines(chunks)
        fh.flush()
        os.fsync(fh.fileno())
    rename(tmp, path)


def replace_bytes(path: str | Path, data: bytes) -> None:
    """Atomically replace ``path`` with ``data``."""
    replace_stream(path, (data,))


def _in_place(path: Path, change) -> None:
    created = not path.exists()
    with path.open("ab") as fh:
        change(fh)
        fh.flush()
        os.fsync(fh.fileno())
    if created:
        _fsync_dir(path.parent)


def append(path: str | Path, data: bytes) -> None:
    """Append ``data`` to ``path`` (created if absent) and fsync it."""
    _in_place(Path(path), lambda fh: fh.write(data))


def truncate(path: str | Path, size: int) -> None:
    """Cut ``path`` (created empty if absent) to ``size`` bytes and fsync it."""
    _in_place(Path(path), lambda fh: fh.truncate(size))
