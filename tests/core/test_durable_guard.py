"""Guard: ``repro.core.durable`` is the only code in ``src/`` that makes a file durable.

Scans every module's syntax tree for the calls a hand-rolled durable write
is made of: fsync, an atomic replace or rename, a file-handle truncate
(the in-place truncations that were fsync'd), or a directory creation
(``durable.makedirs`` fsyncs each new directory into its parent).  Any hit
outside ``core/durable.py`` means a copy of the protocol came back; route
it through the module instead.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
DURABLE = SRC / "core" / "durable.py"

#: ``os`` functions that only a durable-write primitive should call
OS_CALLS = {
    "fsync", "fdatasync", "sync", "replace", "rename", "renames", "ftruncate",
    "mkdir", "makedirs",
}

#: the lock file's pid record is rewritten in place and its directory made
#: on demand; neither needs to survive power loss
ALLOWED = {("integrity/lock.py", "os.ftruncate"), ("integrity/lock.py", ".mkdir()")}


def _offences(path: Path) -> list[tuple[int, str]]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
            continue
        attr, owner = node.func.attr, node.func.value
        if isinstance(owner, ast.Name) and owner.id == "durable":
            continue
        if isinstance(owner, ast.Name) and owner.id == "os":
            if attr in OS_CALLS:
                found.append((node.lineno, f"os.{attr}"))
        elif attr in ("rename", "truncate", "mkdir"):
            found.append((node.lineno, f".{attr}()"))
        elif attr == "replace" and len(node.args) == 1 and not node.keywords:
            # Path.replace(target); str.replace(old, new) takes two arguments
            found.append((node.lineno, ".replace()"))
    return sorted(found)


def test_no_hand_rolled_durable_writes_outside_core_durable():
    offences = []
    for path in sorted(SRC.rglob("*.py")):
        if path == DURABLE:
            continue
        rel = path.relative_to(SRC).as_posix()
        for lineno, call in _offences(path):
            if (rel, call) not in ALLOWED:
                offences.append(f"src/repro/{rel}:{lineno}: {call}")
    assert not offences, (
        "hand-rolled durable write outside repro.core.durable:\n  "
        + "\n  ".join(offences)
    )


def test_guard_sees_every_call_shape(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import os\n"
        "os.fsync(fd)\n"
        "os.replace(a, b)\n"
        "tmp.replace(dst)\n"
        "src.rename(dst)\n"
        "fh.truncate(0)\n"
        "spool.mkdir(parents=True, exist_ok=True)\n"
        "os.makedirs(d)\n"
        "os.mkdir(d)\n"
        "text.replace('a', 'b')\n"
        "durable.rename(a, b)\n"
        "durable.makedirs(d)\n"
    )
    assert [call for _, call in _offences(probe)] == [
        "os.fsync", "os.replace", ".replace()", ".rename()", ".truncate()",
        ".mkdir()", "os.makedirs", "os.mkdir",
    ]
