"""PEP 562 lazy exports: a package names its public API without importing it.

A package that re-exports names from its submodules normally imports
every one of them when it is imported itself, so ``import repro.core``
would load the bulk engine (and NumPy) even for a batch-GCD run that
never touches it.  :func:`lazy_exports` builds the module-level
``__getattr__`` and ``__dir__`` that resolve each name from its
submodule on first access and cache it in the package namespace, so
``from repro import gcd`` and ``repro.gcd`` behave as before while a
command pays only for the modules it uses.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable


def lazy_exports(
    package: str, exports: dict[str, tuple[str, ...]]
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """``(__getattr__, __dir__)`` for ``package``; ``exports`` maps each
    defining module to the public names the package takes from it.

    >>> getattr_, dir_ = lazy_exports("repro", {"repro.gcd": ("gcd",)})
    >>> getattr_("gcd")(12, 18)
    6
    >>> "gcd" in dir_()
    True
    """
    origin = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        try:
            module = origin[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(origin))

    return __getattr__, __dir__
