"""Lazy package exports (PEP 562), shared by every package ``__init__``.

A package names the submodule that defines each of its public names;
a name is imported on first access and then cached in the package
namespace.  So ``import repro`` or ``import repro.api`` loads no
subsystem, and a command pays only for the modules it actually uses.
``__all__``, ``from package import name`` and ``package.name`` behave
as with eager imports.
"""

from __future__ import annotations

import importlib
import sys


def lazy_exports(package: str, table: dict) -> tuple:
    """PEP 562 hooks for ``package``: ``(__getattr__, __dir__, __all__)``.

    ``table`` maps each submodule, relative to the package (``".specs"``),
    to the public names it defines; ``__all__`` lists them in table order.
    """
    origin = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str):
        try:
            module = origin[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(module, package), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list:
        return sorted(set(vars(sys.modules[package])) | origin.keys())

    return __getattr__, __dir__, list(origin)
