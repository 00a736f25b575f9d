"""The one re-export mechanism of every package under ``repro`` (PEP 562).

A package ``__init__`` declares its public surface as a table, ``name →
"submodule[:attr]"`` (``attr`` only where the re-export renames), and binds
the three hooks this module derives from it::

    __getattr__, __dir__, __all__ = lazy_exports(__name__, {
        "SoapEngine": "engine",
        "bxsa_decode": "bxsa:decode",
    })

Nothing is imported until a name is asked for, so ``import repro.<x>`` costs
the closure of ``<x>`` and not the whole library: a process that serves
echoes never loads ``netcdf``, the WSDL writer or OpenSSL (DESIGN.md §10,
"process floor").  The price is that a typo in a table is no longer an
``ImportError`` at package import; ``tests/test_import_budget.py`` resolves
every name of every table instead.
"""

from __future__ import annotations

import sys
from importlib import import_module


def lazy_exports(package: str, table: dict[str, str]):
    """``(__getattr__, __dir__, __all__)`` for ``package`` from its export table.

    A resolved value is cached in the package namespace, so ``__getattr__``
    runs once per name; ``from package import *`` resolves all of them.
    """
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str):
        target = table.get(name)
        if target is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        submodule, _, attr = target.partition(":")
        value = getattr(import_module(f"{package}.{submodule}"), attr or name)
        namespace[name] = value
        return value

    def __dir__():
        return sorted(namespace.keys() | table.keys())

    return __getattr__, __dir__, sorted(table)
