"""Lazy package exports (PEP 562): a public name is imported on first use.

A package ``__init__`` names each public name once, against the module
that defines it, spelled as in a relative ``from ... import``::

    __all__, __getattr__, __dir__ = lazy_exports(__name__, {
        "Session": ".session", "TransferSpec": ".spec",
    })

``from repro.workload import Session`` then imports
:mod:`repro.workload.session` and nothing else.  A name mapped to
``"." + name`` exports that submodule itself.
"""

import importlib
import sys


def lazy_exports(package, table):
    """``(__all__, __getattr__, __dir__)`` for ``package`` over ``table``."""

    def __getattr__(name):
        try:
            module = table[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        value = importlib.import_module(module, package)
        if module != "." + name:
            value = getattr(value, name)
        setattr(sys.modules[package], name, value)  # resolve once
        return value

    def __dir__():
        return sorted(set(vars(sys.modules[package])) | set(table))

    return list(table), __getattr__, __dir__
