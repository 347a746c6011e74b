"""Lazy re-exports for the package ``__init__``s (PEP 562).

A package lists what it re-exports as ``{module: names}``; each name is
imported from its module on first access and then kept in the package's
namespace, so ``import repro.olap.missing`` loads what that module
imports and nothing a sibling would.  ``__all__``, ``dir()`` and ``from
package import *`` see every name; the ``if TYPE_CHECKING:`` imports each
package keeps beside its table are what a type checker reads.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Mapping, Sequence

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> "tuple[Callable[[str], Any], Callable[[], list[str]]]":
    """The ``__getattr__`` and ``__dir__`` of ``package``, which
    re-exports ``exports[module]`` from each ``module``."""
    namespace = sys.modules[package].__dict__
    home = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        module = home.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(importlib.import_module(module), name)
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *home})

    return __getattr__, __dir__
