"""Lazy package re-exports (PEP 562), written once for every package.

A package ``__init__`` that imports its submodules makes every import
of any module in the package pay for all of them (numpy, asyncio, the
engines). With :func:`lazy_exports` a package names where each public
attribute lives, and that submodule is imported on the first access::

    __getattr__, __dir__, __all__ = lazy_exports(__name__, {
        "repro.sim.cache": ("ResultCache",),
        "repro.sim.sweep": ("ExperimentRunner", "SweepProgress"),
    })

A resolved attribute is stored on the package, so later lookups are
plain attribute reads.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]], List[str]]:
    """``(__getattr__, __dir__, __all__)`` for ``package``.

    ``exports`` maps a module name to the attributes the package
    re-exports from it.
    """
    home: Dict[str, str] = {
        name: module for module, names in exports.items() for name in names
    }

    def __getattr__(name: str) -> Any:
        module = home.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(home))

    return __getattr__, __dir__, sorted(home)
