"""Lazy package surfaces: a re-exported name is imported on first use.

Every package ``__init__`` that re-exports names from its modules does
it through :func:`lazy_surface` (PEP 562) rather than through eager
``from ... import`` statements, so importing one module of a plane
(``repro.cache.store``, say) does not import every other plane as a
side effect::

    __getattr__, __dir__ = lazy_surface(__name__, {
        ".delivery": ("Liveness", "RoundLedger"),
        "repro.explore.space": ("PlanSpace",),
    })

The first ``getattr`` of a name imports its defining module and stores
the value as an ordinary module global, so later lookups never come
back here.  ``from package import *`` resolves every name of
``__all__`` the same way.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Mapping, Sequence, Tuple


def lazy_surface(
    package: str, exports: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` for ``package``, given module → names.

    A module name ``.x`` stands for ``package.x``.  A name that is also
    the name of its defining submodule (``coterie`` in
    ``repro.histories.coterie``) is resolved at once: importing that
    submodule later would otherwise bind the module over the name.
    """
    namespace = vars(sys.modules[package])
    where: Dict[str, str] = {
        name: package + module if module.startswith(".") else module
        for module, names in exports.items()
        for name in names
    }

    def __getattr__(name: str) -> object:
        module = where.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(where))

    for name, module in where.items():
        if module == f"{package}.{name}":
            __getattr__(name)
    return __getattr__, __dir__
