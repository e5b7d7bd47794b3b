"""Package exports resolved on first access (PEP 562).

A package ``__init__`` maps each public name to the submodule that
defines it, and takes its ``__all__`` from that one table::

    __getattr__, __dir__, __all__ = lazy_exports(__name__, {
        "Swarm": "swarm",
        "CohortSwarm": "scale",
    })

``import repro.p2p`` then imports no submodule.  The first
``repro.p2p.CohortSwarm`` imports ``repro.p2p.scale`` (and numpy with
it) and stores the class in the package globals, so every later
access is a plain global lookup.  ``from repro.p2p import *``,
``dir()`` and ``hasattr`` behave as with eager imports.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Any, Callable, Mapping


def lazy_exports(
    package: str, table: Mapping[str, str]
) -> tuple[Callable[[str], Any], Callable[[], list[str]], list[str]]:
    """Module ``__getattr__``, ``__dir__`` and ``__all__`` for ``package``.

    ``table`` maps each public name to the submodule defining it,
    relative to ``package`` (``"swarm"``, or ``"p2p.swarm"`` from the
    top-level package).
    """
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> Any:
        submodule = table.get(name)
        if submodule is None:
            # PEP 562: an unknown name must raise AttributeError, so
            # hasattr() and ``from package import submodule`` work.
            raise AttributeError(  # repro: lint-ok[E1] PEP 562 protocol
                f"module {package!r} has no attribute {name!r}"
            )
        value = getattr(import_module(f"{package}.{submodule}"), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *table})

    return __getattr__, __dir__, sorted(table)
