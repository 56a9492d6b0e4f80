"""Lazy package exports (PEP 562).

A package ``__init__`` that imports every submodule makes whoever needs
one of its names compile all of them.  :func:`lazy_exports` gives a
package a module-level ``__getattr__`` and ``__dir__`` instead: a public
name's module is imported on first access, and the value is cached in the
package's globals, so later lookups are plain attribute reads.
"""

from __future__ import annotations

import sys
from typing import Any, Callable, Dict, Iterable, List, Mapping, Tuple


def lazy_exports(
    package: str, modules: Mapping[str, Iterable[str]]
) -> Tuple[Dict[str, str], Callable[[str], Any], Callable[[], List[str]]]:
    """``(exports, __getattr__, __dir__)`` for ``package``.

    ``modules`` lists the public names each module defines; a module is
    absolute or relative to ``package`` (``".harness"``).  ``exports``
    is the inverse map, public name -> absolute module name, in the same
    order.  The import goes through ``__import__``, as an import
    statement does, so ``python -X importtime`` reports it.
    """
    exports = {
        name: package + mod if mod.startswith(".") else mod
        for mod, names in modules.items()
        for name in names
    }
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> Any:
        try:
            module = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(__import__(module, fromlist=(name,)), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(exports))

    return exports, __getattr__, __dir__
