"""Lazy imports: package exports (PEP 562) and optional scipy modules.

Each package ``__init__`` declares a single table mapping the modules
that define its public names to those names::

    __all__, __getattr__, __dir__ = lazy_exports(globals(), {
        ".netlist": ("Circuit",),
        ".transient": ("TransientOptions", "TransientResult", "run_transient"),
    })

Importing the package imports none of them.  The first access to a
name (``pkg.Circuit`` or ``from pkg import Circuit``) imports its
module and caches the value in the package namespace, so later lookups
never reach ``__getattr__``.  A process that uses a few names pays
only for the modules behind them, and a module may import a sibling
package's names without pulling in that package's every submodule.

A scipy subpackage a module needs only on some paths is a
:class:`LazyModule` global instead of an import::

    _sparse = LazyModule("scipy.sparse")
    ...
    matrix = _sparse.csr_matrix(...)   # imports scipy.sparse here

The first read of an attribute imports the module and caches the
value on the proxy, so later reads cost what a module attribute does.
"""

from __future__ import annotations

import sys
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple

__all__ = ["lazy_exports", "LazyModule"]


def lazy_exports(
    namespace: Dict[str, Any],
    exports: Mapping[str, Sequence[str]],
    submodules: Sequence[str] = (),
) -> Tuple[List[str], Callable[[str], Any], Callable[[], List[str]]]:
    """``__all__``, ``__getattr__`` and ``__dir__`` for one package.

    ``namespace`` is the package's ``globals()``; resolved names are
    cached there.  ``exports`` maps a module path relative to the
    package (``".netlist"``, ``"..errors"``) to the public names it
    defines; ``__all__`` lists them in table order.  ``submodules``
    names child modules served as attributes (``repro.circuits``) but
    left out of ``__all__``.
    """
    package = namespace["__name__"]
    origin = {name: module for module, names in exports.items() for name in names}

    def load(path: str) -> Any:
        # The import statement's own machinery, unlike
        # importlib.import_module, so ``python -X importtime`` reports
        # the module.  A dotless relative name returns the module itself.
        name = path.lstrip(".")
        return __import__(name, namespace, None, (), len(path) - len(name))

    def __getattr__(name: str) -> Any:
        if name in origin:
            value = getattr(load(origin[name]), name)
        elif name in submodules:
            value = load("." + name)
        else:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted({*namespace, *origin, *submodules})

    return list(origin), __getattr__, __dir__


class LazyModule:
    """A module imported on the first read of one of its attributes.

    Each attribute read is cached in the instance's ``__dict__``, so
    ``__getattr__`` runs once per name.  When the module cannot be
    imported (scipy missing), the read raises the ``ImportError``; the
    next read tries the import again.  Names starting with ``_`` are
    never forwarded, so introspection (``copy``, ``inspect``, pytest
    collection) imports nothing.
    """

    def __init__(self, name: str) -> None:
        self.__name = name

    def __getattr__(self, attr: str) -> Any:
        if attr.startswith("_"):
            raise AttributeError(attr)
        # The import statement's machinery, as in ``lazy_exports``, so
        # ``python -X importtime`` reports the module.
        __import__(self.__name)
        value = getattr(sys.modules[self.__name], attr)
        setattr(self, attr, value)
        return value

    def __repr__(self) -> str:
        return f"<LazyModule {self.__name!r}>"
