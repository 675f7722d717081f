"""Lazy package exports (PEP 562), the one idiom every package uses.

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
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple

__all__ = ["lazy_exports"]


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
