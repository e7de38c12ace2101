"""Lazy package surfaces (PEP 562): a package lists what it exports and
where each name is defined; nothing is imported until a name is used.

A package ``__init__`` keeps its ``__all__`` and replaces its
``from .sub import a, b`` block with::

    __getattr__, __dir__ = lazy_exports(globals(), {".sub": ("a", "b")})

Contract:

* the first ``pkg.a`` (or ``from pkg import a``, or ``from pkg import *``)
  imports the defining submodule and **caches the object in the
  package's globals**, so every later access is a plain attribute hit that
  never reaches ``__getattr__``;
* the object is the one the submodule holds — ``__module__``, pickles and
  identity are untouched;
* an unknown name raises the standard ``AttributeError``;
* ``dir(pkg)`` lists every export, resolved or not;
* concurrent first accesses are safe: the import system's per-module lock
  runs the submodule once and the cache write is idempotent.

An export that is the submodule *itself* (``import repro; repro.api``) is
spelled ``{".api": None}``.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any, Callable, Mapping, Optional, Sequence


def lazy_exports(
    module_globals: dict,
    exports: Mapping[str, Optional[Sequence[str]]],
) -> tuple[Callable[[str], Any], Callable[[], list]]:
    """``(__getattr__, __dir__)`` for the module owning ``module_globals``.

    ``exports`` maps a submodule (``".sub"`` relative to the package, or an
    absolute ``"repro.x.y"``) to the names it defines, or to ``None`` when
    the export is the submodule itself under its own last name.
    """
    module_name = module_globals["__name__"]
    package = module_globals["__package__"]
    where: dict[str, tuple[str, bool]] = {}
    for submodule, names in exports.items():
        if names is None:
            where[submodule.rpartition(".")[2]] = (submodule, True)
        else:
            for name in names:
                where[name] = (submodule, False)

    def __getattr__(name: str) -> Any:
        target = where.get(name)
        if target is None:
            raise AttributeError(
                f"module {module_name!r} has no attribute {name!r}"
            )
        submodule, is_module = target
        module = import_module(submodule, package)
        value = module if is_module else getattr(module, name)
        module_globals[name] = value
        return value

    def __dir__() -> list:
        return sorted(
            set(module_globals) | set(where) | set(module_globals.get("__all__", ()))
        )

    return __getattr__, __dir__
