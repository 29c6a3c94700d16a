"""Lazy package re-exports (PEP 562): a package loads a member when it is first read.

Every package ``__init__`` of ``repro`` declares its re-exports in one table
and hands it to :func:`lazy_exports` instead of importing its modules up
front, so ``import repro`` (or ``import repro.kripke.structure``) loads only
what it names::

    __getattr__, __dir__ = lazy_exports(
        __name__,
        {
            "KripkeStructure": "structure",  # from .structure import KripkeStructure
            "check_ctl": "ctl:check",        # from .ctl import check as check_ctl
            "experiments": None,             # from . import experiments
        },
    )

A target is a module path relative to the package, optionally followed by
``:attribute`` when the exported name differs from the module's own;
``None`` exports the submodule named by the key.  ``repro-lint`` rule R006
reads the same table: a name in ``__all__`` is bound when the table maps
it, and each target module and attribute must exist.

This module imports nothing from ``repro``, so any package (``repro.obs``
included) can use it without an import cycle.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, table: Dict[str, Optional[str]]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """The module-level ``__getattr__`` and ``__dir__`` serving ``table`` for ``package``."""

    def __getattr__(name: str) -> Any:
        try:
            target = table[name]
        except KeyError:
            raise AttributeError("module %r has no attribute %r" % (package, name)) from None
        if target is None:
            value = importlib.import_module("%s.%s" % (package, name))
        else:
            module, _, attribute = target.partition(":")
            value = getattr(importlib.import_module("%s.%s" % (package, module)), attribute or name)
        # Bind it, so the next read is a plain module-attribute lookup.
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(table))

    return __getattr__, __dir__
