"""Package exports resolved on first use.

A package whose ``__init__`` imported every public name would load its
whole subtree (and numpy behind it) for any import of one of its
modules.  :func:`lazy_exports` builds the module-level ``__getattr__``
and ``__dir__`` that import a name's defining module only when the
name is first looked up.
"""

from __future__ import annotations

import importlib
from typing import Callable, Dict, List, Tuple


def lazy_exports(package: str, exports: Dict[str, str]) -> Tuple[Callable, Callable]:
    """``(__getattr__, __dir__)`` for ``package``, whose public names
    map to their defining modules in ``exports``."""
    namespace = importlib.import_module(package).__dict__

    def __getattr__(name: str):
        try:
            module = exports[name]
        except KeyError:
            raise AttributeError("module %r has no attribute %r" % (package, name)) from None
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__
