"""Lock-discipline rules: guarded fields are touched under their lock.

PRs 6 and 7 each shipped a race fix found by hand (unlocked
in-memory cache dict mutations, ``DiskBackend`` memo races); this
pack makes the discipline mechanical.  A class declares which lock
guards a field with a trailing annotation comment on the line that
initializes it::

    class ResultCache:
        def __init__(self):
            self._lock = threading.RLock()
            self.hits = 0        # guarded-by: _lock
            self.misses = 0      # guarded-by: _lock

:class:`GuardedFieldRule` then reports every read or write of an
annotated field outside a ``with self._lock:`` block, in any method
of the class.  Two escapes exist, both deliberate conventions:

* Methods whose name ends in ``_locked`` are assumed to be called
  with the lock already held (the repo-wide naming convention for
  lock-internal helpers, e.g. ``JobRegistry._start_locked``).
* ``__init__`` (and ``__new__``/``__post_init__``) are exempt:
  construction happens before the object is shared.

:class:`UnknownGuardRule` keeps the annotations honest — naming a
guard attribute the class never creates is itself a finding, so a
renamed lock cannot silently disable its checks.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List, Set, Tuple

from repro.analysis.engine import Finding, Rule, SourceModule

__all__ = ["GuardedFieldRule", "UnknownGuardRule", "LOCKING_RULES"]

#: ``# guarded-by: _lock`` on a field's initializing line.
_GUARDED_RE = re.compile(r"#\s*guarded-by:\s*(\w+)")

#: Methods exempt from the discipline: the object is not yet shared.
_CONSTRUCTION = frozenset({"__init__", "__new__", "__post_init__"})


def _self_attr(node: ast.AST) -> str:
    """``self.X`` -> ``"X"``, else ``""``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return ""


def _class_guards(
    module: SourceModule, cls: ast.ClassDef,
) -> Tuple[Dict[str, str], Set[str], Dict[str, int]]:
    """``(field -> guard, fields assigned in __init__, field -> line)``.

    Guard annotations are read from the raw source line of each
    ``self.X = ...`` statement in ``__init__`` (``ast`` drops
    comments, so the engine keeps the lines around).
    """
    guards: Dict[str, str] = {}
    assigned: Set[str] = set()
    lines: Dict[str, int] = {}
    for item in cls.body:
        if not (
            isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            and item.name in _CONSTRUCTION
        ):
            continue
        for node in ast.walk(item):
            targets: List[ast.AST] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            for target in targets:
                field = _self_attr(target)
                if not field:
                    continue
                assigned.add(field)
                match = _GUARDED_RE.search(module.line_comment(target.lineno))
                if match:
                    guards[field] = match.group(1)
                    lines[field] = target.lineno
    return guards, assigned, lines


def _held_by(node: ast.With, guards_values: Set[str]) -> Set[str]:
    """Guard attributes a ``with`` statement acquires."""
    held: Set[str] = set()
    for item in node.items:
        attr = _self_attr(item.context_expr)
        if attr in guards_values:
            held.add(attr)
    return held


class GuardedFieldRule(Rule):
    id = "locking.guarded-field"
    description = ("fields annotated '# guarded-by: <lock>' may only be "
                   "touched inside 'with self.<lock>:' blocks (methods "
                   "named *_locked are assumed to hold it)")
    hint = ("wrap the access in 'with self.<lock>:', move it into a "
            "*_locked helper called under the lock, or suppress with "
            "'# repro: allow[locking.guarded-field]' and a reason")

    def check(self, module: SourceModule) -> Iterator[Finding]:
        for cls in ast.walk(module.tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            guards, _, _ = _class_guards(module, cls)
            if not guards:
                continue
            guard_attrs = set(guards.values())
            for method in cls.body:
                if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if method.name in _CONSTRUCTION or method.name.endswith("_locked"):
                    continue
                yield from self._check_method(
                    module, cls, method, guards, guard_attrs
                )

    def _check_method(
        self,
        module: SourceModule,
        cls: ast.ClassDef,
        method: ast.AST,
        guards: Dict[str, str],
        guard_attrs: Set[str],
    ) -> Iterator[Finding]:
        findings: List[Finding] = []

        def visit(node: ast.AST, held: Set[str]) -> None:
            if isinstance(node, (ast.With, ast.AsyncWith)):
                held = held | _held_by(node, guard_attrs)
            else:
                field = _self_attr(node)
                if field in guards and guards[field] not in held:
                    findings.append(self.finding(
                        module, node,
                        "%s.%s touches self.%s outside 'with self.%s:' "
                        "(declared guarded-by %s)"
                        % (cls.name, method.name, field, guards[field],
                           guards[field]),
                    ))
                    return  # one finding per access expression
            for child in ast.iter_child_nodes(node):
                visit(child, held)

        for child in ast.iter_child_nodes(method):
            visit(child, set())
        # De-duplicate per line: `self.hits += 1` visits the attribute
        # as both load and store context through one source access.
        seen: Set[Tuple[int, str]] = set()
        for finding in findings:
            key = (finding.line, finding.message)
            if key not in seen:
                seen.add(key)
                yield finding


class UnknownGuardRule(Rule):
    id = "locking.unknown-guard"
    description = ("'# guarded-by: <lock>' must name a lock attribute the "
                   "class actually creates in __init__")
    hint = ("fix the guard name in the annotation (a stale name silently "
            "disables the lock-discipline check for that field)")

    def check(self, module: SourceModule) -> Iterator[Finding]:
        for cls in ast.walk(module.tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            guards, assigned, lines = _class_guards(module, cls)
            for field, guard in sorted(guards.items()):
                if guard not in assigned:
                    yield self.finding(
                        module, lines[field],
                        "%s.%s is declared guarded-by %r but the class "
                        "never assigns self.%s"
                        % (cls.name, field, guard, guard),
                    )


LOCKING_RULES = [GuardedFieldRule(), UnknownGuardRule()]
