"""Determinism rules: simulation code owns no clock and no dice.

Bit-reproducibility is the repo's core contract — the golden
fixtures and the content-addressed cache both depend on a job
``(kind, tool, platform, params, seed, noise)`` always producing the
same sample.  That only holds if the simulation-adjacent trees
(``sim``, ``net``, ``tools``, ``apps``) draw every random number from
a named :class:`~repro.sim.rng.RandomStreams` stream and read time
only from ``Environment.now``:

* :class:`WallClockRule` — no ``time.time()`` / ``time.monotonic()``
  / ``datetime.now()`` and friends inside the scoped trees (host
  wall-clock leaking into simulated timestamps is the classic
  irreproducibility bug).
* :class:`EntropyRule` — no ``random.*`` / ``numpy.random.*`` /
  ``os.urandom`` / ``uuid`` / ``secrets`` calls there either; seeded
  draws come from ``RandomStreams`` streams.
* :class:`StreamNameRule` — stream names handed to
  ``RandomStreams.stream(...)`` must be static strings drawn from the
  documented registry (:data:`repro.sim.rng.STREAM_NAMES`), so adding
  a consumer is a deliberate, reviewed act that cannot silently
  perturb existing streams.
* :class:`KeyOrderingRule` — cache-key construction (any function
  named like a key/hash builder, anywhere in the tree) must not
  depend on dict iteration order: ``json.dumps`` needs
  ``sort_keys=True`` and ``.items()``/``.keys()``/``.values()``
  iteration needs a ``sorted(...)`` wrapper.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.engine import Finding, Rule, SourceModule

__all__ = [
    "SCOPED_DIRS",
    "WallClockRule",
    "EntropyRule",
    "StreamNameRule",
    "KeyOrderingRule",
    "DETERMINISM_RULES",
]

#: Directory names whose files must be deterministic.  Matched against
#: path components, so the rules fire identically on the real
#: ``src/repro/sim/...`` tree and on test fixture trees that mirror
#: the layout.
SCOPED_DIRS = frozenset({"sim", "net", "tools", "apps"})

#: Wall-clock and sleep entry points (dotted names after alias
#: resolution).  ``datetime.datetime.now`` covers ``datetime.now(tz)``
#: too — any host-clock read is banned, zone-aware or not.
_WALL_CLOCK = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "time.process_time_ns", "time.sleep",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})

#: Entropy entry points: exact dotted names and banned prefixes.
_ENTROPY_EXACT = frozenset({"os.urandom", "uuid.uuid1", "uuid.uuid4"})
_ENTROPY_PREFIXES = ("random.", "numpy.random.", "secrets.")

#: The RandomStreams factory methods whose first argument is a stream
#: name.
_STREAM_METHODS = frozenset({"stream", "numpy_stream", "fresh_numpy_stream"})


def in_scope(module: SourceModule) -> bool:
    """Whether the module lives in a determinism-scoped tree."""
    parts = module.path.replace("\\", "/").split("/")
    return any(part in SCOPED_DIRS for part in parts[:-1])


def _import_aliases(tree: ast.Module) -> Dict[str, str]:
    """alias -> canonical dotted prefix, for every import in the file.

    ``import numpy as np`` maps ``np`` to ``numpy``; ``from time
    import monotonic as clock`` maps ``clock`` to ``time.monotonic``.
    Collected over the whole tree (function-local imports included) —
    one namespace is an over-approximation, which for a *banned-call*
    rule errs on the side of flagging.
    """
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for name in node.names:
                aliases[name.asname or name.name.split(".")[0]] = (
                    name.name if name.asname else name.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for name in node.names:
                if name.name == "*":
                    continue
                aliases[name.asname or name.name] = (
                    "%s.%s" % (node.module, name.name)
                )
    return aliases


def dotted_name(node: ast.AST, aliases: Dict[str, str]) -> Optional[str]:
    """The canonical dotted name a call target resolves to, if static."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    root = aliases.get(node.id, node.id)
    parts.append(root)
    return ".".join(reversed(parts))


class WallClockRule(Rule):
    id = "determinism.wall-clock"
    description = ("simulation trees (%s) must read time from "
                   "Environment.now, never the host clock"
                   % "|".join(sorted(SCOPED_DIRS)))
    hint = ("use Environment.now for simulated time; if this is genuinely "
            "host-side instrumentation, move it out of the simulation tree "
            "or add '# repro: allow[determinism.wall-clock]' with a reason")

    def check(self, module: SourceModule) -> Iterator[Finding]:
        if not in_scope(module):
            return
        aliases = _import_aliases(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func, aliases)
            if name in _WALL_CLOCK:
                yield self.finding(
                    module, node,
                    "%s() is host wall-clock inside a deterministic tree"
                    % name,
                )


class EntropyRule(Rule):
    id = "determinism.entropy"
    description = ("simulation trees (%s) must draw randomness from named "
                   "RandomStreams streams, never ambient entropy"
                   % "|".join(sorted(SCOPED_DIRS)))
    hint = ("draw from RandomStreams.stream(name)/numpy_stream(name) with "
            "a name registered in repro.sim.rng.STREAM_NAMES")

    def check(self, module: SourceModule) -> Iterator[Finding]:
        if not in_scope(module):
            return
        aliases = _import_aliases(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func, aliases)
            if name is None:
                continue
            if name in _ENTROPY_EXACT or name.startswith(_ENTROPY_PREFIXES):
                yield self.finding(
                    module, node,
                    "%s() is ambient entropy inside a deterministic tree"
                    % name,
                )


def _static_prefix(node: ast.AST) -> Tuple[Optional[str], bool]:
    """``(prefix, exact)`` of a stream-name expression, if static.

    A plain string constant is exact.  ``"mc.rank%d" % rank`` and
    f-strings with a literal head yield the prefix before the first
    interpolation.  Anything else returns ``(None, False)``.
    """
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value, True
    if (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Mod)
        and isinstance(node.left, ast.Constant)
        and isinstance(node.left.value, str)
    ):
        return node.left.value.split("%", 1)[0], False
    if isinstance(node, ast.JoinedStr) and node.values:
        head = node.values[0]
        if isinstance(head, ast.Constant) and isinstance(head.value, str):
            return head.value, False
    return None, False


class StreamNameRule(Rule):
    id = "determinism.stream-name"
    description = ("RandomStreams stream names must be static strings from "
                   "the documented registry in repro.sim.rng.STREAM_NAMES")
    hint = ("register the stream (name, or 'prefix*' for per-rank "
            "families) in repro.sim.rng.STREAM_NAMES with a one-line "
            "description of its consumer")

    def _registry(self) -> Tuple[Set[str], Tuple[str, ...]]:
        from repro.sim.rng import STREAM_NAMES

        exact = {name for name in STREAM_NAMES if not name.endswith("*")}
        patterns = tuple(
            name[:-1] for name in STREAM_NAMES if name.endswith("*")
        )
        return exact, patterns

    def check(self, module: SourceModule) -> Iterator[Finding]:
        if not in_scope(module):
            return
        exact, patterns = self._registry()
        for node in ast.walk(module.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _STREAM_METHODS
            ):
                continue
            name_arg: Optional[ast.AST] = None
            if node.args:
                name_arg = node.args[0]
            else:
                for keyword in node.keywords:
                    if keyword.arg == "name":
                        name_arg = keyword.value
            if name_arg is None:
                continue
            prefix, is_exact = _static_prefix(name_arg)
            if prefix is None:
                yield self.finding(
                    module, node,
                    "stream name passed to %s() is not a static string — "
                    "reviewers cannot tell which stream this draws from"
                    % node.func.attr,
                )
                continue
            if is_exact:
                known = prefix in exact or any(
                    prefix.startswith(pattern) for pattern in patterns
                )
            else:
                known = any(prefix.startswith(pattern) for pattern in patterns)
            if not known:
                yield self.finding(
                    module, node,
                    "stream name %r is not in the STREAM_NAMES registry "
                    "(repro.sim.rng)" % (
                        prefix if is_exact else prefix + "<dynamic>"),
                )


class KeyOrderingRule(Rule):
    id = "determinism.key-ordering"
    description = ("key/hash-building functions must not depend on dict "
                   "iteration order (sort_keys=True, sorted(...) wrappers)")
    hint = ("pass sort_keys=True to json.dumps, or wrap dict iteration in "
            "sorted(...) — cache keys and content hashes must be "
            "insertion-order independent")

    _VIEW_METHODS = frozenset({"items", "keys", "values"})

    def _key_functions(self, module: SourceModule) -> Iterator[ast.AST]:
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                lowered = node.name.lower()
                if "key" in lowered or "hash" in lowered:
                    yield node

    def check(self, module: SourceModule) -> Iterator[Finding]:
        aliases = _import_aliases(module.tree)
        for function in self._key_functions(module):
            parents: Dict[ast.AST, ast.AST] = {}
            for node in ast.walk(function):
                for child in ast.iter_child_nodes(node):
                    parents[child] = node
            for node in ast.walk(function):
                if not isinstance(node, ast.Call):
                    continue
                name = dotted_name(node.func, aliases)
                if name == "json.dumps":
                    sorts = any(
                        keyword.arg == "sort_keys"
                        and isinstance(keyword.value, ast.Constant)
                        and keyword.value.value is True
                        for keyword in node.keywords
                    )
                    if not sorts:
                        yield self.finding(
                            module, node,
                            "json.dumps without sort_keys=True in key/hash "
                            "builder %r depends on dict insertion order"
                            % function.name,
                        )
                elif (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr in self._VIEW_METHODS
                    and not node.args and not node.keywords
                ):
                    parent = parents.get(node)
                    wrapped = (
                        isinstance(parent, ast.Call)
                        and isinstance(parent.func, ast.Name)
                        and parent.func.id == "sorted"
                    )
                    if not wrapped:
                        yield self.finding(
                            module, node,
                            ".%s() iteration in key/hash builder %r is "
                            "dict-order dependent (wrap in sorted(...))"
                            % (node.func.attr, function.name),
                        )


DETERMINISM_RULES = [
    WallClockRule(),
    EntropyRule(),
    StreamNameRule(),
    KeyOrderingRule(),
]
