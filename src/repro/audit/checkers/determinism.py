"""AUD001 — ambient nondeterminism is banned outside sanctioned modules.

Every experiment, test, and benchmark in this repo must be reproducible
from ``REPRO_BASE_SEED`` alone (byte-identical outputs per
``(seed, scenario)`` is the repo's core promise), so production code may
not reach for ambient nondeterminism:

* ``random.<anything>`` via the stdlib module (module-level functions
  share hidden global state; seeded streams must come through
  ``repro.core.rng``);
* ``time.time()`` / ``time.time_ns()`` (wall-clock reads — model time
  is explicit ``now`` parameters; ``time.monotonic()`` stays legal for
  duration measurement);
* ``datetime.now()`` / ``datetime.utcnow()`` / ``date.today()``;
* entropy taps: ``os.urandom``, ``uuid.uuid1``/``uuid.uuid4``, and the
  ``secrets`` module — legitimate inside ``crypto/`` (keys need real
  entropy at provisioning time), ambient anywhere else;
* the built-in ``hash()`` outside a ``__hash__`` method: ``str`` and
  ``bytes`` hashes are salted per process (``PYTHONHASHSEED``), so a
  value derived from one changes from run to run.

``core/rng.py`` (the seeded-stream implementation) is the one fully
sanctioned module.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.engine import Severity

from repro.audit.context import AuditContext, ModuleInfo
from repro.audit.engine import AuditFinding, Checker, register

_BANNED_TIME_ATTRS = {"time", "time_ns"}
_BANNED_DATETIME_ATTRS = {"now", "utcnow", "today"}
_BANNED_UUID_ATTRS = {"uuid1", "uuid4"}

#: Packages where the entropy taps (urandom/uuid/secrets) are the point.
_ENTROPY_SANCTIONED_PACKAGES = {"crypto"}


class _Scan:
    """Two passes over the pre-walked node list: imports first (so call
    flagging is independent of source order), then calls."""

    def __init__(self, entropy_sanctioned: bool) -> None:
        self.entropy_sanctioned = entropy_sanctioned
        self.violations: list[tuple[int, str]] = []
        self._random_names: set[str] = set()
        self._time_names: set[str] = set()
        self._os_names: set[str] = set()
        self._uuid_names: set[str] = set()
        self._secrets_names: set[str] = set()
        self._datetime_classes: set[str] = set()
        self._urandom_names: set[str] = set()
        self._uuid_fn_names: set[str] = set()
        self._hash_method_lines: set[int] = set()

    def _flag(self, node: ast.AST, what: str) -> None:
        self.violations.append((getattr(node, "lineno", 1), what))

    def scan(self, nodes: tuple[ast.AST, ...]) -> list[tuple[int, str]]:
        for node in nodes:
            if isinstance(node, ast.Import):
                self._import(node)
            elif isinstance(node, ast.ImportFrom):
                self._import_from(node)
            elif isinstance(node, ast.FunctionDef) and node.name == "__hash__":
                self._hash_method_lines.update(
                    range(node.lineno, (node.end_lineno or node.lineno) + 1))
        for node in nodes:
            if isinstance(node, ast.Call):
                self._call(node)
        self.violations.sort()
        return self.violations

    def _import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            if alias.name == "random":
                self._random_names.add(local)
            elif alias.name == "time":
                self._time_names.add(local)
            elif alias.name == "os":
                self._os_names.add(local)
            elif alias.name == "uuid":
                self._uuid_names.add(local)
            elif alias.name == "secrets":
                self._secrets_names.add(local)
                if not self.entropy_sanctioned:
                    self._flag(node, "import of secrets taps ambient entropy "
                                     "(derive keys via repro.crypto)")

    def _import_from(self, node: ast.ImportFrom) -> None:
        if node.module == "random":
            self._flag(node, "from-import of stdlib random "
                             "(use repro.core.rng streams)")
        elif node.module == "time":
            for alias in node.names:
                if alias.name in _BANNED_TIME_ATTRS:
                    self._flag(node, f"from time import {alias.name} "
                                     "(model time must be explicit)")
        elif node.module == "datetime":
            for alias in node.names:
                if alias.name in ("datetime", "date"):
                    self._datetime_classes.add(alias.asname or alias.name)
        elif node.module == "os" and not self.entropy_sanctioned:
            for alias in node.names:
                if alias.name == "urandom":
                    self._urandom_names.add(alias.asname or alias.name)
        elif node.module == "uuid" and not self.entropy_sanctioned:
            for alias in node.names:
                if alias.name in _BANNED_UUID_ATTRS:
                    self._uuid_fn_names.add(alias.asname or alias.name)
        elif node.module == "secrets" and not self.entropy_sanctioned:
            self._flag(node, "from-import of secrets taps ambient entropy "
                             "(derive keys via repro.crypto)")

    def _call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name):
            if func.id == "hash" and node.lineno not in self._hash_method_lines:
                self._flag(node, "hash() of str/bytes is salted per process "
                                 "(use a hashlib digest)")
            if func.id in self._urandom_names:
                self._flag(node, "os.urandom() taps ambient entropy "
                                 "(use repro.core.rng streams)")
            if func.id in self._uuid_fn_names:
                self._flag(node, f"uuid.{func.id}() is nondeterministic "
                                 "(derive ids from seeded streams)")
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            owner = func.value.id
            if owner in self._random_names:
                self._flag(node, f"random.{func.attr}() uses the hidden "
                                 "global stream (use repro.core.rng)")
            if owner in self._time_names and func.attr in _BANNED_TIME_ATTRS:
                self._flag(node, f"time.{func.attr}() reads the wall clock")
            if (owner in self._datetime_classes
                    and func.attr in _BANNED_DATETIME_ATTRS
                    and not node.args and not node.keywords):
                self._flag(node, f"{owner}.{func.attr}() reads the wall clock")
            if not self.entropy_sanctioned:
                if owner in self._os_names and func.attr == "urandom":
                    self._flag(node, "os.urandom() taps ambient entropy "
                                     "(use repro.core.rng streams)")
                if (owner in self._uuid_names
                        and func.attr in _BANNED_UUID_ATTRS):
                    self._flag(node, f"uuid.{func.attr}() is nondeterministic "
                                     "(derive ids from seeded streams)")
                if owner in self._secrets_names:
                    self._flag(node, f"secrets.{func.attr}() taps ambient "
                                     "entropy (derive keys via repro.crypto)")


@register
class AmbientNondeterminism(Checker):
    """The ported (and extended) AST determinism gate."""

    rule_id = "AUD001"
    title = "ambient nondeterminism in production code"
    severity = Severity.HIGH
    remediation = ("draw randomness from repro.core.rng seeded streams and "
                   "take model time as explicit parameters; entropy taps "
                   "(urandom/uuid/secrets) belong in crypto/ only")

    #: Modules exempt from the whole rule (path relative to the root).
    sanctioned = frozenset({"core/rng.py"})

    def check(self, context: AuditContext) -> Iterator[AuditFinding]:
        for module in context.modules:
            if self._is_sanctioned(module, context) :
                continue
            scan = _Scan(
                entropy_sanctioned=module.package
                in _ENTROPY_SANCTIONED_PACKAGES)
            for line, what in scan.scan(module.nodes):
                yield self.finding(module, line, what)

    def _is_sanctioned(self, module: ModuleInfo,
                       context: AuditContext) -> bool:
        relative = str(module.path.relative_to(context.root))
        return relative in self.sanctioned
