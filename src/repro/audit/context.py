"""Shared parse context: every module under ``src/repro``, parsed once.

The audit engine's contract with its checkers is *one* AST walk worth of
cost per rule over a tree that was parsed exactly once.  The context
parses every ``*.py`` file under the audited root up front and hands
checkers a stable, sorted tuple of :class:`ModuleInfo` records — path,
package, AST, raw source — plus the inline ``# audit: allow`` pragma
table used for in-source suppressions.

Inline suppression syntax (mirrors ``# noqa`` but names the rule and
requires a justification)::

    except Exception:  # audit: allow AUD005 generic guard, re-raised below

A pragma on the offending line (or on the line directly above, for
lines that are already long) suppresses matching findings; suppressed
findings still appear in the report's ``suppressed`` section so the
audit cannot silently lose sight of them.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

__all__ = ["ModuleInfo", "AuditContext", "default_root"]

#: ``# audit: allow AUD005 <why>`` — the why is mandatory.
_ALLOW_RE = re.compile(r"#\s*audit:\s*allow\s+(AUD\d{3})\s+(\S.*)$")


def default_root() -> Path:
    """The shipped tree this repo audits: ``src/repro`` next to this file."""
    return Path(__file__).resolve().parents[1]


@dataclass(frozen=True)
class ModuleInfo:
    """One parsed source module."""

    path: Path
    #: Path relative to the directory *containing* the audited root,
    #: e.g. ``repro/ivn/bus.py`` — matches the old determinism gate's
    #: violation format.
    relpath: str
    #: First package directory under the root (``ivn``, ``lint``, ...);
    #: empty string for top-level modules like ``repro/__main__.py``.
    package: str
    tree: ast.Module
    source: str
    #: line number -> rule ids allowed on that line by an inline pragma.
    allows: dict[int, frozenset[str]] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.path.stem

    @cached_property
    def nodes(self) -> tuple[ast.AST, ...]:
        """Every AST node, pre-walked once and shared by all checkers —
        re-walking 150 module trees per rule is what makes naive
        multi-pass linters slow."""
        return tuple(ast.walk(self.tree))

    def allowed_on(self, line: int) -> frozenset[str]:
        """Rule ids suppressed at ``line`` (same line or the line above)."""
        return self.allows.get(line, frozenset()) | self.allows.get(
            line - 1, frozenset())


def _scan_allows(source: str) -> dict[int, frozenset[str]]:
    allows: dict[int, frozenset[str]] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _ALLOW_RE.search(text)
        if match is not None:
            allows[lineno] = allows.get(lineno, frozenset()) | {match.group(1)}
    return allows


def _parse_module(root: Path, path: Path) -> ModuleInfo:
    source = path.read_text()
    relative = path.relative_to(root)
    package = relative.parts[0] if len(relative.parts) > 1 else ""
    return ModuleInfo(
        path=path,
        relpath=str(Path(root.name) / relative),
        package=package,
        tree=ast.parse(source, filename=str(path)),
        source=source,
        allows=_scan_allows(source),
    )


@dataclass(frozen=True)
class AuditContext:
    """All modules under one root, parsed once and shared by every checker."""

    root: Path
    modules: tuple[ModuleInfo, ...]

    @classmethod
    def parse(cls, root: Path | None = None) -> "AuditContext":
        """Parse every ``*.py`` under ``root`` (default: the shipped tree)."""
        resolved = (default_root() if root is None else Path(root)).resolve()
        modules = tuple(
            _parse_module(resolved, path)
            for path in sorted(resolved.rglob("*.py"))
        )
        return cls(root=resolved, modules=modules)

    # -- lookups -------------------------------------------------------------

    def in_package(self, *packages: str) -> tuple[ModuleInfo, ...]:
        wanted = set(packages)
        return tuple(m for m in self.modules if m.package in wanted)

    def packages_audited(self) -> dict[str, int]:
        """Audited file count per package, sorted by package name."""
        counts: dict[str, int] = {}
        for module in self.modules:
            counts[module.package] = counts.get(module.package, 0) + 1
        return dict(sorted(counts.items()))

    def __len__(self) -> int:
        return len(self.modules)
