"""Small shared AST utilities used by the checker catalog."""

from __future__ import annotations

import ast

__all__ = ["dotted_name", "resolve_call_target", "import_aliases", "ends_in_jump"]


def dotted_name(node: ast.AST) -> str | None:
    """``np.random.default_rng`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def import_aliases(
        tree: "ast.Module | tuple[ast.AST, ...]") -> dict[str, str]:
    """Local name -> imported dotted module, for every ``import`` in the
    module (any scope).  ``from M import n [as a]`` maps ``a``/``n`` to
    ``M.n`` so attribute chains resolve uniformly.  Accepts a parsed
    module or a pre-walked node tuple (``ModuleInfo.nodes``).
    """
    aliases: dict[str, str] = {}
    nodes = ast.walk(tree) if isinstance(tree, ast.Module) else tree
    for node in nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                aliases[local] = target
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                if alias.name == "*":
                    continue
                aliases[alias.asname or alias.name] = \
                    f"{node.module}.{alias.name}"
    return aliases


def resolve_call_target(func: ast.AST, aliases: dict[str, str]) -> str | None:
    """The fully-qualified dotted target of a call through the module's
    import aliases (``rng.default_rng`` -> ``numpy.random.default_rng``
    after ``from numpy import random as rng``), else the raw dotted name.
    """
    name = dotted_name(func)
    if name is None:
        return None
    head, _, rest = name.partition(".")
    if head in aliases:
        resolved = aliases[head]
        return f"{resolved}.{rest}" if rest else resolved
    return name


def ends_in_jump(body: list[ast.stmt]) -> bool:
    """Does the block unconditionally leave (return/raise/continue/break)?"""
    return bool(body) and isinstance(
        body[-1], (ast.Return, ast.Raise, ast.Continue, ast.Break))
