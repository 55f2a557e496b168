"""Content-addressed result cache for experiment sweeps.

A sweep result is reusable exactly when nothing that could change it has
changed: the bench file itself, the ``src/repro`` tree it imports, and
the base seed.  :func:`experiment_key` folds all of those into one
SHA-256 key; :class:`ResultCache` maps keys to the JSON result
documents the worker produced.  A warm re-run therefore skips every
experiment whose inputs are byte-identical and re-runs everything else —
no mtimes, no manual invalidation.

Cache layout (one file per key, atomically written)::

    <cache-dir>/
      <sha256-hex>.json

Only *passed* results are cached (failures always re-run), so a cache
hit is a proof the experiment passed against identical inputs.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Iterable

__all__ = ["CACHE_VERSION", "ResultCache", "tree_digest", "experiment_key",
           "default_cache_dir"]

#: Bumped whenever the cached document shape changes; part of every key.
CACHE_VERSION = 2


def default_cache_dir() -> Path:
    """The repo-local cache directory (``.repro-cache/runner``)."""
    from repro.experiments import benchmarks_dir

    return benchmarks_dir().parent / ".repro-cache" / "runner"


def _file_sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def tree_digest(paths: Iterable[Path]) -> str:
    """One digest over a set of files and directory trees.

    Directories contribute every ``*.py`` under them (recursively); the
    digest covers relative path *and* content, sorted, so renames and
    edits both invalidate.  Missing paths contribute a marker instead of
    raising — a deleted file is a change, not an error.
    """
    entries: list[tuple[str, str]] = []
    for path in paths:
        path = Path(path)
        if path.is_dir():
            for file in sorted(path.rglob("*.py")):
                entries.append((str(file.relative_to(path)), _file_sha(file)))
        elif path.is_file():
            entries.append((path.name, _file_sha(path)))
        else:
            entries.append((str(path), "<missing>"))
    entries.sort()
    digest = hashlib.sha256()
    for name, sha in entries:
        digest.update(f"{name}={sha}\n".encode())
    return digest.hexdigest()


def experiment_key(exp_id: str, bench_path: Path, *, tree: str,
                   base_seed: int = 0) -> str:
    """The content-addressed cache key for one experiment."""
    try:
        bench_sha = _file_sha(Path(bench_path))
    except OSError:
        bench_sha = "<missing>"
    material = "|".join([f"v{CACHE_VERSION}", exp_id, bench_sha, tree,
                         str(base_seed)])
    return hashlib.sha256(material.encode()).hexdigest()


class ResultCache:
    """On-disk key → JSON-document store with atomic writes.

    ``max_entries`` bounds the store: every :meth:`put` prunes the
    least-recently-used entries (by mtime — :meth:`get` refreshes it on
    hit, so a warm entry survives a cold one) down to the cap.  ``None``
    keeps the historical unbounded behaviour; the CLI default caps the
    shared ``.repro-cache/runner/`` so sweeps can't grow it forever.
    """

    def __init__(self, directory: str | Path | None = None, *,
                 max_entries: int | None = None) -> None:
        self.directory = Path(directory) if directory else default_cache_dir()
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be >= 1 (or None)")
        self.max_entries = max_entries

    def path_for(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def get(self, key: str) -> dict | None:
        """The cached document, or ``None`` on miss/corruption."""
        path = self.path_for(key)
        try:
            document = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        if not isinstance(document, dict):
            return None
        try:
            os.utime(path)  # refresh LRU recency on hit
        except OSError:  # pragma: no cover - raced with prune/clear
            pass
        return document

    def put(self, key: str, document: dict) -> Path:
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.path_for(key)
        tmp = path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
        os.replace(tmp, path)
        if self.max_entries is not None:
            self.prune(self.max_entries, keep=path)
        return path

    def prune(self, max_entries: int, *, keep: Path | None = None) -> int:
        """Evict least-recently-used entries beyond ``max_entries``.

        ``keep`` protects one path (the entry just written) even if a
        coarse mtime clock makes it look no fresher than its siblings.
        Returns the number of entries removed.
        """
        if not self.directory.is_dir():
            return 0
        entries = []
        for file in self.directory.glob("*.json"):
            try:
                mtime = file.stat().st_mtime
            except OSError:  # pragma: no cover - raced with clear
                continue
            entries.append((mtime, str(file), file))
        if len(entries) <= max_entries:
            return 0
        entries.sort()  # oldest first; path breaks mtime ties stably
        removed = 0
        excess = len(entries) - max_entries
        for _, _, file in entries:
            if removed >= excess:
                break
            if keep is not None and file == keep:
                continue
            file.unlink(missing_ok=True)
            removed += 1
        return removed

    def clear(self) -> int:
        """Delete every cached entry; returns the number removed."""
        removed = 0
        if self.directory.is_dir():
            for file in self.directory.glob("*.json"):
                file.unlink(missing_ok=True)
                removed += 1
        return removed

    def __len__(self) -> int:
        if not self.directory.is_dir():
            return 0
        return sum(1 for _ in self.directory.glob("*.json"))
