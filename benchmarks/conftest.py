"""Shared helpers for the benchmark harness.

Every bench regenerates one paper artifact (figure/table) as printed
rows — visible in the ``pytest benchmarks/ --benchmark-only`` output —
and times a representative kernel with pytest-benchmark.  ``python -m
repro run`` calls the same test functions in-process with its own
``benchmark`` and ``show``; both render tables with
:func:`repro.experiments.format_table`.
"""

from __future__ import annotations

import pytest


@pytest.fixture()
def show(capsys):
    """Print a titled table uncaptured, so it lands in the bench log."""
    # imported here: ``pytest benchmarks/e2e`` loads this conftest before
    # its own modules put ``src`` on the path
    from repro.experiments import format_table

    def _show(title: str, rows: list[tuple], header: tuple | None = None) -> None:
        with capsys.disabled():
            print(format_table(title, rows, header))

    return _show
