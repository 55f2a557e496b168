"""Shared fixtures for the test suite."""

import pytest

from repro.__main__ import main


@pytest.fixture
def run_cli(capsys):
    """Run ``python -m repro`` in-process: ``run_cli(*argv)`` returns
    ``(exit code, stdout, stderr)``."""

    def run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return run
