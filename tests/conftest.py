"""Shared fixtures for the test suite."""

import hashlib
import sys
from pathlib import Path

import pytest

import repro.flow.taint as taint
import repro.redteam.planner as planner
from repro.__main__ import main
from repro.campaign import CampaignEngine, experiment_executor, experiment_spec
from repro.experiments import Experiment


def _first_difference(actual: bytes, expected: bytes) -> int:
    """The length of the longest common prefix (a binary search over slices)."""
    low, high = 0, min(len(actual), len(expected))
    while low < high:
        middle = (low + high + 1) // 2
        if actual[:middle] == expected[:middle]:
            low = middle
        else:
            high = middle - 1
    return low


def assert_same_bytes(actual: str | bytes, expected: str | bytes, label: str = "",
                      window: int = 60) -> None:
    """Fail unless two documents are byte-identical, in well under a second.

    Compares the lengths and SHA-256 digests, and on a mismatch reports
    the first differing offset with ``window`` bytes either side of it.
    A plain ``assert actual == expected`` on two long one-line documents
    has pytest diff them, which can run for minutes.
    """
    __tracebackhide__ = True
    left = actual.encode() if isinstance(actual, str) else actual
    right = expected.encode() if isinstance(expected, str) else expected
    if len(left) == len(right) and \
            hashlib.sha256(left).digest() == hashlib.sha256(right).digest():
        return
    offset = _first_difference(left, right)
    span = slice(max(0, offset - window), offset + window)
    pytest.fail(f"{label + ': ' if label else ''}documents differ at byte {offset} "
                f"(lengths {len(left)} and {len(right)})\n"
                f"  actual:   ...{left[span]!r}...\n"
                f"  expected: ...{right[span]!r}...", pytrace=False)


@pytest.fixture
def run_cli(capsys):
    """Run ``python -m repro`` in-process: ``run_cli(*argv)`` returns
    ``(exit code, stdout, stderr)``."""

    def run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return run


@pytest.fixture
def analysis_calls(monkeypatch):
    """Count ``repro.flow.taint.analyze`` and ``repro.redteam.planner.plan``
    calls: the fixture is a ``{"analyze": n, "plan": n}`` dict.

    Importing ``taint`` and ``planner`` above imported their packages,
    and with them every module that binds either function.
    """
    counts = {"analyze": 0, "plan": 0}
    for name, fn in (("analyze", taint.analyze), ("plan", planner.plan)):
        def wrapper(*args, _name=name, _fn=fn, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        # every module's binding, so an import-time alias is counted too
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("repro"):
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        monkeypatch.setattr(module, attr, wrapper)
    return counts


class SyntheticExperiments:
    """Synthetic bench files run as experiment shards, as ``repro run`` does.

    ``write({exp_id: source})`` writes ``<exp_id lower>.py`` under
    ``bench_dir`` and returns the experiments; ``engine(experiments,
    ...)`` builds a :class:`~repro.campaign.CampaignEngine` over them
    with a fresh journal root per call.
    """

    def __init__(self, root: Path) -> None:
        self.root = root
        self.bench_dir = root / "benches"
        self.bench_dir.mkdir()
        self.engines = 0

    def write(self, scripts: dict[str, str]) -> list[Experiment]:
        experiments = []
        for exp_id, source in scripts.items():
            name = f"{exp_id.lower()}.py"
            (self.bench_dir / name).write_text(source)
            experiments.append(Experiment(exp_id, "-", "synthetic",
                                          str(self.bench_dir / name)))
        return experiments

    def engine(self, experiments: list[Experiment], *, cache=None, base_seed=0,
               timeout_s=30.0, **kwargs) -> CampaignEngine:
        self.engines += 1
        return CampaignEngine(
            experiment_spec(experiments, base_seed),
            journal_root=self.root / f"journals-{self.engines}", shard_timeout_s=timeout_s,
            execute=experiment_executor(experiments, cache),
            **kwargs)


def by_id(report) -> dict:
    """A campaign report's settled entries, keyed by experiment id."""
    return {entry.shard["scenario"]: entry for entry in report.entries.values()}


@pytest.fixture
def synthetic(tmp_path):
    return SyntheticExperiments(tmp_path)
