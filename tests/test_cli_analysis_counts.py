"""One taint analysis and at most one attack plan per scenario at every
static entry point of the CLI.

The renderers, the red-team document and the differential gate read the
``Analysis`` the scenario's linter run built, so no subcommand analyzes
or plans a scenario twice.  ``analysis_calls`` counts through every
``repro`` module binding of the two functions.
"""

import pytest

from repro.lint import scenario_names

SCENARIOS = len(scenario_names())

CALLS = [
    (("lint", "all"), SCENARIOS, SCENARIOS),
    (("flow", "all"), SCENARIOS, 0),
    (("flow", "all", "--json"), SCENARIOS, 0),
    (("flow", "onboard-insecure", "--paths", "--cut"), 1, 0),
    (("redteam", "all"), SCENARIOS, SCENARIOS),
    (("redteam", "all", "--json"), SCENARIOS, SCENARIOS),
    (("redteam", "all", "--sarif"), SCENARIOS, SCENARIOS),
    (("redteam", "all", "--differential"), SCENARIOS, SCENARIOS),
]


@pytest.mark.parametrize("argv, analyses, plans", CALLS,
                         ids=[" ".join(argv) for argv, _, _ in CALLS])
def test_one_analysis_per_scenario(run_cli, analysis_calls, argv, analyses, plans):
    code, out, err = run_cli(*argv)
    assert code in (0, 1), err
    assert out
    assert analysis_calls == {"analyze": analyses, "plan": plans}
