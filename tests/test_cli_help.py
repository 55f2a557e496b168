"""``repro --help`` polish: the CLI stays in sync with its tool table.

``TOOLS`` in ``repro.__main__`` generates the parser, ``SUBCOMMANDS``
and ``main()``'s dispatch; these smoke tests pin that every entry is a
registered subparser with a one-line description, reachable from the
module docstring, so a new subcommand cannot ship undescribed.
"""

import argparse

import pytest

from repro.__main__ import SUBCOMMANDS, TOOLS, build_parser, main


def _subparsers_action(parser):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action
    raise AssertionError("parser has no subparsers")


def _every_tool(tools=TOOLS):
    for tool in tools:
        yield tool
        yield from _every_tool(tool.subcommands)


def test_registered_subparsers_match_table():
    action = _subparsers_action(build_parser())
    assert list(action.choices) == [tool.name for tool in TOOLS]
    assert SUBCOMMANDS == {tool.name: tool.help for tool in TOOLS}
    for tool in TOOLS:
        if tool.subcommands:
            nested = _subparsers_action(action.choices[tool.name])
            assert list(nested.choices) == [sub.name for sub in tool.subcommands]


def test_every_subcommand_described_in_help(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--help"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    for tool in TOOLS:
        assert tool.name in out
        assert tool.help in out


def test_descriptions_are_one_line_and_non_empty():
    for tool in _every_tool():
        assert tool.help.strip(), tool.name
        assert "\n" not in tool.help, tool.name


def test_every_leaf_tool_has_a_run_function():
    for tool in _every_tool():
        assert callable(tool.run) != bool(tool.subcommands), tool.name


def test_expected_subcommand_set():
    assert {tool.name for tool in TOOLS} == {
        "list", "run", "lint", "flow", "trace", "chaos", "redteam",
        "sentinel", "audit", "campaign"}


def test_module_docstring_mentions_every_subcommand():
    import repro.__main__ as cli

    for tool in TOOLS:
        assert f"python -m repro {tool.name}" in cli.__doc__, tool.name
