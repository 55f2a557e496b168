"""Numeric flags below their declared bound are usage errors.

Each bound is declared once, on the argument in ``repro.__main__.TOOLS``;
``main()`` must return 2 with a one-line message on stderr before any
work starts, never a traceback or a silently wrong run.  The same holds
for an existing file passed where a directory is expected, and for an
output file that is a directory or sits in a missing one.
"""

import pytest

CAMPAIGN = ("--tools", "lint", "--scenarios", "pkes-legacy")

#: (argv before the flag, flag, bad value, expected stderr line)
CASES = [
    (("run", "FIG1"), "--jobs", "0", "--jobs must be >= 1"),
    (("run", "FIG1"), "--cache-max-entries", "-1",
     "--cache-max-entries must be >= 0"),
    (("run", "FIG1"), "--timeout", "-1", "--timeout must be > 0"),
    (("run", "FIG1"), "--timeout", "0", "--timeout must be > 0"),
    (("trace", "pkes-legacy"), "--events", "0", "--events must be >= 1"),
    (("chaos", "pkes-legacy"), "--duration", "0", "--duration must be >= 1"),
    (("sentinel", "pkes-legacy"), "--duration", "0",
     "--duration must be >= 1"),
    (("redteam", "pkes-legacy", "--campaigns"), "--top", "-1",
     "--top must be >= 0"),
    (("campaign", "run", *CAMPAIGN), "--jobs", "0", "--jobs must be >= 1"),
    (("campaign", "run", *CAMPAIGN), "--timeout", "0",
     "--timeout must be > 0"),
    (("campaign", "run", *CAMPAIGN), "--duration", "0",
     "--duration must be >= 1"),
    (("campaign", "resume", "some-id"), "--jobs", "0", "--jobs must be >= 1"),
    (("campaign", "resume", "some-id"), "--timeout", "-5",
     "--timeout must be > 0"),
]


@pytest.mark.parametrize(
    "argv, flag, value, message", CASES,
    ids=[f"{' '.join(c[0][:2])} {c[1]} {c[2]}" for c in CASES])
def test_bad_numeric_flag_exits_2(run_cli, tmp_path, argv, flag, value,
                                  message):
    extra = (("--journal-root", str(tmp_path)) if argv[0] == "campaign"
             else ("--cache-dir", str(tmp_path)) if argv[0] == "run" else ())
    code, out, err = run_cli(*argv, *extra, flag, value)
    assert code == 2
    assert err == message + "\n"
    assert "Traceback" not in err
    assert out == ""
    assert not any(tmp_path.iterdir()), "nothing may run before the check"


@pytest.mark.parametrize("argv", [
    ("redteam", "cariad-breach", "--campaigns", "--top", "0"),
    ("trace", "pkes-legacy", "--events", "1", "--json"),
])
def test_values_at_the_bound_are_accepted(run_cli, argv):
    code, _, err = run_cli(*argv)
    assert code in (0, 1), err
    assert "must be" not in err


@pytest.mark.parametrize("argv, flag", [
    (("run", "FIG1"), "--cache-dir"),
    (("campaign", "run", *CAMPAIGN), "--journal-root"),
], ids=["run --cache-dir", "campaign run --journal-root"])
@pytest.mark.parametrize("below", [False, True], ids=["file", "under-file"])
def test_file_as_directory_exits_2(run_cli, tmp_path, argv, flag, below):
    file = tmp_path / "not-a-dir"
    file.write_text("")
    value = file / "sub" if below else file
    code, out, err = run_cli(*argv, flag, str(value))
    assert code == 2
    assert err == f"{flag}: {str(file)!r} is not a directory\n"
    assert "Traceback" not in err
    assert out == ""
    assert sorted(tmp_path.iterdir()) == [file]


OUTPUT_FLAGS = [
    (("chaos", "pkes-legacy"), "--report"),
    (("sentinel", "pkes-legacy"), "--report"),
    (("campaign", "run", *CAMPAIGN), "--report"),
    (("campaign", "resume", "some-id"), "--report"),
    (("trace", "pkes-legacy"), "--jsonl"),
    (("lint", "pkes-legacy"), "--write-baseline"),
    (("flow", "pkes-legacy"), "--write-baseline"),
    (("audit",), "--write-baseline"),
]


@pytest.mark.parametrize("argv, flag", OUTPUT_FLAGS,
                         ids=[f"{' '.join(c[0][:2])} {c[1]}" for c in OUTPUT_FLAGS])
@pytest.mark.parametrize("kind", ["missing-parent", "directory"])
def test_unwritable_output_file_exits_2(run_cli, tmp_path, argv, flag, kind):
    directory = tmp_path / "out"
    directory.mkdir()
    if kind == "directory":
        value, message = directory, f"{flag}: {str(directory)!r} is a directory"
    else:
        missing = tmp_path / "missing"
        value, message = missing / "out.json", f"{flag}: {str(missing)!r} is not a directory"
    extra = ("--journal-root", str(tmp_path / "journals")) if argv[0] == "campaign" else ()
    code, out, err = run_cli(*argv, *extra, flag, str(value))
    assert code == 2
    assert err == message + "\n"
    assert "Traceback" not in err
    assert out == ""
    assert sorted(tmp_path.rglob("*")) == [directory], "nothing may run before the check"
