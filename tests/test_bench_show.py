"""The bench helpers: :func:`repro.experiments.format_table` and
:func:`repro.experiments.best_of`.

The ``show`` fixture used to compute column widths from the *first* row
and ``zip`` silently truncated longer rows — ragged tables either
crashed with ``IndexError`` or dropped cells.  These tests pin the
padded behavior of the formatter that the bench harness's ``show`` and
the sweep runner's ``show`` both use.
"""

from repro.experiments import best_of, format_table


class TestFormatTable:
    def test_regular_table_with_header(self):
        text = format_table("Fig. X", [("a", 1), ("bb", 22)],
                            header=("col", "n"))
        lines = text.splitlines()
        assert lines[1] == "=== Fig. X ==="
        assert lines[2].split() == ["col", "n"]
        assert set(lines[3]) <= {"-", " "}  # the separator under the header
        assert lines[4].split() == ["a", "1"]

    def test_longer_row_than_header_keeps_all_cells(self):
        # the old zip() silently dropped the trailing cells
        text = format_table("t", [("a", 1, "extra")], header=("c1", "c2"))
        assert "extra" in text

    def test_shorter_row_than_widest_does_not_crash(self):
        # the old range(len(table[0])) indexing raised IndexError here
        text = format_table("t", [("a", "b", "c"), ("only",)])
        assert "only" in text and "c" in text

    def test_empty_rows_render_title_only(self):
        text = format_table("empty", [])
        assert text.strip() == "=== empty ==="

    def test_cells_are_stringified_and_aligned(self):
        text = format_table("t", [("name", 1.5), ("x", 100)])
        lines = text.splitlines()[2:]
        assert lines[0].index("1.5") == lines[1].index("100")


class TestBestOf:
    def test_runs_the_kernel_repeats_times(self):
        calls = []
        assert best_of(lambda: calls.append(None), repeats=3) >= 0.0
        assert len(calls) == 3


class TestShowFixture:
    def test_show_prints_ragged_table(self, capsys):
        # simulate the fixture body directly: format + print
        print(format_table("ragged", [("a",), ("b", "c")],
                           header=("h1", "h2", "h3")))
        out = capsys.readouterr().out
        assert "=== ragged ===" in out
        assert "h3" in out and "c" in out
