"""README.md's rule tables name real rules with their catalog titles.

Every row that starts with a backticked rule id (`` | `SEC001` | ``)
must name a rule of ``full_catalog()`` or an audit checker, and its last
cell must be that rule's exact title, so the tables agree with
``repro lint --rules`` and ``repro audit --rules``.
"""

import re
from pathlib import Path

from repro.audit import all_checkers
from repro.lint import full_catalog

README = Path(__file__).resolve().parent.parent / "README.md"
ROW = re.compile(r"^\| `([A-Z]+[0-9]+)` \|(.*)\|$")


def rule_rows() -> list[tuple[str, str]]:
    rows = []
    for line in README.read_text().splitlines():
        match = ROW.match(line)
        if match:
            rows.append((match[1], match[2].split("|")[-1].strip()))
    return rows


def test_every_rule_row_carries_its_catalog_title():
    titles = {rule.rule_id: rule.title for rule in full_catalog()}
    titles.update((checker.rule_id, checker.title) for checker in all_checkers())
    rows = rule_rows()
    assert rows, "no rule rows found in README.md"
    mismatched = [(rule_id, title, titles.get(rule_id))
                  for rule_id, title in rows if titles.get(rule_id) != title]
    assert mismatched == []
