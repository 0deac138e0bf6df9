"""Text-mode `table` output against goldens recorded from a known-good commit.

`table` is the one command whose output prints group elements (the class
representatives, in cycle notation), so its text form is kept byte for byte:
tests/golden/table.txt.gz holds the exact standard output of
`cosetchar table SPEC` for each spec below.  To record the goldens again,
from the repository root:

    PYTHONPATH=src python3 tests/test_table_golden.py
"""

import pytest

from cosetchar.cli import main
from goldens import ROOT, load, record, resolved

GOLDEN = ROOT / "tests" / "golden" / "table.txt.gz"
SPECS = (
    "fixtures/f5.group",
    "fixtures/f5.json",
    "fixtures/q8_center.group",
    "fixtures/gl2_3.matgroup",
    "perfbench/specs/s5_a5.group",
    "perfbench/specs/s6_a6.group",
    "perfbench/specs/gl2_5.matgroup",
)


@pytest.mark.parametrize("entry", load(GOLDEN), ids=lambda e: e["argv"][1])
def test_table_text_matches_golden(entry, capsys):
    assert main(resolved(entry["argv"])) == 0
    assert capsys.readouterr().out == entry["stdout"]


if __name__ == "__main__":
    record(GOLDEN, [["table", spec] for spec in SPECS])
