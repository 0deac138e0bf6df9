"""`invert --json` output against goldens recorded from a known-good commit.

tests/golden/invert.json.gz holds, for each recorded command line, the exact
standard output of `cosetchar invert ... --json`: a few multiplicity vectors
on each spec below, the theta fixture, each at every generating coset.  The
output must match byte for byte.  To record the goldens again, from the
repository root:

    PYTHONPATH=src python3 tests/test_invert_golden.py
"""

import random

import pytest

from cosetchar.cli import main
from cosetchar.cosets import CosetAnalysis
from cosetchar.groupio import build_group, parse_group_spec
from goldens import ROOT, load, record, resolved

GOLDEN = ROOT / "tests" / "golden" / "invert.json.gz"
SPECS = (
    "fixtures/f5.group",
    "fixtures/gl2_3.matgroup",
    "perfbench/specs/gl2_5.matgroup",
    "perfbench/specs/s6_a6.group",
)


def _command_lines():
    """Every recorded command line, as argv lists relative to the repository."""
    rng = random.Random(20261018)
    for spec in SPECS:
        parsed = parse_group_spec((ROOT / spec).read_text())
        an = CosetAnalysis(*build_group(parsed), label=parsed.label)
        rows = an.table.n_rows
        vectors = [an.table.degrees, (1,) * rows,
                   tuple(rng.randint(0, 3) for _ in range(rows))]
        inputs = [["--multiplicities", ",".join(map(str, v))] for v in vectors]
        if spec == "fixtures/f5.group":
            inputs.append(["--theta", "fixtures/theta_f5.json"])
        for coset in an.quotient.generating_cosets():
            for given in inputs:
                yield ["invert", spec, *given, "--coset", an.coset_label(coset), "--json"]


@pytest.mark.parametrize("entry", load(GOLDEN),
                         ids=lambda e: " ".join(e["argv"][1:-1]))
def test_invert_json_matches_golden(entry, capsys):
    assert main(resolved(entry["argv"])) == 0
    assert capsys.readouterr().out == entry["stdout"]


if __name__ == "__main__":
    record(GOLDEN, list(_command_lines()))
