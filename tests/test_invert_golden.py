"""`invert --json` output against goldens recorded from a known-good commit.

tests/golden/invert.json.gz holds, for each recorded command line, the exact
standard output of `cosetchar invert ... --json`: a few multiplicity vectors
on each spec below, the theta fixture, each at every generating coset.  The
output must match byte for byte.  To record the goldens again, from the
repository root:

    PYTHONPATH=src python3 tests/test_invert_golden.py
"""

import contextlib
import gzip
import io
import json
import random
from pathlib import Path

import pytest

from cosetchar.cli import main
from cosetchar.cosets import CosetAnalysis
from cosetchar.groupio import build_group, parse_group_spec

ROOT = Path(__file__).resolve().parent.parent
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


def _resolved(argv):
    return [str(ROOT / a) if (ROOT / a).is_file() else a for a in argv]


def _load():
    with gzip.open(GOLDEN, "rt", encoding="utf-8") as fh:
        return json.load(fh)


def record():
    entries = []
    for argv in _command_lines():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(_resolved(argv))
        if code != 0:
            raise SystemExit(f"{' '.join(argv)} exited {code}")
        entries.append({"argv": argv, "stdout": out.getvalue()})
    GOLDEN.parent.mkdir(exist_ok=True)
    with gzip.GzipFile(GOLDEN, "wb", mtime=0) as fh:
        fh.write(json.dumps(entries, indent=1).encode("utf-8"))
    print(f"{len(entries)} command lines recorded in {GOLDEN.relative_to(ROOT)}")


@pytest.mark.parametrize("entry", _load(),
                         ids=lambda e: " ".join(e["argv"][1:-1]))
def test_invert_json_matches_golden(entry, capsys):
    assert main(_resolved(entry["argv"])) == 0
    assert capsys.readouterr().out == entry["stdout"]


if __name__ == "__main__":
    record()
