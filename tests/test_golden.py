"""CLI JSON outputs against golden outputs recorded from a known-good commit.

The goldens are gzip-compressed, normalized outputs: those recorded for the
benchmark in perfbench/golden/, which this test only reads, and those in
tests/golden/ for calls the benchmark does not make.  Outputs must match
exactly, except that floats may differ by NUMERIC_TOLERANCE (the residue of
an exact zero moves with the order of float operations) and
`max_unitarity_deviation`, which the goldens omit, need only stay below the
unitarity tolerance.  To record the goldens in tests/golden/ again, from
the repository root:

    PYTHONPATH=src python3 tests/test_golden.py
"""

import contextlib
import gzip
import io
import json
from pathlib import Path

import pytest

from cosetchar.cli import main
from cosetchar.cosets import UNITARITY_TOLERANCE

ROOT = Path(__file__).resolve().parent.parent
NUMERIC_TOLERANCE = 1e-9
# calls whose goldens live in tests/golden/
RECORDED_HERE = (("analyze", "perfbench/specs/gl2_7.matgroup"),)


def golden_path(command, spec):
    name = f"{command}-{Path(spec).stem}.json.gz"
    here = ROOT / "tests" / "golden" / name
    return here if (command, spec) in RECORDED_HERE else ROOT / "perfbench" / "golden" / name


def normalized_output(command, spec):
    """The call's JSON output with each `max_unitarity_deviation`, once
    checked below the tolerance, dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main([command, str(ROOT / spec), "--json"]) == 0
    got = json.loads(out.getvalue())
    for coset in got.get("cosets", []):
        assert coset.pop("max_unitarity_deviation") < UNITARITY_TOLERANCE
    return got


def difference(want, got, path="$"):
    """Where `got` departs from `want`, or None."""
    if isinstance(want, dict) and isinstance(got, dict):
        if want.keys() != got.keys():
            return f"{path} has keys {sorted(got)}, golden {sorted(want)}"
        return next((d for key in want
                     if (d := difference(want[key], got[key], f"{path}.{key}"))), None)
    if isinstance(want, list) and isinstance(got, list):
        if len(want) != len(got):
            return f"{path} has length {len(got)}, golden {len(want)}"
        return next((d for i, (w, g) in enumerate(zip(want, got))
                     if (d := difference(w, g, f"{path}[{i}]"))), None)
    if isinstance(want, float) and isinstance(got, float):
        return None if abs(want - got) <= NUMERIC_TOLERANCE else \
            f"{path} is {got!r}, golden {want!r}"
    return None if type(want) is type(got) and want == got else \
        f"{path} is {got!r}, golden {want!r}"


@pytest.mark.parametrize("command,spec", [
    ("table", "perfbench/specs/gl2_5.matgroup"),
    ("table", "perfbench/specs/gl2_7.matgroup"),
    ("table", "perfbench/specs/s6_a6.group"),
    ("analyze", "fixtures/gl2_3.matgroup"),
    ("analyze", "perfbench/specs/gl2_5.matgroup"),
    *RECORDED_HERE,
])
def test_json_output_matches_golden(command, spec):
    got = normalized_output(command, spec)
    with gzip.open(golden_path(command, spec), "rt", encoding="utf-8") as fh:
        want = json.load(fh)
    assert difference(want, got) is None


def test_difference_finds_changes():
    want = {"a": [1, 0.5, "x"], "b": {"c": True}}
    assert difference(want, {"a": [1, 0.5 + 1e-12, "x"], "b": {"c": True}}) is None
    assert difference(want, {"a": [1, 0.6, "x"], "b": {"c": True}}) == "$.a[1] is 0.6, golden 0.5"
    assert difference(want, {"a": [1, 0.5], "b": {"c": True}}) == "$.a has length 2, golden 3"
    assert difference(want, {"a": [1, 0.5, "x"], "b": {"c": 1}}) == "$.b.c is 1, golden True"
    assert difference(want, {"a": [1, 0.5, "x"]}).startswith("$ has keys")


def record():
    for command, spec in RECORDED_HERE:
        path = golden_path(command, spec)
        with gzip.GzipFile(path, "wb", mtime=0) as fh:
            fh.write(json.dumps(normalized_output(command, spec), sort_keys=True,
                                separators=(",", ":")).encode("utf-8"))
        print(f"{command} {spec} recorded in {path.relative_to(ROOT)}")


if __name__ == "__main__":
    record()
