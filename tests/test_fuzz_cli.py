"""Fuzzing of the exit-code contract: `cli.main` on arbitrary specs and
arbitrary theta JSON returns 0, 2 or 3, and never raises.

The examples are derandomized, so every run checks the same inputs; the
counts keep the module to a few seconds.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from cosetchar.cli import main

GL2_3 = str(Path(__file__).resolve().parent.parent / "fixtures" / "gl2_3.matgroup")
KEYWORDS = ["label", "degree", "prime", "gen", "normal", "matgen", "matnormal", "frob"]


def run_cli(argv):
    """cli.main's exit code, with its output swallowed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        return main(argv)


def run_on_file(text, argv_before, argv_after=()):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input"
        path.write_text(text)
        return run_cli([*argv_before, str(path), *argv_after])


@st.composite
def permutation_specs(draw):
    """A degree line and permutation lines, valid unless shuffled."""
    degree = draw(st.integers(1, 5))
    lines = [f"degree {degree}"]
    for keyword in ["gen", *draw(st.lists(st.sampled_from(["gen", "normal"]), max_size=3))]:
        images = draw(st.permutations(range(degree)))
        lines.append(keyword + " " + " ".join(map(str, images)))
    if draw(st.integers(0, 3)) == 0:
        lines = draw(st.permutations(lines))
    return "\n".join(lines)


@st.composite
def matrix_specs(draw):
    """A prime line and 2x2 matrix lines, some of them singular."""
    lines = [f"prime {draw(st.sampled_from([2, 3, 4, 5]))}"]
    for keyword in ["matgen", *draw(st.lists(st.sampled_from(["matgen", "matnormal"]),
                                             max_size=2))]:
        entries = draw(st.lists(st.integers(-1, 4), min_size=4, max_size=4))
        lines.append(keyword + " " + " ".join(map(str, entries)))
    return "\n".join(lines)


@st.composite
def keyword_lines(draw):
    """Lines of known and unknown keywords with arbitrary small tokens."""
    tokens = st.one_of(st.integers(-2, 6).map(str), st.sampled_from(["x", "#", "1.5", ""]))
    lines = draw(st.lists(st.tuples(st.sampled_from(KEYWORDS),
                                    st.lists(tokens, max_size=6)), max_size=5))
    return "\n".join(" ".join([k, *rest]) for k, rest in lines)


SPECS = st.one_of(permutation_specs(), matrix_specs(), keyword_lines(), st.text(max_size=40))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(SPECS, st.sampled_from(["table", "analyze"]))
def test_any_spec_exits_zero_two_or_three(text, command):
    assert run_on_file(text, [command], ["--order-limit", "200"]) in (0, 2, 3)


VALUES = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([10**6, 10**30, True, None, "1", 0.5]),
    st.lists(st.integers(-2, 3), min_size=2, max_size=2),
    st.fixed_dictionaries({"order": st.integers(-1, 30),
                           "coeffs": st.lists(st.lists(st.integers(-2, 3), min_size=2,
                                                       max_size=2), max_size=9)}),
)
JSON = st.recursive(VALUES, lambda inner: st.lists(inner, max_size=9) | st.dictionaries(
    st.sampled_from(["values", "multiplicities", "order", "coeffs", "x"]), inner, max_size=3),
    max_leaves=12)
THETAS = st.one_of(
    st.fixed_dictionaries({"multiplicities": st.lists(st.integers(0, 3), min_size=7,
                                                      max_size=9)}).map(json.dumps),
    st.fixed_dictionaries({"values": st.lists(st.integers(-3, 3), min_size=8,
                                              max_size=8)}).map(json.dumps),
    st.fixed_dictionaries({"values": st.lists(VALUES, min_size=7, max_size=9)}).map(json.dumps),
    JSON.map(json.dumps),
    st.text(max_size=40),
)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(THETAS)
def test_any_theta_exits_zero_two_or_three(text):
    assert run_on_file(text, ["invert", GL2_3, "--theta"]) in (0, 2, 3)
