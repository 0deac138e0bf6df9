"""Tests for spec parsing, matrix ingestion, and the command-line interface."""

import ast
import itertools
import json
import subprocess
import sys
from pathlib import Path

import pytest

from cosetchar import chartable
from cosetchar.cli import main
from cosetchar.errors import HypothesisError, ParseError
from cosetchar.groupio import (
    GroupSpec,
    build_group,
    complex_to_json,
    matrix_to_permutation,
    parse_group_spec,
    parse_theta,
    render_float,
)

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"


def fixture(name):
    return str(FIXTURES / name)


# -- parsing -------------------------------------------------------------------

def test_parse_permutation_spec():
    spec = parse_group_spec(
        "# a comment\nlabel S3\ndegree 3\ngen 1 0 2\ngen 1 2 0  # inline\nnormal 1 2 0\n")
    assert isinstance(spec, GroupSpec)
    assert spec.label == "S3"
    assert spec.degree == 3
    assert len(spec.generators) == 2
    assert spec.normal_generators == ((1, 2, 0),)


def test_parse_matrix_spec():
    # a matrix spec becomes permutations of the 8 nonzero vectors of F_3^2,
    # ordered (0,1), (0,2), (1,0), (1,1), (1,2), (2,0), (2,1), (2,2)
    spec = parse_group_spec("prime 3\nmatgen 1 1 0 1\nmatnormal 4 1 0 1\n")
    assert isinstance(spec, GroupSpec)
    assert spec.degree == 8
    assert spec.generators == ((3, 7, 2, 6, 1, 5, 0, 4),)
    assert spec.normal_generators == spec.generators  # entries are read mod 3


def test_parse_json_specs():
    spec = parse_group_spec(
        '{"label": "S3", "degree": 3, "generators": [[1, 0, 2], [1, 2, 0]],'
        ' "normal": [[1, 2, 0]]}')
    assert isinstance(spec, GroupSpec) and spec.degree == 3
    mspec = parse_group_spec(
        '{"label": "M", "prime": 5, "generators": [[1, 1, 0, 1]]}')
    assert isinstance(mspec, GroupSpec) and mspec.degree == 24
    assert mspec.generators == (matrix_to_permutation((1, 1, 0, 1), 5),)
    assert mspec.normal_generators == ()


@pytest.mark.parametrize("text", [
    "",
    "degree 3\n",                                   # no generators
    "gen 1 0 2\n",                                  # gen before degree
    "degree 3\ngen 1 0\n",                          # wrong length
    "degree 3\ngen 1 1 2\n",                        # not a permutation
    "degree 3\ngen 1 0 x\n",                        # non-integer
    "degree 0\n",                                   # bad degree
    "prime 4\nmatgen 1 0 0 1\n",                    # composite modulus
    "prime 142\nmatgen 1 0 0 1\n",                  # acts on more than the order limit
    "prime 3\nmatgen 1 0 0\n",                      # short matrix
    "prime 3\nmatgen 1 1 2 2\n",                    # singular
    "matgen 1 0 0 1\n",                             # matgen before prime
    "degree 3\nprime 3\n",                          # mixed formats
    "prime 3\ngen 1 0 2\n",                         # mixed formats
    "degree 3\ndegree 3\ngen 1 0 2\n",              # a second degree line
    "wibble 3\n",                                   # unknown keyword
    "label\n",                                      # empty label
    "{not json",
    '{"degree": 3}',                                # JSON without generators
    '{"label": 5, "degree": 3, "generators": [[0,1,2]]}',
    '["a", "list"]',
    '{"degree": 3, "generators": [5]}',
    '{"prime": 3, "generators": [7]}',
    '{"degree": 3, "generators": [[1,2,0]], "normal": [4]}',
    '{"degree": 3, "generators": ["120"]}',
    '{"degree": true, "generators": [[0]]}',        # a JSON bool is no degree
    '{"degree": 3, "prime": 3, "generators": [[1, 0, 0, 1]]}',  # mixed formats
])
def test_parse_rejects(text):
    with pytest.raises(ParseError):
        parse_group_spec(text)


@pytest.mark.parametrize("text,json_text", [
    ((FIXTURES / "f5.group").read_text(), (FIXTURES / "f5.json").read_text()),
    ((FIXTURES / "gl2_3.matgroup").read_text(),
     '{"label": "GL2(3)/SL2(3)", "prime": 3,'
     ' "generators": [[1, 1, 0, 1], [1, 0, 1, 1], [2, 0, 0, 1]],'
     ' "normal": [[1, 1, 0, 1], [1, 0, 1, 1]]}'),
])
def test_text_and_json_forms_parse_alike(text, json_text):
    spec, json_spec = parse_group_spec(text), parse_group_spec(json_text)
    assert json_spec == spec
    (G, N), (H, M) = build_group(spec), build_group(json_spec)
    assert G.elements == H.elements
    assert N.members == M.members


def test_json_errors_name_the_field():
    with pytest.raises(ParseError, match=r"^gen 2: matrix .* is singular modulo 3$"):
        parse_group_spec('{"prime": 3, "generators": [[1, 1, 0, 1], [1, 1, 2, 2]]}')
    with pytest.raises(ParseError, match=r"^normal 1: "):
        parse_group_spec('{"degree": 3, "generators": [[1, 2, 0]], "normal": [[0, 0, 1]]}')
    with pytest.raises(ParseError, match=r"^line 4: "):
        parse_group_spec("label S3\ndegree 3\ngen 1 2 0\ngen 1 2\n")


def test_parse_theta_variants():
    spec = parse_theta('{"multiplicities": [1, 0, 2]}', n_rows=3)
    assert spec.multiplicities == (1, 0, 2)
    spec = parse_theta('{"values": [2, [1, 2], {"order": 4, "coeffs": [[0, 1], [1, 1]]}]}',
                       n_classes=3)
    assert spec.values is not None and len(spec.values) == 3
    assert str(spec.values[2]) == "z4"


@pytest.mark.parametrize("text,kwargs", [
    ("[1, 2]", {}),
    ("{}", {}),
    ('{"multiplicities": [1], "values": [1]}', {}),
    ('{"multiplicities": [1, -2]}', {}),
    ('{"multiplicities": [1, 2]}', {"n_rows": 3}),
    ('{"values": [1, 2]}', {"n_classes": 3}),
    ('{"values": "nope"}', {}),
    ("{bad", {}),
    ('{"values": [[1, 0]]}', {}),
    ('{"values": [{"order": 100000000, "coeffs": []}]}', {"exponent": 20}),
    ('{"values": [{"order": 0, "coeffs": []}]}', {"exponent": 20}),
    ('{"multiplicities": [true, false]}', {}),
    ('{"values": [true]}', {}),
    ('{"values": [[true, 1]]}', {}),
    ('{"values": [{"order": true, "coeffs": [[1, 1]]}]}', {}),
    ('{"values": [{"order": 2, "coeffs": [[1, true]]}]}', {}),
])
def test_parse_theta_rejects(text, kwargs):
    with pytest.raises(ParseError):
        parse_theta(text, **kwargs)


# -- matrices to permutations ---------------------------------------------------

def mat_mul(a, b, p):
    return ((a[0] * b[0] + a[1] * b[2]) % p, (a[0] * b[1] + a[1] * b[3]) % p,
            (a[2] * b[0] + a[3] * b[2]) % p, (a[2] * b[1] + a[3] * b[3]) % p)


@pytest.mark.parametrize("p", [3, 5])
def test_matrix_action_is_a_homomorphism(p):
    mats = [m for m in itertools.product(range(p), repeat=4)
            if (m[0] * m[3] - m[1] * m[2]) % p != 0]
    sample = mats[:: max(1, len(mats) // 12)]
    for a in sample:
        for b in sample:
            lhs = matrix_to_permutation(mat_mul(a, b, p), p)
            ma, mb = matrix_to_permutation(a, p), matrix_to_permutation(b, p)
            rhs = tuple(ma[k] for k in mb)
            assert lhs == rhs


def test_matrix_identity_and_inverse():
    ident = matrix_to_permutation((1, 0, 0, 1), 3)
    assert ident == tuple(range(8))
    m = matrix_to_permutation((1, 1, 0, 1), 3)
    inv = matrix_to_permutation((1, 2, 0, 1), 3)
    assert tuple(m[k] for k in inv) == tuple(range(8))


def test_matrix_singular_rejected():
    with pytest.raises(ParseError):
        matrix_to_permutation((1, 1, 2, 2), 3)


def test_gl2_3_closure_order():
    spec = parse_group_spec(open(fixture("gl2_3.matgroup")).read())
    G, N = build_group(spec)
    assert G.order == 48
    assert N.order == 24
    # N is exactly the matrices of determinant one
    count = sum(1 for m in itertools.product(range(3), repeat=4)
                if (m[0] * m[3] - m[1] * m[2]) % 3 == 1)
    assert count == 24


def test_build_group_rejects_outside_normal_generator():
    spec = parse_group_spec("degree 3\ngen 1 2 0\nnormal 1 0 2\n")
    with pytest.raises(HypothesisError):
        build_group(spec)


def test_order_limit_applies():
    spec = parse_group_spec(open(fixture("gl2_3.matgroup")).read())
    with pytest.raises(ValueError):
        build_group(spec, order_limit=10)


# -- rendering helpers ----------------------------------------------------------

def test_render_float_twelve_digits():
    assert render_float(0.4472135954999579) == 0.447213595500
    assert render_float(1.0) == 1.0
    assert complex_to_json(complex(1 / 3, -2 / 3)) == [0.333333333333, -0.666666666667]


# -- the command line -------------------------------------------------------------

def test_cli_analyze_human(capsys):
    assert main(["analyze", fixture("f5.group")]) == 0
    out = capsys.readouterr().out
    assert "group F5/C5: order 20, 5 classes" in out
    assert "coset N: 2 classes, 2 orbits" in out
    assert "nontrivial extension does not exist" in out


def test_cli_analyze_json_structure(capsys):
    assert main(["analyze", fixture("f5.json"), "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["group_order"] == 20
    assert data["quotient"]["is_cyclic"] is True
    assert len(data["cosets"]) == 4
    first = data["cosets"][0]
    assert first["label"] == "N"
    assert first["entries_str"] == [["1", "1"], ["4", "-1"]]
    assert first["radicands"] == [[[1, 5], [4, 5]], [[1, 20], [1, 5]]]
    assert data["nontrivial_extension"]["exists"] is False


def test_cli_analyze_single_coset(capsys):
    assert main(["analyze", fixture("f5.group"), "--coset", "q^2", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["cosets"]) == 1
    assert data["cosets"][0]["label"] == "q^2"


def test_cli_table_human_and_json(capsys):
    assert main(["table", fixture("f5.group")]) == 0
    out = capsys.readouterr().out
    assert "chi4 (deg 4)" in out
    assert main(["table", fixture("f5.group"), "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert [r["degree"] for r in data["rows"]] == [1, 1, 1, 1, 4]
    assert data["exponent"] == 20
    assert data["rows"][0]["values_str"] == ["1", "1", "1", "1", "1"]


def test_cli_invert_multiplicities(capsys):
    assert main(["invert", fixture("f5.group"),
                 "--multiplicities", "1,1,1,1,4", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["degree"] == 20
    assert len(data["components"]) == 2
    dims = sorted(c["dimension"] for c in data["components"])
    assert dims == [4, 4]


def test_cli_invert_theta_file(capsys):
    assert main(["invert", fixture("f5.group"),
                 "--theta", fixture("theta_f5.json")]) == 0
    out = capsys.readouterr().out
    assert "degree-20 character" in out
    assert "orbit 0" in out and "orbit 1" in out


def test_cli_invert_values_theta(tmp_path, capsys):
    theta = tmp_path / "theta.json"
    theta.write_text('{"values": [4, 0, 0, 0, 4]}')
    assert main(["invert", fixture("f5.group"), "--theta", str(theta),
                 "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["multiplicities"] == [1, 1, 1, 1, 0]


def test_cli_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.group"
    bad.write_text("garbage nonsense\n")
    assert main(["analyze", str(bad)]) == 2
    bad.write_text('{"degree": 3, "generators": [5]}')
    assert main(["analyze", str(bad)]) == 2
    bad.write_text('{"degree": true, "generators": [[0]]}')
    assert main(["table", str(bad)]) == 2

    nonnormal = tmp_path / "nn.group"
    nonnormal.write_text("degree 3\ngen 1 0 2\ngen 1 2 0\nnormal 1 0 2\n")
    assert main(["analyze", str(nonnormal)]) == 3

    assert main(["analyze", fixture("f5.group"), "--coset", "bogus"]) == 2
    assert main(["invert", fixture("f5.group"),
                 "--multiplicities", "1,0,0,0,0", "--coset", "q^2"]) == 3
    assert main(["invert", fixture("f5.group"), "--multiplicities", "1,2"]) == 2
    assert main(["invert", fixture("f5.group"), "--multiplicities", "a,b,c,d,e"]) == 2
    assert main(["analyze", str(tmp_path / "missing.group")]) == 2
    assert main(["analyze", fixture("gl2_3.matgroup"), "--order-limit", "10"]) == 2

    # bool is a subclass of int, and JSON true is no multiplicity or value
    theta = tmp_path / "theta.json"
    theta.write_text('{"multiplicities": [true, false, false, false, true]}')
    assert main(["invert", fixture("f5.group"), "--theta", str(theta)]) == 2
    theta.write_text('{"values": [true, 1, 1, 1, 1]}')
    assert main(["invert", fixture("f5.group"), "--theta", str(theta)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("given", [
    ["--multiplicities", "100000000000000000000000,0,0,0,1"],
    ["--multiplicities", "1000000000,0,0,0,0"],
    ["--theta", '{"values": [1000000000, 0, 0, 0, 0]}'],
])
def test_cli_huge_character_degree_exits_two_at_once(tmp_path, given):
    # each recovered root is kept, so a degree of 10^23 used to exhaust memory
    if given[0] == "--theta":
        path = tmp_path / "theta.json"
        path.write_text(given[1])
        given = ["--theta", str(path)]
    proc = subprocess.run(
        [sys.executable, "-m", "cosetchar", "invert", fixture("f5.group"), *given],
        capture_output=True, text=True, timeout=20)
    assert proc.returncode == 2
    assert "exceeds the limit of 100000" in proc.stderr


def test_cli_bad_theta_values_exit_three(tmp_path, capsys):
    theta = tmp_path / "theta.json"
    theta.write_text('{"values": [1, 1, 1, 1, 2]}')
    assert main(["invert", fixture("f5.group"), "--theta", str(theta)]) == 3
    capsys.readouterr()


@pytest.mark.parametrize("spec,witness", [
    # S3 over <(0 1)>: the 3-cycle conjugates (0 1) to another transposition
    ("degree 3\ngen 1 0 2\ngen 1 2 0\nnormal 1 0 2\n",
     "subgroup is not normal in the group: g*h*g^-1 is outside it for the "
     "generator g = (0 1 2) and its member h = (0 1)"),
    ("degree 3\ngen 1 0 2\ngen 1 2 0\n",
     "quotient group is not abelian: the cosets of (0 1 2) and (0 1) do not commute"),
])
def test_cli_hypothesis_errors_name_a_witness(tmp_path, capsys, spec, witness):
    path = tmp_path / "s3.group"
    path.write_text(spec)
    assert main(["table", str(path)]) == 3
    assert capsys.readouterr().err == f"hypothesis violated: {witness}\n"


def test_cli_non_character_names_its_row(tmp_path, capsys):
    theta = tmp_path / "theta.json"
    theta.write_text('{"values": [1, {"order": 4, "coeffs": [[0, 1], [1, 1]]}, 0, 0, 0]}')
    assert main(["invert", fixture("f5.group"), "--theta", str(theta)]) == 3
    assert capsys.readouterr().err == (
        "hypothesis violated: the given values are not a character: their inner "
        "product with row 0 is 1/20 + 1/4*z20^5\n")


def test_cli_theta_zero_denominator_exits_two(tmp_path, capsys):
    theta = tmp_path / "theta.json"
    theta.write_text('{"values": [[1, 0], 1, 1, 1, 1]}')
    assert main(["invert", fixture("f5.group"), "--theta", str(theta)]) == 2
    assert "bad character value" in capsys.readouterr().err


def test_cli_theta_order_beyond_the_exponent_exits_two_at_once(tmp_path):
    # an order of 10^8 used to hang in cyclotomic_polynomial
    theta = tmp_path / "theta.json"
    theta.write_text('{"values": [{"order": 100000000, "coeffs": []}, 1, 1, 1, 1]}')
    proc = subprocess.run(
        [sys.executable, "-m", "cosetchar", "invert", fixture("f5.group"), "--theta", str(theta)],
        capture_output=True, text=True, timeout=20)
    assert proc.returncode == 2
    assert "does not divide the group exponent 20" in proc.stderr


@pytest.mark.parametrize("spec", [
    "prime 1000000000000000003\nmatgen 1 1 0 1\n",
    '{"prime": 1000000000000000003, "generators": [[1, 1, 0, 1]]}',
])
def test_cli_huge_prime_exits_two_at_once(tmp_path, spec):
    # a prime of 10^18 used to hang in the trial division of _is_prime
    path = tmp_path / "big.group"
    path.write_text(spec)
    proc = subprocess.run(
        [sys.executable, "-m", "cosetchar", "analyze", str(path)],
        capture_output=True, text=True, timeout=20)
    assert proc.returncode == 2
    assert "is too large" in proc.stderr


@pytest.mark.parametrize("spec", [
    "degree 1000000000000\ngen 1 0\n",
    '{"degree": 1000000000000, "generators": [[1, 0]]}',
])
def test_cli_huge_degree_exits_two_at_once(tmp_path, spec):
    # the image count is checked before anything of the declared degree's size is built
    path = tmp_path / "big.group"
    path.write_text(spec)
    proc = subprocess.run(
        [sys.executable, "-m", "cosetchar", "analyze", str(path)],
        capture_output=True, text=True, timeout=20)
    assert proc.returncode == 2
    assert "expected 1000000000000 images, got 2" in proc.stderr


@pytest.mark.parametrize("p", [7, 139])
def test_matrix_spec_accepts_small_primes(p):
    spec = parse_group_spec(f"prime {p}\nmatgen 1 1 0 1\n")
    assert spec.degree == p * p - 1
    assert spec.generators == (matrix_to_permutation((1, 1, 0, 1), p),)


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements; package checks use errors.ensure
    found = [f"{path.name}:{node.lineno}"
             for path in sorted((FIXTURES.parent / "src" / "cosetchar").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_cli_failed_prime_search_exits_four(monkeypatch, capsys):
    monkeypatch.setattr(chartable, "PRIME_SEARCH_BOUND", 10)
    assert main(["table", fixture("gl2_3.matgroup")]) == 4
    assert "internal check failed" in capsys.readouterr().err


def test_cli_klein_quotient_invert_exit_three(capsys):
    assert main(["invert", fixture("q8_center.group"),
                 "--multiplicities", "1,1,1,1,1"]) == 3
    capsys.readouterr()


def test_cli_usage_error_returns_two(capsys):
    assert main(["invert", fixture("f5.group")]) == 2
    assert main([]) == 2
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_cli_output_deterministic(capsys):
    assert main(["analyze", fixture("gl2_3.matgroup"), "--json"]) == 0
    first = capsys.readouterr().out
    assert main(["analyze", fixture("gl2_3.matgroup"), "--json"]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_cli_selftest(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "0 failures" in out
    assert "GL2(3)/SL2(3)" in out


def test_reader_closing_the_pipe_early_exits_zero_quietly():
    # the JSON table of GL2(5) is larger than a pipe's buffer, so the writer
    # is still printing when the reader leaves; that used to end in a
    # BrokenPipeError traceback and exit 1
    proc = subprocess.Popen(
        [sys.executable, "-m", "cosetchar", "table",
         str(ROOT / "perfbench" / "specs" / "gl2_5.matgroup"), "--json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert len(proc.stdout.read(300)) == 300
    proc.stdout.close()
    assert proc.wait(timeout=60) == 0
    assert proc.stderr.read() == b""
    proc.stderr.close()


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "cosetchar", "table", fixture("f5.group")],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "chi4 (deg 4)" in proc.stdout
