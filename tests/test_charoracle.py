"""The program's character tables against the independent Burnside oracle
in `charoracle`, which shares no code with the package: the corpus, the
fixtures, GL2(5) and S6.  `tests/test_campaign.py` runs it on every
subgroup of S4."""

from pathlib import Path

import pytest

from charoracle import mismatches, spec_text, table_payload
from cosetchar.corpus import corpus_specs

ROOT = Path(__file__).resolve().parent.parent
FILES = ["fixtures/f5.group", "fixtures/gl2_3.matgroup", "fixtures/q8_center.group",
         "perfbench/specs/gl2_5.matgroup", "perfbench/specs/s6_a6.group"]
V4 = spec_text(4, [(1, 0, 3, 2), (2, 3, 0, 1)], [(1, 0, 3, 2), (2, 3, 0, 1)])


@pytest.mark.parametrize("spec", corpus_specs(), ids=lambda s: s.label)
def test_corpus_tables_match_the_oracle(spec):
    text = spec_text(spec.degree, spec.generators, spec.normal_generators)
    assert mismatches(table_payload(text)) == []


@pytest.mark.parametrize("name", FILES)
def test_spec_file_tables_match_the_oracle(name):
    assert mismatches(table_payload((ROOT / name).read_text())) == []


def test_oracle_rejects_orthogonal_rows_that_are_not_characters():
    payload = table_payload(V4)
    assert mismatches(payload) == []
    # orthogonal, with degrees that divide |G| and integer values, but no
    # row is a homomorphism; the identity class comes first
    fake = [(1, 1, 1, -1), (1, 1, -1, 1), (1, -1, 1, 1), (1, -1, -1, -1)]
    for row, values in zip(payload["rows"], fake):
        row["numeric"] = [[v, 0.0] for v in values]
    assert mismatches(payload) == [f"row {i} matches no oracle row" for i in range(4)]


def test_oracle_sees_one_value_off_by_a_small_amount():
    payload = table_payload(V4)
    payload["rows"][-1]["numeric"][-1][1] += 1e-8
    assert mismatches(payload) == ["row 3 matches no oracle row"]
