import random
from fractions import Fraction

import numpy as np
import pytest

from cosetchar.chartable import (
    CharacterTable,
    ClassFunction,
    _certify_table,
    _dixon_omegas,
    _eigenvalues_mod,
    _hermitian_gram,
    _nullspace_mod,
    character_table,
    class_constants,
    inner_product,
    restrict,
    restriction_norm,
)
from cosetchar.corpus import corpus_specs
from cosetchar.cyclotomic import Cyclotomic, _power_table, from_rational
from cosetchar.errors import InternalCheckError, ensure
from cosetchar.groupio import build_group, parse_group_spec
from cosetchar.groups import (
    conjugacy_classes,
    generate_group,
    subgroup_as_group,
    subgroup_generated,
)
from cosetchar.inversion import Theta
from tablefixtures import TEXTBOOK_TABLES, from_cycles, tables_match


def build(name):
    degree, gens = TEXTBOOK_TABLES[name][0]()
    return generate_group(degree, gens)


def test_class_constants_trivial_and_c2():
    triv = generate_group(1, [])
    cls = conjugacy_classes(triv)
    assert class_constants(triv, cls) == [[[1]]]
    c2 = generate_group(2, [(1, 0)])
    cls2 = conjugacy_classes(c2)
    a = class_constants(c2, cls2)
    # the flip times itself is the identity, once
    assert a[1][1][0] == 1 and a[1][1][1] == 0
    assert a[0][1][1] == 1 and a[1][0][1] == 1


def test_class_constants_match_pair_enumeration():
    G = build("S3")
    cls = conjugacy_classes(G)
    a = class_constants(G, cls)
    for i in range(cls.n_classes):
        for j in range(cls.n_classes):
            for k in range(cls.n_classes):
                z0 = cls.representatives[k]
                direct = sum(
                    1
                    for x in cls.members[i]
                    for y in cls.members[j]
                    if G.mul(x, y) == z0
                )
                assert a[i][j][k] == direct


def test_character_table_c2():
    c2 = generate_group(2, [(1, 0)])
    table = character_table(c2)
    assert table.degrees == (1, 1)
    got = {tuple(str(v) for v in row.values) for row in table.rows}
    assert got == {("1", "1"), ("1", "-1")}
    # trivial character sorts first
    assert all(v == 1 for v in table.rows[0].values)


def test_character_table_trivial_group():
    table = character_table(generate_group(3, []))
    assert table.degrees == (1,) and table.rows[0].values[0] == 1


def test_s3_matches_textbook():
    table = character_table(build("S3"))
    _, profile, rows = TEXTBOOK_TABLES["S3"]
    assert tables_match(table, profile, rows)


def test_f5_table_matches_published_values():
    table = character_table(build("F5"))
    _, profile, rows = TEXTBOOK_TABLES["F5"]
    assert tables_match(table, profile, rows)
    assert sorted(table.degrees) == [1, 1, 1, 1, 4]


def test_inner_products_f5():
    table = character_table(build("F5"))
    triv = table.rows[0]
    big = table.rows[-1]
    assert table.degrees[-1] == 4
    assert inner_product(triv, triv) == 1
    assert inner_product(big, big) == 1
    # oracle: the weighted sum computed by hand from the row values
    direct = from_rational(0)
    for size, a, b in zip(table.classes.sizes, triv.values, big.values):
        direct = direct + a * b.conjugate() * size
    assert direct == 0
    assert inner_product(triv, big) == 0


def test_restrict_to_a3():
    s3 = build("S3")
    table = character_table(s3)
    a3 = subgroup_generated(s3, [(1, 2, 0)])
    H = subgroup_as_group(s3, a3)
    hcls = conjugacy_classes(H)
    std = table.rows[-1]
    assert table.degrees[-1] == 2
    res = restrict(std, H, hcls)
    assert [str(v) for v in res.values] == ["2", "-1", "-1"]
    assert inner_product(res, res) == 2
    assert restriction_norm(std, a3) == 2
    res_triv = restrict(table.rows[0], H, hcls)
    assert all(v == 1 for v in res_triv.values)


def test_restriction_norm_f5():
    f5 = build("F5")
    table = character_table(f5)
    n = subgroup_generated(f5, [from_cycles(5, (0, 1, 2, 3, 4))])
    big = table.rows[-1]
    assert restriction_norm(big, n) == 4
    assert restriction_norm(table.rows[0], n) == 1


def test_table_deterministic():
    t1 = character_table(build("S4"))
    t2 = character_table(build("S4"))
    for r1, r2 in zip(t1.rows, t2.rows):
        assert [str(v) for v in r1.values] == [str(v) for v in r2.values]


def test_table_independent_of_generator_order():
    degree, gens = TEXTBOOK_TABLES["S4"][0]()
    t1 = character_table(generate_group(degree, gens))
    t2 = character_table(generate_group(degree, gens[::-1]))
    _, profile, rows = TEXTBOOK_TABLES["S4"]
    assert tables_match(t1, profile, rows) and tables_match(t2, profile, rows)


def test_class_function_arithmetic():
    s3 = build("S3")
    table = character_table(s3)
    cls = table.classes
    triv, sgn = table.rows[0], table.rows[1]
    assert (triv + sgn).values[0] == 2
    assert sgn.scaled(Fraction(1, 2)).values[0] == Fraction(1, 2)
    assert triv.values[cls.class_of[0]] == 1
    with pytest.raises(ValueError):
        ClassFunction(s3, cls, [1])
    c2 = generate_group(2, [(1, 0)])
    f2 = character_table(c2).rows[0]
    with pytest.raises(ValueError):
        inner_product(triv, f2)


def test_find_row():
    table = character_table(build("S3"))
    assert table.find_row(table.rows[2].values) == 2
    wrong = [from_rational(5)] * 3
    assert table.find_row(wrong) is None


def test_row_orthogonality_exact_d4():
    table = character_table(build("D4"))
    for i in range(table.n_rows):
        for j in range(table.n_rows):
            assert inner_product(table.rows[i], table.rows[j]) == (1 if i == j else 0)
    assert sum(d * d for d in table.degrees) == 8


# -- the integer array certificate against the Fraction oracle ----------------


def fraction_certificate(table):
    """The table certificate in exact Fraction arithmetic on the Cyclotomic
    rows: the reference the integer array certificate is checked against."""
    G, classes = table.group, table.classes
    r = table.n_rows
    ensure(sum(d * d for d in table.degrees) == G.order,
           "squared degrees do not sum to the group order")
    for d in table.degrees:
        ensure(d >= 1 and G.order % d == 0, "degree does not divide the group order")
    for row in table.rows:
        ensure(all(c.denominator == 1 for v in row.values for c in v.coeffs),
               "character value is not an algebraic integer")
    for i in range(r):
        for j in range(i, r):
            ip = inner_product(table.rows[i], table.rows[j])
            ensure(ip == (1 if i == j else 0), "row orthogonality failed")
    for c1 in range(r):
        for c2 in range(c1, r):
            total = from_rational(0)
            for row in table.rows:
                total = total + row.values[c1] * row.values[c2].conjugate()
            want = Fraction(G.order, classes.sizes[c1]) if c1 == c2 else 0
            ensure(total == want, "column orthogonality failed")


@pytest.fixture(scope="module")
def certified_tables():
    """Every corpus pair's table, with its normal subgroup, plus GL2(5) and S6."""
    out = {}
    for spec in corpus_specs():
        G, N = build_group(spec)
        out[spec.label] = (character_table(G), N)
    gl2_5 = parse_group_spec("prime 5\nmatgen 1 1 0 1\nmatgen 1 0 1 1\nmatgen 2 0 0 1\n")
    out["GL2(5)"] = (character_table(build_group(gl2_5)[0]), None)
    s6 = generate_group(6, [from_cycles(6, (0, 1)),
                            from_cycles(6, (0, 1, 2, 3, 4, 5))])
    out["S6"] = (character_table(s6), None)
    return out


def test_both_certificates_accept_every_table(certified_tables):
    for table, _ in certified_tables.values():
        fraction_certificate(table)
        _certify_table(table)


def _shift_one_value(table):
    """The last row's multiplicities in the last class, with one unit moved
    from zeta^0 to zeta^1: its value there plus zeta - 1."""
    mults = [m.copy() for m in table.mults]
    mults[-1][-1, 0] -= 1
    mults[-1][-1, 1] += 1
    return mults


def _swap_two_rows_in_one_column(table):
    """Row 0 and the first row that differs from it, swapped in the last class."""
    mults = [m.copy() for m in table.mults]
    last = mults[-1]
    j = next(j for j in range(table.n_rows) if not np.array_equal(last[j], last[0]))
    last[[0, j]] = last[[j, 0]]
    return mults


@pytest.mark.parametrize("corrupt", [_shift_one_value, _swap_two_rows_in_one_column])
@pytest.mark.parametrize("name", ["S3/A3", "Q8/Z", "GL2(3)/SL2(3)", "S6"])
def test_both_certificates_reject_a_corrupted_table(certified_tables, corrupt, name):
    table = certified_tables[name][0]
    bad = CharacterTable(table.group, table.classes, corrupt(table))
    with pytest.raises(InternalCheckError):
        fraction_certificate(bad)
    with pytest.raises(InternalCheckError):
        _certify_table(bad)


def test_rows_are_the_characters_of_unit_multiplicities(certified_tables):
    for name, (table, _) in certified_tables.items():
        for i, row in enumerate(table.rows):
            unit = [0] * table.n_rows
            unit[i] = 1
            assert Theta.from_multiplicities(table, unit).values == row.values, name
            assert table.find_row(row.values) == i, name


def _gram_oracle(X, weights, e):
    n, c, _ = X.shape
    vals = [[Cyclotomic(e, X[i, k].tolist()) for k in range(c)] for i in range(n)]
    out = []
    for i in range(n):
        for j in range(n):
            total = from_rational(0)
            for k in range(c):
                total = total + vals[i][k] * vals[j][k].conjugate() * weights[k]
            out.append([int(x) for x in total.coeff_key(e)])
    return np.array(out, dtype=object).reshape(n, n, -1)


@pytest.mark.parametrize("e,scale,dtype", [
    (12, 5, np.float64),
    (12, 2**40, object),
    (15, 2**31, object),
])
def test_hermitian_gram_is_exact_on_both_branches(e, scale, dtype):
    rng = np.random.default_rng(e + scale)
    phi = len(_power_table(e)[0])
    X = rng.integers(-scale, scale, size=(3, 4, phi), dtype=np.int64)
    weights = [1, 2, 3, 4]
    got = _hermitian_gram(X, weights, e)
    assert got.dtype == dtype
    assert np.array_equal(got, _gram_oracle(X, weights, e))


def test_eigenvalues_match_a_scan_of_the_field():
    rng = random.Random(7)
    for p in (2, 3, 5, 7, 13, 241, 337):
        for d in range(1, 9):
            dense = [[rng.randrange(p) for _ in range(d)] for _ in range(d)]
            # lower triangular with diagonal entries from {0, 1, 2}: many and repeated roots
            lower = [[rng.randrange(3) if i == j else rng.randrange(p) if j < i else 0
                      for j in range(d)] for i in range(d)]
            for X in (dense, lower):
                scan = [lam for lam in range(p) if _nullspace_mod(
                    [[(X[i][j] - (lam if i == j else 0)) % p for j in range(d)]
                     for i in range(d)], p)]
                assert _eigenvalues_mod(X, p) == scan, (p, X)


def test_dixon_split_rejects_a_class_matrix_that_does_not_diagonalize():
    jordan = [[1, 1], [0, 1]]
    with pytest.raises(InternalCheckError, match="did not diagonalize"):
        _dixon_omegas([[[0, 0], [0, 0]], jordan], 2, 7)


def test_restriction_norm_matches_member_sum(certified_tables):
    for name, (table, N) in certified_tables.items():
        if N is None:
            continue
        for row in table.rows:
            total = from_rational(0)
            for n in N.members:
                v = row.values[table.classes.class_of[n]]
                total = total + v * v.conjugate()
            assert restriction_norm(row, N) == total / N.order, name
