"""Tests for reconstructing characters from their values on cosets."""

import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cosetchar.chartable import ClassFunction
from cosetchar.corpus import analysis_for, corpus_specs
from cosetchar.cosets import CosetAnalysis
from cosetchar.cyclotomic import from_rational, root_of_unity, value_to_json
from cosetchar.errors import HypothesisError, InternalCheckError, ensure
from cosetchar.groups import generate_group, subgroup_generated
from cosetchar.inversion import (
    DEGREE_LIMIT,
    PsiComponent,
    Theta,
    choose_roots,
    decompose,
    power_sums_to_multiset,
    psi_power_value,
)

from tablefixtures import f5_generators, q8_generators, s3_generators


def f5_analysis():
    G = generate_group(*f5_generators())
    return CosetAnalysis(G, subgroup_generated(G, [(1, 2, 3, 4, 0)]))


def s3_analysis():
    G = generate_group(*s3_generators())
    return CosetAnalysis(G, subgroup_generated(G, [(1, 2, 0)]))


def q8_c4_analysis():
    G = generate_group(*q8_generators())
    i = (2, 3, 1, 0, 6, 7, 5, 4)
    return CosetAnalysis(G, subgroup_generated(G, [i]))


def theta_oracle(table, mults):
    """The multiplicity-weighted sum of the table's rows, one Fraction
    cyclotomic product and sum per row and class."""
    values = [from_rational(0)] * table.classes.n_classes
    for m, row in zip(mults, table.rows):
        if m:
            values = [v + m * x for v, x in zip(values, row.values)]
    return ClassFunction(table.group, table.classes, values)


def orbit_component_oracle(an, mults, orbit):
    """The expected component: the multiplicity-weighted sum of the orbit's rows."""
    return theta_oracle(an.table, [m if r in orbit.member_rows else 0
                                   for r, m in enumerate(mults)])


# -- the Newton route, kept as an oracle for the Fourier inversion --------------

def is_root_of_unity(value, max_order):
    """Return (n, k) with value = zeta_n^k and n minimal among n <= max_order.

    Returns None when the value is no root of unity of order up to max_order.
    """
    for n in range(1, max_order + 1):
        for k in range(n):
            if value == root_of_unity(n, k):
                return (n, k)
    return None


def newton_multiset(power_sums, n):
    """Invert power sums p_1, p_2, ... into a multiset of n-th roots of unity.

    Newton's identities give the elementary symmetric functions, hence a
    monic polynomial whose roots are the multiset padded with zeros; the
    roots are then stripped off by exact synthetic division, trying each
    n-th root of unity in turn.  Raises HypothesisError when the polynomial
    does not split that way.
    """
    count = len(power_sums)
    if count == 0:
        return ()
    e = [from_rational(1)]
    for k in range(1, count + 1):
        total = from_rational(0)
        sign = 1
        for i in range(1, k + 1):
            term = e[k - i] * power_sums[i - 1]
            total = total + (term if sign > 0 else -term)
            sign = -sign
        e.append(total / k)
    poly = []
    sign = 1
    for k in range(count + 1):
        poly.append(e[k] if sign > 0 else -e[k])
        sign = -sign
    roots = []
    for t in range(n):
        zeta = root_of_unity(n, t)
        while len(poly) > 1:
            quot = [poly[0]]
            for c in poly[1:]:
                quot.append(c + zeta * quot[-1])
            if quot[-1].is_zero():
                roots.append(zeta)
                poly = quot[:-1]
            else:
                break
    if any(not c.is_zero() for c in poly[1:]):
        raise HypothesisError(
            "power sums do not come from a multiset of roots of unity")
    for d in range(1, count + 1):
        total = from_rational(0)
        for r in roots:
            total = total + r ** d
        ensure(total == power_sums[d - 1],
               "extracted roots do not reproduce the power sums")
    return tuple(roots)


def search_roots(lambdas, m, max_order):
    """The principal m-th root of each value, found by searching the roots
    of unity of order up to max_order for the value's minimal order."""
    mus = []
    for lam in lambdas:
        rk = is_root_of_unity(lam, max_order)
        if rk is None:
            raise HypothesisError(f"{lam} is not a root of unity of order up to {max_order}")
        n0, k0 = rk
        mus.append(root_of_unity(n0 * m, k0))
    return tuple(mus)


def power_sums(multiset, count):
    """p_0..p_(count-1) of a multiset of cyclotomic values."""
    sums = []
    for d in range(count):
        total = from_rational(0)
        for r in multiset:
            total = total + r ** d
        sums.append(total)
    return sums


def test_power_sums_empty():
    assert newton_multiset([], 4) == ()


def test_power_sums_all_zero_gives_no_roots():
    sums = [from_rational(0)] * 5
    assert newton_multiset(sums, 4) == ()


def test_power_sums_constant_two_gives_double_one():
    sums = [from_rational(2)] * 2
    roots = newton_multiset(sums, 2)
    assert [str(r) for r in roots] == ["1", "1"]


def test_power_sums_zero_two_gives_plus_minus_one():
    sums = [from_rational(0), from_rational(2)]
    roots = newton_multiset(sums, 4)
    assert sorted(str(r) for r in roots) == ["-1", "1"]


def test_power_sums_zero_minus_two_gives_quarter_roots():
    sums = [from_rational(0), from_rational(-2)]
    roots = newton_multiset(sums, 4)
    i4 = root_of_unity(4)
    assert sorted(str(r) for r in roots) == sorted([str(i4), str(-i4)])


def test_power_sums_padding_with_zero_roots():
    # the multiset {1, -1} padded to four unknowns
    sums = [from_rational(x) for x in (0, 2, 0, 2)]
    roots = newton_multiset(sums, 2)
    assert sorted(str(r) for r in roots) == ["-1", "1"]


def test_power_sums_reject_non_unity_roots():
    sums = [from_rational(5)]
    with pytest.raises(HypothesisError):
        newton_multiset(sums, 2)


def test_power_sums_fourth_roots():
    sums = [from_rational(4 if d % 4 == 0 else 0) for d in range(1, 21)]
    roots = newton_multiset(sums, 4)
    assert len(roots) == 4
    assert {str(r) for r in roots} == {"1", "-1", "z4", "-z4"}


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=3), min_size=4, max_size=4),
       st.integers(min_value=0, max_value=3))
def test_power_sums_round_trip_random(mults, pad):
    # build power sums of a known multiset of 4th roots, then invert
    n = 4
    multiset = []
    for t, c in enumerate(mults):
        multiset.extend([root_of_unity(n, t)] * c)
    count = len(multiset) + pad
    sums = []
    for d in range(1, count + 1):
        total = from_rational(0)
        for r in multiset:
            total = total + r ** d
        sums.append(total)
    roots = newton_multiset(sums, n)
    assert sorted(str(r) for r in roots) == sorted(str(r) for r in multiset)


# -- Fourier inversion against the Newton route --------------------------------

@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=8).flatmap(
    lambda ell: st.lists(st.integers(min_value=0, max_value=2),
                         min_size=ell, max_size=ell)))
def test_fourier_inversion_matches_newton(counts):
    ell = len(counts)
    multiset = [root_of_unity(ell, t) for t, c in enumerate(counts) for _ in range(c)]
    sums = power_sums(multiset, max(ell, len(multiset) + 1))
    assert power_sums_to_multiset(sums[:ell]) == tuple(counts)
    assert newton_multiset(sums[1:len(multiset) + 1], ell) == tuple(multiset)


@pytest.mark.parametrize("sums", [
    [from_rational(1), from_rational(0)],  # c_0 = c_1 = 1/2
    [from_rational(0), from_rational(2)],  # c_1 = -1
    [from_rational(1), root_of_unity(4)],  # c_0 = (1 + i)/2
], ids=["fractional", "negative", "irrational"])
def test_fourier_inversion_rejects_non_multisets(sums):
    with pytest.raises(HypothesisError):
        power_sums_to_multiset(sums)


# -- choice of m-th roots -----------------------------------------------------

def test_choose_roots_principal():
    one = from_rational(1)
    minus = from_rational(-1)
    i4 = root_of_unity(4)
    assert search_roots([one], 2, 4) == (one,)
    assert search_roots([minus], 2, 4) == (i4,)
    assert search_roots([i4], 2, 4) == (root_of_unity(8),)
    assert search_roots([root_of_unity(4, 3)], 3, 4) == (root_of_unity(12, 3),)


def test_choose_roots_rejects_non_roots():
    with pytest.raises(HypothesisError):
        search_roots([from_rational(2)], 2, 4)


def test_choose_roots_matches_search():
    for ell in range(1, 9):
        for m in range(1, 4):
            mus = choose_roots(range(ell), ell, m)
            lambdas = [root_of_unity(ell, t) for t in range(ell)]
            want = search_roots(lambdas, m, ell)
            # equal values at equal orders, so every printed form agrees
            assert [(mu.order, mu.coeffs) for mu in mus] == \
                [(mu.order, mu.coeffs) for mu in want]


# -- power sum values from coset data -----------------------------------------

def test_psi_power_value_matches_element_sum():
    an = f5_analysis()
    theta = Theta.from_multiplicities(an.table, (1, 0, 2, 1, 3))
    Q = an.quotient
    q = Q.generator
    for oi, rec in enumerate(an.orbits):
        m = len(rec.stabilizer)
        rho = an.table.rows[rec.representative_row]
        for d in range(0, 5):
            got = psi_power_value(an, theta.class_function, oi, d, q)
            target = Q.power(q, (d * m) % Q.size)
            total = from_rational(0)
            for g in range(an.group.order):
                if Q.coset_of[g] == target:
                    k = an.classes.class_of[g]
                    total = total + rho.values[k].conjugate() * theta.values[k]
            assert got == total / (an.normal.order * m)


def test_power_sums_outside_the_quotient_field_are_no_character():
    # zeta_5 + zeta_5^4 on the 5-cycles puts the power sums outside Q(zeta_4),
    # so some Fourier coefficient is not rational and decompose rejects it
    an = f5_analysis()
    five = next(k for k, rep in enumerate(an.classes.representatives)
                if an.group.element_order(rep) == 5)
    values = [from_rational(0)] * an.classes.n_classes
    values[five] = root_of_unity(5) + root_of_unity(5, 4)
    with pytest.raises(HypothesisError):
        decompose(an, ClassFunction(an.group, an.classes, values))


# -- full decompositions -------------------------------------------------------

def test_f5_regular_character():
    an = f5_analysis()
    theta = Theta.from_multiplicities(an.table, an.table.degrees)
    comps = decompose(an, theta)
    assert len(comps) == 2
    by_orbit = {c.orbit_index: c for c in comps}
    linear = by_orbit[0]
    assert linear.stabilizer_size == 1 and linear.dimension == 4
    assert {str(x) for x in linear.lambdas} == {"1", "-1", "z4", "-z4"}
    assert [str(x) for x in linear.psi_at_powers] == ["4", "0", "0", "0"]
    big = by_orbit[1]
    assert big.stabilizer_size == 4 and big.dimension == 4
    assert [str(x) for x in big.lambdas] == ["1", "1", "1", "1"]
    assert [str(x) for x in big.psi_at_powers] == ["4", "4", "4", "4"]
    # the big component is 4 copies of the degree-4 row
    four_rho = ClassFunction(
        an.group, an.classes,
        [4 * v for v in an.table.rows[big.representative_row].values])
    assert big.component == four_rho


def test_q8_two_dimensional_twist_invariance():
    an = q8_c4_analysis()
    deg = an.table.degrees
    two = deg.index(2)
    theta = Theta.from_multiplicities(
        an.table, tuple(1 if r == two else 0 for r in range(len(deg))))
    comps = decompose(an, theta)
    assert len(comps) == 1
    comp = comps[0]
    assert comp.stabilizer_size == 2 and comp.dimension == 1
    assert comp.component == theta.class_function
    # rebuilding with the other square root gives the same component
    zeta_m = root_of_unity(2)
    rotated = tuple(mu * zeta_m for mu in comp.mus)
    rho = an.table.rows[comp.representative_row]
    n = an.quotient.size
    q = an.quotient.generator
    jmap = {}
    cur = 0
    for j in range(n):
        jmap[cur] = j
        cur = an.quotient.mult(cur, q)
    values = []
    for k, rep in enumerate(an.classes.representatives):
        j = jmap[an.quotient.coset_of[rep]]
        psi_j = from_rational(0)
        for mu in rotated:
            psi_j = psi_j + mu ** j
        values.append(psi_j * rho.values[k])
    alt = ClassFunction(an.group, an.classes, values)
    assert alt == comp.component


def test_components_match_orbit_grouping_oracle():
    rng = random.Random(20240817)
    for make in (s3_analysis, f5_analysis, q8_c4_analysis):
        an = make()
        for _ in range(10):
            mults = tuple(rng.randint(0, 3) for _ in range(an.table.n_rows))
            theta = Theta.from_multiplicities(an.table, mults)
            comps = decompose(an, theta)
            seen = set()
            for comp in comps:
                orbit = an.orbits[comp.orbit_index]
                assert comp.component == orbit_component_oracle(an, mults, orbit)
                seen.add(comp.orbit_index)
            for oi, orbit in enumerate(an.orbits):
                if oi not in seen:
                    assert all(mults[r] == 0 for r in orbit.member_rows)


def test_decompose_at_every_generating_coset():
    an = f5_analysis()
    mults = (1, 2, 0, 1, 1)
    theta = Theta.from_multiplicities(an.table, mults)
    for q in an.quotient.generating_cosets():
        comps = decompose(an, theta, q)
        for comp in comps:
            orbit = an.orbits[comp.orbit_index]
            assert comp.component == orbit_component_oracle(an, mults, orbit)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=3), min_size=3, max_size=3))
def test_round_trip_s3_property(mults):
    an = s3_analysis()
    theta = Theta.from_multiplicities(an.table, tuple(mults))
    comps = decompose(an, theta)
    total = None
    for comp in comps:
        total = comp.component if total is None else total + comp.component
    if total is None:
        assert all(m == 0 for m in mults)
    else:
        assert total == theta.class_function


# -- building theta from multiplicities ----------------------------------------

@lru_cache(maxsize=None)
def corpus_table(index):
    return analysis_for(corpus_specs()[index]).table


@st.composite
def table_and_multiplicities(draw):
    """A corpus pair's table (GL2(3)/SL2(3) among them) and multiplicities:
    each 0..3, all zero, or one row's as large as the degree limit allows."""
    table = corpus_table(draw(st.integers(0, len(corpus_specs()) - 1)))
    rows = table.n_rows
    kind = draw(st.sampled_from(["small", "zero", "near_cap"]))
    if kind == "small":
        mults = draw(st.lists(st.integers(0, 3), min_size=rows, max_size=rows))
    else:
        mults = [0] * rows
        if kind == "near_cap":
            row = draw(st.integers(0, rows - 1))
            mults[row] = DEGREE_LIMIT // table.degrees[row] - draw(st.integers(0, 2))
    return table, tuple(mults)


@settings(max_examples=60, deadline=None)
@given(table_and_multiplicities())
def test_theta_from_multiplicities_matches_fraction_oracle(case):
    table, mults = case
    theta = Theta.from_multiplicities(table, mults)
    want = theta_oracle(table, mults)
    assert theta.class_function == want
    # the same order and coefficients at every class, so the same JSON
    assert [value_to_json(v) for v in theta.values] == [value_to_json(v) for v in want.values]
    assert theta.degree == sum(m * d for m, d in zip(mults, table.degrees))
    assert Theta.from_values(table, theta.values).multiplicities == mults


def test_theta_degree_limit():
    table = corpus_table(0)  # C6/C3: six linear characters
    at_limit = (DEGREE_LIMIT - 1, 1, 0, 0, 0, 0)
    assert Theta.from_multiplicities(table, at_limit).degree == DEGREE_LIMIT
    over = (DEGREE_LIMIT, 1, 0, 0, 0, 0)
    with pytest.raises(ValueError, match=f"exceeds the limit of {DEGREE_LIMIT}"):
        Theta.from_multiplicities(table, over)
    # checked on the given degree before any inner product
    with pytest.raises(ValueError, match=f"exceeds the limit of {DEGREE_LIMIT}"):
        Theta.from_values(table, [DEGREE_LIMIT + 1] + [0] * 5)


# -- validation and failure modes ----------------------------------------------

def test_theta_from_values_round_trip():
    an = s3_analysis()
    theta = Theta.from_multiplicities(an.table, (2, 0, 1))
    again = Theta.from_values(an.table, theta.values)
    assert again.multiplicities == (2, 0, 1)
    assert again.degree == 4


def test_theta_from_values_rejects_non_characters():
    an = s3_analysis()
    with pytest.raises(HypothesisError):
        Theta.from_values(an.table, [1, 1, -1 + 0 * root_of_unity(4)])
    with pytest.raises(HypothesisError):
        Theta.from_values(an.table, [Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)])


def test_theta_from_multiplicities_validation():
    an = s3_analysis()
    with pytest.raises(ValueError):
        Theta.from_multiplicities(an.table, (1, 2))
    with pytest.raises(ValueError):
        Theta.from_multiplicities(an.table, (1, -1, 0))


def test_decompose_requires_cyclic_quotient():
    G = generate_group(*q8_generators())
    i = (2, 3, 1, 0, 6, 7, 5, 4)
    minus_one = G.mul(G.index_of(i), G.index_of(i))
    an = CosetAnalysis(G, subgroup_generated(G, [minus_one]))
    theta = Theta.from_multiplicities(an.table, (1,) * an.table.n_rows)
    with pytest.raises(HypothesisError):
        decompose(an, theta)


def test_decompose_requires_generating_coset():
    an = f5_analysis()
    theta = Theta.from_multiplicities(an.table, (1, 0, 0, 0, 0))
    bad = an.quotient.power(an.quotient.generator, 2)
    with pytest.raises(HypothesisError):
        decompose(an, theta, bad)


def test_decompose_rejects_junk_class_functions():
    an = s3_analysis()
    # degree 1 but the power sums are not power sums of roots of unity
    junk = ClassFunction(an.group, an.classes, [1, 1, 5])
    with pytest.raises(HypothesisError):
        decompose(an, junk)
    # fractional degree
    frac = ClassFunction(an.group, an.classes,
                         [Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)])
    with pytest.raises(HypothesisError):
        decompose(an, frac)


def test_decompose_rejects_more_roots_than_the_degree_allows():
    an = f5_analysis()
    # 4 * trivial - (degree-4 row) has degree 0, yet four linear roots
    trivial, big = an.table.rows[0], an.table.rows[4]
    junk = trivial.scaled(4) + big.scaled(-1)
    with pytest.raises(HypothesisError, match=r"theta\(1\)/rho\(1\) is 0"):
        decompose(an, junk)


def test_decompose_rejects_values_outside_quotient_field():
    an = f5_analysis()
    z5 = root_of_unity(5)
    junk = ClassFunction(an.group, an.classes, [1, 1, 1, 1, z5])
    with pytest.raises(HypothesisError):
        decompose(an, junk)


def test_decompose_wrong_group():
    an = s3_analysis()
    other = f5_analysis()
    theta = Theta.from_multiplicities(other.table, (1, 0, 0, 0, 0))
    with pytest.raises(ValueError):
        decompose(an, theta)
