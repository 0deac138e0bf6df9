import cmath
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cosetchar.cyclotomic import (
    Cyclotomic,
    cyclotomic_polynomial,
    euler_phi,
    from_rational,
    root_of_unity,
    value_from_json,
    value_to_json,
)

from test_inversion import is_root_of_unity

# textbook cyclotomic polynomials, low degree first
KNOWN_POLYS = {
    1: (-1, 1),
    2: (1, 1),
    3: (1, 1, 1),
    4: (1, 0, 1),
    5: (1, 1, 1, 1, 1),
    6: (1, -1, 1),
    8: (1, 0, 0, 0, 1),
    12: (1, 0, -1, 0, 1),
}


def test_cyclotomic_polynomials_match_textbook():
    for n, coeffs in KNOWN_POLYS.items():
        assert cyclotomic_polynomial(n) == coeffs


def test_phi_values():
    # oracle: direct gcd count
    for n in range(1, 40):
        direct = sum(1 for k in range(1, n + 1) if __import__("math").gcd(k, n) == 1)
        assert euler_phi(n) == direct


def test_basic_identities():
    i = root_of_unity(4)
    assert i * i == -1
    assert i.conjugate() == -i
    w = root_of_unity(3)
    assert 1 + w + w * w == 0
    assert root_of_unity(1, 0) == 1
    assert root_of_unity(4) ** 2 == root_of_unity(2) == from_rational(-1)


def test_mixed_order_arithmetic():
    z4, z5 = root_of_unity(4), root_of_unity(5)
    prod = z4 * z5
    assert prod.order == 20
    assert prod == root_of_unity(20, 9)  # 1/4 + 1/5 = 9/20
    assert (z4 + z5) - z5 == z4


def test_as_complex_against_cmath():
    for n in (1, 2, 3, 4, 5, 8, 12, 20):
        for k in range(n):
            got = root_of_unity(n, k).as_complex()
            want = cmath.exp(2j * cmath.pi * k / n)
            assert abs(got - want) < 1e-12


def test_is_root_of_unity():
    assert is_root_of_unity(from_rational(1), 8) == (1, 0)
    assert is_root_of_unity(from_rational(-1), 8) == (2, 1)
    assert is_root_of_unity(root_of_unity(4), 8) == (4, 1)
    assert is_root_of_unity(root_of_unity(20, 4), 8) == (5, 1)
    assert is_root_of_unity(from_rational(2), 8) is None
    assert is_root_of_unity(root_of_unity(16), 8) is None


def test_rational_predicates():
    z6 = root_of_unity(6)
    val = z6 + z6.conjugate()  # 2*cos(60 deg) = 1
    assert val.is_rational() and val.as_rational() == 1
    half = from_rational(Fraction(1, 2))
    assert half.as_rational() == Fraction(1, 2)
    with pytest.raises(ValueError):
        root_of_unity(5).as_rational()


def test_division_and_errors():
    z = root_of_unity(8)
    assert (z * 6) / 3 == z + z
    with pytest.raises(ZeroDivisionError):
        z / 0
    with pytest.raises(ValueError):
        z ** -1
    with pytest.raises(ValueError):
        Cyclotomic(0, ())
    with pytest.raises(ValueError):
        Cyclotomic(4, (1, 2, 3))  # wrong length


def test_json_round_trip():
    vals = [from_rational(Fraction(-7, 3)), root_of_unity(12, 5), root_of_unity(5) + 2]
    for v in vals:
        assert value_from_json(value_to_json(v)) == v
    assert value_from_json(3) == 3
    assert value_from_json([1, 2]) == Fraction(1, 2)
    with pytest.raises(ValueError):
        value_from_json("zeta")


small_orders = st.sampled_from([1, 2, 3, 4, 5, 6, 8, 12])


@st.composite
def cyclotomics(draw):
    n = draw(small_orders)
    coeffs = [
        Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 3)))
        for _ in range(euler_phi(n))
    ]
    return Cyclotomic(n, coeffs)


@settings(max_examples=60, deadline=None)
@given(cyclotomics(), cyclotomics(), cyclotomics())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@settings(max_examples=60, deadline=None)
@given(cyclotomics(), cyclotomics())
def test_conjugation_and_embedding(a, b):
    assert a.conjugate().conjugate() == a
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    norm = a * a.conjugate()
    assert norm == norm.conjugate()  # fixed by conjugation
    za, zb = a.as_complex(), b.as_complex()
    assert abs((a + b).as_complex() - (za + zb)) < 1e-12
    assert abs((a * b).as_complex() - za * zb) < 1e-10
    assert abs(a.conjugate().as_complex() - za.conjugate()) < 1e-12


@settings(max_examples=60, deadline=None)
@given(cyclotomics(), st.sampled_from([1, 2, 3, 4, 6, 24]))
def test_promotion_is_a_ring_embedding(a, mult):
    n = lcm(a.order, mult)
    big = a.promoted(n * 2)
    assert big == a
    assert (big * big).order == n * 2 and big * big == a * a
