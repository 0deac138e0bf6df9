import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cosetchar.errors import HypothesisError
from cosetchar.groups import (
    AbelianQuotient,
    conjugacy_classes,
    cycle_string,
    generate_group,
    is_normal,
    quotient,
    subgroup_as_group,
    subgroup_generated,
)
from tablefixtures import from_cycles


def brute_closure(degree, gens):
    """Oracle: close image tuples under composition by repeated passes."""
    ident = tuple(range(degree))
    elems = {ident} | {tuple(g) for g in gens}
    while True:
        new = {tuple(a[b[i]] for i in range(degree)) for a in elems for b in elems}
        if new <= elems:
            return elems
        elems |= new


def brute_conjugacy_partition(G):
    """Oracle: conjugation orbits by running over every group element."""
    parts = []
    left = set(range(G.order))
    while left:
        x = min(left)
        orbit = {G.mul(G.mul(g, x), G.inv(g)) for g in range(G.order)}
        parts.append(frozenset(orbit))
        left -= orbit
    return set(parts)


def test_permutation_basics():
    s3 = generate_group(3, [(1, 0, 2), from_cycles(3, (0, 1, 2))])
    p, q = s3.generators
    # right-to-left composition: (p * q)(i) = p(q(i))
    assert s3.elements[s3.mul(p, q)] == (0, 2, 1)
    assert s3.elements[s3.mul(q, p)] == (2, 1, 0)
    assert s3.mul(p, p) == 0 and s3.elements[0] == (0, 1, 2)
    assert s3.mul(s3.mul(q, q), q) == 0
    assert s3.mul(s3.inv(q), q) == 0 and s3.elements[s3.inv(q)] == (2, 0, 1)
    assert s3.element_order(q) == 3 and s3.element_order(p) == 2
    assert s3.element_order(0) == 1
    assert cycle_string(s3.elements[q]) == "(0 1 2)" and cycle_string((0, 1, 2)) == "()"
    assert cycle_string(from_cycles(5, (3, 1), (4, 0, 2))) == "(0 2 4)(1 3)"
    with pytest.raises(ValueError):
        generate_group(3, [(0, 0, 1)])
    with pytest.raises(ValueError):
        generate_group(3, [(1, 0)])


S5 = generate_group(5, [(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)])


@settings(max_examples=50, deadline=None)
@given(st.permutations(range(5)), st.permutations(range(5)), st.permutations(range(5)))
def test_permutation_group_axioms(a, b, c):
    p, q, r = S5.index_of(a), S5.index_of(b), S5.index_of(c)
    assert S5.mul(S5.mul(p, q), r) == S5.mul(p, S5.mul(q, r))
    assert S5.mul(p, 0) == p == S5.mul(0, p)
    assert S5.mul(p, S5.inv(p)) == 0 == S5.mul(S5.inv(p), p)
    assert S5.elements[S5.mul(p, q)][3] == a[b[3]]
    # the order is the smallest k with p^k = 1
    k, power = 1, p
    while power != 0:
        power = S5.mul(power, p)
        k += 1
    assert S5.element_order(p) == k


def test_generate_cyclic_and_frobenius():
    c5 = generate_group(5, [from_cycles(5, (0, 1, 2, 3, 4))])
    assert c5.order == 5
    f5 = generate_group(5, [
        from_cycles(5, (0, 1, 2, 3, 4)),
        (0, 2, 4, 1, 3),  # x -> 2x mod 5
    ])
    assert f5.order == 20
    assert f5.elements[0] == (0, 1, 2, 3, 4)


def test_generate_matches_brute_closure():
    gens = [(1, 0, 2), (1, 2, 0)]
    G = generate_group(3, gens)
    assert set(G.elements) == brute_closure(3, gens)
    assert G.order == 6


def test_order_limit():
    with pytest.raises(ValueError):
        generate_group(5, [from_cycles(5, (0, 1, 2, 3, 4))], order_limit=3)


def test_conjugacy_classes_c5():
    c5 = generate_group(5, [from_cycles(5, (0, 1, 2, 3, 4))])
    cls = conjugacy_classes(c5)
    assert cls.sizes == (1, 1, 1, 1, 1)
    assert cls.representatives[0] == 0


def test_conjugacy_classes_f5_sizes():
    f5 = generate_group(5, [
        from_cycles(5, (0, 1, 2, 3, 4)),
        (0, 2, 4, 1, 3),
    ])
    cls = conjugacy_classes(f5)
    assert sorted(cls.sizes) == [1, 4, 5, 5, 5]
    # ordered by (element order, size, representative)
    orders = [f5.element_order(r) for r in cls.representatives]
    assert orders == [1, 2, 4, 4, 5]
    assert cls.sizes == (1, 5, 5, 5, 4)


def test_conjugacy_partition_matches_oracle():
    G = generate_group(3, [(1, 0, 2), (1, 2, 0)])
    cls = conjugacy_classes(G)
    assert {frozenset(m) for m in cls.members} == brute_conjugacy_partition(G)


def test_subgroups_and_normality():
    s3 = generate_group(3, [(1, 0, 2), (1, 2, 0)])
    a3 = subgroup_generated(s3, [(1, 2, 0)])
    assert a3.order == 3
    assert is_normal(s3, a3)
    flip = subgroup_generated(s3, [(1, 0, 2)])
    assert flip.order == 2
    # oracle: conjugating the transposition by a 3-cycle leaves the subgroup
    conj = (0, 2, 1)  # (1 2) = (0 1 2)(0 1)(0 1 2)^-1
    assert s3.index_of(conj) not in flip.member_set
    assert not is_normal(s3, flip)
    triv = subgroup_generated(s3, [])
    assert triv.order == 1 and is_normal(s3, triv)


def test_subgroup_as_group():
    s3 = generate_group(3, [(1, 0, 2), (1, 2, 0)])
    a3 = subgroup_generated(s3, [(1, 2, 0)])
    H = subgroup_as_group(s3, a3)
    assert H.order == 3 and H.degree == 3
    assert set(H.elements) == {s3.elements[i] for i in a3.members}


def test_quotient_trivial_and_whole():
    s3 = generate_group(3, [(1, 0, 2), (1, 2, 0)])
    whole = subgroup_generated(s3, list(range(6)))
    Q = quotient(s3, whole)
    assert Q.size == 1 and Q.is_cyclic and Q.cyclic_factors == ()
    assert Q.generator == 0 and Q.power(0, 7) == 0


def test_quotient_not_normal_raises():
    s3 = generate_group(3, [(1, 0, 2), (1, 2, 0)])
    flip = subgroup_generated(s3, [(1, 0, 2)])
    with pytest.raises(HypothesisError):
        quotient(s3, flip)


def test_quotient_not_abelian_raises():
    s4 = generate_group(4, [(1, 0, 2, 3), (1, 2, 3, 0)])
    triv = subgroup_generated(s4, [])
    with pytest.raises(HypothesisError):
        quotient(s4, triv)


def test_quotient_f5_is_cyclic_of_order_4():
    f5 = generate_group(5, [
        from_cycles(5, (0, 1, 2, 3, 4)),
        (0, 2, 4, 1, 3),
    ])
    n = subgroup_generated(f5, [from_cycles(5, (0, 1, 2, 3, 4))])
    Q = quotient(f5, n)
    assert Q.size == 4 and Q.is_cyclic
    assert [o for _, o in Q.cyclic_factors] == [4]
    assert Q.coset_reps[0] == 0
    g = Q.generator
    assert Q.power(g, 2) == Q.mult(g, g)
    assert Q.power(g, 4) == 0
    assert sorted(Q.cyclic_log(c) for c in range(4)) == [0, 1, 2, 3]
    assert len(Q.generating_cosets()) == 2  # the two cosets of order 4


def test_quotient_q8_central_is_klein():
    # quaternion group acting on itself by left multiplication,
    # points ordered 1, -1, i, -i, j, -j, k, -k
    perm_i = (2, 3, 1, 0, 6, 7, 5, 4)
    perm_j = (4, 5, 7, 6, 1, 0, 2, 3)
    q8 = generate_group(8, [perm_i, perm_j])
    assert q8.order == 8
    i = q8.index_of(perm_i)
    center = subgroup_generated(q8, [q8.mul(i, i)])
    assert center.order == 2
    Q = quotient(q8, center)
    assert Q.size == 4 and not Q.is_cyclic
    assert [o for _, o in Q.cyclic_factors] == [2, 2]
    # oracle: brute-force coset multiplication has every square trivial
    for a in range(4):
        assert Q.mult(a, a) == 0
    assert sorted(Q.coset_exponents) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    with pytest.raises(HypothesisError):
        Q.generator


def test_power_coset_exhaustive_c6_over_c3():
    c6 = generate_group(6, [from_cycles(6, (0, 1, 2, 3, 4, 5))])
    c3 = subgroup_generated(c6, [from_cycles(6, (0, 2, 4), (1, 3, 5))])
    Q = quotient(c6, c3)
    assert Q.size == 2
    for c in range(2):
        for k in range(6):
            brute = 0
            for _ in range(k):
                brute = Q.mult(brute, c)
            assert Q.power(c, k) == brute
    with pytest.raises(ValueError):
        Q.power(1, -1)


def test_invariant_factor_shapes():
    # C2 x C4 built from commuting cycles on disjoint points
    g1 = from_cycles(6, (0, 1))
    g2 = from_cycles(6, (2, 3, 4, 5))
    G = generate_group(6, [g1, g2])
    assert G.order == 8
    triv = subgroup_generated(G, [])
    Q = quotient(G, triv)
    assert [o for _, o in Q.cyclic_factors] == [4, 2]
    # exponent tuples enumerate the direct product exactly
    assert sorted(Q.coset_exponents) == sorted(itertools.product(range(4), range(2)))
