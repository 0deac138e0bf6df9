"""Tests for the per-coset class/character correspondence machinery."""

from fractions import Fraction

import pytest

from cosetchar.chartable import character_table, inner_product, restrict
from cosetchar.cosets import (
    CosetAnalysis,
    dual_group,
    lift_to_group,
)
from cosetchar.cyclotomic import from_rational, root_of_unity
from cosetchar.errors import HypothesisError, InternalCheckError
from cosetchar.groups import (
    generate_group,
    quotient,
    subgroup_generated,
)

from tablefixtures import f5_generators, q8_generators, s3_generators


def f5_analysis():
    G = generate_group(*f5_generators())
    N = subgroup_generated(G, [(1, 2, 3, 4, 0)])
    return CosetAnalysis(G, N)


def s3_analysis():
    G = generate_group(*s3_generators())
    N = subgroup_generated(G, [(1, 2, 0)])
    return CosetAnalysis(G, N)


def q8_analysis(center: bool):
    G = generate_group(*q8_generators())
    i = (2, 3, 1, 0, 6, 7, 5, 4)
    gen = [G.mul(G.index_of(i), G.index_of(i))] if center else [i]
    return CosetAnalysis(G, subgroup_generated(G, gen))


def test_dual_group_c2():
    G = generate_group(*s3_generators())
    N = subgroup_generated(G, [(1, 2, 0)])
    Q = quotient(G, N)
    chars = dual_group(Q)
    assert len(chars) == 2
    assert chars[0].is_trivial
    assert [str(v) for v in chars[0].values] == ["1", "1"]
    assert [str(v) for v in chars[1].values] == ["1", "-1"]


def test_dual_group_klein():
    an = q8_analysis(center=True)
    chars = an.dual_chars
    assert len(chars) == 4
    # every nontrivial character of the Klein quotient takes value -1 twice
    for ch in chars[1:]:
        vals = sorted(str(v) for v in ch.values)
        assert vals == ["-1", "-1", "1", "1"]


def test_dual_group_c4_has_order_four_values():
    an = f5_analysis()
    i4 = root_of_unity(4)
    gen = an.quotient.generator
    values_at_gen = [ch.values[gen] for ch in an.dual_chars]
    for want in (from_rational(1), from_rational(-1), i4, -i4):
        assert sum(1 for v in values_at_gen if v == want) == 1


def test_dual_group_rejects_relabelled_cosets():
    # swapping the exponents of g and g^2 in C4 gives value vectors that are
    # pairwise distinct and closed under products, but not homomorphisms
    G = generate_group(4, [(1, 2, 3, 0)])
    Q = quotient(G, subgroup_generated(G, []))
    g = Q.cyclic_factors[0][0]
    g2 = Q.mult(g, g)
    exps = list(Q.coset_exponents)
    exps[g], exps[g2] = exps[g2], exps[g]
    Q.coset_exponents = tuple(exps)
    with pytest.raises(InternalCheckError, match="homomorphism"):
        dual_group(Q)


def test_dual_group_c6_by_c6_is_certified_whole():
    G = generate_group(12, [(1, 2, 3, 4, 5, 0, 6, 7, 8, 9, 10, 11),
                            (0, 1, 2, 3, 4, 5, 7, 8, 9, 10, 11, 6)])
    Q = quotient(G, subgroup_generated(G, []))
    assert Q.size == 36
    chars = dual_group(Q)
    assert len(chars) == 36 and chars[0].is_trivial
    # a homomorphism is fixed by its values on the generators; all 36 occur
    gens = [g for g, _ in Q.cyclic_factors]
    assert len({tuple(ch.values[g].coeff_key(6) for g in gens) for ch in chars}) == 36


def test_lift_is_class_function_with_quotient_values():
    an = s3_analysis()
    lifted = lift_to_group(an.dual_chars[1], an.table)
    Q = an.quotient
    for k, rep in enumerate(an.classes.representatives):
        assert lifted.values[k] == an.dual_chars[1].values[Q.coset_of[rep]]


def test_tensor_action_fixes_and_moves():
    an = s3_analysis()
    # degrees of S3 rows are (1, 1, 2); the 2-dim row is fixed by tensoring,
    # the linear rows swap
    deg = an.table.degrees
    two = deg.index(2)
    linear = tuple(r for r in range(3) if deg[r] == 1)
    by_rows = {rec.member_rows: rec for rec in an.orbits}
    assert by_rows[(two,)].stabilizer == (0, 1)
    assert by_rows[linear].representative_row == linear[0]
    assert by_rows[linear].stabilizer == (0,)


def test_orbits_s3():
    an = s3_analysis()
    assert len(an.orbits) == 2
    lens = sorted(o.length for o in an.orbits)
    assert lens == [1, 2]
    for rec in an.orbits:
        # orbit-stabilizer over a quotient of order 2
        assert rec.length * len(rec.stabilizer) == 2
        assert rec.representative_row == min(rec.member_rows)


def test_orbits_q8_center():
    an = q8_analysis(center=True)
    lens = sorted(o.length for o in an.orbits)
    assert lens == [1, 4]
    fixed = [o for o in an.orbits if o.length == 1][0]
    assert an.table.degrees[fixed.representative_row] == 2
    assert len(fixed.stabilizer) == 4


def test_pi_q_matches_parity_combination():
    # over an index-2 subgroup the coset indicators are the half-sum and
    # half-difference of the two lifted linear characters
    an = s3_analysis()
    lifts = [lift_to_group(ch, an.table) for ch in an.dual_chars]
    half = Fraction(1, 2)
    expect_n = (lifts[0] + lifts[1]).scaled(half)
    expect_q = (lifts[0] + lifts[1].scaled(-1)).scaled(half)
    assert an.pi(0) == expect_n
    assert an.pi(1) == expect_q


def test_pi_q_is_exact_indicator():
    an = f5_analysis()
    Q = an.quotient
    for c in range(Q.size):
        ind = an.pi(c)
        for k, rep in enumerate(an.classes.representatives):
            assert ind.values[k] == (1 if Q.coset_of[rep] == c else 0)


def test_f5_identity_coset_matrix():
    an = f5_analysis()
    rep = an.report(0)
    assert rep.label == "N"
    assert rep.n_classes == 2 and rep.n_orbits == 2
    # exact payload values and radicands: entry = sqrt(radicand) * value
    assert [[str(v) for v in row] for row in rep.entries] == [["1", "1"], ["4", "-1"]]
    assert rep.radicands == (
        (Fraction(1, 5), Fraction(4, 5)),
        (Fraction(1, 20), Fraction(1, 5)),
    )
    # numerically (1/sqrt 5) * [[1, 2], [2, -1]]
    import math
    scale = 1 / math.sqrt(5)
    want = [[scale, 2 * scale], [2 * scale, -scale]]
    for a in range(2):
        for b in range(2):
            assert abs(rep.numeric[a][b] - want[a][b]) < 1e-9
    assert rep.gram_certified
    assert rep.max_unitarity_deviation < 1e-9


def test_f5_generating_cosets_are_one_by_one():
    an = f5_analysis()
    for c in an.quotient.generating_cosets():
        rep = an.report(c)
        assert rep.n_classes == 1 and rep.n_orbits == 1
        assert str(rep.entries[0][0]) == "1"
        assert rep.extendability == (1, 1, 1, 1, 1)


def test_f5_nongenerating_coset():
    an = f5_analysis()
    c2 = an.quotient.power(an.quotient.generator, 2)
    rep = an.report(c2)
    assert rep.n_classes == 1 and rep.extendability is None


def test_q8_center_theorem_checks_all_cosets():
    an = q8_analysis(center=True)
    assert not an.quotient.is_cyclic
    shapes = sorted((an.report(c).n_classes, an.report(c).n_orbits)
                    for c in range(4))
    assert shapes == [(1, 1), (1, 1), (1, 1), (2, 2)]
    for c in range(4):
        assert an.report(c).gram_certified
        assert an.report(c).max_unitarity_deviation < 1e-9


def test_extendability_counts_s3():
    an = s3_analysis()
    q = an.quotient.generator
    assert an.extendability_counts(q) == (1, 1, 1, 1, 1)

    # independent recomputation of each count from its definition
    G, table, classes = an.group, an.table, an.classes
    Q = an.quotient
    a = sum(1 for rep in classes.representatives if Q.coset_of[rep] == q)
    assert a == 1
    H, hcls, htable = an.normal_group_data()
    norms = [int(inner_product(r, r).as_rational()) for r in table.rows]
    assert sorted(norms) == [1, 1, 1]  # characters are irreducible
    res_norms = [
        int(inner_product(restrict(r, H, hcls), restrict(r, H, hcls)).as_rational())
        for r in table.rows
    ]
    assert sorted(res_norms) == [1, 1, 2]
    assert sum(1 for x in res_norms if x == 1) // Q.size == 1
    extending = {
        htable.find_row(restrict(r, H, hcls).values)
        for r in table.rows
    } - {None}
    assert len(extending) == 1


def test_extendability_counts_q8_c4():
    an = q8_analysis(center=False)
    assert an.extendability_counts(an.quotient.generator) == (2, 2, 2, 2, 2)


def test_extendability_requires_generating_coset():
    an = f5_analysis()
    c2 = an.quotient.power(an.quotient.generator, 2)
    with pytest.raises(HypothesisError):
        an.extendability_counts(c2)
    an_klein = q8_analysis(center=True)
    with pytest.raises(HypothesisError):
        an_klein.extendability_counts(1)


def test_nontrivial_extension_cases():
    # S3 over A3: the transposition class has exactly #N = 3 elements
    an = s3_analysis()
    ok, (kind, idx) = an.nontrivial_extension()
    assert not ok and kind == "class_of_size_n"
    assert an.classes.sizes[idx] == 3

    # C4 over C2: all classes have one element, so an extension exists
    c4 = generate_group(4, [(1, 2, 3, 0)])
    sq = subgroup_generated(c4, [(2, 3, 0, 1)])
    ok, (kind, _) = CosetAnalysis(c4, sq).nontrivial_extension()
    assert ok and kind == "extending_character_row"

    # trivial N: only the trivial character exists, so never
    triv = subgroup_generated(c4, [])
    ok, (kind, idx) = CosetAnalysis(c4, triv).nontrivial_extension()
    assert not ok and kind == "class_of_size_n"

    # the quaternion group over its order-4 subgroup
    an_q8 = q8_analysis(center=False)
    ok, _ = an_q8.nontrivial_extension()
    assert ok


def test_monotonicity_all_cosets():
    for an in (f5_analysis(), q8_analysis(center=True)):
        Q = an.quotient
        for c in range(Q.size):
            for k in range(1, Q.size + 1):
                small, big = an.monotonicity_check(c, k)
                assert small <= big


def test_three_way_equivalence():
    an = f5_analysis()
    flags = an.three_way_equivalence(an.quotient.generator)
    # the linear-character orbit is in R_q, the degree-4 row is not
    assert sorted(flags) == [False, True]
    an_s3 = s3_analysis()
    assert sorted(an_s3.three_way_equivalence(1)) == [False, True]


def test_counts_sum_over_cosets():
    for an in (f5_analysis(), s3_analysis(), q8_analysis(center=True)):
        total_c = sum(an.report(c).n_classes for c in range(an.quotient.size))
        assert total_c == an.classes.n_classes


def test_coset_labels():
    an = f5_analysis()
    labels = [an.coset_label(c) for c in range(4)]
    assert labels[0] == "N" and "q" in labels
    assert an.coset_by_label("q^2") == an.quotient.power(an.quotient.generator, 2)
    with pytest.raises(KeyError):
        an.coset_by_label("nope")
    an_klein = q8_analysis(center=True)
    klabels = {an_klein.coset_label(c) for c in range(4)}
    assert "N" in klabels and len(klabels) == 4


def test_report_caching_and_reports():
    an = s3_analysis()
    assert an.report(0) is an.report(0)
    reps = an.reports()
    assert len(reps) == 2
    assert reps[0].label == "N"
