"""Acceptance criteria: seven end-to-end checks with time budgets.

Each test prints one CRITERION line on success; a failure shows up as a
normal pytest failure for that criterion.
"""

import math
import random
import time
from fractions import Fraction
from pathlib import Path

from cosetchar.chartable import ClassFunction, character_table, inner_product
from cosetchar.corpus import analysis_for, corpus_specs, run_property_suite
from cosetchar.cosets import CosetAnalysis
from cosetchar.cyclotomic import from_rational, root_of_unity
from cosetchar.groupio import build_group, parse_group_spec
from cosetchar.groups import (
    conjugacy_classes,
    generate_group,
    subgroup_generated,
)
from cosetchar.inversion import Theta, decompose

from tablefixtures import TEXTBOOK_TABLES, tables_match

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _f5_analysis():
    G = generate_group(5, [(1, 2, 3, 4, 0), (0, 2, 4, 1, 3)])
    return CosetAnalysis(G, subgroup_generated(G, [(1, 2, 3, 4, 0)]))


def _s3_analysis():
    G = generate_group(3, [(1, 0, 2), (1, 2, 0)])
    return CosetAnalysis(G, subgroup_generated(G, [(1, 2, 0)]))


def _exact_gram_check(analysis, rep):
    sizes = analysis.classes.sizes
    for a, oa in enumerate(rep.orbit_indices):
        for b, ob in enumerate(rep.orbit_indices):
            total = from_rational(0)
            for pos, k in enumerate(rep.class_indices):
                total = total + (rep.entries[a][pos]
                                 * rep.entries[b][pos].conjugate() * sizes[k])
            want = (Fraction(analysis.group.order, analysis.orbits[oa].length)
                    if a == b else 0)
            assert total == want


def test_criterion_1_f5_identity_coset():
    t0 = time.perf_counter()
    an = _f5_analysis()
    rep = an.report(0)
    assert rep.n_classes == 2 and rep.n_orbits == 2
    scale = 1 / math.sqrt(5)
    want = [[scale, 2 * scale], [2 * scale, -scale]]
    for a in range(2):
        for b in range(2):
            assert abs(rep.numeric[a][b] - want[a][b]) < 1e-9
    _exact_gram_check(an, rep)
    for c in range(1, an.quotient.size):
        other = an.report(c)
        assert other.n_classes == 1 and other.n_orbits == 1
        assert other.entries[0][0] == 1
        assert other.radicands[0][0] == 1
        assert abs(other.numeric[0][0] - 1) < 1e-9
    dt = time.perf_counter() - t0
    assert dt < 1.0, f"took {dt:.2f}s"
    print(f"CRITERION 1 (F5 identity-coset matrix): PASS ({dt:.2f}s)")


def test_criterion_2_gl23_matrix_ingestion():
    t0 = time.perf_counter()
    spec = parse_group_spec((FIXTURES / "gl2_3.matgroup").read_text())
    G, N = build_group(spec)
    assert G.order == 48 and N.order == 24
    an = CosetAnalysis(G, N, label=spec.label)
    counts = an.extendability_counts(an.quotient.generator)
    assert counts == (3, 3, 3, 3, 3)
    dt = time.perf_counter() - t0
    assert dt < 10.0, f"took {dt:.2f}s"
    print(f"CRITERION 2 (GL2(3)/SL2(3) five equal counts = 3): PASS ({dt:.2f}s)")


def test_criterion_3_q8_center_all_cosets():
    t0 = time.perf_counter()
    i = (2, 3, 1, 0, 6, 7, 5, 4)
    j = (4, 5, 7, 6, 1, 0, 2, 3)
    G = generate_group(8, [i, j])
    center = subgroup_generated(G, [G.mul(G.index_of(i), G.index_of(i))])
    an = CosetAnalysis(G, center)
    assert an.quotient.size == 4 and not an.quotient.is_cyclic
    for c in range(4):
        rep = an.report(c)
        assert rep.n_classes == rep.n_orbits
        _exact_gram_check(an, rep)
        assert rep.max_unitarity_deviation < 1e-9
    dt = time.perf_counter() - t0
    assert dt < 1.0, f"took {dt:.2f}s"
    print(f"CRITERION 3 (Q8 over its center, all four cosets): PASS ({dt:.2f}s)")


def test_criterion_4_corpus_property_suite():
    t0 = time.perf_counter()
    results = run_property_suite()
    failures = [r for r in results if not r.ok]
    assert not failures, "; ".join(
        f"{r.case_name}/{r.check_name}: {r.detail}" for r in failures)
    assert len({r.case_name for r in results}) == 10
    dt = time.perf_counter() - t0
    assert dt < 60.0, f"took {dt:.2f}s"
    print(f"CRITERION 4 (corpus property suite, {len(results)} checks): PASS ({dt:.2f}s)")


def test_criterion_5_textbook_tables():
    t0 = time.perf_counter()
    for name in ("S3", "S4", "A4", "Q8", "D4"):
        builder, profile, rows = TEXTBOOK_TABLES[name]
        G = generate_group(*builder())
        classes = conjugacy_classes(G)
        table = character_table(G, classes)
        assert tables_match(table, profile, rows), f"{name} table mismatch"
        # exact orthogonality, recomputed from scratch
        for a in range(table.n_rows):
            for b in range(table.n_rows):
                ip = inner_product(table.rows[a], table.rows[b])
                assert ip == (1 if a == b else 0)
        for ka in range(classes.n_classes):
            for kb in range(classes.n_classes):
                total = from_rational(0)
                for row in table.rows:
                    total = total + row.values[ka] * row.values[kb].conjugate()
                want = (Fraction(G.order, classes.sizes[ka]) if ka == kb else 0)
                assert total == want
    dt = time.perf_counter() - t0
    print(f"CRITERION 5 (five textbook character tables): PASS ({dt:.2f}s)")


def test_criterion_6_inversion_round_trips():
    t0 = time.perf_counter()
    rng = random.Random(24601)
    tried = 0
    rotations_checked = 0
    for spec in corpus_specs():
        an = analysis_for(spec)
        if not an.quotient.is_cyclic:
            continue
        n = an.quotient.size
        q = an.quotient.generator
        jmap = {}
        cur = 0
        for j in range(n):
            jmap[cur] = j
            cur = an.quotient.mult(cur, q)
        for _ in range(100):
            mults = tuple(rng.randint(0, 3) for _ in range(an.table.n_rows))
            theta = Theta.from_multiplicities(an.table, mults)
            comps = decompose(an, theta)
            tried += 1
            total = None
            for comp in comps:
                total = comp.component if total is None else total + comp.component
                rec = an.orbits[comp.orbit_index]
                expected = None
                for row in rec.member_rows:
                    if mults[row]:
                        part = an.table.rows[row].scaled(mults[row])
                        expected = part if expected is None else expected + part
                assert expected == comp.component
                m = comp.stabilizer_size
                if m > 1:
                    # every choice of m-th roots reconstructs the same component
                    rho = an.table.rows[comp.representative_row]
                    for s in range(1, m):
                        twist = root_of_unity(m, s)
                        rotated = [mu * twist for mu in comp.mus]
                        values = []
                        for k, rep in enumerate(an.classes.representatives):
                            jj = jmap[an.quotient.coset_of[rep]]
                            psi = from_rational(0)
                            for mu in rotated:
                                psi = psi + mu ** jj
                            values.append(psi * rho.values[k])
                        alt = ClassFunction(an.group, an.classes, values)
                        assert alt == comp.component
                        rotations_checked += 1
            if total is None:
                assert all(m == 0 for m in mults)
            else:
                assert total == theta.class_function
    dt = time.perf_counter() - t0
    assert dt < 60.0, f"took {dt:.2f}s"
    print(f"CRITERION 6 (inversion round trips, {tried} characters, "
          f"{rotations_checked} root rotations): PASS ({dt:.2f}s)")


def test_criterion_7_orthonormal_family():
    t0 = time.perf_counter()
    for an in (_f5_analysis(), _s3_analysis()):
        members = []
        for c in range(an.quotient.size):
            indicator = an.pi(c)
            for oi in an.orbits_nonzero(c):
                rec = an.orbits[oi]
                rho = an.table.rows[rec.representative_row]
                product = [a * b for a, b in zip(indicator.values, rho.values)]
                members.append((ClassFunction(an.group, an.classes, product), rec.length))
        assert len(members) == an.classes.n_classes
        # scaled by sqrt(length), the family is orthonormal; exactly:
        # <f_i, f_j> must be 0 off the diagonal and 1/length on it
        for a, (fa, la) in enumerate(members):
            for b, (fb, _) in enumerate(members):
                ip = inner_product(fa, fb)
                assert ip == (Fraction(1, la) if a == b else 0)
    dt = time.perf_counter() - t0
    print(f"CRITERION 7 (orthonormal coset-orbit family): PASS ({dt:.2f}s)")
