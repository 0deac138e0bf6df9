"""A built-in corpus of (group, normal subgroup) pairs and property checks.

The corpus covers cyclic and non-cyclic abelian quotients, a matrix-group
entry, and quotient orders 2, 3 and 4.  `run_property_suite` exercises
every theoretical guarantee the library makes on each pair and returns one
pass/fail record per check; construction-time certifications are counted
through the checks that trigger them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chartable import restriction_norm
from .cosets import CosetAnalysis
from .groupio import GroupSpec, build_group, parse_group_spec
from .inversion import Theta, decompose


def _perm_spec(label: str, degree: int, gens, normals) -> GroupSpec:
    return GroupSpec(
        label=label,
        degree=degree,
        generators=tuple(map(tuple, gens)),
        normal_generators=tuple(map(tuple, normals)),
    )


def corpus_specs() -> tuple[GroupSpec, ...]:
    """The ten corpus pairs as parseable specs."""
    return (
        _perm_spec("C6/C3", 6, [[1, 2, 3, 4, 5, 0]], [[2, 3, 4, 5, 0, 1]]),
        _perm_spec("S3/A3", 3, [[1, 0, 2], [1, 2, 0]], [[1, 2, 0]]),
        _perm_spec("D4/C4", 4, [[1, 2, 3, 0], [0, 3, 2, 1]], [[1, 2, 3, 0]]),
        _perm_spec("D4/V4", 4, [[1, 2, 3, 0], [0, 3, 2, 1]],
                   [[2, 3, 0, 1], [0, 3, 2, 1]]),
        _perm_spec("Q8/Z", 8, [[2, 3, 1, 0, 6, 7, 5, 4], [4, 5, 7, 6, 1, 0, 2, 3]],
                   [[1, 0, 3, 2, 5, 4, 7, 6]]),
        _perm_spec("Q8/C4", 8, [[2, 3, 1, 0, 6, 7, 5, 4], [4, 5, 7, 6, 1, 0, 2, 3]],
                   [[2, 3, 1, 0, 6, 7, 5, 4]]),
        _perm_spec("A4/V4", 4, [[1, 2, 0, 3], [1, 0, 3, 2]],
                   [[1, 0, 3, 2], [2, 3, 0, 1]]),
        _perm_spec("S4/A4", 4, [[1, 0, 2, 3], [1, 2, 3, 0]],
                   [[1, 2, 0, 3], [1, 0, 3, 2]]),
        _perm_spec("F5/C5", 5, [[1, 2, 3, 4, 0], [0, 2, 4, 1, 3]],
                   [[1, 2, 3, 4, 0]]),
        parse_group_spec("label GL2(3)/SL2(3)\nprime 3\n"
                         "matgen 1 1 0 1\nmatgen 1 0 1 1\nmatgen 2 0 0 1\n"
                         "matnormal 1 1 0 1\nmatnormal 1 0 1 1\n"),
    )


def analysis_for(spec: GroupSpec) -> CosetAnalysis:
    """Build the full analysis for one corpus spec."""
    G, N = build_group(spec)
    return CosetAnalysis(G, N, label=spec.label)


@dataclass(frozen=True)
class CheckResult:
    case_name: str
    check_name: str
    ok: bool
    detail: str


def _run_check(results: list, case: str, name: str, fn) -> None:
    try:
        detail = fn()
        results.append(CheckResult(case, name, True, detail or ""))
    except Exception as exc:
        results.append(CheckResult(case, name, False, f"{type(exc).__name__}: {exc}"))


def _check_case(spec: GroupSpec, results: list) -> None:
    name = spec.label
    try:
        an = analysis_for(spec)
    except Exception as exc:
        results.append(CheckResult(name, "build", False, f"{type(exc).__name__}: {exc}"))
        return
    results.append(CheckResult(
        name, "build", True,
        f"order {an.group.order}, {an.classes.n_classes} classes, quotient {an.quotient.size}"))
    Q = an.quotient

    def coset_reports():
        shapes = []
        for c in range(Q.size):
            rep = an.report(c)
            shapes.append(f"{rep.label}:{rep.n_classes}")
        return " ".join(shapes)
    _run_check(results, name, "coset_matrices_unitary", coset_reports)

    def indicators():
        for c in range(Q.size):
            an.pi(c)
        return f"{Q.size} cosets"
    _run_check(results, name, "coset_indicators", indicators)

    def stab_norm():
        for rec in an.orbits:
            norm = restriction_norm(an.table.rows[rec.representative_row], an.normal)
            if norm != len(rec.stabilizer):
                raise AssertionError(
                    f"orbit {rec.representative_row}: stab {len(rec.stabilizer)} != norm {norm}")
        return f"{len(an.orbits)} orbits"
    _run_check(results, name, "stabilizer_equals_restriction_norm", stab_norm)

    def kernel():
        for c in range(Q.size):
            survivors = set(an.orbits_nonzero(c))
            for oi, rec in enumerate(an.orbits):
                in_kernel = all(an.dual_chars[di].values[c] == 1
                                for di in rec.stabilizer)
                if in_kernel != (oi in survivors):
                    raise AssertionError(f"coset {c}, orbit {oi}")
        return ""
    _run_check(results, name, "kernel_criterion", kernel)

    def monotone():
        for c in range(Q.size):
            for k in range(1, Q.size + 1):
                an.monotonicity_check(c, k)
        return ""
    _run_check(results, name, "monotone_under_powers", monotone)

    def count_sums():
        total_c = sum(an.report(c).n_classes for c in range(Q.size))
        total_r = sum(an.report(c).n_orbits for c in range(Q.size))
        if total_c != an.classes.n_classes:
            raise AssertionError(f"class counts sum to {total_c}")
        if total_r != an.table.n_rows:
            raise AssertionError(f"orbit counts sum to {total_r}")
        return f"{total_c} classes, {total_r} orbit slots"
    _run_check(results, name, "counts_sum_over_cosets", count_sums)

    if Q.is_cyclic:
        def three_way():
            for q in Q.generating_cosets():
                an.three_way_equivalence(q)
            return f"{len(Q.generating_cosets())} generating cosets"
        _run_check(results, name, "three_way_equivalence", three_way)

        def five_counts():
            outs = []
            for q in Q.generating_cosets():
                counts = an.extendability_counts(q)
                outs.append(str(counts[0]))
            return "counts " + " ".join(outs)
        _run_check(results, name, "five_equal_counts", five_counts)

        def extension():
            ok, witness = an.nontrivial_extension()
            return f"{'exists' if ok else 'none'} ({witness[0]} {witness[1]})"
        _run_check(results, name, "extension_class_size_criterion", extension)

        def round_trip():
            vectors = [
                tuple(an.table.degrees),
                (1,) * an.table.n_rows,
                tuple((3 + 5 * r) % 4 for r in range(an.table.n_rows)),
            ]
            for mults in vectors:
                theta = Theta.from_multiplicities(an.table, mults)
                comps = decompose(an, theta)
                for comp in comps:
                    rec = an.orbits[comp.orbit_index]
                    expected = None
                    for row in rec.member_rows:
                        if not mults[row]:
                            continue
                        part = an.table.rows[row].scaled(mults[row])
                        expected = part if expected is None else expected + part
                    if expected is None or not (expected == comp.component):
                        raise AssertionError(
                            f"component of orbit {comp.orbit_index} is wrong")
            return f"{len(vectors)} characters"
        _run_check(results, name, "reconstruction_round_trip", round_trip)


def run_property_suite() -> list[CheckResult]:
    """Run every check on every corpus pair."""
    results: list[CheckResult] = []
    for spec in corpus_specs():
        _check_case(spec, results)
    return results
