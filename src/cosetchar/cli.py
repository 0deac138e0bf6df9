"""Command-line interface: analyze, table, invert, selftest.

Exit codes: 0 success, 2 unparseable input, 3 inputs that violate the
mathematical assumptions, 4 failure of an internal consistency check.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .corpus import run_property_suite
from .cosets import CosetAnalysis, CosetReport
from .cyclotomic import value_to_json
from .errors import HypothesisError, InternalCheckError, ParseError
from .groupio import (
    complex_to_json,
    parse_group_spec,
    parse_theta,
    build_group,
)
from .groups import DEFAULT_ORDER_LIMIT, cycle_string
from .inversion import Theta, decompose


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _load_analysis(path: str, order_limit: int) -> CosetAnalysis:
    spec = parse_group_spec(_read_file(path))
    G, N = build_group(spec, order_limit=order_limit)
    return CosetAnalysis(G, N, label=spec.label)


def _resolve_coset(analysis: CosetAnalysis, label: Optional[str]) -> Optional[int]:
    if label is None:
        return None
    try:
        return analysis.coset_by_label(label)
    except KeyError:
        known = ", ".join(analysis.coset_label(c) for c in range(analysis.quotient.size))
        raise ParseError(f"unknown coset label {label!r}; known labels: {known}") from None


def _fraction_str(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _complex_str(z: complex) -> str:
    return f"{z.real:+.6f}{z.imag:+.6f}j"


def _quotient_shape(analysis: CosetAnalysis) -> str:
    factors = analysis.quotient.cyclic_factors
    if not factors:
        return "C1"
    return " x ".join(f"C{o}" for _, o in factors)


def _print_report(rep: CosetReport, analysis: CosetAnalysis) -> None:
    sizes = analysis.classes.sizes
    degrees = analysis.table.degrees
    print(f"coset {rep.label}: {rep.n_classes} classes, {rep.n_orbits} orbits")
    cls = " ".join(f"{k}(size {sizes[k]})" for k in rep.class_indices)
    print(f"  classes: {cls}")
    orbs = " ".join(
        f"row {analysis.orbits[oi].representative_row}"
        f"(deg {degrees[analysis.orbits[oi].representative_row]},"
        f" len {analysis.orbits[oi].length})"
        for oi in rep.orbit_indices)
    print(f"  orbits: {orbs}")
    print(f"  max unitarity deviation: {rep.max_unitarity_deviation:.3e}")
    for a in range(rep.n_orbits):
        exact = "  ".join(
            f"sqrt({_fraction_str(rep.radicands[a][b])})*({rep.entries[a][b]})"
            for b in range(rep.n_classes))
        print(f"  row {a} exact:   {exact}")
        numeric = "  ".join(_complex_str(z) for z in rep.numeric[a])
        print(f"  row {a} numeric: {numeric}")
    if rep.extendability is not None:
        print(f"  extendability counts (all equal): {rep.extendability[0]}")


def _report_json(rep: CosetReport, analysis: CosetAnalysis) -> dict:
    return {
        "coset": rep.coset_index,
        "label": rep.label,
        "classes": list(rep.class_indices),
        "orbit_representative_rows": [
            analysis.orbits[oi].representative_row for oi in rep.orbit_indices],
        "orbit_lengths": [analysis.orbits[oi].length for oi in rep.orbit_indices],
        "entries": [[value_to_json(v) for v in row] for row in rep.entries],
        "entries_str": [[str(v) for v in row] for row in rep.entries],
        "radicands": [[[r.numerator, r.denominator] for r in row]
                      for row in rep.radicands],
        "numeric": [[complex_to_json(z) for z in row] for row in rep.numeric],
        "max_unitarity_deviation": rep.max_unitarity_deviation,
        "gram_certified": rep.gram_certified,
        "extendability": list(rep.extendability) if rep.extendability else None,
    }


def _cmd_analyze(args) -> int:
    analysis = _load_analysis(args.spec, args.order_limit)
    coset = _resolve_coset(analysis, args.coset)
    reports = ([analysis.report(coset)] if coset is not None
               else list(analysis.reports()))
    Q = analysis.quotient
    extension = None
    if Q.is_cyclic:
        exists, witness = analysis.nontrivial_extension()
        extension = {"exists": exists, "witness_kind": witness[0],
                     "witness_index": witness[1]}
    if args.json:
        payload = {
            "label": analysis.label,
            "group_order": analysis.group.order,
            "normal_order": analysis.normal.order,
            "class_count": analysis.classes.n_classes,
            "quotient": {
                "order": Q.size,
                "cyclic_factor_orders": [o for _, o in Q.cyclic_factors],
                "is_cyclic": Q.is_cyclic,
            },
            "orbit_count": len(analysis.orbits),
            "cosets": [_report_json(rep, analysis) for rep in reports],
            "nontrivial_extension": extension,
        }
        print(json.dumps(payload, indent=2))
        return 0
    print(f"group {analysis.label}: order {analysis.group.order}, "
          f"{analysis.classes.n_classes} classes")
    print(f"normal subgroup: order {analysis.normal.order}, "
          f"quotient {_quotient_shape(analysis)} of order {Q.size}")
    print(f"dual-action orbits: {len(analysis.orbits)}")
    for rep in reports:
        _print_report(rep, analysis)
    if extension is not None:
        verdict = "exists" if extension["exists"] else "does not exist"
        print(f"nontrivial extension {verdict} "
              f"({extension['witness_kind']} {extension['witness_index']})")
    return 0


def _cmd_table(args) -> int:
    analysis = _load_analysis(args.spec, args.order_limit)
    table = analysis.table
    classes = analysis.classes
    G = analysis.group
    if args.json:
        payload = {
            "label": analysis.label,
            "order": G.order,
            "exponent": table.exponent,
            "classes": [
                {
                    "index": k,
                    "size": classes.sizes[k],
                    "element_order": G.element_order(classes.representatives[k]),
                    "representative": list(G.elements[classes.representatives[k]]),
                }
                for k in range(classes.n_classes)
            ],
            "rows": [
                {
                    "degree": table.degrees[r],
                    "values": [value_to_json(v) for v in table.rows[r].values],
                    "values_str": [str(v) for v in table.rows[r].values],
                    "numeric": [complex_to_json(v.as_complex())
                                for v in table.rows[r].values],
                }
                for r in range(table.n_rows)
            ],
        }
        print(json.dumps(payload, indent=2))
        return 0
    print(f"character table of {analysis.label}: order {G.order}, "
          f"{classes.n_classes} classes, exponent {table.exponent}")
    for k in range(classes.n_classes):
        rep = cycle_string(G.elements[classes.representatives[k]])
        print(f"class {k}: size {classes.sizes[k]}, "
              f"element order {G.element_order(classes.representatives[k])}, rep {rep}")
    width = max(len(str(v)) for row in table.rows for v in row.values)
    for r in range(table.n_rows):
        vals = "  ".join(f"{str(v):>{width}}" for v in table.rows[r].values)
        print(f"chi{r} (deg {table.degrees[r]}): {vals}")
    return 0


def _parse_multiplicity_list(text: str) -> tuple[int, ...]:
    try:
        mults = tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise ParseError(f"bad multiplicity list {text!r}") from exc
    if any(m < 0 for m in mults):
        raise ParseError("multiplicities must be nonnegative")
    return mults


def _cmd_invert(args) -> int:
    analysis = _load_analysis(args.spec, args.order_limit)
    table = analysis.table
    if args.multiplicities is not None:
        mults = _parse_multiplicity_list(args.multiplicities)
        if len(mults) != table.n_rows:
            raise ParseError(
                f"expected {table.n_rows} multiplicities, got {len(mults)}")
        theta = Theta.from_multiplicities(table, mults)
    else:
        spec = parse_theta(_read_file(args.theta),
                           n_classes=analysis.classes.n_classes,
                           n_rows=table.n_rows, exponent=table.exponent)
        if spec.multiplicities is not None:
            theta = Theta.from_multiplicities(table, spec.multiplicities)
        else:
            theta = Theta.from_values(table, spec.values)
    coset = _resolve_coset(analysis, args.coset)
    components = decompose(analysis, theta, coset)
    if args.json:
        payload = {
            "label": analysis.label,
            "degree": theta.degree,
            "multiplicities": list(theta.multiplicities),
            "coset": analysis.coset_label(
                analysis.quotient.generator if coset is None else coset),
            "components": [
                {
                    "orbit": comp.orbit_index,
                    "representative_row": comp.representative_row,
                    "stabilizer_size": comp.stabilizer_size,
                    "dimension": comp.dimension,
                    "lambdas": [str(x) for x in comp.lambdas],
                    "mus": [str(x) for x in comp.mus],
                    "psi_at_powers": [str(x) for x in comp.psi_at_powers],
                    "component_values": [value_to_json(v)
                                         for v in comp.component.values],
                    "component_values_str": [str(v)
                                             for v in comp.component.values],
                }
                for comp in components
            ],
        }
        print(json.dumps(payload, indent=2))
        return 0
    print(f"decomposition of a degree-{theta.degree} character of {analysis.label}")
    if not components:
        print("no components (the zero character)")
    for comp in components:
        print(f"orbit {comp.orbit_index} (rep row {comp.representative_row}, "
              f"stabilizer {comp.stabilizer_size}, dimension {comp.dimension})")
        print("  roots:      " + "  ".join(str(x) for x in comp.lambdas))
        print("  lifted:     " + "  ".join(str(x) for x in comp.mus))
        print("  psi powers: " + "  ".join(str(x) for x in comp.psi_at_powers))
        print("  component:  " + "  ".join(str(v) for v in comp.component.values))
    return 0


def _cmd_selftest(args) -> int:
    results = run_property_suite()
    failures = sum(1 for r in results if not r.ok)
    if args.json:
        payload = {
            "checks": [
                {"case": r.case_name, "check": r.check_name,
                 "ok": r.ok, "detail": r.detail}
                for r in results
            ],
            "total": len(results),
            "failures": failures,
        }
        print(json.dumps(payload, indent=2))
    else:
        for r in results:
            mark = "ok  " if r.ok else "FAIL"
            detail = f" {r.detail}" if r.detail else ""
            print(f"{mark} {r.case_name}: {r.check_name}{detail}")
        print(f"{len(results)} checks, {failures} failures")
    if failures:
        raise InternalCheckError(f"{failures} selftest checks failed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cosetchar",
        description="conjugacy classes, character orbits and unitary coset "
                    "matrices for a normal subgroup with abelian quotient")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("spec", help="group description file")
        p.add_argument("--json", action="store_true", help="emit JSON")
        p.add_argument("--order-limit", type=int, default=DEFAULT_ORDER_LIMIT,
                       help="refuse to enumerate groups larger than this")

    p_analyze = sub.add_parser("analyze", help="per-coset classes, orbits and matrices")
    common(p_analyze)
    p_analyze.add_argument("--coset", help="restrict to the coset with this label")
    p_analyze.set_defaults(fn=_cmd_analyze)

    p_table = sub.add_parser("table", help="print the character table")
    common(p_table)
    p_table.set_defaults(fn=_cmd_table)

    p_invert = sub.add_parser("invert", help="reconstruct a character from coset data")
    common(p_invert)
    group = p_invert.add_mutually_exclusive_group(required=True)
    group.add_argument("--theta", help="character file (JSON)")
    group.add_argument("--multiplicities", help="comma-separated row multiplicities")
    p_invert.add_argument("--coset", help="generating coset to invert against")
    p_invert.set_defaults(fn=_cmd_invert)

    p_self = sub.add_parser("selftest", help="run the built-in corpus checks")
    p_self.add_argument("--json", action="store_true", help="emit JSON")
    p_self.set_defaults(fn=_cmd_selftest)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except BrokenPipeError:
        # the reader closed standard output early, after the work succeeded;
        # point it at the null device so the flush at exit stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HypothesisError as exc:
        print(f"hypothesis violated: {exc}", file=sys.stderr)
        return 3
    except InternalCheckError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
