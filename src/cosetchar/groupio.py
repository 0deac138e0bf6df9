"""Parsing of group descriptions and character inputs, and float rendering
for JSON output.

Two input styles are accepted, auto-detected: a line-oriented text format
and a JSON object (sniffed by a leading brace).  Both go through one
keyword parser, so both run every check, and an error names its line
(`line 4: ...`) or its JSON field (`gen 2: ...`).  Groups are described
either by permutation generators (`degree` plus `gen` lines) or by 2x2
matrix generators over a prime field (`prime` plus `matgen` lines);
`normal`/`matnormal` lines list generators of the normal subgroup.  A
matrix spec becomes a permutation spec on the p^2 - 1 nonzero column
vectors as it is parsed, so `GroupSpec` is the only spec form.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .cyclotomic import Cyclotomic, _is_prime, value_from_json
from .errors import HypothesisError, ParseError
from .groups import (
    DEFAULT_ORDER_LIMIT,
    FiniteGroup,
    Subgroup,
    generate_group,
    subgroup_generated,
)

# (where, keyword, tokens): `where` names the text line or the JSON field
Record = tuple[str, str, Sequence[str]]


@dataclass(frozen=True)
class GroupSpec:
    """A group given by permutation generators on {0..degree-1}, each a
    tuple of images."""

    label: str
    degree: int
    generators: tuple[tuple[int, ...], ...]
    normal_generators: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class ThetaSpec:
    """A character given either by row multiplicities or by class values."""

    multiplicities: Optional[tuple[int, ...]] = None
    values: Optional[tuple[Cyclotomic, ...]] = None


def _text_records(text: str) -> Iterable[Record]:
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split("#", 1)[0].split()
        if parts:
            yield f"line {lineno}", parts[0], parts[1:]


def _json_records(text: str) -> list[Record]:
    """Check the JSON types of a spec and restate its fields as records."""
    try:
        data = json.loads(text)
    except ValueError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError("JSON spec must be an object")
    records: list[Record] = []
    if "label" in data:
        if not isinstance(data["label"], str):
            raise ParseError("label must be a string")
        records.append(("label", "label", [data["label"]]))
    for key in ("degree", "prime"):
        if key in data:
            # bool is a subclass of int, and JSON true is no degree
            if type(data[key]) is not int:
                raise ParseError(f"{key} must be an integer")
            records.append((key, key, [str(data[key])]))
    prefix = "mat" if "prime" in data else ""
    for field, name in (("generators", "gen"), ("normal", "normal")):
        rows = data.get(field, [])
        if not isinstance(rows, list):
            raise ParseError(f"{field} must be a list")
        for k, row in enumerate(rows, start=1):
            if not isinstance(row, list) or any(type(x) is not int for x in row):
                raise ParseError(f"{name} {k}: must be a list of integers")
            records.append((f"{name} {k}", prefix + name, [str(x) for x in row]))
    return records


def _parse_records(records: Iterable[Record]) -> GroupSpec:
    """The one spec parser: every check on a spec's keywords is made here."""
    label = "G"
    kind: Optional[str] = None  # "degree" or "prime"; a spec has exactly one
    degree = prime = 0
    gens: list[tuple[int, ...]] = []
    normals: list[tuple[int, ...]] = []
    for where, key, rest in records:
        if key == "label":
            if not rest:
                raise ParseError(f"{where}: label needs a value")
            label = " ".join(rest)
        elif key in ("degree", "prime"):
            if kind is not None:
                raise ParseError(f"{where}: a spec has one degree or prime line")
            if len(rest) != 1 or not rest[0].isdecimal() or int(rest[0]) < 1:
                raise ParseError(f"{where}: {key} needs one positive integer")
            kind, degree = key, int(rest[0])
            if key == "prime":
                prime, degree = degree, degree * degree - 1
                # the matrices act on the p^2 - 1 nonzero vectors; bounding
                # p first keeps the trial division in _is_prime short
                if degree > DEFAULT_ORDER_LIMIT:
                    raise ParseError(
                        f"{where}: prime {prime} is too large: its matrices act "
                        f"on more than {DEFAULT_ORDER_LIMIT} vectors")
                if not _is_prime(prime):
                    raise ParseError(f"{where}: {prime} is not prime")
        elif key in ("gen", "normal", "matgen", "matnormal"):
            needs = "prime" if key.startswith("mat") else "degree"
            if kind != needs:
                raise ParseError(f"{where}: {key} needs a {needs} line before it"
                                 + ("" if kind is None else f", not a {kind} line"))
            try:
                entries = [int(x) for x in rest]
            except ValueError as exc:
                raise ParseError(f"{where}: non-integer entry") from exc
            if kind == "prime":
                if len(entries) != 4:
                    raise ParseError(
                        f"{where}: expected 4 matrix entries, got {len(entries)}")
                try:
                    images = matrix_to_permutation(tuple(entries), prime)
                except ParseError as exc:
                    raise ParseError(f"{where}: {exc}") from None
            else:
                # the length test comes first: it bounds the sort below by the
                # size of the input, not by the declared degree
                if len(entries) != degree:
                    raise ParseError(
                        f"{where}: expected {degree} images, got {len(entries)}")
                if sorted(entries) != list(range(degree)):
                    raise ParseError(
                        f"{where}: images are not a permutation of 0..{degree - 1}")
                images = tuple(entries)
            (normals if key.endswith("normal") else gens).append(images)
        else:
            raise ParseError(f"{where}: unknown keyword {key!r}")
    if kind is None:
        raise ParseError("spec contains neither a degree nor a prime line")
    if not gens:
        raise ParseError("no generators given")
    return GroupSpec(label, degree, tuple(gens), tuple(normals))


def parse_group_spec(text: str) -> GroupSpec:
    """Parse a group description, auto-detecting JSON versus line format."""
    if text.lstrip().startswith("{"):
        return _parse_records(_json_records(text))
    return _parse_records(_text_records(text))


def parse_theta(text: str, n_classes: Optional[int] = None,
                n_rows: Optional[int] = None,
                exponent: Optional[int] = None) -> ThetaSpec:
    """Parse a character given as JSON multiplicities or class values.

    With `exponent` (the group exponent) given, each value's order must
    divide it.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError("character input must be a JSON object")
    has_m = "multiplicities" in data
    has_v = "values" in data
    if has_m == has_v:
        raise ParseError("character input needs exactly one of multiplicities or values")
    if has_m:
        mults = data["multiplicities"]
        # bool is a subclass of int, and JSON true is no multiplicity
        if not isinstance(mults, list) or not all(
                type(m) is int and m >= 0 for m in mults):
            raise ParseError("multiplicities must be a list of nonnegative integers")
        if n_rows is not None and len(mults) != n_rows:
            raise ParseError(
                f"expected {n_rows} multiplicities, got {len(mults)}")
        return ThetaSpec(multiplicities=tuple(mults))
    raw = data["values"]
    if not isinstance(raw, list):
        raise ParseError("values must be a list")
    try:
        values = tuple(value_from_json(v, exponent) for v in raw)
    except (ValueError, TypeError, KeyError, ZeroDivisionError) as exc:
        raise ParseError(f"bad character value: {exc}") from exc
    if n_classes is not None and len(values) != n_classes:
        raise ParseError(f"expected {n_classes} values, got {len(values)}")
    return ThetaSpec(values=values)


def matrix_to_permutation(mat: tuple[int, int, int, int], prime: int) -> tuple[int, ...]:
    """The permutation a matrix induces on the nonzero column vectors over
    the prime field, with vectors (a, b) ordered lexicographically."""
    a, b, c, d = (x % prime for x in mat)
    if (a * d - b * c) % prime == 0:
        raise ParseError(f"matrix {mat} is singular modulo {prime}")
    index = {}
    vectors = []
    for x in range(prime):
        for y in range(prime):
            if x == 0 and y == 0:
                continue
            index[(x, y)] = len(vectors)
            vectors.append((x, y))
    return tuple(index[((a * x + b * y) % prime, (c * x + d * y) % prime)]
                 for (x, y) in vectors)


def build_group(spec: GroupSpec,
                order_limit: int = DEFAULT_ORDER_LIMIT) -> tuple[FiniteGroup, Subgroup]:
    """Realize a spec as a permutation group and its normal subgroup.

    Raises HypothesisError when a normal generator falls outside the group
    generated by the group generators.
    """
    G = generate_group(spec.degree, spec.generators, order_limit=order_limit)
    try:
        N = subgroup_generated(G, spec.normal_generators)
    except ValueError as exc:
        raise HypothesisError(
            "a normal generator is not an element of the group") from exc
    return G, N


def render_float(x: float) -> float:
    """Round to 12 significant digits for stable JSON output."""
    return float(f"{x:.12g}")


def complex_to_json(z: complex) -> list[float]:
    return [render_float(z.real), render_float(z.imag)]
