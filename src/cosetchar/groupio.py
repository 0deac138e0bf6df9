"""Parsing and serialization of group descriptions and character inputs.

Two input styles are accepted, auto-detected: a line-oriented text format
and a JSON object (sniffed by a leading brace).  Groups are described
either by permutation generators (`degree` plus `gen` lines) or by 2x2
matrix generators over a prime field (`prime` plus `matgen` lines); matrix
generators are converted to permutations of the nonzero column vectors.
`normal`/`matnormal` lines list generators of the normal subgroup.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .cyclotomic import Cyclotomic, _is_prime, value_from_json
from .errors import HypothesisError, ParseError
from .groups import (
    DEFAULT_ORDER_LIMIT,
    FiniteGroup,
    Subgroup,
    generate_group,
    subgroup_generated,
)


@dataclass(frozen=True)
class GroupSpec:
    """A group given by permutation generators on {0..degree-1}, each a
    tuple of images."""

    label: str
    degree: int
    generators: tuple[tuple[int, ...], ...]
    normal_generators: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class MatrixGroupSpec:
    """A group given by invertible 2x2 matrices over a prime field."""

    label: str
    prime: int
    generators: tuple[tuple[int, int, int, int], ...]
    normal_generators: tuple[tuple[int, int, int, int], ...]


@dataclass(frozen=True)
class ThetaSpec:
    """A character given either by row multiplicities or by class values."""

    multiplicities: Optional[tuple[int, ...]] = None
    values: Optional[tuple[Cyclotomic, ...]] = None


AnyGroupSpec = Union[GroupSpec, MatrixGroupSpec]


def _parse_permutation(parts: Sequence[str], degree: int, lineno: int) -> tuple[int, ...]:
    try:
        images = [int(x) for x in parts]
    except ValueError as exc:
        raise ParseError(f"line {lineno}: non-integer entry in permutation") from exc
    if len(images) != degree:
        raise ParseError(
            f"line {lineno}: expected {degree} images, got {len(images)}")
    if sorted(images) != list(range(degree)):
        raise ParseError(f"line {lineno}: images are not a permutation of 0..{degree - 1}")
    return tuple(images)


def _prime_problem(prime: int) -> Optional[str]:
    """Why `prime` cannot be the field of a matrix spec, or None."""
    # the matrices act on the p^2 - 1 nonzero vectors; bounding p first keeps
    # the trial division in _is_prime short
    if prime * prime - 1 > DEFAULT_ORDER_LIMIT:
        return (f"prime {prime} is too large: its matrices act on "
                f"more than {DEFAULT_ORDER_LIMIT} vectors")
    if not _is_prime(prime):
        return f"{prime} is not prime"
    return None


def _parse_matrix(parts: Sequence[str], prime: int, lineno: int) -> tuple[int, int, int, int]:
    try:
        entries = [int(x) for x in parts]
    except ValueError as exc:
        raise ParseError(f"line {lineno}: non-integer matrix entry") from exc
    if len(entries) != 4:
        raise ParseError(f"line {lineno}: expected 4 matrix entries, got {len(entries)}")
    a, b, c, d = (x % prime for x in entries)
    if (a * d - b * c) % prime == 0:
        raise ParseError(f"line {lineno}: matrix is singular modulo {prime}")
    return (a, b, c, d)


def _parse_text_spec(text: str) -> AnyGroupSpec:
    label = "G"
    degree: Optional[int] = None
    prime: Optional[int] = None
    gens: list = []
    normals: list = []
    kind: Optional[str] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        key, rest = parts[0], parts[1:]
        if key == "label":
            if not rest:
                raise ParseError(f"line {lineno}: label needs a value")
            label = " ".join(rest)
        elif key == "degree":
            if kind == "matrix":
                raise ParseError(f"line {lineno}: degree is not valid in a matrix spec")
            kind = "perm"
            if len(rest) != 1 or not rest[0].isdigit() or int(rest[0]) < 1:
                raise ParseError(f"line {lineno}: degree needs one positive integer")
            degree = int(rest[0])
        elif key == "prime":
            if kind == "perm":
                raise ParseError(f"line {lineno}: prime is not valid in a permutation spec")
            kind = "matrix"
            if len(rest) != 1 or not rest[0].isdigit():
                raise ParseError(f"line {lineno}: prime needs one positive integer")
            prime = int(rest[0])
            problem = _prime_problem(prime)
            if problem:
                raise ParseError(f"line {lineno}: {problem}")
        elif key == "gen":
            if kind == "matrix":
                raise ParseError(f"line {lineno}: gen is not valid in a matrix spec")
            if degree is None:
                raise ParseError(f"line {lineno}: gen before degree")
            gens.append(_parse_permutation(rest, degree, lineno))
        elif key == "normal":
            if kind == "matrix":
                raise ParseError(f"line {lineno}: normal is not valid in a matrix spec")
            if degree is None:
                raise ParseError(f"line {lineno}: normal before degree")
            normals.append(_parse_permutation(rest, degree, lineno))
        elif key == "matgen":
            if kind == "perm":
                raise ParseError(f"line {lineno}: matgen is not valid in a permutation spec")
            if prime is None:
                raise ParseError(f"line {lineno}: matgen before prime")
            gens.append(_parse_matrix(rest, prime, lineno))
        elif key == "matnormal":
            if kind == "perm":
                raise ParseError(f"line {lineno}: matnormal is not valid in a permutation spec")
            if prime is None:
                raise ParseError(f"line {lineno}: matnormal before prime")
            normals.append(_parse_matrix(rest, prime, lineno))
        else:
            raise ParseError(f"line {lineno}: unknown keyword {key!r}")
    if kind == "perm":
        if not gens:
            raise ParseError("no generators given")
        return GroupSpec(label, degree, tuple(gens), tuple(normals))
    if kind == "matrix":
        if not gens:
            raise ParseError("no generators given")
        return MatrixGroupSpec(label, prime, tuple(gens), tuple(normals))
    raise ParseError("spec contains neither a degree nor a prime line")


def _parse_json_spec(text: str) -> AnyGroupSpec:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError("JSON spec must be an object")
    label = data.get("label", "G")
    if not isinstance(label, str):
        raise ParseError("label must be a string")
    gens = data.get("generators")
    normals = data.get("normal", [])
    if not isinstance(gens, list) or not gens:
        raise ParseError("generators must be a nonempty list")
    if not isinstance(normals, list):
        raise ParseError("normal must be a list")
    if not all(isinstance(g, list) for g in gens + normals):
        raise ParseError("each generator and normal entry must be a list")
    if "prime" in data:
        prime = data["prime"]
        if not isinstance(prime, int):
            raise ParseError(f"{prime!r} is not a prime")
        problem = _prime_problem(prime)
        if problem:
            raise ParseError(problem)
        gs = tuple(_parse_matrix([str(x) for x in g], prime, 0) for g in gens)
        ns = tuple(_parse_matrix([str(x) for x in g], prime, 0) for g in normals)
        return MatrixGroupSpec(label, prime, gs, ns)
    degree = data.get("degree")
    if not isinstance(degree, int) or degree < 1:
        raise ParseError("degree must be a positive integer")
    gs = tuple(_parse_permutation([str(x) for x in g], degree, 0) for g in gens)
    ns = tuple(_parse_permutation([str(x) for x in g], degree, 0) for g in normals)
    return GroupSpec(label, degree, gs, ns)


def parse_group_spec(text: str) -> AnyGroupSpec:
    """Parse a group description, auto-detecting JSON versus line format."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return _parse_json_spec(text)
    return _parse_text_spec(text)


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
        if not isinstance(mults, list) or not all(
                isinstance(m, int) and m >= 0 for m in mults):
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


def build_group(spec: AnyGroupSpec,
                order_limit: int = DEFAULT_ORDER_LIMIT) -> tuple[FiniteGroup, Subgroup]:
    """Realize a spec as a permutation group and its normal subgroup.

    Raises HypothesisError when a normal generator falls outside the group
    generated by the group generators.
    """
    if isinstance(spec, MatrixGroupSpec):
        gens = [matrix_to_permutation(m, spec.prime) for m in spec.generators]
        normals = [matrix_to_permutation(m, spec.prime) for m in spec.normal_generators]
        degree = spec.prime * spec.prime - 1
    else:
        gens = list(spec.generators)
        normals = list(spec.normal_generators)
        degree = spec.degree
    G = generate_group(degree, gens, order_limit=order_limit)
    try:
        N = subgroup_generated(G, normals)
    except ValueError as exc:
        raise HypothesisError(
            "a normal generator is not an element of the group") from exc
    return G, N


def render_float(x: float) -> float:
    """Round to 12 significant digits for stable JSON output."""
    return float(f"{x:.12g}")


def complex_to_json(z: complex) -> list[float]:
    return [render_float(z.real), render_float(z.imag)]
