"""Exact arithmetic in cyclotomic fields with rational coefficients.

A value of order n is stored reduced modulo the n-th cyclotomic polynomial
in the power basis 1, zeta, ..., zeta^(phi(n)-1), so equality and the zero
test are exact.  Mixed-order arithmetic promotes both operands to the lcm
of their orders.  Floating point appears only in `as_complex`.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from math import isqrt, lcm
from typing import Iterable, Optional, Union

from .errors import ensure

Rational = Union[int, Fraction]

__all__ = [
    "Cyclotomic",
    "from_terms",
    "cyclotomic_polynomial",
    "euler_phi",
    "root_of_unity",
    "from_rational",
    "value_to_json",
    "value_from_json",
]


def _divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for d in range(2, isqrt(n) + 1):
        if n % d == 0:
            return False
    return True


def _exact_div(num: list[int], den: tuple[int, ...]) -> list[int]:
    # division of integer polynomials known to be exact; den is monic
    out = [0] * (len(num) - len(den) + 1)
    rem = list(num)
    for i in range(len(out) - 1, -1, -1):
        c = rem[i + len(den) - 1]
        out[i] = c
        if c:
            for j, dc in enumerate(den):
                rem[i + j] -= c * dc
    ensure(not any(rem), "cyclotomic polynomial division was not exact")
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of the n-th cyclotomic polynomial, low degree first.

    Computed by dividing x^n - 1 by the cyclotomic polynomials of the proper
    divisors of n.  lru_cache makes concurrent reads safe after warm-up.
    """
    if n < 1:
        raise ValueError(f"order must be positive, got {n}")
    if n == 1:
        return (-1, 1)
    poly = [-1] + [0] * (n - 1) + [1]
    for d in _divisors(n):
        if d < n:
            poly = _exact_div(poly, cyclotomic_polynomial(d))
    return tuple(poly)


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    """Degree of the n-th cyclotomic polynomial."""
    return len(cyclotomic_polynomial(n)) - 1


@lru_cache(maxsize=None)
def _power_table(n: int) -> tuple[tuple[int, ...], ...]:
    """zeta_n^k reduced mod the cyclotomic polynomial, for k = 0..n-1."""
    d = euler_phi(n)
    poly = cyclotomic_polynomial(n)
    rows = []
    cur = [0] * d
    cur[0] = 1
    for _ in range(n):
        rows.append(tuple(cur))
        carry = cur[d - 1]
        nxt = [0] + cur[: d - 1]
        if carry:
            for j in range(d):
                nxt[j] -= carry * poly[j]
        cur = nxt
    return tuple(rows)


def _reduce_terms(n: int, terms: Iterable[tuple[int, Fraction]]) -> tuple[Fraction, ...]:
    """Reduce a sum of c * zeta_n^k terms to the power basis of order n."""
    table = _power_table(n)
    out = [Fraction(0)] * euler_phi(n)
    for k, c in terms:
        if not c:
            continue
        row = table[k % n]
        for j, r in enumerate(row):
            if r:
                out[j] += c * r
    return tuple(out)


class Cyclotomic:
    """An element of the order-n cyclotomic field in reduced power-basis form.

    Instances are immutable by convention.  They are intentionally not
    hashable: the same value can live at several orders, so dictionary keys
    should use `coeff_key` at an explicitly agreed order instead.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Iterable[Rational]):
        order = int(order)
        if order < 1:
            raise ValueError(f"order must be positive, got {order}")
        coeffs = tuple(Fraction(c) for c in coeffs)
        if len(coeffs) != euler_phi(order):
            raise ValueError(
                f"order {order} needs {euler_phi(order)} coefficients, got {len(coeffs)}"
            )
        self.order = order
        self.coeffs = coeffs

    @classmethod
    def _raw(cls, order: int, coeffs: tuple[Fraction, ...]) -> "Cyclotomic":
        self = object.__new__(cls)
        self.order = order
        self.coeffs = coeffs
        return self

    # -- promotion and coercion -------------------------------------------

    def promoted(self, order: int) -> "Cyclotomic":
        """The same value expressed in the order-`order` field."""
        if order == self.order:
            return self
        if order % self.order:
            raise ValueError(f"cannot promote order {self.order} to {order}")
        step = order // self.order
        return Cyclotomic._raw(
            order, _reduce_terms(order, ((i * step, c) for i, c in enumerate(self.coeffs)))
        )

    def coeff_key(self, order: int) -> tuple[Fraction, ...]:
        """Hashable coefficient tuple at the given order (for dict keys)."""
        return self.promoted(order).coeffs

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        n = lcm(self.order, o.order)
        a, b = self.promoted(n).coeffs, o.promoted(n).coeffs
        return Cyclotomic._raw(n, tuple(x + y for x, y in zip(a, b)))

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic._raw(self.order, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        n = lcm(self.order, o.order)
        a, b = self.promoted(n).coeffs, o.promoted(n).coeffs
        terms = []
        for i, x in enumerate(a):
            if not x:
                continue
            for j, y in enumerate(b):
                if y:
                    terms.append((i + j, x * y))
        return Cyclotomic._raw(n, _reduce_terms(n, terms))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division of a cyclotomic value by zero")
            return self * (Fraction(1) / Fraction(other))
        return NotImplemented

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError(f"exponent must be a nonnegative integer, got {k!r}")
        result = Cyclotomic._raw(1, (Fraction(1),))
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def conjugate(self) -> "Cyclotomic":
        """Complex conjugate: maps each root of unity to its inverse."""
        n = self.order
        return Cyclotomic._raw(
            n, _reduce_terms(n, (((n - i) % n, c) for i, c in enumerate(self.coeffs)))
        )

    # -- predicates and conversions ----------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.coeffs[0]

    def as_complex(self) -> complex:
        z = cmath.exp(2j * cmath.pi / self.order)
        total = 0j
        power = 1 + 0j
        for c in self.coeffs:
            if c:
                total += float(c) * power
            power *= z
        return total

    def __eq__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        n = lcm(self.order, o.order)
        return self.promoted(n).coeffs == o.promoted(n).coeffs

    __hash__ = None  # see class docstring

    def __repr__(self):
        return f"Cyclotomic({self.order}, {self.coeffs})"

    def __str__(self):
        if self.is_rational():
            return str(self.coeffs[0])
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                term = str(c)
            else:
                base = f"z{self.order}" if i == 1 else f"z{self.order}^{i}"
                if c == 1:
                    term = base
                elif c == -1:
                    term = f"-{base}"
                else:
                    term = f"{c}*{base}"
            parts.append(term)
        out = parts[0]
        for term in parts[1:]:
            out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
        return out


def _coerce(value) -> Optional[Cyclotomic]:
    if isinstance(value, Cyclotomic):
        return value
    if isinstance(value, (int, Fraction)):
        return Cyclotomic._raw(1, (Fraction(value),))
    return None


def from_rational(value: Rational) -> Cyclotomic:
    """The rational number `value` as an order-1 cyclotomic value."""
    return Cyclotomic._raw(1, (Fraction(value),))


def root_of_unity(n: int, k: int = 1) -> Cyclotomic:
    """The root of unity zeta_n^k of order dividing n."""
    if n < 1:
        raise ValueError(f"root order must be positive, got {n}")
    return Cyclotomic._raw(n, _reduce_terms(n, [(k % n, Fraction(1))]))


def from_terms(order: int, terms: Iterable[tuple[int, Rational]]) -> Cyclotomic:
    """Build sum of c * zeta_order^k from (k, c) pairs, reduced exactly."""
    return Cyclotomic._raw(order, _reduce_terms(order, ((k, Fraction(c)) for k, c in terms)))


def value_to_json(value: Cyclotomic) -> dict:
    """JSON form: order plus coefficients as numerator/denominator pairs."""
    return {
        "order": value.order,
        "coeffs": [[c.numerator, c.denominator] for c in value.coeffs],
    }


def value_from_json(obj, exponent: Optional[int] = None) -> Cyclotomic:
    """Parse an int, a [num, den] pair, or the dict form from value_to_json.

    With `exponent` given, the order of the dict form must divide it.  The
    order sets the size of every later polynomial, so it is checked first.
    Every number must be an int: bool is a subclass of int, and JSON true is
    no number.
    """
    if type(obj) is int:
        return from_rational(obj)
    if _is_pair(obj):
        return from_rational(Fraction(obj[0], obj[1]))
    if (isinstance(obj, dict) and type(obj.get("order")) is int
            and isinstance(obj.get("coeffs"), list) and all(map(_is_pair, obj["coeffs"]))):
        order = obj["order"]
        if exponent is not None and (order < 1 or exponent % order):
            raise ValueError(f"order {order} does not divide the group exponent {exponent}")
        return Cyclotomic(order, [Fraction(num, den) for num, den in obj["coeffs"]])
    raise ValueError(f"cannot interpret {obj!r} as a cyclotomic value")


def _is_pair(obj) -> bool:
    return isinstance(obj, (list, tuple)) and len(obj) == 2 and all(type(x) is int for x in obj)
