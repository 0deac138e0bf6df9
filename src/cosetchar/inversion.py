"""Reconstruction of a character's orbit components from its coset values.

For cyclic Q = G/N generated by the coset q, any character Theta of G
splits as a sum over dual-group orbits of terms (lift of Psi) * rho, with
rho the orbit representative and Psi a character of Q.  The values of Psi
at powers of q are recovered from power sums: weighting Theta by conj(rho)
over the coset q^(d*m)N (m the stabilizer size) yields the d-th power sum
p_d of a multiset of l-th roots of unity, l = |Q|/m.  The coset, hence
p_d, repeats with period l, so the multiplicity of zeta_l^t is the exact
discrete Fourier coefficient c_t = (1/l) sum_(d<l) p_d zeta_l^(-d*t).
Every step is certified: every c_t must be a nonnegative integer, which
puts every power sum in the quotient's cyclotomic field, the root count must
match the d = 0 sum and not exceed Theta(1)/rho(1), each chosen m-th root
must recover its root, the reconstruction must not depend on the choice of
m-th roots, and the components must add up to Theta exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence, Union

import numpy as np

from .chartable import ClassFunction, inner_product
from .cosets import CosetAnalysis
from .cyclotomic import Cyclotomic, from_rational, from_terms, root_of_unity
from .errors import HypothesisError, ensure


# The largest character degree theta(1) accepted.  Decomposing theta keeps one
# entry per recovered root, up to theta(1) of them, so the degree bounds the
# work and the memory of an inversion.
DEGREE_LIMIT = 100_000


def _check_degree(degree) -> None:
    if degree > DEGREE_LIMIT:
        raise ValueError(
            f"character degree {degree} exceeds the limit of {DEGREE_LIMIT}")


class Theta:
    """A genuine character of the group, validated on construction."""

    __slots__ = ("class_function", "multiplicities")

    def __init__(self, class_function: ClassFunction,
                 multiplicities: tuple[int, ...]):
        self.class_function = class_function
        self.multiplicities = multiplicities

    @classmethod
    def from_multiplicities(cls, table, multiplicities: Sequence[int]) -> "Theta":
        """The character with the given multiplicity of each table row.

        Its value at class k has the coefficients m @ M_k, one integer
        product against the table's class matrix, at the class's element
        order n_k."""
        mults = tuple(int(m) for m in multiplicities)
        if len(mults) != table.n_rows:
            raise ValueError(
                f"expected {table.n_rows} multiplicities, got {len(mults)}")
        if any(m < 0 for m in mults):
            raise ValueError("multiplicities must be nonnegative")
        degree = sum(m * d for m, d in zip(mults, table.degrees))
        _check_degree(degree)
        if not degree:
            values = [from_rational(0)] * table.classes.n_classes
        else:
            mats, bound = table.class_matrices, table.class_matrix_bound
            # theta's value at class k is a sum of theta(1) roots of unity of
            # order n_k, so every coefficient, and every partial sum of
            # m @ M_k in any order, is at most theta(1) * max|_power_table(n_k)|
            # in absolute value, certified below 2**63 here
            ensure(degree * bound < 2**63, "character coefficients overflow int64")
            m = np.array(mults, dtype=np.int64)
            values = [Cyclotomic._raw(n, tuple(map(Fraction, (m @ M).tolist())))
                      for n, M in mats]
        cf = ClassFunction(table.group, table.classes, values)
        return cls(cf, mults)

    @classmethod
    def from_values(cls, table, values) -> "Theta":
        """Validate an explicit value vector as a character.

        Raises ValueError when the degree exceeds DEGREE_LIMIT, checked
        first, and HypothesisError unless every multiplicity, computed by
        exact inner products against the table, is a nonnegative integer.
        """
        cf = ClassFunction(table.group, table.classes, values)
        degree = cf.values[0]
        if degree.is_rational():
            _check_degree(degree.as_rational())
        mults = []
        for row in table.rows:
            ip = inner_product(cf, row)
            if not ip.is_rational():
                raise HypothesisError("the given values are not a character: their "
                                      f"inner product with row {len(mults)} is {ip}")
            r = ip.as_rational()
            if r.denominator != 1 or r < 0:
                raise HypothesisError(
                    f"multiplicity {r} of row {len(mults)} is not a nonnegative integer")
            mults.append(int(r))
        rebuilt = cls.from_multiplicities(table, mults)
        ensure(rebuilt.class_function == cf,
               "multiplicities do not rebuild the given values")
        return cls(cf, tuple(mults))

    @property
    def degree(self) -> int:
        d = self.class_function.values[0]
        return int(d.as_rational())

    @property
    def values(self):
        return self.class_function.values


@dataclass(frozen=True)
class PsiComponent:
    """One orbit's share of the reconstruction.

    `lambdas` are the recovered roots (values at q^m), `mus` the chosen
    m-th roots of them (values at q), `psi_at_powers[j]` the value of Psi
    at q^j, and `component` the class function (lift of Psi) * rho."""

    orbit_index: int
    representative_row: int
    stabilizer_size: int
    lambdas: tuple[Cyclotomic, ...]
    mus: tuple[Cyclotomic, ...]
    psi_at_powers: tuple[Cyclotomic, ...]
    component: ClassFunction

    @property
    def dimension(self) -> int:
        return len(self.lambdas)


def psi_power_value(analysis: CosetAnalysis, theta: ClassFunction,
                    orbit_index: int, d: int, coset: int) -> Cyclotomic:
    """The d-th power sum for one orbit: the conj(rho)-weighted average of
    theta over the coset (q^(d*m))N, at the lcm order of its terms."""
    rec = analysis.orbits[orbit_index]
    rho = analysis.table.rows[rec.representative_row]
    m = len(rec.stabilizer)
    Q = analysis.quotient
    target = Q.power(coset, (d * m) % Q.size)
    pairs = [(analysis.classes.sizes[k], rho.values[k], theta.values[k])
             for k in analysis.classes_in(target)]
    order = lcm(1, *(x.order for _, r, t in pairs for x in (r, t)))
    # sum of size * conj(rho) * theta, term by term at one order:
    # conj maps zeta^i to zeta^-i
    terms = []
    for size, r, t in pairs:
        sr, st = order // r.order, order // t.order
        for i, a in enumerate(r.coeffs):
            if a:
                terms.extend((j * st - i * sr, size * a * b)
                             for j, b in enumerate(t.coeffs) if b)
    return from_terms(order, terms) / (analysis.normal.order * m)


def power_sums_to_multiset(power_sums: Sequence[Cyclotomic]) -> tuple[int, ...]:
    """The multiset of l-th roots of unity with power sums p_0..p_(l-1).

    Returns c_0..c_(l-1), the multiplicity of zeta_l^t, each taken as the
    inner product of the sums with a linear character of the cyclic group
    of order l: c_t = (1/l) sum_d p_d zeta_l^(-d*t).  This inverts the sums
    of any l-periodic multiset exactly.  Raises HypothesisError unless every
    c_t is a nonnegative integer.

    That check also certifies the field of the sums.  The transform is
    invertible, p_d = sum_t c_t zeta_l^(d*t) for every d < l, so integer
    c_t put every p_d in Z[zeta_l], inside Q(zeta_|Q|) since l divides
    |Q|.  Sums that leave that field give some c_t that is not rational.
    """
    ell = len(power_sums)
    order = lcm(ell, *(p.order for p in power_sums))
    counts = []
    for t in range(ell):
        # p_d * zeta_l^(-d*t) shifts the exponents of p_d by -d*t*(order/l)
        c = from_terms(order, ((i * (order // p.order) - d * t * (order // ell), x / ell)
                               for d, p in enumerate(power_sums)
                               for i, x in enumerate(p.coeffs) if x))
        if not c.is_rational():
            raise HypothesisError(
                f"the multiplicity {c} of zeta_{ell}^{t} is not rational")
        r = c.as_rational()
        if r.denominator != 1 or r < 0:
            raise HypothesisError(
                f"the multiplicity {r} of zeta_{ell}^{t} is not a nonnegative integer")
        counts.append(int(r))
    return tuple(counts)


def choose_roots(exponents: Sequence[int], ell: int,
                 m: int) -> tuple[Cyclotomic, ...]:
    """The principal m-th root of zeta_l^t for each t: with g = gcd(l, t),
    zeta_l^t = zeta_(l/g)^(t/g) has order l/g, and the root is that power
    of a root of unity with the order scaled up by m and the exponent kept."""
    mus = []
    for t in exponents:
        g = gcd(ell, t)
        mus.append(root_of_unity(ell // g * m, t // g))
    return tuple(mus)


def _psi_at_powers(counts: Sequence[int], mus: Sequence[Cyclotomic],
                   n: int) -> tuple[Cyclotomic, ...]:
    """Psi(q^j) for j < n: the sum of count * mu^j over the chosen roots."""
    psi = []
    for j in range(n):
        total = from_rational(0)
        for c, mu in zip(counts, mus):
            total = total + c * mu ** j
        psi.append(total)
    return tuple(psi)


def decompose(analysis: CosetAnalysis, theta: Union[Theta, ClassFunction],
              coset: Optional[int] = None) -> tuple[PsiComponent, ...]:
    """Split theta into its orbit components from coset data alone.

    Requires a cyclic quotient and a generating coset (the canonical
    generator when none is given).  Returns one component per orbit that
    actually occurs in theta; their sum is certified to equal theta.
    """
    Q = analysis.quotient
    if not Q.is_cyclic:
        raise HypothesisError("quotient group is not cyclic")
    q = Q.generator if coset is None else coset
    n = Q.size
    if Q.coset_order(q) != n:
        raise HypothesisError(
            f"coset {analysis.coset_label(q)} does not generate the quotient")
    cf = theta.class_function if isinstance(theta, Theta) else theta
    if cf.group is not analysis.group:
        raise ValueError("theta lives on a different group")
    jmap = {}
    cur = 0
    for j in range(n):
        jmap[cur] = j
        cur = Q.mult(cur, q)
    # the power j of q with q^j N the coset of each class
    class_powers = [jmap[Q.coset_of[rep]] for rep in analysis.classes.representatives]
    deg = cf.values[0]
    if not deg.is_rational() or deg.as_rational().denominator != 1:
        raise HypothesisError("theta has a non-integer degree")
    theta_degree = int(deg.as_rational())
    components = []
    running: Optional[ClassFunction] = None
    for oi, rec in enumerate(analysis.orbits):
        rho_degree = analysis.table.degrees[rec.representative_row]
        m = len(rec.stabilizer)
        ell = n // m
        nmax = theta_degree // rho_degree
        # one period of the power sums: the coset q^(d*m)N repeats after ell
        sums = [psi_power_value(analysis, cf, oi, d, q) for d in range(ell)]
        counts = power_sums_to_multiset(sums)
        total = sum(counts)
        ensure(total == sums[0], "the root count differs from the d = 0 power sum")
        if total > nmax:
            raise HypothesisError(
                f"recovered {total} roots but theta(1)/rho(1) is {nmax}")
        if not total:
            continue
        present = [t for t in range(ell) if counts[t]]
        lams = [root_of_unity(n, t * m) for t in present]
        mus = choose_roots(present, ell, m)
        for mu, lam in zip(mus, lams):
            ensure(mu ** m == lam, "chosen m-th root does not recover its value")
        mults = [counts[t] for t in present]
        rho = analysis.table.rows[rec.representative_row]
        psi_at_powers = _psi_at_powers(mults, mus, n)
        if m > 1:
            # the component (lift of Psi) * rho must not depend on the choice
            # of m-th roots; rotating them may change Psi only where rho is 0
            zeta_m = root_of_unity(m)
            alt = _psi_at_powers(mults, [mu * zeta_m for mu in mus], n)
            ensure(all(alt[j] == psi_at_powers[j]
                       for j, x in zip(class_powers, rho.values) if x),
                   "reconstruction depends on the choice of m-th roots")
        component = ClassFunction(analysis.group, analysis.classes,
                                  [psi_at_powers[j] * x
                                   for j, x in zip(class_powers, rho.values)])
        components.append(PsiComponent(
            orbit_index=oi,
            representative_row=rec.representative_row,
            stabilizer_size=m,
            lambdas=tuple(lam for lam, c in zip(lams, mults) for _ in range(c)),
            mus=tuple(mu for mu, c in zip(mus, mults) for _ in range(c)),
            psi_at_powers=psi_at_powers,
            component=component,
        ))
        running = component if running is None else running + component
    if running is None:
        running = ClassFunction(analysis.group, analysis.classes,
                                [from_rational(0)] * analysis.classes.n_classes)
    ensure(running == cf, "orbit components do not add up to the input")
    return tuple(components)
