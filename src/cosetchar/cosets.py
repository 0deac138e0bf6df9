"""Coset/character correspondences for a normal subgroup with abelian quotient.

For G with normal N and abelian Q = G/N, the linear characters of Q pull
back to G and act on the irreducible characters by tensoring.  Per coset
qN this module computes the classes C_q contained in it, the orbits R_q of
characters not vanishing identically on it, and a square matrix over the
two index sets that is certified unitary by exact Gram identities.  The
counting consequences (extendability of characters of N, existence of
nontrivial extensions, monotonicity under powers of the coset) are each
computed several independent ways and cross-checked.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .chartable import (
    CharacterTable,
    ClassFunction,
    character_table,
    restrict,
    restriction_norm,
)
from .cyclotomic import Cyclotomic, from_rational, root_of_unity
from .errors import HypothesisError, ensure
from .groups import (
    AbelianQuotient,
    ConjugacyClasses,
    FiniteGroup,
    Subgroup,
    conjugacy_classes,
    quotient,
    subgroup_as_group,
    subgroup_generated,
)

UNITARITY_TOLERANCE = 1e-9


class DualCharacter:
    """A linear character of the abelian quotient, given by exponents on the
    cyclic factors; `values` holds its value on every coset."""

    __slots__ = ("quotient", "exponents", "values")

    def __init__(self, Q: AbelianQuotient, exponents: Sequence[int]):
        factors = Q.cyclic_factors
        if len(exponents) != len(factors):
            raise ValueError(
                f"expected {len(factors)} exponents, got {len(exponents)}"
            )
        exps = tuple(int(e) % o for e, (_, o) in zip(exponents, factors))
        values = []
        for c in range(Q.size):
            v = from_rational(1)
            for e, (_, o), t in zip(exps, factors, Q.coset_exponents[c]):
                if e and t:
                    v = v * root_of_unity(o, (e * t) % o)
            values.append(v)
        self.quotient = Q
        self.exponents = exps
        self.values = tuple(values)

    @property
    def is_trivial(self) -> bool:
        return not any(self.exponents)

    def __repr__(self):
        return f"DualCharacter{self.exponents}"


def dual_group(Q: AbelianQuotient) -> tuple[DualCharacter, ...]:
    """All linear characters of the quotient, trivial character first.

    The character group is certified exactly: the value vectors are |Q| in
    number, pairwise distinct, and multiplicative on every coset times every
    invariant-factor generator.
    """
    factors = Q.cyclic_factors
    chars = tuple(
        DualCharacter(Q, exps)
        for exps in itertools.product(*(range(o) for _, o in factors))
    )
    ensure(len(chars) == Q.size, "dual group has the wrong size")
    ensure(chars[0].is_trivial, "trivial dual character is not first")
    order = max((o for _, o in factors), default=1)
    seen = {tuple(v.coeff_key(order) for v in ch.values) for ch in chars}
    ensure(len(seen) == len(chars), "dual characters are not pairwise distinct")
    # Values are products of roots of unity, so nowhere zero.  A nowhere-zero
    # f with f(cg) = f(c) f(g) for each generator g has f(1) = 1 and, by
    # induction on word length, is a homomorphism.  |Q| distinct ones are all
    # of Hom(Q, C*), which is closed under products.
    for ch in chars:
        for c in range(Q.size):
            for g, _ in factors:
                ensure(ch.values[Q.mult(c, g)] == ch.values[c] * ch.values[g],
                       "a dual character is not a homomorphism")
    return chars


def lift_to_group(chi: DualCharacter, table: CharacterTable) -> ClassFunction:
    """Pull a quotient character back to a class function on the group."""
    Q = chi.quotient
    if Q.group is not table.group:
        raise ValueError("dual character and table live on different groups")
    values = [chi.values[Q.coset_of[rep]] for rep in table.classes.representatives]
    return ClassFunction(table.group, table.classes, values)


@dataclass(frozen=True)
class OrbitRecord:
    """One orbit of the dual-group action on table rows.

    `stabilizer` lists dual-character indices fixing the representative,
    which is the smallest member row.
    """

    member_rows: tuple[int, ...]
    representative_row: int
    stabilizer: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.member_rows)


def compute_orbits(table: CharacterTable, dual_chars: Sequence[DualCharacter],
                   normal: Subgroup) -> tuple[OrbitRecord, ...]:
    """Orbits of the dual action on rows, in order of their smallest row.

    Certifies orbit-stabilizer and, for every representative, that the
    stabilizer size equals the exact norm of the restriction to N.
    """
    Q = dual_chars[0].quotient
    lifted = [lift_to_group(chi, table) for chi in dual_chars]
    records = []
    assigned = set()
    for row in range(table.n_rows):
        if row in assigned:
            continue
        members = set()
        stab = []
        for di, lift in enumerate(lifted):
            product = [a * b for a, b in zip(table.rows[row].values, lift.values)]
            target = table.find_row(product)
            ensure(target is not None,
                   "tensoring an irreducible character by a linear character left the table")
            members.add(target)
            if target == row:
                stab.append(di)
        ensure(min(members) == row, "orbit representative is not the smallest row")
        ensure(len(members) * len(stab) == Q.size, "orbit-stabilizer identity failed")
        norm = restriction_norm(table.rows[row], normal)
        ensure(norm == len(stab),
               f"stabilizer size {len(stab)} differs from restriction norm {norm}")
        records.append(OrbitRecord(tuple(sorted(members)), row, tuple(stab)))
        assigned |= members
    ensure(sum(r.length for r in records) == table.n_rows,
           "orbits do not partition the table rows")
    return tuple(records)


def pi_q(table: CharacterTable, dual_chars: Sequence[DualCharacter],
         coset: int) -> ClassFunction:
    """The indicator class function of a coset, built from dual characters.

    Computes (1/#Q) sum over chi of conj(chi(q)) chi(.) and certifies it
    equals the 0/1 indicator of the coset exactly.
    """
    Q = dual_chars[0].quotient
    values = []
    for rep in table.classes.representatives:
        c = Q.coset_of[rep]
        total = from_rational(0)
        for chi in dual_chars:
            total = total + chi.values[coset].conjugate() * chi.values[c]
        val = total / Q.size
        want = 1 if c == coset else 0
        ensure(val == want, "coset indicator identity failed")
        values.append(val)
    return ClassFunction(table.group, table.classes, values)


def classes_in_coset(classes: ConjugacyClasses, Q: AbelianQuotient,
                     coset: int) -> tuple[int, ...]:
    """Class indices whose members lie in the given coset."""
    out = []
    for k, rep in enumerate(classes.representatives):
        if Q.coset_of[rep] == coset:
            ensure(all(Q.coset_of[m] == coset for m in classes.members[k]),
                   "conjugacy class straddles cosets")
            out.append(k)
    return tuple(out)


def orbits_nonzero_on_coset(table: CharacterTable, orbits: Sequence[OrbitRecord],
                            dual_chars: Sequence[DualCharacter],
                            c_idx: Sequence[int], coset: int) -> tuple[int, ...]:
    """Orbit indices whose characters do not vanish identically on the coset,
    whose classes are `c_idx`.

    Membership is decided on the representative, re-checked on one more
    orbit member, and cross-checked against the kernel criterion: the orbit
    survives exactly when every stabilizer character is 1 on the coset.
    """
    out = []
    for oi, rec in enumerate(orbits):
        nz = any(table.rows[rec.representative_row].values[k] for k in c_idx)
        if rec.length > 1:
            other = rec.member_rows[1]
            nz_other = any(table.rows[other].values[k] for k in c_idx)
            ensure(nz_other == nz, "coset vanishing differs across an orbit")
        in_kernel = all(dual_chars[di].values[coset] == 1 for di in rec.stabilizer)
        ensure(in_kernel == nz,
               "kernel criterion disagrees with the vanishing test")
        if nz:
            out.append(oi)
    return tuple(out)


@dataclass(frozen=True)
class CosetReport:
    """Everything computed for one coset: index sets, the unitary matrix in
    exact form (payload value and rational radicand per entry) and as
    complex floats, plus the count cross-checks."""

    coset_index: int
    label: str
    class_indices: tuple[int, ...]
    orbit_indices: tuple[int, ...]
    entries: tuple[tuple[Cyclotomic, ...], ...]
    radicands: tuple[tuple[Fraction, ...], ...]
    numeric: tuple[tuple[complex, ...], ...]
    max_unitarity_deviation: float
    gram_certified: bool
    extendability: Optional[tuple[int, int, int, int, int]]

    @property
    def n_classes(self) -> int:
        return len(self.class_indices)

    @property
    def n_orbits(self) -> int:
        return len(self.orbit_indices)


def build_mq(table: CharacterTable, orbits: Sequence[OrbitRecord],
             c_idx: tuple[int, ...], o_idx: tuple[int, ...],
             coset: int, *, label: str = "",
             extendability: Optional[tuple[int, int, int, int, int]] = None) -> CosetReport:
    """The square matrix of scaled character values on one coset.

    Rows are the surviving orbits `o_idx` (by representative row), columns
    the classes `c_idx` in the coset, as `orbits_nonzero_on_coset` and
    `classes_in_coset` certified them.  Entry (rho, g) is
    sqrt(#[g] * #[rho] / #G) * rho(g); the radicand is kept as an exact
    rational and the square root only enters the floating-point rendering.
    Unitarity is certified twice: exact Gram identities between rows, and a
    numeric max-deviation bound.
    """
    ensure(len(c_idx) == len(o_idx),
           f"coset {coset}: {len(c_idx)} classes but {len(o_idx)} surviving orbits")
    G = table.group
    sizes = table.classes.sizes
    entries = []
    radicands = []
    for oi in o_idx:
        rec = orbits[oi]
        row = table.rows[rec.representative_row]
        entries.append(tuple(row.values[k] for k in c_idx))
        radicands.append(tuple(
            Fraction(sizes[k] * rec.length, G.order) for k in c_idx
        ))
    # exact Gram identities between surviving orbit representatives
    for a, oa in enumerate(o_idx):
        va = entries[a]
        for b, ob in enumerate(o_idx):
            total = from_rational(0)
            for pos, k in enumerate(c_idx):
                total = total + va[pos] * entries[b][pos].conjugate() * sizes[k]
            want = Fraction(G.order, orbits[oa].length) if a == b else 0
            ensure(total == want, "exact Gram identity failed")
    numeric = tuple(
        tuple(math.sqrt(float(radicands[a][b])) * entries[a][b].as_complex()
              for b in range(len(c_idx)))
        for a in range(len(o_idx))
    )
    if c_idx:
        m = np.array(numeric, dtype=complex)
        dev = float(np.max(np.abs(m @ m.conj().T - np.eye(len(c_idx)))))
    else:
        dev = 0.0
    ensure(dev < UNITARITY_TOLERANCE, f"numeric unitarity deviation {dev} too large")
    return CosetReport(
        coset_index=coset,
        label=label,
        class_indices=c_idx,
        orbit_indices=o_idx,
        entries=tuple(entries),
        radicands=tuple(radicands),
        numeric=numeric,
        max_unitarity_deviation=dev,
        gram_certified=True,
        extendability=extendability,
    )


class CosetAnalysis:
    """End-to-end bundle for one (group, normal subgroup) pair.

    Construction computes and certifies the character table, the abelian
    quotient, the dual group and the orbit decomposition; per-coset data is
    computed on demand and cached.
    """

    def __init__(self, group: FiniteGroup,
                 normal: Union[Subgroup, Iterable[Union[int, Sequence[int]]]],
                 *, label: str = "G"):
        if not isinstance(normal, Subgroup):
            normal = subgroup_generated(group, normal)
        self.group = group
        self.normal = normal
        self.label = label
        self.classes = conjugacy_classes(group)
        self.table = character_table(group, self.classes)
        self.quotient = quotient(group, normal)
        self.dual_chars = dual_group(self.quotient)
        self.orbits = compute_orbits(self.table, self.dual_chars, normal)
        self._classes_in: dict[int, tuple[int, ...]] = {}
        self._orbits_nonzero: dict[int, tuple[int, ...]] = {}
        self._reports: dict[int, CosetReport] = {}
        self._normal_data = None
        self._restriction_rows: Optional[tuple[Optional[int], ...]] = None

    # -- per-coset basics ---------------------------------------------------

    def classes_in(self, coset: int) -> tuple[int, ...]:
        if coset not in self._classes_in:
            self._classes_in[coset] = classes_in_coset(self.classes, self.quotient, coset)
        return self._classes_in[coset]

    def orbits_nonzero(self, coset: int) -> tuple[int, ...]:
        if coset not in self._orbits_nonzero:
            self._orbits_nonzero[coset] = orbits_nonzero_on_coset(
                self.table, self.orbits, self.dual_chars, self.classes_in(coset), coset)
        return self._orbits_nonzero[coset]

    def pi(self, coset: int) -> ClassFunction:
        return pi_q(self.table, self.dual_chars, coset)

    def coset_label(self, coset: int) -> str:
        Q = self.quotient
        if Q.is_cyclic:
            j = Q.cyclic_log(coset)
            if j == 0:
                return "N"
            return "q" if j == 1 else f"q^{j}"
        exps = Q.coset_exponents[coset]
        if not any(exps):
            return "N"
        return "(" + ",".join(str(e) for e in exps) + ")"

    def coset_by_label(self, label: str) -> int:
        for c in range(self.quotient.size):
            if self.coset_label(c) == label:
                return c
        raise KeyError(label)

    def report(self, coset: int) -> CosetReport:
        if coset not in self._reports:
            ext = None
            Q = self.quotient
            if Q.is_cyclic and Q.coset_order(coset) == Q.size:
                ext = self.extendability_counts(coset)
            self._reports[coset] = build_mq(
                self.table, self.orbits, self.classes_in(coset), self.orbits_nonzero(coset),
                coset, label=self.coset_label(coset), extendability=ext)
        return self._reports[coset]

    def reports(self) -> tuple[CosetReport, ...]:
        return tuple(self.report(c) for c in range(self.quotient.size))

    # -- the normal subgroup as a standalone group ---------------------------

    def normal_group_data(self):
        """(group, classes, table) for N re-enumerated as its own group."""
        if self._normal_data is None:
            H = subgroup_as_group(self.group, self.normal)
            hcls = conjugacy_classes(H)
            self._normal_data = (H, hcls, character_table(H, hcls))
        return self._normal_data

    def restriction_row_indices(self) -> tuple[Optional[int], ...]:
        """For each table row, the row of N's table equal to its restriction,
        or None when the restriction is reducible."""
        if self._restriction_rows is None:
            H, hcls, htable = self.normal_group_data()
            out = []
            for row in self.table.rows:
                res = restrict(row, H, hcls)
                out.append(htable.find_row(res.values))
            self._restriction_rows = tuple(out)
        return self._restriction_rows

    # -- counting corollaries -------------------------------------------------

    def _require_generator(self, coset: int) -> None:
        Q = self.quotient
        if not Q.is_cyclic:
            raise HypothesisError("quotient group is not cyclic")
        if Q.coset_order(coset) != Q.size:
            raise HypothesisError(
                f"coset {self.coset_label(coset)} does not generate the quotient")

    def extendability_counts(self, coset: int) -> tuple[int, int, int, int, int]:
        """Five independent counts certified equal for a generating coset of
        a cyclic quotient:

        (a) classes in the coset, (b) surviving orbits on the coset,
        (c) orbits of full length, (d) characters with irreducible
        restriction divided by the index, (e) characters of N that extend.
        """
        self._require_generator(coset)
        Q = self.quotient
        a = len(self.classes_in(coset))
        b = len(self.orbits_nonzero(coset))
        c = sum(1 for rec in self.orbits if rec.length == Q.size)
        norms = [restriction_norm(row, self.normal) for row in self.table.rows]
        irr = sum(1 for x in norms if x == 1)
        ensure(irr % Q.size == 0,
               "irreducible-restriction count is not divisible by the index")
        d = irr // Q.size
        matched = {ri for ri in self.restriction_row_indices() if ri is not None}
        e = len(matched)
        ensure(a == b == c == d == e,
               f"extendability counts disagree: {(a, b, c, d, e)}")
        return (a, b, c, d, e)

    def nontrivial_extension(self) -> tuple[bool, tuple[str, int]]:
        """Whether some nontrivial character of N extends to G (cyclic Q).

        Certifies the equivalence with 'no conjugacy class of G has exactly
        #N elements' and returns a witness: an extending character's row in
        N's table, or a class index of size #N.
        """
        Q = self.quotient
        if not Q.is_cyclic:
            raise HypothesisError("quotient group is not cyclic")
        H, hcls, htable = self.normal_group_data()
        matched = {ri for ri in self.restriction_row_indices() if ri is not None}
        triv = htable.find_row([from_rational(1)] * hcls.n_classes)
        nontrivial = sorted(r for r in matched if r != triv)
        has_extension = bool(nontrivial)
        big_classes = [k for k, s in enumerate(self.classes.sizes)
                       if s == self.normal.order]
        ensure(has_extension == (not big_classes),
               "extension existence disagrees with the class-size criterion")
        if has_extension:
            return True, ("extending_character_row", nontrivial[0])
        return False, ("class_of_size_n", big_classes[0])

    def monotonicity_check(self, coset: int, k: int) -> tuple[int, int]:
        """Certify R_q subset of R_{q^k} and #C_q <= #C_{q^k}; returns the counts."""
        if k < 1:
            raise ValueError(f"power must be at least 1, got {k}")
        target = self.quotient.power(coset, k)
        r_small, r_big = set(self.orbits_nonzero(coset)), set(self.orbits_nonzero(target))
        ensure(r_small <= r_big, "orbit set is not monotone under coset powers")
        c_small, c_big = len(self.classes_in(coset)), len(self.classes_in(target))
        ensure(c_small <= c_big, "class count is not monotone under coset powers")
        return c_small, c_big

    def three_way_equivalence(self, coset: int) -> tuple[bool, ...]:
        """For a generating coset of a cyclic quotient, certify per orbit that
        membership in R_q, trivial stabilizer, and irreducible restriction
        agree; returns the membership flags."""
        self._require_generator(coset)
        in_r = set(self.orbits_nonzero(coset))
        flags = []
        for oi, rec in enumerate(self.orbits):
            a = oi in in_r
            b = len(rec.stabilizer) == 1
            c = restriction_norm(self.table.rows[rec.representative_row], self.normal) == 1
            ensure(a == b == c, f"three-way equivalence failed on orbit {oi}")
            flags.append(a)
        return tuple(flags)
