"""Finite permutation groups at desk scale.

An element is its tuple of images: the permutation p of {0, ..., d-1} is
the tuple (p(0), ..., p(d-1)), and a group holds its elements in that one
form, each also known by its index.  Groups are fully enumerated
(breadth-first over the generators, identity first), which keeps conjugacy
classes, normal subgroups and abelian quotients exact and deterministic.
Composition is right-to-left throughout: (p * q)(i) = p(q(i)), so the
product of image tuples a and b is `tuple([a[k] for k in b])`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import lcm
from typing import Iterable, Optional, Sequence, Union

from .errors import HypothesisError, ensure

DEFAULT_ORDER_LIMIT = 20000


def _cycles(images: Sequence[int]) -> list[tuple[int, ...]]:
    """Nontrivial cycles, each starting at its smallest point."""
    seen = [False] * len(images)
    out = []
    for start in range(len(images)):
        if seen[start] or images[start] == start:
            continue
        cyc = [start]
        seen[start] = True
        nxt = images[start]
        while nxt != start:
            cyc.append(nxt)
            seen[nxt] = True
            nxt = images[nxt]
        out.append(tuple(cyc))
    return out


def cycle_string(images: Sequence[int]) -> str:
    """Cycle notation, such as "(0 1 2)(3 4)"; "()" for the identity."""
    return "".join("(" + " ".join(map(str, c)) + ")" for c in _cycles(images)) or "()"


class FiniteGroup:
    """A fully enumerated permutation group; element 0 is the identity."""

    def __init__(self, degree: int, elements: Sequence[tuple[int, ...]],
                 generator_indices: Sequence[int]):
        self.degree = degree
        self.elements = tuple(elements)
        self.element_index = {p: i for i, p in enumerate(self.elements)}
        self.generators = tuple(generator_indices)
        self._inverses: tuple[int, ...] | None = None
        self._orders: tuple[int, ...] | None = None

    @property
    def order(self) -> int:
        return len(self.elements)

    def mul(self, i: int, j: int) -> int:
        a = self.elements[i]
        return self.element_index[tuple([a[k] for k in self.elements[j]])]

    def inv(self, i: int) -> int:
        if self._inverses is None:
            # the inverse of p sends p(k) to k: the points sorted by their images
            self._inverses = tuple(
                self.element_index[tuple(sorted(range(self.degree), key=p.__getitem__))]
                for p in self.elements)
        return self._inverses[i]

    def element_order(self, i: int) -> int:
        if self._orders is None:
            self._orders = tuple(lcm(*map(len, _cycles(p))) for p in self.elements)
        return self._orders[i]

    def index_of(self, images: Sequence[int]) -> int:
        try:
            return self.element_index[tuple(images)]
        except KeyError:
            raise ValueError(f"{list(images)} is not an element of this group") from None

    def __repr__(self):
        return f"<FiniteGroup of order {self.order} on {self.degree} points>"


def generate_group(degree: int, generators: Iterable[Sequence[int]],
                   order_limit: int = DEFAULT_ORDER_LIMIT) -> FiniteGroup:
    """Close the generators, given by their images, under composition,
    breadth first.

    The element order is deterministic: identity first, then new products
    x * g in frontier order with generators in the given order.
    """
    if order_limit < 1:
        raise ValueError(f"order limit must be positive, got {order_limit}")
    gens = [tuple(int(x) for x in g) for g in generators]
    for g in gens:
        if sorted(g) != list(range(degree)):
            raise ValueError(f"images {g!r} are not a bijection on 0..{degree - 1}")
    ident = tuple(range(degree))
    elements = [ident]
    index = {ident: 0}
    frontier = [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = tuple([x[k] for k in g])
                if y not in index:
                    if len(elements) >= order_limit:
                        raise ValueError(f"group order exceeds the limit {order_limit}")
                    index[y] = len(elements)
                    elements.append(y)
                    nxt.append(y)
        frontier = nxt
    return FiniteGroup(degree, elements, tuple(index[g] for g in gens))


@dataclass(frozen=True)
class ConjugacyClasses:
    """Conjugacy classes ordered by (element order, class size, representative)."""

    class_of: tuple[int, ...]
    representatives: tuple[int, ...]
    sizes: tuple[int, ...]
    members: tuple[tuple[int, ...], ...]

    @property
    def n_classes(self) -> int:
        return len(self.representatives)


def conjugacy_classes(G: FiniteGroup) -> ConjugacyClasses:
    """Partition the group into conjugacy classes (orbit search by generators)."""
    n = G.order
    assigned = [False] * n
    raw: list[list[int]] = []
    gen_invs = [(g, G.inv(g)) for g in G.generators]
    for i in range(n):
        if assigned[i]:
            continue
        orbit = {i}
        stack = [i]
        assigned[i] = True
        while stack:
            x = stack.pop()
            for g, gi in gen_invs:
                y = G.mul(G.mul(g, x), gi)
                if y not in orbit:
                    orbit.add(y)
                    assigned[y] = True
                    stack.append(y)
        raw.append(sorted(orbit))
    raw.sort(key=lambda mem: (G.element_order(mem[0]), len(mem), mem[0]))
    class_of = [0] * n
    for ci, mem in enumerate(raw):
        for x in mem:
            class_of[x] = ci
    sizes = tuple(len(mem) for mem in raw)
    ensure(sum(sizes) == n, "conjugacy classes do not partition the group")
    ensure(all(n % s == 0 for s in sizes), "class size does not divide the group order")
    ensure(raw[0] == [0], "identity class is not first")
    return ConjugacyClasses(
        class_of=tuple(class_of),
        representatives=tuple(mem[0] for mem in raw),
        sizes=sizes,
        members=tuple(tuple(mem) for mem in raw),
    )


class Subgroup:
    """A subgroup given by its sorted element-index set."""

    def __init__(self, group: FiniteGroup, members: Iterable[int]):
        self.group = group
        self.members = tuple(sorted({int(m) for m in members}))
        self.member_set = frozenset(self.members)
        if 0 not in self.member_set:
            raise ValueError("subgroup does not contain the identity")
        for a in self.members:
            if group.inv(a) not in self.member_set:
                raise ValueError("subgroup is not closed under inversion")
            for b in self.members:
                if group.mul(a, b) not in self.member_set:
                    raise ValueError("subgroup is not closed under multiplication")

    @property
    def order(self) -> int:
        return len(self.members)

    def __repr__(self):
        return f"<Subgroup of order {self.order}>"


def subgroup_generated(G: FiniteGroup, elems: Iterable[Union[int, Sequence[int]]]) -> Subgroup:
    """The subgroup of G generated by the given elements (indices or image sequences)."""
    seeds = [G.index_of(e) if isinstance(e, Sequence) else int(e) for e in elems]
    for s in seeds:
        if not 0 <= s < G.order:
            raise ValueError(f"element index {s} out of range")
    closure = {0}
    frontier = [0]
    seeds = sorted(set(seeds) | {0})
    while frontier:
        nxt = []
        for x in frontier:
            for s in seeds:
                y = G.mul(x, s)
                if y not in closure:
                    closure.add(y)
                    nxt.append(y)
        frontier = nxt
    return Subgroup(G, closure)


def normality_witness(G: FiniteGroup, H: Subgroup) -> Optional[tuple[int, int]]:
    """A generator g of G and a member h of H with g*h*g^-1 outside H, or None."""
    return next(((g, h) for g in G.generators for h in H.members
                 if G.mul(G.mul(g, h), G.inv(g)) not in H.member_set), None)


def is_normal(G: FiniteGroup, H: Subgroup) -> bool:
    """Whether H is stable under conjugation by the generators of G."""
    return normality_witness(G, H) is None


def subgroup_as_group(G: FiniteGroup, H: Subgroup) -> FiniteGroup:
    """Re-enumerate a subgroup as a standalone group on the same points."""
    return generate_group(G.degree, [G.elements[i] for i in H.members],
                          order_limit=max(H.order, 1))


def _order_in_table(table: Sequence[Sequence[int]], x: int) -> int:
    n = 1
    cur = x
    while cur != 0:
        cur = table[cur][x]
        n += 1
    return n


def _table_power(table: Sequence[Sequence[int]], x: int, k: int) -> int:
    cur = 0
    for _ in range(k):
        cur = table[cur][x]
    return cur


def _invariant_factors(table: Sequence[Sequence[int]]) -> list[tuple[int, int]]:
    """Invariant-factor generators of an abelian multiplication table.

    Returns (element, order) pairs with non-increasing orders, each order
    dividing the previous one; the listed elements generate the group as a
    direct product.  Works by extracting an element of maximal order and
    recursing on the quotient, lifting the quotient generators along a
    transversal adjusted so orders are preserved.
    """
    n = len(table)
    if n == 1:
        return []
    orders = [_order_in_table(table, x) for x in range(n)]
    m = max(orders)
    g = orders.index(m)
    if m == n:
        return [(g, m)]
    pow_index = {}
    cur = 0
    for k in range(m):
        pow_index[cur] = k
        cur = table[cur][g]
    coset_of = [-1] * n
    reps = []
    for x in range(n):
        if coset_of[x] >= 0:
            continue
        ci = len(reps)
        reps.append(x)
        for gk in pow_index:
            coset_of[table[x][gk]] = ci
    qtable = [[coset_of[table[reps[a]][reps[b]]] for b in range(len(reps))]
              for a in range(len(reps))]
    out = [(g, m)]
    for hbar, mi in _invariant_factors(qtable):
        h = reps[hbar]
        t = pow_index[_table_power(table, h, mi)]
        ensure(t % mi == 0, "cyclic decomposition lift is not divisible")
        s = (-(t // mi)) % (m // mi)
        h2 = table[h][_table_power(table, g, s)]
        ensure(_order_in_table(table, h2) == mi, "cyclic decomposition lift changed the order")
        out.append((h2, mi))
    for (_, a), (_, b) in zip(out, out[1:]):
        ensure(a % b == 0, "invariant factor orders are not a divisibility chain")
    return out


class AbelianQuotient:
    """The quotient G/N for a normal subgroup N with abelian quotient.

    Cosets are indexed with the identity coset first, representatives are
    the smallest element index in each coset, and `cyclic_factors` is an
    explicit invariant-factor decomposition.
    """

    def __init__(self, group: FiniteGroup, subgroup: Subgroup):
        self.group = group
        self.subgroup = subgroup
        n = group.order
        coset_of = [-1] * n
        reps: list[int] = []
        members: list[tuple[int, ...]] = []
        for i in range(n):
            if coset_of[i] >= 0:
                continue
            ci = len(reps)
            mem = sorted(group.mul(i, h) for h in subgroup.members)
            for x in mem:
                coset_of[x] = ci
            reps.append(i)
            members.append(tuple(mem))
        self.coset_of = tuple(coset_of)
        self.coset_reps = tuple(reps)
        self.coset_members = tuple(members)
        size = len(reps)
        ensure(all(len(mem) == subgroup.order for mem in members),
               "coset sizes differ from the subgroup order")
        table = [[coset_of[group.mul(a, b)] for b in reps] for a in reps]
        for a in range(size):
            for b in range(a):
                if table[a][b] != table[b][a]:
                    x, y = (cycle_string(group.elements[reps[c]]) for c in (a, b))
                    raise HypothesisError(f"quotient group is not abelian: the cosets "
                                          f"of {x} and {y} do not commute")
        self.mult_table = tuple(tuple(row) for row in table)
        self.cyclic_factors = tuple(_invariant_factors(self.mult_table))
        factor_size = 1
        for _, o in self.cyclic_factors:
            factor_size *= o
        ensure(factor_size == size, "cyclic factor orders do not multiply to the quotient order")
        exps: dict[int, tuple[int, ...]] = {}
        for tup in itertools.product(*(range(o) for _, o in self.cyclic_factors)):
            c = 0
            for (gen, _), e in zip(self.cyclic_factors, tup):
                c = self.mult_table[c][_table_power(self.mult_table, gen, e)]
            ensure(c not in exps, "cyclic factors are not a direct decomposition")
            exps[c] = tup
        ensure(len(exps) == size, "cyclic factors do not span the quotient")
        self.coset_exponents = tuple(exps[c] for c in range(size))
        self._cyclic_logs: dict[int, int] | None = None

    @property
    def size(self) -> int:
        return len(self.coset_reps)

    def mult(self, a: int, b: int) -> int:
        return self.mult_table[a][b]

    def coset_order(self, c: int) -> int:
        return _order_in_table(self.mult_table, c)

    def power(self, c: int, k: int) -> int:
        if k < 0:
            raise ValueError(f"exponent must be nonnegative, got {k}")
        return _table_power(self.mult_table, c, k % self.coset_order(c))

    @property
    def is_cyclic(self) -> bool:
        return len(self.cyclic_factors) <= 1

    @property
    def generator(self) -> int:
        """The canonical generating coset of a cyclic quotient."""
        if not self.is_cyclic:
            raise HypothesisError("quotient group is not cyclic")
        return self.cyclic_factors[0][0] if self.cyclic_factors else 0

    def cyclic_log(self, c: int) -> int:
        """The minimal j with generator^j = c (cyclic quotients only)."""
        if self._cyclic_logs is None:
            g = self.generator
            logs = {}
            cur = 0
            for j in range(self.size):
                logs[cur] = j
                cur = self.mult_table[cur][g]
            self._cyclic_logs = logs
        return self._cyclic_logs[c]

    def generating_cosets(self) -> tuple[int, ...]:
        return tuple(c for c in range(self.size) if self.coset_order(c) == self.size)

    def __repr__(self):
        shape = "x".join(str(o) for _, o in self.cyclic_factors) or "1"
        return f"<AbelianQuotient of order {self.size} ({shape})>"


def quotient(G: FiniteGroup, N: Subgroup) -> AbelianQuotient:
    """The abelian quotient G/N; raises HypothesisError when assumptions fail."""
    if N.group is not G:
        raise ValueError("subgroup belongs to a different group")
    witness = normality_witness(G, N)
    if witness is not None:
        g, h = (cycle_string(G.elements[x]) for x in witness)
        raise HypothesisError(f"subgroup is not normal in the group: g*h*g^-1 is "
                              f"outside it for the generator g = {g} and its member h = {h}")
    return AbelianQuotient(G, N)
