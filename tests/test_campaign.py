"""Every pair (G, N) with [G,G] <= N <= G, for every subgroup G of S4.

The subgroups are enumerated with the package's own group layer: the cyclic
subgroups first, then joins of two known subgroups until nothing new
appears.  Each pair runs every corpus check (`corpus._check_case`), the
inversion round trip among them, and each G is cross-checked against
`sympy.combinatorics`, an independent implementation.
"""

import pytest
from sympy.combinatorics import Permutation, PermutationGroup

from cosetchar.corpus import _check_case
from cosetchar.groupio import GroupSpec
from cosetchar.groups import (
    conjugacy_classes,
    generate_group,
    is_normal,
    subgroup_generated,
)

DEGREE = 4
S = generate_group(DEGREE, [(1, 0, 2, 3), (1, 2, 3, 0)])


def enumerate_subgroups(group):
    """{member set: generators} for every subgroup, by element index."""
    found = {}
    for x in range(group.order):
        found.setdefault(frozenset(subgroup_generated(group, [x]).members), (x,))
    frontier = list(found)
    while frontier:
        new = []
        for a in frontier:
            for b, gens in list(found.items()):
                joined = tuple(dict.fromkeys(found[a] + gens))
                key = frozenset(subgroup_generated(group, joined).members)
                if key not in found:
                    found[key] = joined
                    new.append(key)
        frontier = new
    return found


def derived_subgroup(group, members):
    return frozenset(subgroup_generated(group, [
        group.mul(group.mul(group.inv(x), group.inv(y)), group.mul(x, y))
        for x in members for y in members]).members)


SUBGROUPS = enumerate_subgroups(S)
# (G, its generators, every N with [G,G] <= N <= G)
CASES = [
    (G, gens, [N for N in SUBGROUPS if derived_subgroup(S, G) <= N <= G])
    for G, gens in sorted(SUBGROUPS.items(), key=lambda item: (len(item[0]), sorted(item[0])))
]


def images(indices):
    return tuple(S.elements[i] for i in indices)


def sympy_group(indices):
    return PermutationGroup([Permutation(list(S.elements[i])) for i in indices])


def element_set(P):
    return {tuple(p.array_form) for p in P.elements}


def test_enumeration_counts():
    # S4 has 30 subgroups, and 83 pairs with [G,G] <= N <= G
    assert len(SUBGROUPS) == 30
    assert sum(len(normals) for _, _, normals in CASES) == 83


@pytest.mark.parametrize("G,gens,normals", CASES,
                         ids=[f"G{i:02d}-order{len(G)}" for i, (G, _, _) in enumerate(CASES)])
def test_every_pair_passes_every_check(G, gens, normals):
    results = []
    for N in normals:
        spec = GroupSpec(label=f"order {len(G)} over {len(N)}", degree=DEGREE,
                         generators=images(gens), normal_generators=images(SUBGROUPS[N]))
        _check_case(spec, results)
    failures = [r for r in results if not r.ok]
    assert not failures
    assert sum(r.check_name == "build" for r in results) == len(normals)


@pytest.mark.parametrize("G,gens", [(G, gens) for G, gens, _ in CASES],
                         ids=[f"G{i:02d}-order{len(G)}" for i, (G, _, _) in enumerate(CASES)])
def test_group_layer_agrees_with_sympy(G, gens):
    P = sympy_group(gens)
    group = generate_group(DEGREE, images(gens))
    assert P.order() == group.order == len(G)
    assert element_set(P) == set(group.elements) == set(images(G))
    assert (sorted(len(c) for c in P.conjugacy_classes())
            == sorted(conjugacy_classes(group).sizes))
    assert element_set(P.derived_subgroup()) == set(images(derived_subgroup(S, G)))
    for H, hgens in SUBGROUPS.items():
        if H <= G:
            sub = subgroup_generated(group, images(hgens))
            assert is_normal(group, sub) == sympy_group(hgens).is_normal(P)
