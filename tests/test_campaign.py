"""Every pair (G, N) with [G,G] <= N <= G, for every subgroup G of S_n.

The subgroups are enumerated with the package's own group layer: the cyclic
subgroups first, then each new subgroup joined with every cyclic subgroup
<x>, x outside it, by a plain closure, until nothing new appears.  Each pair
runs every corpus check (`corpus._check_case`), the inversion round trip
among them, and each G is cross-checked against `sympy.combinatorics`, an
independent implementation, and its `table --json` against the Burnside
oracle in `charoracle`, which shares no code with the package.

Tier-1 runs S4.  Run as a script for another degree; it prints the counts
and exits 1 on any failed check:

    PYTHONPATH=src python tests/test_campaign.py 5
"""

import sys
import time

import pytest
from sympy.combinatorics import Permutation, PermutationGroup

from charoracle import mismatches, spec_text, table_payload
from cosetchar.corpus import _check_case
from cosetchar.groupio import GroupSpec
from cosetchar.groups import (
    conjugacy_classes,
    generate_group,
    is_normal,
    subgroup_generated,
)


def symmetric_group(degree):
    return generate_group(degree, [(1, 0, *range(2, degree)), (*range(1, degree), 0)])


def closure(group, seeds):
    """The member set of the subgroup the seeds generate, by element index."""
    members = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for x in frontier:
            for s in seeds:
                y = group.mul(x, s)
                if y not in members:
                    members.add(y)
                    nxt.append(y)
        frontier = nxt
    return frozenset(members)


def enumerate_subgroups(group):
    """{member set: generators} for every subgroup, by element index."""
    cyclic = {}
    for x in range(group.order):
        cyclic.setdefault(closure(group, [x]), x)
    found = {H: (x,) for H, x in cyclic.items()}
    frontier = list(found)
    while frontier:
        new = []
        for H in frontier:
            for x in cyclic.values():
                if x in H:
                    continue
                gens = found[H] + (x,)
                K = closure(group, gens)
                if K not in found:
                    found[K] = gens
                    new.append(K)
        frontier = new
    return found


def derived_subgroup(group, members):
    return closure(group, {group.mul(group.mul(group.inv(x), group.inv(y)), group.mul(x, y))
                           for x in members for y in members})


def campaign(degree):
    """S_n, its subgroups, and (G, its generators, every N with
    [G,G] <= N <= G) for every subgroup G, smallest first."""
    S = symmetric_group(degree)
    subgroups = enumerate_subgroups(S)
    cases = []
    for G, gens in sorted(subgroups.items(), key=lambda item: (len(item[0]), sorted(item[0]))):
        derived = derived_subgroup(S, G)
        cases.append((G, gens, [N for N in subgroups if derived <= N <= G]))
    return S, subgroups, cases


def images(S, indices):
    return tuple(S.elements[i] for i in indices)


def sympy_group(S, indices):
    return PermutationGroup([Permutation(list(S.elements[i])) for i in indices])


def element_set(P):
    return {tuple(p.array_form) for p in P.elements}


def pair_failures(S, subgroups, G, gens, normals):
    """Every corpus check on each (G, N): the number of checks run, and a
    line for each failure."""
    results = []
    for N in normals:
        spec = GroupSpec(label=f"order {len(G)} over {len(N)}", degree=S.degree,
                         generators=images(S, gens), normal_generators=images(S, subgroups[N]))
        _check_case(spec, results)
    failures = [f"{r.case_name}: {r.check_name}: {r.detail}" for r in results if not r.ok]
    builds = sum(r.check_name == "build" for r in results)
    if builds != len(normals):
        failures.append(f"order {len(G)}: {builds} builds for {len(normals)} pairs")
    return len(results), failures


def sympy_disagreements(S, subgroups, G, gens):
    """What the group layer and sympy disagree on for G: order, elements,
    class sizes, derived subgroup, and normality of every subgroup of G."""
    P = sympy_group(S, gens)
    group = generate_group(S.degree, images(S, gens))
    wrong = []
    if not P.order() == group.order == len(G):
        wrong.append("order")
    if not element_set(P) == set(group.elements) == set(images(S, G)):
        wrong.append("elements")
    if (sorted(len(c) for c in P.conjugacy_classes())
            != sorted(conjugacy_classes(group).sizes)):
        wrong.append("class sizes")
    if element_set(P.derived_subgroup()) != set(images(S, derived_subgroup(S, G))):
        wrong.append("derived subgroup")
    for H, hgens in subgroups.items():
        if H <= G:
            sub = subgroup_generated(group, images(S, hgens))
            if is_normal(group, sub) != sympy_group(S, hgens).is_normal(P):
                wrong.append(f"normality of a subgroup of order {len(H)}")
    return [f"order {len(G)}: {w} differs from sympy" for w in wrong]


def oracle_disagreements(S, G, gens):
    """What `table --json` on G, over itself, and the oracle disagree on."""
    payload = table_payload(spec_text(S.degree, images(S, gens), images(S, gens)))
    return [f"order {len(G)}: table: {m}" for m in mismatches(payload)]


S, SUBGROUPS, CASES = campaign(4)
IDS = [f"G{i:02d}-order{len(G)}" for i, (G, _, _) in enumerate(CASES)]


def test_enumeration_counts():
    # S4 has 30 subgroups, and 83 pairs with [G,G] <= N <= G
    assert len(SUBGROUPS) == 30
    assert sum(len(normals) for _, _, normals in CASES) == 83


@pytest.mark.parametrize("G,gens,normals", CASES, ids=IDS)
def test_every_pair_passes_every_check(G, gens, normals):
    _, failures = pair_failures(S, SUBGROUPS, G, gens, normals)
    assert not failures


@pytest.mark.parametrize("G,gens", [(G, gens) for G, gens, _ in CASES], ids=IDS)
def test_group_layer_agrees_with_sympy(G, gens):
    assert not sympy_disagreements(S, SUBGROUPS, G, gens)


@pytest.mark.parametrize("G,gens", [(G, gens) for G, gens, _ in CASES], ids=IDS)
def test_table_agrees_with_the_oracle(G, gens):
    assert not oracle_disagreements(S, G, gens)


def main(degree):
    start = time.perf_counter()
    S, subgroups, cases = campaign(degree)
    enumerated = time.perf_counter() - start
    checks, failures = 0, []
    for G, gens, normals in cases:
        ran, failed = pair_failures(S, subgroups, G, gens, normals)
        checks += ran
        failures += failed + sympy_disagreements(S, subgroups, G, gens)
        failures += oracle_disagreements(S, G, gens)
    pairs = sum(len(normals) for _, _, normals in cases)
    print(f"S{degree}: {len(subgroups)} subgroups (enumerated in {enumerated:.1f} s), "
          f"{pairs} pairs, {checks} checks, {len(failures)} failures, "
          f"{time.perf_counter() - start:.1f} s")
    for line in failures:
        print(line)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]) if len(sys.argv) > 1 else 5))
