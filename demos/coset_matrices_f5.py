"""
A square unitary matrix for every coset
=======================================

The Frobenius group of order 20 has a normal subgroup of order 5 with
cyclic quotient of order 4.  For each coset of that subgroup, the classes
inside the coset and the character orbits not vanishing on it have the
same count, and scaled character values form a unitary matrix.
"""

import math

from cosetchar.cosets import CosetAnalysis
from cosetchar.groups import generate_group, subgroup_generated

# the group: x -> x+1 (order 5, normal) and x -> 2x (order 4) on {0..4}
shift = (1, 2, 3, 4, 0)
double = (0, 2, 4, 1, 3)
G = generate_group(5, [shift, double])
analysis = CosetAnalysis(G, subgroup_generated(G, [shift]), label="F5")

print(f"group of order {G.order}, normal subgroup of order "
      f"{analysis.normal.order}, quotient of order {analysis.quotient.size}")

# one report per coset: index sets and the matrix, already certified
# unitary by exact Gram identities during construction
for c in range(analysis.quotient.size):
    rep = analysis.report(c)
    print(f"\ncoset {rep.label}: {rep.n_classes} classes, {rep.n_orbits} orbits")
    for a in range(rep.n_orbits):
        cells = []
        for b in range(rep.n_classes):
            rad = rep.radicands[a][b]
            cells.append(f"sqrt({rad})*({rep.entries[a][b]})")
        print("  [" + "  ".join(cells) + "]")
    print(f"  largest numeric deviation from unitarity: "
          f"{rep.max_unitarity_deviation:.2e}")

# the identity coset reproduces the 2x2 example matrix (1/sqrt 5)[[1,2],[2,-1]]
rep = analysis.report(0)
scale = 1 / math.sqrt(5)
print("\nidentity-coset matrix, numerically:")
for row in rep.numeric:
    print("  " + "  ".join(f"{z.real:+.6f}" for z in row))
print(f"expected entries: {scale:+.6f} and {2 * scale:+.6f} up to sign")
