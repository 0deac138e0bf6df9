"""
Rebuilding a character from its values on cosets
================================================

Knowing a character only through weighted sums over cosets is enough to
reconstruct how it decomposes across dual-group orbits.  The weighted
sums are power sums of a hidden multiset of l-th roots of unity, so they
repeat with period l.  One period is a function on the cyclic group of
order l, and its exact discrete Fourier transform gives the multiplicity
of each root: the multiset, and with it the component of the character
belonging to each orbit.
"""

from cosetchar.cosets import CosetAnalysis
from cosetchar.groups import generate_group, subgroup_generated
from cosetchar.inversion import Theta, decompose, psi_power_value

shift = (1, 2, 3, 4, 0)
double = (0, 2, 4, 1, 3)
G = generate_group(5, [shift, double])
analysis = CosetAnalysis(G, subgroup_generated(G, [shift]), label="F5")

# the regular character: every irreducible with multiplicity its degree
theta = Theta.from_multiplicities(analysis.table, analysis.table.degrees)
print(f"decomposing the regular character (degree {theta.degree})")

# the data the reconstruction actually uses: power sums per orbit
q = analysis.quotient.generator
for oi in range(len(analysis.orbits)):
    sums = [str(psi_power_value(analysis, theta.class_function, oi, d, q))
            for d in range(5)]
    print(f"orbit {oi}: weighted coset sums p_0..p_4 = {' '.join(sums)}")

# the full inversion, with every consistency check done along the way
for comp in decompose(analysis, theta):
    print(f"\norbit {comp.orbit_index} "
          f"(representative row {comp.representative_row}, "
          f"stabilizer size {comp.stabilizer_size}):")
    print("  recovered roots: " + " ".join(str(x) for x in comp.lambdas))
    print("  values at powers of the generating coset: "
          + " ".join(str(x) for x in comp.psi_at_powers))
    print("  component of the character: "
          + " ".join(str(v) for v in comp.component.values))

print("\nthe components sum back to the input exactly (certified)")
