"""
Exact character tables by modular splitting
===========================================

Character tables are computed over a prime field by simultaneous
eigenspace splitting of the class-sum matrices, then lifted to exact
cyclotomic values.  Row and column orthogonality are certified during
construction, so what is printed here is already proved internally.
"""

from cosetchar.chartable import character_table
from cosetchar.groupio import build_group, parse_group_spec
from cosetchar.groups import conjugacy_classes, generate_group

# the symmetric group on four points from a transposition and a 4-cycle
S4 = generate_group(4, [(1, 0, 2, 3), (1, 2, 3, 0)])

# the quaternion group acting on its own eight elements
Q8 = generate_group(8, [(2, 3, 1, 0, 6, 7, 5, 4),
                        (4, 5, 7, 6, 1, 0, 2, 3)])

# all invertible 2x2 matrices over the three-element field, ingested as
# permutations of the eight nonzero column vectors
GL23, _ = build_group(parse_group_spec(
    "prime 3\nmatgen 1 1 0 1\nmatgen 1 0 1 1\nmatgen 2 0 0 1\n"))

for name, G in (("S4", S4), ("Q8", Q8), ("GL2(3)", GL23)):
    classes = conjugacy_classes(G)
    table = character_table(G, classes)
    print(f"\n{name}: order {G.order}, {classes.n_classes} classes, "
          f"exponent {table.exponent}")
    print("class sizes: " + " ".join(str(s) for s in classes.sizes))
    width = max(len(str(v)) for row in table.rows for v in row.values)
    for r, row in enumerate(table.rows):
        vals = "  ".join(f"{str(v):>{width}}" for v in row.values)
        print(f"  chi{r} (deg {table.degrees[r]}): {vals}")
