"""Hand-encoded textbook character tables and an up-to-permutation matcher.

Each fixture lists a column profile of (element order, class size) pairs and
the rows in that column order.  Matching a computed table means finding a
column bijection that respects the profile under which the row multisets
agree exactly.
"""

import itertools
from math import lcm

from cosetchar.cyclotomic import from_rational, root_of_unity

W = root_of_unity(3)
I = root_of_unity(4)


def from_cycles(degree, *cycles):
    """The images of the permutation of {0..degree-1} with the given cycles."""
    images = list(range(degree))
    for cyc in cycles:
        for i, pt in enumerate(cyc):
            images[pt] = cyc[(i + 1) % len(cyc)]
    return tuple(images)


def _rows(rows):
    return [[v if not isinstance(v, int) else from_rational(v) for v in row] for row in rows]


def s3_generators():
    return 3, [(1, 0, 2), (1, 2, 0)]


def s4_generators():
    return 4, [(1, 0, 2, 3), (1, 2, 3, 0)]


def a4_generators():
    return 4, [from_cycles(4, (0, 1, 2)),
               from_cycles(4, (0, 1), (2, 3))]


def q8_generators():
    # left multiplication on 1, -1, i, -i, j, -j, k, -k
    return 8, [(2, 3, 1, 0, 6, 7, 5, 4),
               (4, 5, 7, 6, 1, 0, 2, 3)]


def d4_generators():
    return 4, [from_cycles(4, (0, 1, 2, 3)),
               from_cycles(4, (1, 3))]


def f5_generators():
    return 5, [from_cycles(5, (0, 1, 2, 3, 4)),
               (0, 2, 4, 1, 3)]


TEXTBOOK_TABLES = {
    "S3": (
        s3_generators,
        [(1, 1), (2, 3), (3, 2)],
        _rows([
            [1, 1, 1],
            [1, -1, 1],
            [2, 0, -1],
        ]),
    ),
    "S4": (
        s4_generators,
        [(1, 1), (2, 3), (2, 6), (3, 8), (4, 6)],
        _rows([
            [1, 1, 1, 1, 1],
            [1, 1, -1, 1, -1],
            [2, 2, 0, -1, 0],
            [3, -1, 1, 0, -1],
            [3, -1, -1, 0, 1],
        ]),
    ),
    "A4": (
        a4_generators,
        [(1, 1), (2, 3), (3, 4), (3, 4)],
        _rows([
            [1, 1, 1, 1],
            [1, 1, W, W * W],
            [1, 1, W * W, W],
            [3, -1, 0, 0],
        ]),
    ),
    "Q8": (
        q8_generators,
        [(1, 1), (2, 1), (4, 2), (4, 2), (4, 2)],
        _rows([
            [1, 1, 1, 1, 1],
            [1, 1, 1, -1, -1],
            [1, 1, -1, 1, -1],
            [1, 1, -1, -1, 1],
            [2, -2, 0, 0, 0],
        ]),
    ),
    "D4": (
        d4_generators,
        [(1, 1), (2, 1), (2, 2), (2, 2), (4, 2)],
        _rows([
            [1, 1, 1, 1, 1],
            [1, 1, 1, -1, -1],
            [1, 1, -1, 1, -1],
            [1, 1, -1, -1, 1],
            [2, -2, 0, 0, 0],
        ]),
    ),
    "F5": (
        f5_generators,
        [(1, 1), (5, 4), (4, 5), (2, 5), (4, 5)],
        _rows([
            [1, 1, 1, 1, 1],
            [1, 1, -1, 1, -1],
            [1, 1, -I, -1, I],
            [1, 1, I, -1, -I],
            [4, -1, 0, 0, 0],
        ]),
    ),
}


def tables_match(table, profile, fixture_rows):
    """True when the computed table equals the fixture up to a row/column
    permutation that preserves (element order, class size)."""
    classes = table.classes
    got_profile = [
        (table.group.element_order(rep), size)
        for rep, size in zip(classes.representatives, classes.sizes)
    ]
    if sorted(got_profile) != sorted(profile) or len(fixture_rows) != table.n_rows:
        return False
    key_order = lcm(table.exponent, *(v.order for row in fixture_rows for v in row))
    computed = sorted(
        tuple(v.coeff_key(key_order) for v in row.values) for row in table.rows
    )
    blocks = {}
    for pos, prof in enumerate(profile):
        blocks.setdefault(prof, []).append(pos)
    got_blocks = {prof: [i for i, g in enumerate(got_profile) if g == prof] for prof in blocks}
    keys = sorted(blocks)
    for assignment in itertools.product(*(itertools.permutations(blocks[k]) for k in keys)):
        # fixture column index serving each computed class index
        col_for = {}
        for k, perm in zip(keys, assignment):
            for got_pos, fix_pos in zip(got_blocks[k], perm):
                col_for[got_pos] = fix_pos
        reordered = sorted(
            tuple(row[col_for[ci]].coeff_key(key_order) for ci in range(len(profile)))
            for row in fixture_rows
        )
        if reordered == computed:
            return True
    return False
