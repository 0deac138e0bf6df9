"""An independent character-table oracle: Burnside's method in floating point.

It shares no code with `cosetchar`.  The group is the one generated by the
class representatives that `table --json` prints: no proper subgroup meets
every conjugacy class (Jordan), so they generate the whole group.  sympy
lists its elements and conjugacy classes; the class constants a_ijk, the
pairs (x, y) in C_i x C_j with x*y = z_k, are counted here; and
`numpy.linalg.eig` diagonalizes a seeded random real combination of the
class matrices (A_i)_jk = a_ijk, whose eigenvectors are the central
characters omega_k = |C_k| chi(g_k) / chi(1) (W. Burnside, 1911; J. D.
Dixon, Numer. Math. 10, 1967).  With omega at the identity class scaled
to 1, chi(1)^2 = |G| / sum_k |omega_k|^2 / |C_k|.

    mismatches(table_payload(spec_text))   # what `table --json` gets wrong

`table_payload` runs the command whose output is checked; the oracle
itself reads nothing but that output.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
from sympy.combinatorics import Permutation, PermutationGroup

from cosetchar.cli import main

TOLERANCE = 1e-9
SEPARATION = 1e-6


def _compose(x, y):
    """x then y, on tuples of images."""
    return tuple(y[i] for i in x)


def _inverse(x):
    out = [0] * len(x)
    for i, xi in enumerate(x):
        out[xi] = i
    return tuple(out)


def burnside_table(generators):
    """(classes, rows) of the group the generators generate: the classes as
    sets of image tuples, the identity's first, and rows[i, k] = chi_i on
    class k as complex numbers, in no particular row order."""
    P = PermutationGroup([Permutation(list(g)) for g in generators])
    classes = sorted((frozenset(tuple(p.array_form) for p in c)
                      for c in P.conjugacy_classes()),
                     key=lambda c: (len(c), min(c)))
    class_of = {x: k for k, c in enumerate(classes) for x in c}
    r = len(classes)
    constants = np.zeros((r, r, r))
    for k, c in enumerate(classes):
        z = min(c)
        for x in class_of:
            constants[class_of[x], class_of[_compose(_inverse(x), z)], k] += 1
    sizes = np.array([len(c) for c in classes], dtype=float)
    for seed in range(100):
        weights = np.random.default_rng(seed).standard_normal(r)
        eigenvalues, vectors = np.linalg.eig(np.tensordot(weights, constants, axes=1))
        gaps = np.abs(eigenvalues[:, None] - eigenvalues[None, :]) + np.eye(r)
        if gaps.min() > SEPARATION:
            break
    else:
        raise AssertionError("no combination of class matrices separates the characters")
    omegas = (vectors / vectors[0]).T  # identity class first, where omega is 1
    degrees = np.sqrt(P.order() / (np.abs(omegas) ** 2 / sizes).sum(axis=1))
    return classes, degrees[:, None] * omegas / sizes


def mismatches(payload):
    """What a `table --json` payload and the oracle disagree on: the group
    order, the class sizes, and the numeric rows, matched as a multiset with
    columns matched by representative."""
    reps = [tuple(c["representative"]) for c in payload["classes"]]
    classes, oracle = burnside_table(reps)
    found = []
    order = sum(len(c) for c in classes)
    if order != payload["order"]:
        found.append(f"order {payload['order']}, oracle {order}")
    column = [next(k for k, c in enumerate(classes) if rep in c) for rep in reps]
    if len(payload["rows"]) != len(classes):
        found.append(f"{len(payload['rows'])} rows, oracle {len(classes)}")
    if sorted(column) != list(range(len(classes))):
        found.append("the representatives do not meet every class once")
        return found
    sizes = [len(classes[k]) for k in column]
    if sizes != [c["size"] for c in payload["classes"]]:
        found.append(f"class sizes {[c['size'] for c in payload['classes']]}, oracle {sizes}")
    unmatched = list(oracle[:, column])
    for i, row in enumerate(payload["rows"]):
        values = np.array([complex(*z) for z in row["numeric"]])
        hit = next((j for j, o in enumerate(unmatched)
                    if np.abs(o - values).max() < TOLERANCE), None)
        if hit is None:
            found.append(f"row {i} matches no oracle row")
        else:
            unmatched.pop(hit)
    return found


def spec_text(degree, generators, normal_generators):
    """A line-format spec of a permutation group and its normal subgroup."""
    lines = [f"degree {degree}"]
    lines += ["gen " + " ".join(map(str, g)) for g in generators]
    lines += ["normal " + " ".join(map(str, g)) for g in normal_generators]
    return "\n".join(lines) + "\n"


def table_payload(text):
    """The parsed output of `cosetchar table --json` on a spec given as text."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "group.spec"
        path.write_text(text)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["table", str(path), "--json"])
    if code:
        raise AssertionError(f"table exited {code}")
    return json.loads(out.getvalue())
