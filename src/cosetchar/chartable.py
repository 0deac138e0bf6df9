"""Exact character tables of finite permutation groups.

The table is computed modulo a prime p = 1 (mod exponent) via the common
eigenvectors of the class-algebra multiplication matrices.  The
eigenvalues come from each restricted matrix's characteristic polynomial,
its roots found by evaluation over F_p at every element of the field.  The
table is then lifted to exact cyclotomic values through discrete Fourier
sums of the modular character values on element powers.  The lifted
multiplicities, one integer array per class, are the table's one stored
source: its rows, its integer power-basis coefficients at the group exponent
e, its degrees and its class matrices are all derived from them.

Every table is certified on construction: the multiplicities are integers,
which makes every value an algebraic integer, degrees divide the group
order, and the rows of the square table are orthogonal exactly for the
hermitian inner product, which makes the columns orthogonal too (see
`_certify_table`).  The orthogonality sums are integer convolutions, one
matrix product per coefficient shift, reduced mod the e-th cyclotomic
polynomial once per sum.  They run in float64 only when a bound computed
from the data proves every partial sum an integer below 2**53, and on
Python integers otherwise, so they are exact either way.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import isqrt, lcm
from typing import Iterable, Optional, Sequence

import numpy as np

from .cyclotomic import Cyclotomic, _is_prime, _power_table, from_rational
from .errors import ensure
from .groups import ConjugacyClasses, FiniteGroup, Subgroup, conjugacy_classes

PRIME_SEARCH_BOUND = 10_000_000


class ClassFunction:
    """A function on conjugacy classes with exact cyclotomic values."""

    __slots__ = ("group", "classes", "values")

    def __init__(self, group: FiniteGroup, classes: ConjugacyClasses,
                 values: Iterable):
        vals = tuple(v if isinstance(v, Cyclotomic) else from_rational(v) for v in values)
        if len(vals) != classes.n_classes:
            raise ValueError(
                f"expected {classes.n_classes} class values, got {len(vals)}"
            )
        self.group = group
        self.classes = classes
        self.values = vals

    def _same_domain(self, other: "ClassFunction") -> None:
        if self.group is not other.group or self.classes is not other.classes:
            raise ValueError("class functions live on different groups")

    def __add__(self, other: "ClassFunction") -> "ClassFunction":
        self._same_domain(other)
        return ClassFunction(self.group, self.classes,
                             [a + b for a, b in zip(self.values, other.values)])

    def scaled(self, factor) -> "ClassFunction":
        return ClassFunction(self.group, self.classes,
                             [v * factor for v in self.values])

    def __eq__(self, other):
        return (isinstance(other, ClassFunction) and self.group is other.group
                and all(a == b for a, b in zip(self.values, other.values)))

    def __repr__(self):
        return f"ClassFunction({[str(v) for v in self.values]})"


class CharacterTable:
    """The irreducible characters of a group, in a canonical row order.

    The one stored source is `mults`: per class k, the r x n_k integer array
    whose entry [i, j] counts zeta_(n_k)^j among the eigenvalues of the
    class's representative, of order n_k, in row i's representation.  Every
    other view is derived from it here, once: `coeffs[i, k]`, row i's value
    on class k in the power basis at the group exponent; the row order, by
    degree and then by descending `coeffs`, which puts the trivial character
    first; `degrees`, the identity-class column; `class_matrices`, (n_k, M_k)
    with M_k = mults[k] @ the power table of n_k, and `class_matrix_bound`,
    the largest |entry| of those tables; and `rows`, whose value on class k
    is row i of M_k.  That is the arithmetic of `Theta.from_multiplicities`,
    so row i is the character of the unit multiplicity vector e_i.
    """

    def __init__(self, group: FiniteGroup, classes: ConjugacyClasses,
                 mults: Sequence[np.ndarray]):
        self.group = group
        self.classes = classes
        orders = [group.element_order(rep) for rep in classes.representatives]
        e = self.exponent = lcm(*orders)
        powers = np.array(_power_table(e), dtype=np.int64)
        coeffs = np.stack([m @ powers[::e // n] for m, n in zip(mults, orders)], axis=1)
        order = sorted(range(len(coeffs)),
                       key=lambda i: (coeffs[i, 0, 0], (-coeffs[i]).ravel().tolist()))
        self.mults = tuple(m[order] for m in mults)
        self.coeffs = coeffs[order]
        self.degrees = tuple(self.mults[0][:, 0].tolist())
        tables = {n: np.array(_power_table(n), dtype=np.int64) for n in set(orders)}
        self.class_matrices = tuple((n, m @ tables[n]) for n, m in zip(orders, self.mults))
        self.class_matrix_bound = max(_max_abs(t) for t in tables.values())
        columns = [[Cyclotomic._raw(n, tuple(map(Fraction, c))) for c in M.tolist()]
                   for n, M in self.class_matrices]
        self.rows = tuple(ClassFunction(group, classes, values) for values in zip(*columns))
        # integer keys hash and compare equal to the Fraction keys of row_key
        self._lookup = {tuple(map(tuple, c)): i for i, c in enumerate(self.coeffs.tolist())}

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    def row_key(self, values: Iterable[Cyclotomic]) -> tuple:
        return tuple(v.coeff_key(self.exponent) for v in values)

    def find_row(self, values: Iterable[Cyclotomic]) -> Optional[int]:
        """Index of the row with exactly these values, or None."""
        return self._lookup.get(self.row_key(values))

    def __repr__(self):
        return f"<CharacterTable: {self.n_rows} rows, degrees {self.degrees}>"


def class_constants(G: FiniteGroup, classes: ConjugacyClasses) -> list[list[list[int]]]:
    """Structure constants a[i][j][k]: pairs (x, y) in C_i x C_j with x*y = rep_k."""
    r = classes.n_classes
    a = [[[0] * r for _ in range(r)] for _ in range(r)]
    for k in range(r):
        z0 = classes.representatives[k]
        for x in range(G.order):
            y = G.mul(G.inv(x), z0)
            a[classes.class_of[x]][classes.class_of[y]][k] += 1
    return a


def inner_product(f: ClassFunction, g: ClassFunction) -> Cyclotomic:
    """The hermitian inner product (1/#G) sum over classes of size * f * conj(g)."""
    f._same_domain(g)
    total = from_rational(0)
    for size, a, b in zip(f.classes.sizes, f.values, g.values):
        total = total + a * b.conjugate() * size
    return total / f.group.order


def restrict(chi: ClassFunction, sub_group: FiniteGroup,
             sub_classes: ConjugacyClasses) -> ClassFunction:
    """Restrict a class function to a subgroup re-enumerated on the same points."""
    parent = chi.group
    values = []
    for rep in sub_classes.representatives:
        idx = parent.index_of(sub_group.elements[rep])
        values.append(chi.values[chi.classes.class_of[idx]])
    return ClassFunction(sub_group, sub_classes, values)


# -- modular linear algebra --------------------------------------------------


def _find_prime(group_order: int, exponent: int) -> int:
    """Smallest prime p = 1 (mod exponent) with p > 2*isqrt(group_order)."""
    start = 2 * isqrt(group_order) + 1
    candidates = range(start + ((1 - start) % exponent), PRIME_SEARCH_BOUND + 1, exponent)
    p = next((p for p in candidates if p > 1 and _is_prime(p) and group_order % p), None)
    ensure(p is not None, f"no usable prime below {PRIME_SEARCH_BOUND}")
    return p


def _primitive_root(p: int) -> int:
    if p == 2:
        return 1
    factors = []
    m = p - 1
    d = 2
    while d * d <= m:
        if m % d == 0:
            factors.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        factors.append(m)
    g = next((g for g in range(2, p)
              if all(pow(g, (p - 1) // q, p) != 1 for q in factors)), None)
    ensure(g is not None, f"no primitive root modulo {p}")
    return g


def _rref_mod(rows: list[list[int]], p: int, width: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form over F_p, restricted to pivots in the first
    `width` columns.  Returns (rows, pivot column list)."""
    pivots = []
    rank = 0
    for col in range(width):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] % p), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        rows[rank] = [(v * inv) % p for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] % p:
                f = rows[r][col]
                rows[r] = [(v - f * w) % p for v, w in zip(rows[r], rows[rank])]
        pivots.append(col)
        rank += 1
    return rows, pivots


def _nullspace_mod(mat: list[list[int]], p: int) -> list[tuple[int, ...]]:
    """Basis of the kernel of a square matrix over F_p, deterministic order."""
    d = len(mat)
    rows = [list(row) for row in mat]
    rows, pivots = _rref_mod(rows, p, d)
    free = [c for c in range(d) if c not in pivots]
    basis = []
    for f in free:
        v = [0] * d
        v[f] = 1
        for r, c in enumerate(pivots):
            v[c] = (-rows[r][f]) % p
        basis.append(tuple(v))
    return basis


def _subspace_action(A: list[list[int]], basis: list[tuple[int, ...]],
                     p: int) -> list[list[int]]:
    """Matrix X with A * B = B * X, where B has the basis vectors as columns."""
    r = len(A)
    d = len(basis)
    images = []
    for v in basis:
        images.append(tuple(sum(A[i][k] * v[k] for k in range(r)) % p for i in range(r)))
    rows = [[basis[j][i] for j in range(d)] + [images[j][i] for j in range(d)]
            for i in range(r)]
    rows, pivots = _rref_mod(rows, p, d)
    ensure(pivots == list(range(d)), "invariant subspace basis is degenerate")
    return [rows[i][d:] for i in range(d)]


def _charpoly_mod(mat: list[list[int]], p: int) -> list[int]:
    """det(x*I - mat) over F_p, coefficients low degree first.

    Reduces the matrix to upper Hessenberg form by similarity transforms,
    then expands along the subdiagonal.  Only pivots are inverted, never
    small integers, so it works in every characteristic, also when the
    size reaches p.
    """
    d = len(mat)
    h = [[v % p for v in row] for row in mat]
    for m in range(1, d - 1):
        pivot = next((i for i in range(m, d) if h[i][m - 1]), None)
        if pivot is None:
            continue
        if pivot != m:
            h[m], h[pivot] = h[pivot], h[m]
            for row in h:
                row[m], row[pivot] = row[pivot], row[m]
        inv = pow(h[m][m - 1], p - 2, p)
        for i in range(m + 1, d):
            f = h[i][m - 1] * inv % p
            if f:
                # row_i -= f * row_m, then col_m += f * col_i keeps the similarity
                h[i] = [(a - f * b) % p for a, b in zip(h[i], h[m])]
                for row in h:
                    row[m] = (row[m] + f * row[i]) % p
    polys = [[1]]
    for m in range(d):
        nxt = [0] + polys[m]
        for i, c in enumerate(polys[m]):
            nxt[i] -= h[m][m] * c
        sub = 1
        for i in range(m - 1, -1, -1):
            sub = sub * h[i + 1][i] % p
            coef = h[i][m] * sub
            if coef:
                for j, c in enumerate(polys[i]):
                    nxt[j] -= coef * c
        polys.append([c % p for c in nxt])
    return polys[d]


def _eigenvalues_mod(mat: list[list[int]], p: int) -> list[int]:
    """The distinct eigenvalues in F_p of a square matrix, ascending: the
    roots of its characteristic polynomial, found by evaluating it at every
    element of F_p in one Horner pass."""
    x = np.arange(p, dtype=np.int64)
    value = np.zeros(p, dtype=np.int64)
    # _find_prime returns no p above PRIME_SEARCH_BOUND (10**7), so every
    # value * x + c stays below p**2 + p < 2**63
    for c in reversed(_charpoly_mod(mat, p)):
        value = (value * x + c) % p
    return np.flatnonzero(value == 0).tolist()


def _dixon_omegas(constants: list[list[list[int]]], r: int, p: int) -> list[tuple[int, ...]]:
    """Common eigenvector directions of the class matrices, normalized so the
    identity-class coordinate is 1."""
    spaces: list[list[tuple[int, ...]]] = [
        [tuple(1 if i == j else 0 for i in range(r)) for j in range(r)]
    ]
    for ci in range(1, r):
        if all(len(b) == 1 for b in spaces):
            break
        A = [[constants[ci][j][k] % p for k in range(r)] for j in range(r)]
        new_spaces = []
        for basis in spaces:
            if len(basis) == 1:
                new_spaces.append(basis)
                continue
            d = len(basis)
            X = _subspace_action(A, basis, p)
            found = 0
            for lam in _eigenvalues_mod(X, p):
                shifted = [[(X[i][j] - (lam if i == j else 0)) % p for j in range(d)]
                           for i in range(d)]
                null = _nullspace_mod(shifted, p)
                found += len(null)
                new_spaces.append([
                    tuple(sum(vec[j] * basis[j][i] for j in range(d)) % p
                          for i in range(r))
                    for vec in null
                ])
            ensure(found == d, "class matrix did not diagonalize")
        spaces = new_spaces
    ensure(all(len(b) == 1 for b in spaces), "common eigenspaces did not split to lines")
    omegas = []
    for basis in spaces:
        v = basis[0]
        ensure(v[0] % p != 0, "eigenvector vanishes on the identity class")
        scale = pow(v[0], p - 2, p)
        omegas.append(tuple((x * scale) % p for x in v))
    return omegas


def _lift_class(G: FiniteGroup, classes: ConjugacyClasses, k: int, xvals: np.ndarray,
                degrees: np.ndarray, theta: int, exponent: int, p: int) -> np.ndarray:
    """Eigenvalue multiplicities of every character on class k: entry [i, j]
    counts zeta_n^j among the eigenvalues of a representative g of order n
    in the representation of row i, from the discrete Fourier sums
    (1/n) sum_l chi_i(g^l) theta_n^(-jl) of the modular values."""
    rep = classes.representatives[k]
    n = G.element_order(rep)
    power_classes = [0]
    cur = 0
    for _ in range(n - 1):
        cur = G.mul(cur, rep)
        power_classes.append(classes.class_of[cur])
    ensure(n * p * p < 2**63, "modular Fourier sums overflow int64")
    theta_n = pow(theta, exponent // n, p)
    tn_pows = np.array([pow(theta_n, t, p) for t in range(n)], dtype=np.int64)
    steps = np.arange(n)
    fourier = tn_pows[np.outer(steps, -steps) % n]
    mults = (xvals[:, power_classes] @ fourier) % p * pow(n, p - 2, p) % p
    ensure(np.array_equal(mults.sum(axis=1), degrees),
           "lifted multiplicities do not sum to the degree")
    ensure(np.array_equal((mults @ tn_pows) % p, xvals[:, k]),
           "lifted value does not reduce back to the modular value")
    return mults


def character_table(G: FiniteGroup, classes: ConjugacyClasses | None = None) -> CharacterTable:
    """The full irreducible character table, exactly, in canonical row order."""
    if classes is None:
        classes = conjugacy_classes(G)
    r = classes.n_classes
    exponent = lcm(*(G.element_order(rep) for rep in classes.representatives))
    p = _find_prime(G.order, exponent)
    constants = class_constants(G, classes)
    omegas = _dixon_omegas(constants, r, p)
    ensure(len(omegas) == r, "wrong number of modular characters")

    inv_class = [classes.class_of[G.inv(rep)] for rep in classes.representatives]
    size_inv = [pow(s, p - 2, p) for s in classes.sizes]
    degrees = []
    for omega in omegas:
        c = sum(omega[k] * omega[inv_class[k]] * size_inv[k] for k in range(r)) % p
        ensure(c != 0, "degree normalization vanished")
        d2 = (G.order % p) * pow(c, p - 2, p) % p
        degree = next((t for t in range(1, (p + 1) // 2) if t * t % p == d2), None)
        ensure(degree is not None, "no degree square root in range")
        degrees.append(degree)
    xvals = np.array([[d * w[k] * size_inv[k] % p for k in range(r)]
                      for d, w in zip(degrees, omegas)], dtype=np.int64)
    theta = pow(_primitive_root(p), (p - 1) // exponent, p)
    table = CharacterTable(G, classes, [_lift_class(G, classes, k, xvals, np.array(degrees),
                                                    theta, exponent, p) for k in range(r)])
    _certify_table(table)
    return table


def _max_abs(a: np.ndarray) -> int:
    return int(np.abs(a).max())


def _exact_dtype(bound: int):
    """float64 when `bound` proves every partial sum an integer below 2**53,
    which float64 holds exactly; Python integers otherwise."""
    return np.float64 if bound < 2**53 else object


def _hermitian_gram(X: np.ndarray, weights: Sequence[int], exponent: int) -> np.ndarray:
    """Exact hermitian Gram matrix of rows of cyclotomic integers.

    X[i, k] holds power-basis coefficients at `exponent`.  Entry [i, j] of
    the result holds the coefficients of sum_k weights[k] X[i, k] conj(X[j, k]),
    reduced mod the cyclotomic polynomial.  Conjugation is the integer
    matrix sending zeta^a to the reduced zeta^-a, so it does not assume the
    rows are characters.  The product is a convolution: one matrix product
    per coefficient shift a, then one reduction of the 2*phi - 1 sums.
    """
    n, c, phi = X.shape
    powers = np.array(_power_table(exponent), dtype=object)
    conj = powers[-np.arange(phi) % exponent]
    fold = powers[np.arange(2 * phi - 1) % exponent]
    bx, bp = _max_abs(X), _max_abs(powers)
    dtype = _exact_dtype(phi * bx * bp)
    Y = X.astype(dtype) @ conj.astype(dtype)
    if dtype is np.float64:
        Y = Y.astype(np.int64)  # exact integers, so the object branch below gets ints
    by = _max_abs(Y)
    # every term of a sum is bounded by bx * by (convolution) and then by
    # the products with the reduction rows; sums of absolute values bound
    # every partial sum, in whatever order the products are accumulated
    dtype = _exact_dtype(sum(weights) * phi * bx * by * (2 * phi - 1) * bp)
    W = X.astype(dtype) * np.array(weights, dtype=dtype)[None, :, None]
    Yt = Y.astype(dtype).transpose(1, 0, 2).reshape(c, n * phi)
    S = np.zeros((n, n, 2 * phi - 1), dtype=dtype)
    for a in range(phi):
        S[:, :, a:a + phi] += (W[:, :, a] @ Yt).reshape(n, n, phi)
    return S @ fold.astype(dtype)


def _certify_table(table: CharacterTable) -> None:
    G, classes = table.group, table.classes
    r = classes.n_classes
    # Every view of the table is derived from `mults`, so this certifies them
    # all.  Each value is sum_j mults[k][i, j] zeta_(n_k)^j, an integer
    # combination of roots of unity and hence an algebraic integer.
    ensure(len(table.mults) == r and all(
        np.issubdtype(m.dtype, np.integer) and m.shape == (r, G.element_order(rep))
        for m, rep in zip(table.mults, classes.representatives)),
        "multiplicities are not an integer rows x n_k array per class")
    # every partial sum of the derived int64 products, mults[k] against a
    # power table, is at most a row sum of |mults[k]| times the table's
    # largest |entry|; for a lifted table the row sums are the degrees
    bound = max(_max_abs(np.array(_power_table(table.exponent))), table.class_matrix_bound)
    ensure(max(_max_abs(np.abs(m).sum(axis=1)) for m in table.mults) * bound < 2**63,
           "character coefficients overflow int64")
    for d in table.degrees:
        ensure(d >= 1 and G.order % d == 0, "degree does not divide the group order")
    # Row orthogonality, X D X* = |G| I with D the diagonal of class sizes,
    # also certifies the columns: X is square, so D X* / |G| is its two-sided
    # inverse and X* X = |G| D^-1, which is column orthogonality.  At the
    # identity class that reads sum chi(1)^2 = |G|.
    X = table.coeffs
    want = np.zeros((r, r, X.shape[2]), dtype=np.int64)
    want[:, :, 0] = np.diag([G.order] * r)
    ensure(np.array_equal(_hermitian_gram(X, classes.sizes, table.exponent), want),
           "row orthogonality failed")


def restriction_norm(chi: ClassFunction, normal: Subgroup) -> int:
    """The exact norm of the restriction to a subgroup: (1/#N) sum |chi|^2 over N,
    summed over the classes of the group that meet N, each weighted by the
    number of members of N it holds."""
    meets = Counter(chi.classes.class_of[n] for n in normal.members)
    total = from_rational(0)
    for k, count in meets.items():
        v = chi.values[k]
        total = total + v * v.conjugate() * count
    val = total / normal.order
    ensure(val.is_rational() and val.as_rational().denominator == 1,
           "restriction norm is not an integer")
    return int(val.as_rational())
