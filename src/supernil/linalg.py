"""Exact linear algebra over the rationals.

Every layer shares one sparse format: a dict `{(row, col): Fraction}` that
stores no zeros (sparse vectors are dicts keyed by index under the same
rule).  `add_to` is the one place an entry is accumulated and pruned, and
`sparse_matmul` the one sparse product.  A matrix given to `rank` is a list
of sparse rows `{col: Fraction}`, the form in which
`CochainComplex.block_matrix` returns a weight block.

`rank` is the one rank routine: integer elimination on the sparse rows
once each row's denominators are cleared, with no dense matrix built.
Kernels, row spaces and solutions (`nullspace`, `row_space_basis`,
`solve`) take dense rows and use ordinary Gauss-Jordan over `Fraction`;
their inputs are small blocks and systems.  Pivots are chosen by position
(first nonzero, or smallest column index in `rank`), so repeated runs
produce identical intermediate data.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

Matrix = list[list[Fraction]]
Sparse = dict[tuple[int, int], Fraction]
SparseRow = dict[int, Fraction]


def add_to(target: dict, key, val: Fraction) -> None:
    """target[key] += val, dropping the key when the sum is zero."""
    if key in target:
        new = target[key] + val
        if new:
            target[key] = new
        else:
            del target[key]
    elif val:
        target[key] = val


def sparse_matmul(a: Sparse, b: Sparse) -> Sparse:
    """The product a @ b of two sparse matrices."""
    rows: dict[int, list[tuple[int, Fraction]]] = {}
    for (r, c), v in b.items():
        rows.setdefault(r, []).append((c, v))
    out: Sparse = {}
    for (r, c), v in a.items():
        for c2, v2 in rows.get(c, ()):
            add_to(out, (r, c2), v * v2)
    return out


def _primitive(vec: dict[int, int]) -> dict[int, int]:
    """vec divided by the gcd of its entries."""
    g = gcd(*vec.values())
    return vec if g == 1 else {c: x // g for c, x in vec.items()}


def rank(rows: Sequence[SparseRow]) -> int:
    """Exact rank of the matrix with the given sparse rows.

    Each row is scaled to a primitive integer vector: its denominators are
    cleared by their lcm and the result divided by the gcd of its entries.
    Since rank(A) = rank(A^T), the elimination runs over the rows or over
    the columns, whichever are fewer.  Vectors are taken sparsest first and
    reduced against one pivot vector per leading (smallest) index, the
    sparser of two vectors being kept as the pivot; the rank is the number
    of pivots.  Integer arithmetic only, and deterministic.
    """
    vecs = []
    for row in rows:
        denom = lcm(*(x.denominator for x in row.values()))
        vec = {c: x.numerator * (denom // x.denominator) for c, x in row.items() if x}
        if vec:
            vecs.append(vec)
    if len({c for vec in vecs for c in vec}) < len(vecs):
        cols: dict[int, dict[int, int]] = {}
        for r, vec in enumerate(vecs):
            for c, x in vec.items():
                cols.setdefault(c, {})[r] = x
        vecs = list(cols.values())
    vecs = sorted(map(_primitive, vecs), key=len)
    pivots: dict[int, dict[int, int]] = {}
    for vec in vecs:
        while vec:
            lead = min(vec)
            piv = pivots.get(lead)
            if piv is None:
                pivots[lead] = vec
                break
            if len(vec) < len(piv):
                pivots[lead], vec, piv = vec, piv, vec
            # vec <- a * vec - b * piv cancels the lead entry
            g = gcd(piv[lead], vec[lead])
            a, b = piv[lead] // g, vec[lead] // g
            new = {c: a * x for c, x in vec.items()}
            for c, x in piv.items():
                y = new.get(c, 0) - b * x
                if y:
                    new[c] = y
                else:
                    del new[c]
            vec = _primitive(new) if new else new
    return len(pivots)


def rref(rows: Sequence[Sequence[Fraction]]) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and pivot column list (Gauss-Jordan)."""
    a: Matrix = [list(row) for row in rows]
    m = len(a)
    n = len(a[0]) if m else 0
    pivots: list[int] = []
    r = 0
    for col in range(n):
        piv = next((i for i in range(r, m) if a[i][col] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = a[r][col]
        a[r] = [x / inv for x in a[r]]
        for i in range(m):
            if i != r and a[i][col] != 0:
                c = a[i][col]
                a[i] = [x - c * y for x, y in zip(a[i], a[r])]
        pivots.append(col)
        r += 1
        if r == m:
            break
    return a, pivots


def nullspace(rows: Sequence[Sequence[Fraction]], ncols: int) -> list[list[Fraction]]:
    """Basis of the right kernel of the matrix (ncols needed when empty)."""
    if not rows:
        basis = []
        for j in range(ncols):
            v = [Fraction(0)] * ncols
            v[j] = Fraction(1)
            basis.append(v)
        return basis
    a, pivots = rref(rows)
    pivot_set = set(pivots)
    free = [j for j in range(ncols) if j not in pivot_set]
    basis = []
    for j in free:
        v = [Fraction(0)] * ncols
        v[j] = Fraction(1)
        for r, col in enumerate(pivots):
            v[col] = -a[r][j]
        basis.append(v)
    return basis


def row_space_basis(rows: Sequence[Sequence[Fraction]]) -> Matrix:
    """Canonical (RREF) basis of the row space, zero rows dropped."""
    a, pivots = rref(rows)
    return [a[i] for i in range(len(pivots))]


def solve(rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> list[Fraction] | None:
    """One solution of A x = b, or None if inconsistent."""
    if not rows:
        return None if any(x != 0 for x in rhs) else []
    n = len(rows[0])
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    a, pivots = rref(aug)
    if n in pivots:
        return None
    x = [Fraction(0)] * n
    for r, col in enumerate(pivots):
        x[col] = a[r][n]
    return x
