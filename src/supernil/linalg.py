"""Exact linear algebra over the rationals.

Every layer shares one sparse format: a dict `{(row, col): Fraction}` that
stores no zeros (sparse vectors are dicts keyed by index under the same
rule).  `add_to` is the one place an entry is accumulated and pruned, and
`sparse_matmul` the one sparse product.

Dense matrices here are small blocks carved out of weight-graded sparse
differentials, so the routines favour exactness and determinism over
asymptotics.  Ranks are computed by fraction-free (Bareiss) elimination on
an integer rescaling of the input; kernels and row spaces by ordinary
Gauss-Jordan over `Fraction`.  Pivoting is positional (first nonzero), so
repeated runs produce identical intermediate data.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

Matrix = list[list[Fraction]]
Sparse = dict[tuple[int, int], Fraction]


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


def _integerize(rows: Sequence[Sequence[Fraction]]) -> list[list[int]]:
    out: list[list[int]] = []
    for row in rows:
        denom = lcm(*(x.denominator for x in row))
        out.append([x.numerator * (denom // x.denominator) for x in row])
    return out


def rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Exact rank by fraction-free Bareiss elimination."""
    a = _integerize(rows)
    m = len(a)
    n = len(a[0]) if m else 0
    r = 0
    prev = 1
    col = 0
    while r < m and col < n:
        piv = next((i for i in range(r, m) if a[i][col] != 0), None)
        if piv is None:
            col += 1
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
        for i in range(r + 1, m):
            for j in range(col + 1, n):
                a[i][j] = (a[r][col] * a[i][j] - a[i][col] * a[r][j]) // prev
            a[i][col] = 0
        prev = a[r][col]
        r += 1
        col += 1
    return r


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
