"""Exact linear algebra over the rationals.

Sparse data stores no zeros: a matrix is a dict `{(row, col): value}` or a
list of sparse rows `{col: value}`, each value an int or, where it has a
true denominator, a Fraction (`supercore.Rational`); column labels may be any
ints (a `CochainComplex.block_matrix` weight block keeps its C^k cochain
indices).  `add_to` is the one place an entry is accumulated and pruned,
and `sparse_matmul` the one `{(row, col)}` product.  Every routine here
takes and returns sparse rows, never dense ones.

One elimination kernel, `_echelon`, serves `rank`, `rref`, `nullspace` and
`row_space_basis` (and `solve`/`solve_all`, which no module of the package
calls any more): integer elimination on the rows
once their denominators are cleared (a row with no `Fraction`, as every
`block_rows` row of integral data, only loses its zeros), one pivot per
leading (smallest) column.
`Fraction`s appear again only in the reduced rows `rref` returns.  The RREF
is unique, so kernels, row spaces and solutions do not depend on the order
in which the kernel picks its pivots.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .supercore import Rational

Sparse = dict[tuple[int, int], Rational]
SparseRow = dict[int, Rational]
IntRow = dict[int, int]


def add_to(target: dict, key, val: Rational) -> None:
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
    rows: dict[int, list[tuple[int, Rational]]] = {}
    for (r, c), v in b.items():
        rows.setdefault(r, []).append((c, v))
    out: Sparse = {}
    for (r, c), v in a.items():
        for c2, v2 in rows.get(c, ()):
            add_to(out, (r, c2), v * v2)
    return out


def _primitive(vec: IntRow) -> IntRow:
    """vec divided by the gcd of its entries."""
    g = gcd(*vec.values())
    return vec if g == 1 else {c: x // g for c, x in vec.items()}


def _integer_rows(rows: Sequence[SparseRow]) -> list[IntRow]:
    """The nonzero rows, each with its denominators cleared by their lcm."""
    out = []
    for row in rows:
        if Fraction in set(map(type, row.values())):
            denom = lcm(*(x.denominator for x in row.values()))
            row = {c: x.numerator * (denom // x.denominator) for c, x in row.items()}
        vec = {c: x for c, x in row.items() if x}
        if vec:
            out.append(vec)
    return out


def _eliminate(vec: IntRow, piv: IntRow, col: int) -> IntRow:
    """The primitive form of a * vec - b * piv, whose entry at col is 0."""
    g = gcd(piv[col], vec[col])
    a, b = piv[col] // g, vec[col] // g
    new = {c: a * x for c, x in vec.items()}
    for c, x in piv.items():
        y = new.get(c, 0) - b * x
        if y:
            new[c] = y
        else:
            del new[c]
    return _primitive(new) if new else new


def _echelon(vecs: list[IntRow]) -> dict[int, IntRow]:
    """Row echelon form of integer vectors: one primitive pivot vector per
    leading (smallest) column, keyed by that column.

    Vectors are taken sparsest first and reduced against the pivot of
    their leading column, the sparser of two vectors being kept as the
    pivot.  Integer arithmetic only.
    """
    pivots: dict[int, IntRow] = {}
    for vec in sorted(map(_primitive, vecs), key=len):
        while vec:
            lead = min(vec)
            piv = pivots.get(lead)
            if piv is None:
                pivots[lead] = vec
                break
            if len(vec) < len(piv):
                pivots[lead], vec, piv = vec, piv, vec
            vec = _eliminate(vec, piv, lead)
    return pivots


def rank(rows: Sequence[SparseRow]) -> int:
    """Exact rank of the matrix with the given sparse rows.

    Since rank(A) = rank(A^T), the elimination runs over the rows or over
    the columns, whichever are fewer; the rank is the number of pivots.
    Stored zeros are ignored and the input is not modified.
    """
    vecs = _integer_rows(rows)
    if len({c for vec in vecs for c in vec}) < len(vecs):
        cols: dict[int, IntRow] = {}
        for r, vec in enumerate(vecs):
            for c, x in vec.items():
                cols.setdefault(c, {})[r] = x
        vecs = list(cols.values())
    return len(_echelon(vecs))


def rref(rows: Sequence[SparseRow]) -> tuple[list[SparseRow], list[int]]:
    """Reduced row echelon form (nonzero rows only, by ascending pivot) and
    the pivot columns.  Each echelon vector is cleared, in integers, at
    every later pivot column by that column's reduced vector, and only then
    divided by its leading entry."""
    pivots = _echelon(_integer_rows(rows))
    cols = sorted(pivots)
    reduced: dict[int, IntRow] = {}
    out: list[SparseRow] = []
    for lead in reversed(cols):
        vec = pivots[lead]
        for c in [c for c in vec if c != lead and c in reduced]:
            vec = _eliminate(vec, reduced[c], c)
        reduced[lead] = vec
        out.append({c: Fraction(vec[c], vec[lead]) for c in sorted(vec)})
    return out[::-1], cols


def kernel_of_rref(red: Sequence[SparseRow], pivots: Sequence[int], ncols: int) -> list[SparseRow]:
    """Basis of the right kernel of a matrix with ncols columns, read off
    its `rref` (red, pivots): per free column j, the vector with 1 at j and
    0 at every other free column."""
    pivot_set = set(pivots)
    basis = {j: {j: Fraction(1)} for j in range(ncols) if j not in pivot_set}
    for row, p in zip(red, pivots):
        for c, x in row.items():
            if c != p:
                basis[c][p] = -x
    return [dict(sorted(vec.items())) for vec in basis.values()]


def nullspace(rows: Sequence[SparseRow], ncols: int) -> list[SparseRow]:
    """Basis of the right kernel of the matrix with ncols columns (see
    `kernel_of_rref`)."""
    return kernel_of_rref(*rref(rows), ncols)


def row_space_basis(rows: Sequence[SparseRow]) -> list[SparseRow]:
    """Canonical (RREF) basis of the row space."""
    return rref(rows)[0]


# only tests call solve, and perfbench/tracer.py wraps it
def solve(rows: Sequence[SparseRow], rhs: SparseRow) -> SparseRow | None:
    """One solution x of A x = b for the sparse right-hand side b
    {row: value}, the free unknowns left out (that is, 0), or None if the
    system is inconsistent."""
    return solve_all(rows, [rhs])[0]


def solve_all(rows: Sequence[SparseRow], rhss: Sequence[SparseRow]) -> list[SparseRow | None]:
    """`solve` for every right-hand side in rhss, from one elimination.

    The right-hand sides become columns n, n + 1, .. of A.  Row reduction
    keeps every linear relation among the columns, so b_i lies in the
    column space of A exactly when its RREF column is zero on every row
    whose pivot is not a column of A; its entries on the other rows are
    then the pivot unknowns.
    """
    n = 1 + max((c for row in rows for c in row), default=-1)
    aug = [dict(row) for row in rows]
    for i, rhs in enumerate(rhss):
        for r, b in rhs.items():
            aug[r][n + i] = b
    red, pivots = rref(aug)
    out: list[SparseRow | None] = []
    for col in range(n, n + len(rhss)):
        sol = {p: row[col] for row, p in zip(red, pivots) if col in row}
        out.append(None if any(p >= n for p in sol) else sol)
    return out
