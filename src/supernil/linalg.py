"""Exact linear algebra over the rationals.

Sparse data stores no zeros: a matrix is a dict `{(row, col): value}` or a
list of sparse vectors `{coordinate: value}`, its rows or, for `rank`,
its rows or its columns, each value an int or, where it has a true
denominator, a Fraction (`supercore.Rational`); coordinate labels may be
any ints (a `CochainComplex.block_matrix` weight block gives its columns
over the row ids of its block, and `nullspace` takes C^k cochain ids).
`add_to` is the one place an entry is accumulated and pruned, and
`sparse_matmul` the one `{(row, col)}` product.  Every routine here takes
and returns sparse vectors, never dense ones.

One elimination kernel, `_echelon`, serves `rank`, `rref`, `nullspace` and
`row_space_basis` (and `solve`, one right-hand side b as column n of the
matrix, which no module of the package calls any more): integer
elimination on the vectors once their denominators are cleared, one pivot
per leading (smallest) coordinate.  A vector of nonzero plain ints, as
every `block_matrix` column of integral data, is used as it is, not
copied; a step whose multiplier on it is +-1 subtracts from a plain copy.
`rank` returns at once on at most one nonzero vector or one coordinate;
otherwise it ranks whichever side of the matrix has fewer vectors (the
given side when asked for independent coordinates, `rank(vecs, basis)`)
and numbers the coordinates rarest first, so that a vector leads at its
rarest coordinate, which limits fill-in (Markowitz, 1957); `rref` and
`nullspace` keep the caller's labels.  `Fraction`s appear again only in
the reduced rows `rref` returns.  The RREF is unique, so kernels, row
spaces and solutions do not depend on the order in which the kernel picks
its pivots.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

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


def _integer_vectors(vecs: Sequence[SparseRow]) -> list[IntRow]:
    """The nonzero vectors, each with its denominators cleared by their lcm
    and its stored zeros dropped.  A vector of nonzero plain ints is
    taken as it is, not copied."""
    out = []
    for vec in vecs:
        vals = vec.values()
        if Fraction in set(map(type, vals)):
            denom = lcm(*(x.denominator for x in vals))
            vec = {c: x.numerator * (denom // x.denominator) for c, x in vec.items() if x}
        elif not all(vals):
            vec = {c: x for c, x in vec.items() if x}
        if vec:
            out.append(vec)
    return out


def _eliminate(vec: IntRow, piv: IntRow, col: int) -> IntRow:
    """The primitive form of a * vec - b * piv, whose entry at col is 0 (up
    to sign: for a = +-1, vec - (b / a) * piv on a copy of vec)."""
    g = gcd(piv[col], vec[col])
    a, b = piv[col] // g, vec[col] // g
    if a == 1 or a == -1:
        new, b = dict(vec), b * a
    else:
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


def rank(vecs: Sequence[SparseRow], basis: list[int] | None = None) -> int:
    """Exact rank of the matrix whose rows, or whose columns, are the
    given sparse vectors: rank(A) = rank(A^T).

    At most one nonzero vector or coordinate gives the rank at once.
    Otherwise the elimination runs over the given vectors, or over the
    other side when that has fewer; the rank is the number of pivots.  The
    coordinates are numbered rarest first, so that the leading (smallest)
    coordinate of a vector is its rarest one, which limits fill-in
    (Markowitz, 1957): on the other side as it is built, and on the given
    vectors by a renumbered copy when there are more than 8 of them (on
    fewer the copy costs more than it saves).  Vectors of nonzero plain
    ints are otherwise used as they are, not copied.  Stored zeros are
    ignored and the input is not modified.

    A list `basis` is extended by rank-many coordinates at which the
    matrix restricted to them keeps its rank: the leading coordinates of
    the pivots, as the given vectors label them.  The elimination then
    runs over the given vectors, whichever side is fewer.
    """
    vecs = _integer_vectors(vecs)
    if len(vecs) < 2:
        if basis is not None and vecs:
            basis.append(min(vecs[0]))
        return len(vecs)
    counts = Counter(itertools.chain.from_iterable(vecs))
    if len(counts) < 2:
        if basis is not None:
            basis += counts
        return len(counts)
    order = None
    if len(counts) < len(vecs) and basis is None:
        # the other side; its coordinates, the given vectors, numbered sparsest first
        other: dict[int, IntRow] = {}
        for r, vec in enumerate(sorted(vecs, key=len)):
            for c, x in vec.items():
                other.setdefault(c, {})[r] = x
        vecs = list(other.values())
    elif len(vecs) > 8:
        order = sorted(counts, key=counts.__getitem__)
        label = {c: i for i, c in enumerate(order)}
        vecs = [{label[c]: x for c, x in vec.items()} for vec in vecs]
    pivots = _echelon(vecs)
    if basis is not None:
        basis += pivots if order is None else map(order.__getitem__, pivots)
    return len(pivots)


def rref(rows: Sequence[SparseRow]) -> tuple[list[SparseRow], list[int]]:
    """Reduced row echelon form (nonzero rows only, by ascending pivot) and
    the pivot columns.  Each echelon vector is cleared, in integers, at
    every later pivot column by that column's reduced vector, and only then
    divided by its leading entry."""
    pivots = _echelon(_integer_vectors(rows))
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


def kernel_of_rref(
    red: Sequence[SparseRow], pivots: Sequence[int], cols: Iterable[int]
) -> list[SparseRow]:
    """Basis of the right kernel of a matrix over the column ids `cols`,
    read off its `rref` (red, pivots): per free column j, in the order of
    `cols`, the vector with 1 at j and 0 at every other free column."""
    pivot_set = set(pivots)
    basis = {j: {j: Fraction(1)} for j in cols if j not in pivot_set}
    for row, p in zip(red, pivots):
        for c, x in row.items():
            if c != p:
                basis[c][p] = -x
    return [dict(sorted(vec.items())) for vec in basis.values()]


def nullspace(rows: Sequence[SparseRow], cols: Iterable[int]) -> list[SparseRow]:
    """Basis of the right kernel of the matrix over the column ids `cols`
    (see `kernel_of_rref`)."""
    return kernel_of_rref(*rref(rows), cols)


def row_space_basis(rows: Sequence[SparseRow]) -> list[SparseRow]:
    """Canonical (RREF) basis of the row space."""
    return rref(rows)[0]


# only tests call solve, and perfbench/tracer.py wraps it
def solve(rows: Sequence[SparseRow], rhs: SparseRow) -> SparseRow | None:
    """One solution x of A x = b for the sparse right-hand side b
    {row: value}, the free unknowns left out (that is, 0), or None if the
    system is inconsistent.

    b becomes column n of A.  Row reduction keeps every linear relation
    among the columns, so the system is inconsistent exactly when n is a
    pivot; otherwise the RREF's column n holds the pivot unknowns.
    """
    n = 1 + max((c for row in rows for c in row), default=-1)
    aug = [dict(row) for row in rows]
    for r, b in rhs.items():
        aug[r][n] = b
    red, pivots = rref(aug)
    if n in pivots:
        return None
    return {p: row[n] for row, p in zip(red, pivots) if n in row}
