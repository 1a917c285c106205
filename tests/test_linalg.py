import copy
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from supernil import linalg


def naive_rank(rows):
    """Plain Gauss over Fraction on dense rows, independent oracle for rank."""
    a = [list(r) for r in rows]
    if not a:
        return 0
    m, n = len(a), len(a[0])
    r = 0
    for col in range(n):
        piv = next((i for i in range(r, m) if a[i][col] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(m):
            if i != r and a[i][col] != 0:
                f = a[i][col] / a[r][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
        if r == m:
            break
    return r


def random_matrix(rng, m, n):
    return [
        [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
        for _ in range(m)
    ]


def sparse_rows(a):
    return [{j: x for j, x in enumerate(row) if x} for row in a]


def product(b, c):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*c)] for row in b]


def test_rank_matches_naive_gauss():
    rng = random.Random(7)
    for _ in range(60):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        a = random_matrix(rng, m, n)
        assert linalg.rank(sparse_rows(a)) == naive_rank(a)


def test_rank_degenerate():
    # no vectors, at most one nonzero vector (plain ints, Fractions, stored
    # zeros) or all vectors on one coordinate: the rank is right, and the
    # input is left as it was
    cases = [
        [],
        [{}],
        [{0: 3, 5: -2}],
        [{1: Fraction(1, 2), 4: Fraction(-3, 7)}],
        [{0: 0, 2: 5, 3: 0}],
        [{0: 0, 1: Fraction(0)}],
        sparse_rows([[Fraction(0), Fraction(0)]]),
        [{}, {c: c - 4 for c in range(9) if c != 4}, {3: 0}],
        [{7: 2}, {7: -5}, {7: Fraction(1, 3)}, {7: 0, 9: 0}, {}],
        [{-2: 1}] * 12,
    ]
    for vecs in cases:
        labels = sorted({c for vec in vecs for c in vec})
        dense = [[Fraction(vec.get(c, 0)) for c in labels] for vec in vecs]
        copies = [dict(vec) for vec in vecs]
        assert linalg.rank(vecs) == naive_rank(dense), vecs
        assert vecs == copies


def test_rank_sparse_tall_and_wide():
    # tall, wide and square, beyond 7x7, sparse to fairly dense
    rng = random.Random(23)
    for _ in range(40):
        m, n = rng.choice([(40, 9), (9, 40), (25, 25), (30, 3), (3, 30)])
        density = rng.choice([0.05, 0.15, 0.4])
        a = [
            [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) if rng.random() < density
             else Fraction(0) for _ in range(n)]
            for _ in range(m)
        ]
        assert linalg.rank(sparse_rows(a)) == naive_rank(a)


def test_rank_of_low_rank_products():
    # integer factors give rows with common divisors, so every elimination
    # step has a gcd to divide out
    rng = random.Random(29)
    for _ in range(40):
        m, n = rng.randint(1, 40), rng.randint(1, 15)
        r = rng.randint(0, min(m, n))
        b = [[Fraction(rng.randint(-3, 3)) for _ in range(r)] for _ in range(m)]
        c = [[Fraction(2 * rng.randint(-3, 3)) for _ in range(n)] for _ in range(r)]
        a = product(b, c) if r else [[Fraction(0)] * n for _ in range(m)]
        got = linalg.rank(sparse_rows(a))
        assert got == naive_rank(a) and got <= r


def test_rank_fractional_entries():
    rng = random.Random(31)
    for _ in range(30):
        m, n = rng.randint(1, 20), rng.randint(1, 20)
        a = [
            [Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 6, 35, 97])) for _ in range(n)]
            for _ in range(m)
        ]
        assert linalg.rank(sparse_rows(a)) == naive_rank(a)
    # a row equal to a rescaled other row adds nothing
    a = [{0: Fraction(1, 2), 3: Fraction(-2, 3)}, {0: Fraction(3, 4), 3: Fraction(-1)}]
    assert linalg.rank(a) == 1


def test_rank_zero_empty_and_duplicate_rows():
    rng = random.Random(37)
    for _ in range(30):
        m, n = rng.randint(1, 12), rng.randint(1, 12)
        a = random_matrix(rng, m, n)
        a += [list(rng.choice(a)) for _ in range(rng.randint(1, 12))]
        a += [[Fraction(0)] * n for _ in range(rng.randint(0, 3))]
        rng.shuffle(a)
        rows = sparse_rows(a)
        copies = [dict(row) for row in rows]
        assert linalg.rank(rows) == naive_rank(a)
        assert rows == copies  # the input is left as it was
    # stored zeros count as absent
    assert linalg.rank([{0: Fraction(0)}, {}, {2: Fraction(0), 1: Fraction(5)}]) == 1


def dot(row, vec):
    return sum(x * vec.get(c, 0) for c, x in row.items())


def test_nullspace_is_kernel():
    rng = random.Random(11)
    for _ in range(40):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        a = sparse_rows(random_matrix(rng, m, n))
        basis = linalg.nullspace(a, range(n))
        assert len(basis) == n - linalg.rank(a)
        for v in basis:
            for row in a:
                assert dot(row, v) == 0
        # kernel vectors are independent
        if basis:
            assert linalg.rank(basis) == len(basis)


def test_row_space_basis_dimension():
    rng = random.Random(13)
    for _ in range(30):
        a = sparse_rows(random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6)))
        basis = linalg.row_space_basis(a)
        assert len(basis) == linalg.rank(a)


def test_solve_roundtrip():
    rng = random.Random(17)
    for _ in range(40):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        a = sparse_rows(random_matrix(rng, m, n))
        x = {j: Fraction(rng.randint(-3, 3)) for j in range(n)}
        b = {i: dot(r, x) for i, r in enumerate(a) if dot(r, x)}
        sol = linalg.solve(a, b)
        assert sol is not None
        for i, r in enumerate(a):
            assert dot(r, sol) == b.get(i, 0)


def test_solve_inconsistent():
    a = [{0: Fraction(1)}, {0: Fraction(1)}]
    assert linalg.solve(a, {0: Fraction(1), 1: Fraction(2)}) is None


def rref_cases(rng):
    """Tall, wide, low-rank and fractional matrices with stored zeros,
    empty rows and duplicate rows, as (dense, sparse rows)."""
    for _ in range(120):
        kind = rng.choice(["tall", "wide", "low", "frac"])
        if kind == "low":
            m, n = rng.randint(1, 40), rng.randint(1, 15)
            r = rng.randint(0, min(m, n))
            b = [[Fraction(rng.randint(-3, 3)) for _ in range(r)] for _ in range(m)]
            c = [[Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)]
                 for _ in range(r)]
            a = product(b, c) if r else [[Fraction(0)] * n for _ in range(m)]
        else:
            m, n = {"tall": (rng.randint(10, 40), rng.randint(1, 9)),
                    "wide": (rng.randint(1, 9), rng.randint(10, 40)),
                    "frac": (rng.randint(1, 15), rng.randint(1, 15))}[kind]
            density = rng.choice([0.1, 0.3, 1.0])
            den = [1, 2, 3, 6, 35] if kind == "frac" else [1]
            a = [[Fraction(rng.randint(-5, 5), rng.choice(den)) if rng.random() < density
                  else Fraction(0) for _ in range(n)] for _ in range(m)]
        a += [list(rng.choice(a)) for _ in range(rng.randint(0, 3))]
        a += [[Fraction(0)] * n for _ in range(rng.randint(0, 2))]
        rng.shuffle(a)
        rows = sparse_rows(a)
        for row in rows:  # stored zeros count as absent
            j = rng.randrange(n)
            if j not in row and rng.random() < 0.3:
                row[j] = Fraction(0)
        yield a, rows


def test_rref_is_canonical():
    rng = random.Random(41)
    for a, rows in rref_cases(rng):
        red, pivots = linalg.rref(rows)
        assert len(red) == len(pivots) == naive_rank(a)
        assert pivots == sorted(set(pivots))
        for row, p in zip(red, pivots):
            assert all(row.values())
            assert row[p] == 1
            assert min(row) == p
            assert all(q == p or q not in row for q in pivots)
        # the reduced rows lie in the row space
        assert linalg.rank(rows + red) == len(pivots)
        assert linalg.row_space_basis(rows) == red


def test_nullspace_edge_cases():
    unit = [{j: Fraction(1)} for j in range(3)]
    assert linalg.nullspace([], range(3)) == unit
    assert linalg.nullspace([{}], range(3)) == unit
    assert linalg.nullspace([{1: Fraction(0)}], range(3)) == unit


def test_solve_free_unknowns_and_zero_rhs():
    # x0 + x2 = 1, x1 = 2: x2 is free and left out
    a = [{0: Fraction(1), 2: Fraction(1)}, {1: Fraction(1)}]
    assert linalg.solve(a, {0: Fraction(1), 1: Fraction(2)}) == {0: 1, 1: 2}
    assert linalg.solve(a, {}) == {}
    assert linalg.solve([{}, {0: Fraction(3)}], {}) == {}
    assert linalg.solve([], {}) == {}


def test_add_to_prunes_cancelled_entries():
    acc = {}
    linalg.add_to(acc, (0, 1), Fraction(3, 2))
    linalg.add_to(acc, (2, 2), Fraction(1))
    linalg.add_to(acc, (0, 1), Fraction(-3, 2))
    assert acc == {(2, 2): Fraction(1)}
    linalg.add_to(acc, (5, 5), Fraction(0))
    assert acc == {(2, 2): Fraction(1)}


def to_sparse(a):
    return {(i, j): x for i, row in enumerate(a) for j, x in enumerate(row) if x}


def test_sparse_matmul_matches_dense_product():
    rng = random.Random(19)
    for _ in range(60):
        m, k, n = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)
        # small integers, so that products often cancel
        a = [[Fraction(rng.randint(-2, 2)) for _ in range(k)] for _ in range(m)]
        b = [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(k)]
        dense = [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(n)] for i in range(m)]
        prod = linalg.sparse_matmul(to_sparse(a), to_sparse(b))
        assert prod == to_sparse(dense)
        assert all(prod.values())


def test_int_fraction_and_mixed_rows_agree():
    # block_matrix gives rank columns of plain ints, which are ranked as
    # they are, so the same integer matrix must give the same rank,
    # RREF and solutions as ints, as Fractions and mixed within a row,
    # whatever zeros (0 or Fraction(0)) are stored
    rng = random.Random(43)
    casts = {"int": int, "fraction": Fraction,
             "mixed": lambda x: rng.choice([int, Fraction])(x)}
    for _ in range(80):
        m, n = rng.randint(1, 12), rng.randint(1, 12)
        density = rng.choice([0.2, 0.5, 1.0])
        a = [[rng.randint(-4, 4) if rng.random() < density else 0 for _ in range(n)]
             for _ in range(m)]
        x = {j: rng.randint(-2, 2) for j in range(n)}
        b = {i: sum(v * x[j] for j, v in enumerate(row)) for i, row in enumerate(a)}
        rhss = [{i: v for i, v in b.items() if v}, {rng.randrange(m): 1}]
        got = []
        for kind, cast in casts.items():
            # about half the zeros are stored, each as its form's 0
            rows = [{j: cast(v) for j, v in enumerate(row) if v or rng.random() < 0.5}
                    for row in a]
            if kind == "int":
                assert all(type(v) is int for row in rows for v in row.values())
            copies = [dict(row) for row in rows]
            rhs = [{i: cast(v) for i, v in r.items()} for r in rhss]
            got.append((linalg.rank(rows), linalg.rref(rows), [linalg.solve(rows, b) for b in rhs]))
            assert rows == copies  # the input is left as it was
        assert got[0] == got[1] == got[2]
        assert got[0][0] == naive_rank([[Fraction(v) for v in row] for row in a])
        sol = got[0][2][0]
        assert sol is not None
        assert all(sum(v * sol.get(j, 0) for j, v in enumerate(row)) == b[i]
                   for i, row in enumerate(a))


def test_rank_of_plain_int_rows_and_columns():
    # rank takes the rows or the columns of a matrix and gives the same
    # rank for both: tall, wide and square int matrices with more than 8
    # vectors on each side, scattered coordinate labels, stored zeros,
    # duplicate vectors and all-zero columns; the input is left as it was
    rng = random.Random(71)
    for m, n in [(30, 12), (12, 30), (16, 16)] * 12:
        density = rng.choice([0.1, 0.3, 0.6])
        a = [[rng.randint(-3, 3) if rng.random() < density else 0 for _ in range(n)]
             for _ in range(m)]
        for j in rng.sample(range(n), 2):
            for row in a:
                row[j] = 0
        a[rng.randrange(m)] = list(a[rng.randrange(m)])
        j, dup = rng.sample(range(n), 2)
        for row in a:
            row[dup] = row[j]
        want = naive_rank([[Fraction(v) for v in row] for row in a])
        # labels that do not start at 0 nor run in order
        rows = [{1000 - 7 * j: v for j, v in enumerate(row) if v or rng.random() < 0.2}
                for row in a]
        cols = [{3 * i + 5: a[i][j] for i in range(m) if a[i][j] or rng.random() < 0.2}
                for j in range(n)]
        assert all(type(v) is int for vec in rows + cols for v in vec.values())
        copies = [dict(vec) for vec in rows + cols]
        assert linalg.rank(rows) == linalg.rank(cols) == want, (m, n)
        assert rows + cols == copies


def test_eliminate_modifies_neither_vector():
    # vec - (b / a) * piv from a copy of vec when the multiplier a is +-1,
    # and a * vec - b * piv otherwise: the primitive vector, up to sign, with
    # 0 at the pivot column and every cancelled entry dropped
    for lead in (1, -1, 2, 3, -3):
        piv = {0: lead, 2: 3 * lead, 5: -1}
        vec = {0: 4, 2: 12, 5: 7, 8: 2}
        saved = (dict(piv), dict(vec))
        new = linalg._eliminate(vec, piv, 0)
        assert (piv, vec) == saved and new is not vec
        full = {c: lead * vec.get(c, 0) - 4 * piv.get(c, 0) for c in set(vec) | set(piv)}
        want = linalg._primitive({c: x for c, x in full.items() if x})
        assert new in (want, {c: -x for c, x in want.items()}), lead
        assert 0 not in new and 2 not in new


# entries: small ints and Fractions, zeros among them stored as entries
ENTRIES = st.one_of(st.integers(-3, 3), st.builds(Fraction, st.integers(-3, 3),
                                                  st.integers(1, 3)))


@pytest.mark.parametrize("least,most", [(0, 0), (1, 1), (2, 8), (9, 16)])
@given(data=st.data())
def test_rank_basis_is_rows_that_keep_the_rank(least, most, data):
    # no vectors, one vector, at most 8 vectors and more than 8, over one
    # coordinate or many, scattered labels: the basis has rank-many
    # distinct coordinates, the matrix restricted to them has the same
    # rank, and the input is left as it was
    width = data.draw(st.sampled_from([1, 3, 12]))
    labels = st.integers(0, width - 1).map(lambda c: 5 * c - 7)
    vecs = data.draw(st.lists(st.dictionaries(labels, ENTRIES, max_size=6),
                              min_size=least, max_size=most))
    saved = copy.deepcopy(vecs)
    coords = sorted({c for vec in vecs for c in vec})
    r = naive_rank([[Fraction(vec.get(c, 0)) for c in coords] for vec in vecs])
    basis = []
    assert linalg.rank(vecs, basis) == r == linalg.rank(vecs)
    assert vecs == saved
    assert len(basis) == len(set(basis)) == r
    kept = sorted(basis)
    assert naive_rank([[Fraction(vec.get(c, 0)) for c in kept] for vec in vecs]) == r
