import random
from fractions import Fraction

from supernil import linalg


def naive_rank(rows):
    """Plain Gauss over Fraction, independent oracle for the Bareiss rank."""
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


def test_rank_matches_naive_gauss():
    rng = random.Random(7)
    for _ in range(60):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        a = random_matrix(rng, m, n)
        assert linalg.rank(a) == naive_rank(a)


def test_rank_degenerate():
    assert linalg.rank([]) == 0
    assert linalg.rank([[Fraction(0), Fraction(0)]]) == 0


def test_nullspace_is_kernel():
    rng = random.Random(11)
    for _ in range(40):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        a = random_matrix(rng, m, n)
        basis = linalg.nullspace(a, n)
        assert len(basis) == n - linalg.rank(a)
        for v in basis:
            for row in a:
                assert sum(x * y for x, y in zip(row, v)) == 0
        # kernel vectors are independent
        if basis:
            assert linalg.rank(basis) == len(basis)


def test_row_space_basis_dimension():
    rng = random.Random(13)
    for _ in range(30):
        a = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        basis = linalg.row_space_basis(a)
        assert len(basis) == linalg.rank(a)


def test_solve_roundtrip():
    rng = random.Random(17)
    for _ in range(40):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        a = random_matrix(rng, m, n)
        x = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
        b = [sum(r[j] * x[j] for j in range(n)) for r in a]
        sol = linalg.solve(a, b)
        assert sol is not None
        for r, bi in zip(a, b):
            assert sum(c * s for c, s in zip(r, sol)) == bi


def test_solve_inconsistent():
    a = [[Fraction(1), Fraction(0)], [Fraction(1), Fraction(0)]]
    assert linalg.solve(a, [Fraction(1), Fraction(2)]) is None


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
