"""Construction of the nilpotent subalgebras and their distinguished ideals.

Each infinite family (gl, sl, osp, q) is realized by explicit sparse
matrices `{(row, col): value}` inside an ambient gl(M|N), rows and columns
below M even; brackets are computed by the sparse supercommutator and read
back in the chosen basis, so no structure constant is ever transcribed by
hand.  No two basis matrices share a matrix position (every build asserts
it), so each position of a product is read through the one basis matrix
that owns it.  Weights are read off a fixed basis of the diagonal torus,
each h a diagonal `{index: value}`: E_rc has weight h_r - h_c, and a basis
matrix must have the same weight at every entry.  So the realization, not
any table, is the authority on signs.

Conventions that the code commits to (validated by the closure, Jacobi and
ideal checks that run on every build):

* gl(m|n), m >= n: rows/columns labelled 1bar..mbar, 1..n; the subalgebra is
  spanned by E(ibar,jbar), E(i,j), E(ibar,j), E(i,jbar) with i < j, exactly
  the four printed families.

* osp(2m+1|2n) and osp(2m|2n) sit inside gl(2m+1|2n) / gl(2m|2n) preserving
  the forms G = [[0,I,0],[I,0,0],[0,0,1]] (symmetric, even block) and
  J = [[0,I],[-I,0]] (skew, odd block).  The odd part is spanned by one root
  vector for each weight e_i - d_k (i < k), d_i - e_j (i < j), -e_l - d_k
  (all l, k) and, in the odd case, -d_t; the even part consists of the root
  vectors e_i - e_j (i < j), -e_i - e_j (i < j), -e_i (odd case only),
  d_k - d_l (k < l), -d_k - d_l (k <= l).  This is the unique orientation of
  the printed families under which the last-index weight predicate spans an
  ideal; with the opposite orientation [x_{e_m - e_i}, x_{-e_j - e_m}] is a
  nonzero bracket landing outside the candidate ideal.

* q(n) sits inside gl(n|n), spanned by Et(i,j) = E(ibar,jbar) + E(i,j) and
  Eb(i,j) = E(i,jbar) + E(ibar,j) for i < j.  Both carry the weight
  e_i - e_j; parity separates them.

* The exceptional algebras are abelian with formally realized bases whose
  weights are transcribed from the appendix tables.

Every algebra also carries a strictly positive grading functional `v` with
v(weight) < 0 on the whole basis; this witnesses nilpotency and bounds the
degrees in which a fixed weight can appear in the superexterior algebra.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from operator import add
from typing import Callable, Iterable, NamedTuple, Sequence

from . import linalg
from .supercore import EVEN, ODD, Parity, Rational, Weight, exact

def supercommutator(x: linalg.Sparse, px: Parity, y: linalg.Sparse, py: Parity) -> linalg.Sparse:
    """[x, y] = xy - (-1)^{|x||y|} yx for matrices x, y of parities px, py:
    odd/odd anticommutes, the rest commute."""
    out = linalg.sparse_matmul(x, y)
    sign = 1 if px and py else -1
    for pos, v in linalg.sparse_matmul(y, x).items():
        linalg.add_to(out, pos, sign * v)
    return out


class BasisVector(NamedTuple):
    id: int
    label: str
    parity: Parity
    weight: Weight
    realization: linalg.Sparse | None = None


BracketTable = dict[tuple[int, int], dict[int, Rational]]


class NilpotentAlgebra:
    """Finite weight-graded nilpotent Lie superalgebra with exact brackets.

    The bracket table stores [x_i, x_j] for i <= j only; the other half is
    recovered through super-antisymmetry.  Coefficients are exact: ints
    where integral (every family built here has integer structure
    constants), Fractions only where a true denominator exists.
    """

    def __init__(
        self,
        name: str,
        family: str,
        params: tuple[int, ...],
        symbols: tuple[str, ...],
        basis: list[BasisVector],
        bracket_table: BracketTable,
        grading: tuple[Rational, ...],
    ):
        self.name = name
        self.family = family
        self.params = params
        self.symbols = symbols
        self.basis = basis
        self.table = {k: dict(v) for k, v in bracket_table.items() if v}
        self.grading = grading
        self.dim = len(basis)
        self.parities = tuple(b.parity for b in basis)
        self.weights = tuple(b.weight for b in basis)

    # -- bracket access -----------------------------------------------------

    def bracket(self, i: int, j: int) -> dict[int, Rational]:
        """Coefficients of [x_i, x_j] over the basis."""
        if i <= j:
            return self.table.get((i, j), {})
        res = self.table.get((j, i), {})
        if not res:
            return {}
        if self.parities[i] and self.parities[j]:
            return res
        return {t: -c for t, c in res.items()}

    @cached_property
    def inverse_table(self) -> dict[int, list[tuple[int, int, Rational]]]:
        """t -> [(a, b, c)] for every pair whose bracket [x_a, x_b] has the
        nonzero x_t coefficient c, with a before b (or a = b) in the
        canonical (parity, id) order of monomial words."""
        out: dict[int, list[tuple[int, int, Rational]]] = {}
        for i, j in self.table:
            a, b = sorted((i, j), key=lambda x: (self.parities[x], x))
            for t, c in self.bracket(a, b).items():
                out.setdefault(t, []).append((a, b, c))
        return out

    @property
    def abelian(self) -> bool:
        return not self.table

    def even_ids(self) -> list[int]:
        return [b.id for b in self.basis if b.parity == EVEN]

    def odd_ids(self) -> list[int]:
        return [b.id for b in self.basis if b.parity == ODD]

    def weight_multiset(self) -> list[tuple[tuple, Parity]]:
        return sorted((b.weight, b.parity) for b in self.basis)

    def grading_value(self, w: Weight) -> Rational:
        return sum(a * b for a, b in zip(self.grading, w))

    # -- structural checks ---------------------------------------------------

    def verify(self) -> None:
        """Exhaustive structural checks; raises AssertionError on violation.

        Covers weight/parity additivity of the bracket, vanishing of even
        squares, the super Jacobi identity over all basis triples
        (`jacobi_failures`), and strict negativity of the grading functional (nilpotency witness).
        """
        for b in self.basis:
            if self.grading_value(b.weight) >= 0:
                raise AssertionError(f"{self.name}: basis weight {b.label} not graded negative")
        for (i, j), terms in self.table.items():
            p = (self.parities[i] + self.parities[j]) % 2
            w = tuple(map(add, self.weights[i], self.weights[j]))
            for t, c in terms.items():
                assert c != 0
                if self.parities[t] != p:
                    raise AssertionError(f"{self.name}: bracket ({i},{j}) breaks parity")
                if self.weights[t] != w:
                    raise AssertionError(f"{self.name}: bracket ({i},{j}) breaks weights")
        for i in range(self.dim):
            if self.parities[i] == EVEN and self.table.get((i, i)):
                raise AssertionError(f"{self.name}: even square [x_{i},x_{i}] nonzero")
        bad = jacobi_failures(self.parities, self.bracket)
        if bad:
            i, j, k = bad[0]
            raise AssertionError(f"{self.name}: Jacobi fails on triple ({i},{j},{k})")

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "params": list(self.params),
            "symbols": list(self.symbols),
            "abelian": self.abelian,
            "basis": [
                {
                    "id": b.id,
                    "label": b.label,
                    "parity": b.parity,
                    "weight": [str(c) for c in b.weight],
                }
                for b in self.basis
            ],
            "brackets": [
                [i, j, sorted([t, str(c)] for t, c in terms.items())]
                for (i, j), terms in sorted(self.table.items())
            ],
        }


def jacobi_failures(
    parities: Sequence[Parity], bracket: Callable[[int, int], dict[int, Rational]]
) -> list[tuple[int, int, int]]:
    """The basis triples i <= j <= k on which the super Jacobi identity

      [x_i,[x_j,x_k]] = [[x_i,x_j],x_k] + (-1)^{|i||j|} [x_j,[x_i,x_k]]

    fails.  `bracket(i, j)` is [x_i, x_j] as a sparse vector; it may name
    basis vectors past `parities` (a center), which must bracket to zero.
    A triple whose three brackets [x_i,x_j], [x_i,x_k], [x_j,x_k] all
    vanish satisfies the identity term by term and is the only one skipped.
    """

    n = len(parities)
    bad = []
    for i in range(n):
        for j in range(i, n):
            bij = bracket(i, j)
            sign = -1 if (parities[i] and parities[j]) else 1
            for k in range(j, n):
                bik, bjk = bracket(i, k), bracket(j, k)
                if not (bij or bik or bjk):
                    continue
                lhs: dict[int, Rational] = {}
                for t, c in bjk.items():
                    for u, e in bracket(i, t).items():
                        linalg.add_to(lhs, u, c * e)
                rhs: dict[int, Rational] = {}
                for t, c in bij.items():
                    for u, e in bracket(t, k).items():
                        linalg.add_to(rhs, u, c * e)
                for t, c in bik.items():
                    for u, e in bracket(j, t).items():
                        linalg.add_to(rhs, u, sign * c * e)
                if lhs != rhs:
                    bad.append((i, j, k))
    return bad


#: An ideal (or a candidate for one): the ids of the basis vectors it spans.
Ideal = frozenset[int]


class IdealNotClosed(AssertionError):
    """[n, I] has a component outside the candidate ideal I."""


def verify_ideal(alg: NilpotentAlgebra, ideal: Ideal) -> None:
    """Check [n, I] <= I exhaustively; raises IdealNotClosed otherwise."""
    for i in range(alg.dim):
        for j in ideal:
            for t in alg.bracket(i, j):
                if t not in ideal:
                    raise IdealNotClosed(
                        f"{alg.name}: ideal not closed, [x_{i}, x_{j}] has component x_{t}"
                    )


def ideal_is_abelian(alg: NilpotentAlgebra, ideal: Ideal) -> bool:
    members = sorted(ideal)
    for a, i in enumerate(members):
        for j in members[a:]:
            if alg.bracket(i, j):
                return False
    return True


# -------------------------------------------------------------------------
# Building algebras from matrix realizations
# -------------------------------------------------------------------------


def _parity(mat: linalg.Sparse, M: int) -> Parity:
    """Parity of a basis matrix of gl(M|N), whose rows and columns below M
    are even, read from its positions; raises if they disagree."""
    parities = {(r < M) != (c < M) for r, c in mat}
    if len(parities) > 1:
        raise ValueError("matrix is not parity homogeneous")
    return ODD if True in parities else EVEN


def _extract_weight(torus: Sequence[dict[int, Rational]], x: linalg.Sparse) -> Weight:
    """Weight of x under the diagonal torus, each h given as {index: value}:
    [h, E_rc] = (h_r - h_c) E_rc, so x is a weight vector exactly when every
    entry has the same vector of h_r - h_c."""
    weights = {tuple(h.get(r, 0) - h.get(c, 0) for h in torus) for r, c in x}
    if len(weights) != 1:
        raise AssertionError("matrix is not a torus weight vector")
    return weights.pop()


def _assemble(
    name: str,
    family: str,
    params: tuple[int, ...],
    symbols: tuple[str, ...],
    M: int,
    torus: list[dict[int, Rational]],
    raw_basis: list[tuple[str, linalg.Sparse]],
    grading: tuple[Rational, ...],
) -> NilpotentAlgebra:
    """Build an algebra from labelled matrices in gl(M|N): weights, then all
    brackets.

    Each matrix position belongs to at most one basis matrix, its owner;
    two basis matrices that share a position raise AssertionError.  A
    product [x_i, x_j] is read back through the owners: its coefficient on
    x_t is its entry at one of x_t's positions over x_t's entry there.  The
    product rebuilt from these coefficients must equal it exactly; if it
    does not, or a position has no owner, the bracket leaves the span of
    the basis and the build fails.
    """
    basis = [
        BasisVector(idx, label, _parity(mat, M), _extract_weight(torus, mat), mat)
        for idx, (label, mat) in enumerate(raw_basis)
    ]

    mats = [mat for _, mat in raw_basis]
    # matrix position -> the one basis matrix that has it
    owner: dict[tuple[int, int], int] = {}
    for t, mat in enumerate(mats):
        for pos in mat:
            if owner.setdefault(pos, t) != t:
                raise AssertionError(
                    f"{name}: {basis[owner[pos]].label} and {basis[t].label} share position {pos}"
                )

    table: BracketTable = {}
    for i, xi in enumerate(basis):
        for xj in basis[i:]:
            if xi is xj and xi.parity == EVEN:
                continue
            br = supercommutator(xi.realization, xi.parity, xj.realization, xj.parity)
            if not br:
                continue
            # an unowned position is missing from the rebuild, so it fails there
            coeffs: dict[int, Rational] = {}
            for pos, v in br.items():
                t = owner.get(pos)
                if t is not None and t not in coeffs:
                    coeffs[t] = exact(Fraction(v, mats[t][pos]))
            if br != {pos: c * v for t, c in coeffs.items() for pos, v in mats[t].items()}:
                raise AssertionError(
                    f"{name}: [{xi.label}, {xj.label}] leaves the span of the basis"
                )
            table[(i, xj.id)] = dict(sorted(coeffs.items()))

    alg = NilpotentAlgebra(name, family, params, symbols, basis, table, grading)
    alg.verify()
    return alg


def _weight_ideal(alg: NilpotentAlgebra, symbol_indices: Iterable[int]) -> Ideal:
    """All basis vectors whose weight is nonzero on any of the given symbols."""
    idx = tuple(symbol_indices)
    ideal = frozenset(b.id for b in alg.basis if any(b.weight[t] != 0 for t in idx))
    verify_ideal(alg, ideal)
    return ideal


# -- gl / sl ----------------------------------------------------------------


def _gl_symbols(m: int, n: int) -> tuple[str, ...]:
    return tuple(f"e{i}" for i in range(1, m + 1)) + tuple(f"d{j}" for j in range(1, n + 1))


def _gl_grading(m: int, n: int) -> tuple[Rational, ...]:
    return tuple(range(1, m + 1)) + tuple(
        Fraction(2 * j + 1, 2) for j in range(1, n + 1)
    )


def build_gl(m: int, n: int) -> tuple[NilpotentAlgebra, Ideal]:
    """Nilpotent subalgebra of gl(m|n), m >= n >= 1, and its ideal.

    The ideal is the span of the last-column root vectors: weights with a
    nonzero e_m coefficient for m > n, plus those with a nonzero d_n
    coefficient when m = n.
    """
    if not (m >= n >= 1):
        raise ValueError("gl(m|n) requires m >= n >= 1")
    bar = lambda i: i - 1          # 1-based barred index -> row
    unb = lambda j: m + j - 1      # 1-based unbarred index -> row
    torus = [{t: 1} for t in range(m + n)]
    raw: list[tuple[str, linalg.Sparse]] = []
    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            raw.append((f"E({i}b,{j}b)", {(bar(i), bar(j)): 1}))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            raw.append((f"E({i},{j})", {(unb(i), unb(j)): 1}))
    for i in range(1, m + 1):
        for j in range(i + 1, n + 1):
            raw.append((f"E({i}b,{j})", {(bar(i), unb(j)): 1}))
    for i in range(1, n + 1):
        for j in range(i + 1, m + 1):
            raw.append((f"E({i},{j}b)", {(unb(i), bar(j)): 1}))
    alg = _assemble(
        f"gl({m}|{n})", "gl", (m, n), _gl_symbols(m, n), m, torus, raw, _gl_grading(m, n)
    )
    return alg, family_ideal(alg)


def build_sl(m: int, n: int) -> tuple[NilpotentAlgebra, Ideal]:
    """sl(m|n) shares its nilpotent part with gl(m|n); alias for tables."""
    alg, ideal = build_gl(m, n)
    alg2 = NilpotentAlgebra(
        f"sl({m}|{n})", "sl", (m, n), alg.symbols, alg.basis, alg.table, alg.grading
    )
    return alg2, ideal


# -- q(n) --------------------------------------------------------------------


def build_q(n: int) -> tuple[NilpotentAlgebra, Ideal]:
    """Nilpotent subalgebra of q(n) inside gl(n|n), n >= 2.

    Even Et(i,j) and odd Eb(i,j) share the weight e_i - e_j (i < j); the
    ideal is spanned by all Et(i,n), Eb(i,n).
    """
    if n < 2:
        raise ValueError("q(n) requires n >= 2")
    bar = lambda i: i - 1
    unb = lambda j: n + j - 1
    torus = [{bar(t): 1, unb(t): 1} for t in range(1, n + 1)]
    raw: list[tuple[str, linalg.Sparse]] = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            raw.append((f"Et({i},{j})", {(bar(i), bar(j)): 1, (unb(i), unb(j)): 1}))
            raw.append((f"Eb({i},{j})", {(unb(i), bar(j)): 1, (bar(i), unb(j)): 1}))
    symbols = tuple(f"e{i}" for i in range(1, n + 1))
    grading = tuple(range(1, n + 1))
    alg = _assemble(f"q({n})", "q", (n,), symbols, n, torus, raw, grading)
    return alg, family_ideal(alg)


# -- osp ----------------------------------------------------------------------


def _build_osp(
    m: int, n: int, odd_case: bool, ideal_reading: str
) -> tuple[NilpotentAlgebra, Ideal]:
    """osp(2m+1|2n) (odd_case) or osp(2m|2n) from one set of matrix data."""
    M = 2 * m + 1 if odd_case else 2 * m
    so_p = lambda i: i - 1            # +i slot of the so block
    so_m = lambda i: m + i - 1        # -i slot
    corner = 2 * m                    # 0 slot, odd case only
    sp_p = lambda k: M + k - 1        # +k slot of the sp block
    sp_m = lambda k: M + n + k - 1    # -k slot

    # torus: e_i dual to so_m(i)-so_p(i), d_k dual to sp_m(k)-sp_p(k)
    torus = [{so_m(i): 1, so_p(i): -1} for i in range(1, m + 1)]
    torus += [{sp_m(k): 1, sp_p(k): -1} for k in range(1, n + 1)]

    raw: list[tuple[str, linalg.Sparse]] = []
    # even so-part: e_i - e_j and -e_i - e_j for i < j, -e_i in the odd case
    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            raw.append((f"S({i},{j})", {(so_p(j), so_p(i)): 1, (so_m(i), so_m(j)): -1}))
            raw.append((f"S(-{i},-{j})", {(so_p(i), so_m(j)): 1, (so_p(j), so_m(i)): -1}))
    if odd_case:
        for i in range(1, m + 1):
            raw.append((f"S(-{i})", {(so_p(i), corner): 1, (corner, so_m(i)): -1}))
    # even sp-part: d_k - d_l (k < l) and -d_k - d_l (k <= l)
    for k in range(1, n + 1):
        for l in range(k + 1, n + 1):
            raw.append((f"P({k},{l})", {(sp_p(l), sp_p(k)): 1, (sp_m(k), sp_m(l)): -1}))
            raw.append((f"P(-{k},-{l})", {(sp_p(k), sp_m(l)): 1, (sp_p(l), sp_m(k)): 1}))
    for k in range(1, n + 1):
        raw.append((f"P(-{k},-{k})", {(sp_p(k), sp_m(k)): 1}))
    # odd part
    for i in range(1, min(m, n - 1) + 1):
        for k in range(i + 1, n + 1):
            raw.append((f"A({i},{k})", {(sp_p(k), so_p(i)): 1, (so_m(i), sp_m(k)): -1}))
    for i in range(1, n + 1):
        for j in range(i + 1, m + 1):
            raw.append((f"B({i},{j})", {(sp_m(i), so_m(j)): 1, (so_p(j), sp_p(i)): 1}))
    for l in range(1, m + 1):
        for k in range(1, n + 1):
            raw.append((f"C({l},{k})", {(so_p(l), sp_m(k)): 1, (sp_p(k), so_m(l)): -1}))
    if odd_case:
        for t in range(1, n + 1):
            raw.append((f"D({t})", {(corner, sp_m(t)): 1, (sp_p(t), corner): -1}))
    family = "osp_odd" if odd_case else "osp_even"
    alg = _assemble(
        f"osp({M}|{2 * n})", family, (m, n), _gl_symbols(m, n), M, torus, raw,
        _gl_grading(m, n),
    )
    return alg, family_ideal(alg, ideal_reading)


def build_osp_odd(
    m: int, n: int, ideal_reading: str = "auto"
) -> tuple[NilpotentAlgebra, Ideal]:
    """Nilpotent subalgebra of osp(2m+1|2n), m >= n >= 1.

    `ideal_reading` selects the garbled last-index predicate: "eps_only"
    (weights touching e_m) is closed and abelian for every m >= n and is the
    "auto" default; "eps_or_delta" (weights touching e_m or d_n) is closed
    only for m <= n+1 and even there is not abelian, because
    [x_{e_i - d_n}, x_{-e_i - d_n}] lands on the long root -2d_n.  Every
    choice is re-verified by the closure check and rejected loudly if it
    fails.
    """
    if not (m >= n >= 1):
        raise ValueError("osp(2m+1|2n) requires m >= n >= 1")
    return _build_osp(m, n, True, ideal_reading)


def build_osp_even(
    m: int, n: int, ideal_reading: str = "auto"
) -> tuple[NilpotentAlgebra, Ideal]:
    """Nilpotent subalgebra of osp(2m|2n), m, n >= 1.

    The ideal is the e_m weight predicate when m >= n; for m < n that set is
    not closed (the odd vector of weight e_m - d_k obstructs), so the d_n
    predicate is used instead, recursing in the symplectic direction.
    """
    if m < 1 or n < 1:
        raise ValueError("osp(2m|2n) requires m, n >= 1")
    return _build_osp(m, n, False, ideal_reading)


# -- exceptional families ------------------------------------------------------


_EXCEPTIONAL = {
    "D21a": {
        "name": "D(2,1;a)",
        "symbols": ("e1", "e2", "e3"),
        "even": [("-2e1", (-2, 0, 0)), ("-2e2", (0, -2, 0)), ("-2e3", (0, 0, -2))],
        "odd": [
            ("(-e,-e,-e)", (-1, -1, -1)),
            ("(-e,-e,+e)", (-1, -1, 1)),
            ("(+e,-e,-e)", (1, -1, -1)),
        ],
        "grading": (1, 10, 1),
    },
    "G3": {
        "name": "G(3)",
        "symbols": ("w1", "w2", "e"),
        "even": [("-mu1", (0, 0, -2)), ("-alpha", (-2, 1, 0)), ("-beta", (3, -2, 0))],
        "odd": [
            ("(-w1+w2,-e)", (-1, 1, -1)),
            ("(2w1-w2,-e)", (2, -1, -1)),
            ("(0,-e)", (0, 0, -1)),
            ("(w1-w2,-e)", (1, -1, -1)),
            ("(-2w1+w2,-e)", (-2, 1, -1)),
            ("(-w1,-e)", (-1, 0, -1)),
        ],
        "grading": (10, 16, 50),
    },
    "F4": {
        "name": "F(4)",
        "symbols": ("w1", "w2", "w3", "e"),
        "even": [
            ("-mu1", (0, 0, 0, -2)),
            ("-nu1", (-2, 1, 0, 0)),
            ("-nu2", (1, -2, 2, 0)),
            ("-nu3", (0, 1, -2, 0)),
        ],
        "odd": [
            ("(w2-w3,-e)", (0, 1, -1, -1)),
            ("(w1-w2+w3,-e)", (1, -1, 1, -1)),
            ("(w1-w3,-e)", (1, 0, -1, -1)),
            ("(-w2+w3,-e)", (0, -1, 1, -1)),
            ("(-w1+w2-w3,-e)", (-1, 1, -1, -1)),
            ("(-w1+w3,-e)", (-1, 0, 1, -1)),
            ("(-w3,-e)", (0, 0, -1, -1)),
        ],
        "grading": (20, 30, 16, 50),
    },
}


def build_exceptional(name: str) -> NilpotentAlgebra:
    """Abelian nilpotent subalgebra of D(2,1;a), G(3) or F(4).

    Bases are formal (no matrix realization); weights come straight from the
    appendix tables.  All brackets vanish, so the scaling parameter of
    D(2,1;a) never enters.
    """
    if name not in _EXCEPTIONAL:
        raise ValueError(f"unknown exceptional family {name!r}; expected D21a, G3 or F4")
    data = _EXCEPTIONAL[name]
    basis: list[BasisVector] = []
    for label, coeffs in data["even"]:
        basis.append(BasisVector(len(basis), label, EVEN, coeffs))
    for label, coeffs in data["odd"]:
        basis.append(BasisVector(len(basis), label, ODD, coeffs))
    alg = NilpotentAlgebra(
        data["name"], "exc", (name,), data["symbols"], basis, {},
        data["grading"],
    )
    alg.verify()
    return alg


# -- derived subalgebra and quotients ------------------------------------------


def derived_subalgebra(alg: NilpotentAlgebra) -> dict:
    """Dimension of [n, n], in total and per (weight, parity) block.

    Returns {"dim": int, "blocks": {(weight_key, parity): dim}}, the blocks
    in ascending order and only those of positive dimension.
    """
    by_block: dict[tuple[tuple, Parity], list[linalg.SparseRow]] = {}
    for (i, j), terms in alg.table.items():
        w = tuple(map(add, alg.weights[i], alg.weights[j]))
        p = (alg.parities[i] + alg.parities[j]) % 2
        by_block.setdefault((w, p), []).append(terms)
    blocks: dict[tuple[tuple, Parity], int] = {}
    for key in sorted(by_block):
        r = linalg.rank(by_block[key])
        if r:
            blocks[key] = r
    return {"dim": sum(blocks.values()), "blocks": blocks}


def restrict_algebra(
    alg: NilpotentAlgebra, ids: list[int], name: str, family: str
) -> NilpotentAlgebra:
    """The basis vectors `ids` (ascending), renumbered from 0, with bracket
    components outside `ids` projected away; the result is re-verified.

    On an ideal I this is I as a subalgebra (nothing is projected away); on
    the complement of I it is the quotient n/I.
    """
    remap = {old: new for new, old in enumerate(ids)}
    basis = [
        BasisVector(remap[b.id], b.label, b.parity, b.weight, b.realization)
        for b in alg.basis
        if b.id in remap
    ]
    table: BracketTable = {}
    for (i, j), terms in alg.table.items():
        if i in remap and j in remap:
            reduced = {remap[t]: c for t, c in terms.items() if t in remap}
            if reduced:
                table[(remap[i], remap[j])] = reduced
    out = NilpotentAlgebra(name, family, alg.params, alg.symbols, basis, table, alg.grading)
    out.verify()
    return out


def quotient_algebra(alg: NilpotentAlgebra, ideal: Ideal) -> NilpotentAlgebra:
    """Quotient n/I on the complementary basis vectors.

    Brackets are the parent brackets with ideal components projected away;
    the result is re-verified (Jacobi holds because I is an ideal).
    """
    verify_ideal(alg, ideal)
    keep = [b.id for b in alg.basis if b.id not in ideal]
    return restrict_algebra(alg, keep, f"{alg.name}/I", alg.family + "_quotient")


# -- family registry -----------------------------------------------------------


def family_ideal(alg: NilpotentAlgebra, ideal_reading: str = "auto") -> Ideal | None:
    """The distinguished ideal of a family algebra, by the one rule every
    builder (and so `build_family`) uses; verified, and None for the
    exceptional algebras.  `ideal_reading` matters for osp only."""
    family, params = alg.family, alg.params
    if family in ("gl", "sl"):
        m, n = params
        return _weight_ideal(alg, [m - 1] if m > n else [m - 1, m + n - 1])
    if family == "q":
        return _weight_ideal(alg, [params[0] - 1])
    if family not in ("osp_odd", "osp_even"):
        return None
    m, n = params
    if ideal_reading == "auto":
        # e_m predicate: abelian ideal whenever m >= n.  For m < n it is not
        # even closed (x_{e_m - d_k} obstructs), so recurse on d_n instead;
        # that ideal is closed but picks up the long root -2d_n, hence is
        # not abelian.
        ideal_reading = "eps_only" if m >= n else "delta_only"
    if ideal_reading == "eps_only":
        return _weight_ideal(alg, [m - 1])
    if ideal_reading == "delta_only":
        return _weight_ideal(alg, [m + n - 1])
    if ideal_reading == "eps_or_delta":
        return _weight_ideal(alg, [m - 1, m + n - 1])
    raise ValueError(f"unknown ideal reading {ideal_reading!r}")


def build_family(family: str, params: tuple, ideal_reading: str = "auto"):
    """Uniform entry point: returns (algebra, ideal-or-None)."""
    if family == "gl":
        return build_gl(*params)
    if family == "sl":
        return build_sl(*params)
    if family == "q":
        return build_q(*params)
    if family == "osp_odd":
        return build_osp_odd(*params, ideal_reading=ideal_reading)
    if family == "osp_even":
        return build_osp_even(*params, ideal_reading=ideal_reading)
    if family == "exc":
        return build_exceptional(params[0]), None
    raise ValueError(f"unknown family {family!r}")
