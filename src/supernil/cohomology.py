"""Cohomology H^k(n, M) = ker d^k / im d^{k-1} by exact blockwise ranks.

The Koszul route is authoritative: per (weight, parity) block of C^k,

    dim H^k = dim C^k - rank d^k - rank d^{k-1}

with every rank computed exactly by `linalg.rank` on the block's nonzero
sparse rows: integer elimination after each row's denominators are
cleared, with no dense matrix built.  The blocks stream: each block of
d^k and d^{k-1} is assembled alone, ranked and dropped before the next
(`CochainComplex.block_rank`), so d^k is never held whole, and the complex
keeps each rank for the next degree.  Every rank is taken in the calling
process, one block at a time.  Only C^{k-1} and C^k are enumerated; d^k is
assembled from its source side, so H^k never builds the basis of C^{k+1}.
Two independent degree-specific routes (dual of the abelianization for H^1
with trivial coefficients, and the superderivation quotient for H^1 with
any coefficients) plus the fixed-point route for H^0 serve as cross-checks;
any disagreement is a hard failure, never auto-resolved.

Weight convention for reported classes: a cochain on the monomial xi with
values in the module vector w sits in the block wt(w) - wt(xi), so with
trivial coefficients H^k classes carry the *negatives* of the monomial
weights, matching the appendix tables which list e.g. e_{i+1} - e_i.  Every
route names a block of its result by its weight alone, the plain tuple of
its exact coordinates, the same tuple from the complex's block keys to
the JSON labels.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable
from fractions import Fraction
from operator import sub

from . import linalg
from .koszul import BlockKey, CochainComplex, GModule, normalize_word, trivial_module
from .realize import NilpotentAlgebra, derived_subalgebra, jacobi_failures
from .supercore import EVEN, ODD, Rational, Weight, describe, exact

# A placeholder: nothing here starts a pool.  Only perfbench/tracer.py
# rebinds the name; ROADMAP item 1 deletes it with that rebinding.
Pool = None

ROUTE_KOSZUL = "koszul"
ROUTE_QUOTIENT = "quotient_dual"
ROUTE_SUPERDER = "superderivation"
ROUTE_FIXED = "fixed_points"
ROUTE_SPECTRAL = "spectral_sum"


class CohomologyResult:
    """H^k block by block.  `blocks` maps each block's weight key, the tuple
    of its weight coordinates, to [even dim, odd dim]; the key is the
    block's only name."""

    def __init__(self, algebra: str, degree: int, route: str, coefficients: str,
                 blocks: dict[tuple, list[int]] | None = None, family: str = "",
                 params: tuple = ()):
        self.algebra = algebra
        self.degree = degree
        self.route = route
        self.coefficients = coefficients
        self.blocks = {} if blocks is None else blocks
        self.family = family
        self.params = params

    def add(self, key: tuple, parity: int, dim: int) -> None:
        if dim:
            self.blocks.setdefault(key, [0, 0])[parity] += dim

    def absorb(
        self, other: CohomologyResult, embed: Callable[[tuple], tuple] | None = None
    ) -> None:
        """Add other's dimensions, block by block; `embed` maps one of
        other's block keys to its key here (default: the same key)."""
        for key, eo in other.blocks.items():
            here = key if embed is None else embed(key)
            for parity in (0, 1):
                self.add(here, parity, eo[parity])

    @property
    def total(self) -> int:
        return sum(e + o for e, o in self.blocks.values())

    def total_even(self) -> int:
        return sum(e for e, _ in self.blocks.values())

    def total_odd(self) -> int:
        return sum(o for _, o in self.blocks.values())

    def block_items(self) -> list[tuple[tuple, list[int]]]:
        return sorted(self.blocks.items())

    def to_json(self, symbols) -> dict:
        """The result as JSON, each block labelled over the weight `symbols`."""
        return {
            "algebra": self.algebra,
            "family": self.family,
            "params": list(self.params),
            "degree": self.degree,
            "route": self.route,
            "coefficients": self.coefficients,
            "total": self.total,
            "blocks": [
                {
                    "weight": [str(c) for c in key],
                    "label": describe(key, symbols),
                    "even": eo[0],
                    "odd": eo[1],
                }
                for key, eo in self.block_items()
            ],
        }


def cohomology(
    alg: NilpotentAlgebra,
    module: GModule | None,
    k: int,
    complex_cache: CochainComplex | None = None,
) -> CohomologyResult:
    """H^k(n, M) with full (weight, parity) decomposition, Koszul route."""
    if module is None:
        module = trivial_module(alg)
    cx = complex_cache if complex_cache is not None else CochainComplex(alg, module)
    src = cx.degree(k)
    res = CohomologyResult(alg.name, k, ROUTE_KOSZUL, module.name,
                           family=alg.family, params=alg.params)
    # blocks in the order `degree` met them: every consumer of the result
    # is order-free
    for key, cols in src.blocks.items():
        h = len(cols) - cx.block_rank(k, key)
        if k > 0:
            h -= cx.block_rank(k - 1, key)
        if h < 0:
            raise AssertionError(f"negative block dimension at {key}")
        res.add(*key, h)
    return res


def h0_fixed_points(alg: NilpotentAlgebra, module: GModule) -> CohomologyResult:
    """H^0 as the joint kernel of all action matrices, blocked by weight:
    one pass files each action entry under the block of its column."""
    res = CohomologyResult(alg.name, 0, ROUTE_FIXED, module.name,
                           family=alg.family, params=alg.params)
    keys = list(zip(module.weights, module.parities))
    width = Counter(keys)
    rows: dict[BlockKey, dict[tuple[int, int], linalg.SparseRow]] = {key: {} for key in width}
    for i in range(alg.dim):
        for (r, c), v in module.action[i].items():
            rows[keys[c]].setdefault((i, r), {})[c] = v
    for key in sorted(width):
        res.add(*key, width[key] - linalg.rank(list(rows[key].values())))
    return res


def h1_via_quotient(alg: NilpotentAlgebra) -> CohomologyResult:
    """H^1(n, C) as (n/[n,n])* with negated weights."""
    derived = derived_subalgebra(alg)
    res = CohomologyResult(alg.name, 1, ROUTE_QUOTIENT, "C",
                           family=alg.family, params=alg.params)
    width = Counter(zip(alg.weights, alg.parities))
    for (wt, p), n in sorted(width.items()):
        res.add(tuple(-c for c in wt), p, n - derived["blocks"].get((wt, p), 0))
    return res


def h1_via_superderivations(alg: NilpotentAlgebra, module: GModule) -> CohomologyResult:
    """H^1(n, M) = SupDer/InnSupDer, solved as a blocked linear system.

    A homogeneous phi of parity p satisfies, for all basis pairs,
    phi([x,y]) = (-1)^{|x| p} x.phi(y) - (-1)^{|y|(|x|+p)} y.phi(x); inner
    superderivations are spanned by x -> (-1)^{|x||a|} x.a for a in M.
    The unknown u = (i, w), the coefficient of m_w in phi(x_i), has block
    key (wt(m_w) - wt(x_i), |x_i| + |m_w| = p).  All unknowns of the
    equation (x_i, x_j, m_r), or of the inner superderivation of m_a, share
    one weight and parity, so one pass files every entry under its
    unknown's block, with that block's p in the signs.
    """
    res = CohomologyResult(alg.name, 1, ROUTE_SUPERDER, module.name,
                           family=alg.family, params=alg.params)
    dim_m = module.dim
    keys = [  # keys[i * dim M + w]: the block of the unknown (i, w)
        (tuple(map(sub, mw, aw)), (pi + pw) % 2)
        for aw, pi in zip(alg.weights, alg.parities)
        for mw, pw in zip(module.weights, module.parities)
    ]
    width = Counter(keys)
    eqs: dict[BlockKey, dict[tuple, linalg.SparseRow]] = {key: {} for key in width}
    inner: dict[BlockKey, dict[int, linalg.SparseRow]] = {key: {} for key in width}

    def put(rows, name, u, val):
        if val:
            linalg.add_to(rows[keys[u]].setdefault(name, {}), u, val)

    for i in range(alg.dim):
        pi = alg.parities[i]
        for (r, c), v in module.action[i].items():  # (-1)^{|x_i||m_c|} x_i.m_c
            put(inner, c, i * dim_m + r, (-1) ** (pi * module.parities[c]) * v)
        for j in range(i, alg.dim):
            pj = alg.parities[j]
            if i == j and pi == EVEN:
                continue
            for t, c in alg.bracket(i, j).items():
                for w in range(dim_m):
                    put(eqs, (i, j, w), t * dim_m + w, c)
            for (r, c), v in module.action[i].items():  # -(-1)^{|x_i| p} x_i.phi(x_j)
                u = j * dim_m + c
                put(eqs, (i, j, r), u, -(-1) ** (pi * keys[u][1]) * v)
            for (r, c), v in module.action[j].items():  # (-1)^{|x_j|(|x_i|+p)} x_j.phi(x_i)
                u = i * dim_m + c
                put(eqs, (i, j, r), u, (-1) ** (pj * (pi + keys[u][1])) * v)
    for key in sorted(width):
        sd = width[key] - linalg.rank(list(eqs[key].values()))
        res.add(*key, sd - linalg.rank(list(inner[key].values())))
    return res


# -- central extensions -----------------------------------------------------------


class CentralExtension:
    """n (+) C with bracket [(x,s),(y,t)] = ([x,y], h(x,y)).

    h is an even 2-cochain given by its coefficients on the canonical
    degree-2 monomial basis; the extension satisfies the super Jacobi
    identity iff h is a cocycle.
    """

    def __init__(self, alg: NilpotentAlgebra, h: dict[tuple[int, int], Rational]):
        self.alg = alg
        for (i, j), val in h.items():
            if val and (alg.parities[i] + alg.parities[j]) % 2 != EVEN:
                raise ValueError("extension cochain must be even")
        self.h = {k: exact(Fraction(v)) for k, v in h.items() if v}

    def pair(self, i: int, j: int) -> Rational:
        s, canon = normalize_word(self.alg.parities, (i, j))
        if not s:
            return 0
        return s * self.h.get(canon, 0)

    def bracket(self, i: int, j: int) -> dict[int, Rational]:
        """[x_i, x_j] = ([x_i, x_j], h(x_i, x_j)), the center being basis
        vector alg.dim, which brackets to zero with everything."""
        dim = self.alg.dim
        if i == dim or j == dim:
            return {}
        out = dict(self.alg.bracket(i, j))
        z = self.pair(i, j)
        if z:
            out[dim] = z
        return out

    def jacobi_failures(self) -> list[tuple[int, int, int]]:
        """All basis triples of n violating the super Jacobi identity."""
        return jacobi_failures(self.alg.parities, self.bracket)


def central_extension(alg: NilpotentAlgebra, h: dict[tuple[int, int], Rational]) -> CentralExtension:
    return CentralExtension(alg, h)


def is_cocycle(
    alg: NilpotentAlgebra,
    h: dict[tuple[int, int], Rational],
    complex_cache: CochainComplex | None = None,
) -> bool:
    """Whether d^2 h = 0, read row by row off d^2 up to the first nonzero
    value; C^3 is not enumerated.  `complex_cache` is alg's
    trivial-coefficient complex, if already built."""
    cx = complex_cache if complex_cache is not None else CochainComplex(alg, trivial_module(alg))
    idx2 = cx.degree(2).word_index
    vec = {idx2[word]: exact(Fraction(val)) for word, val in h.items()}
    return not any(sum(v * vec[c] for c, v in row.items() if c in vec)
                   for row in cx.differential(2).values())


def cocycle_space(alg: NilpotentAlgebra, complex_cache: CochainComplex | None = None):
    """Bases of (even 2-cocycles, even non-cocycle complement) as cochains.
    `complex_cache` is alg's trivial-coefficient complex, if already built."""
    cx = complex_cache if complex_cache is not None else CochainComplex(alg, trivial_module(alg))
    words = cx.degree(2).words
    even_cols = [
        i
        for i, w in enumerate(words)
        if (alg.parities[w[0]] + alg.parities[w[1]]) % 2 == EVEN
    ]
    # the rows of d^2 on the even columns; d^2 keeps parity, so a row's
    # columns are all even or all odd
    even_set = set(even_cols)
    rows = [row for row in cx.differential(2).values() if next(iter(row)) in even_set]
    red, piv_cols = linalg.rref(rows)
    kernel = linalg.kernel_of_rref(red, piv_cols, even_cols)
    cocycles = [{words[c]: v for c, v in vec.items()} for vec in kernel]
    # pivot-column unit vectors span a complement of the kernel
    non_cocycles = [{words[c]: Fraction(1)} for c in piv_cols]
    return cocycles, non_cocycles


# -- Euler characteristic ----------------------------------------------------------


def euler_characteristic_check(alg: NilpotentAlgebra, weight: Weight) -> dict:
    """Per-weight Euler identity sum_k (-1)^k dim C^k = sum_k (-1)^k dim H^k.

    `weight` is in the convention `cohomology` reports: a cochain on the
    word w_1 .. w_k has weight -(wt(w_1) + .. + wt(w_k)).  The grading
    functional bounds the degrees in which the weight can occur, so both
    sums are finite.  Trivial coefficients.
    """
    cx = CochainComplex(alg, trivial_module(alg))
    vals = [alg.grading_value(b.weight) for b in alg.basis]
    if not vals:
        return {"weight": [str(c) for c in weight], "lhs": 1, "rhs": 1, "equal": True}
    vmax = max(vals)  # closest to zero, still negative
    target = alg.grading_value(weight)
    kmax = -target // vmax  # each letter adds at least -vmax > 0
    lhs = 0
    rhs = 0
    for k in range(0, kmax + 1):
        src = cx.degree(k)
        ck = sum(len(src.blocks.get((weight, p), ())) for p in (EVEN, ODD))
        hk = 0
        if ck or k == 0:
            res = cohomology(alg, None, k, complex_cache=cx)
            hk = sum(res.blocks.get(weight, ()))
        sign = -1 if k % 2 else 1
        lhs += sign * ck
        rhs += sign * hk
    return {"weight": [str(c) for c in weight], "lhs": lhs, "rhs": rhs, "equal": lhs == rhs}
