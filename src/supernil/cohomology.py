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
weights, matching the appendix tables which list e.g. e_{i+1} - e_i.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
# not called here: perfbench/tracer.py rebinds `cohomology.Pool` on install
from multiprocessing import Pool  # noqa: F401

from . import linalg
from .koszul import BlockKey, CochainComplex, GModule, Row, normalize_word, trivial_module
from .realize import NilpotentAlgebra, derived_subalgebra, jacobi_failures
from .supercore import EVEN, ODD, Rational, Weight, exact

ROUTE_KOSZUL = "koszul"
ROUTE_QUOTIENT = "quotient_dual"
ROUTE_SUPERDER = "superderivation"
ROUTE_FIXED = "fixed_points"
ROUTE_SPECTRAL = "spectral_sum"


@dataclass
class CohomologyResult:
    algebra: str
    degree: int
    route: str
    coefficients: str
    blocks: dict[tuple, list[int]] = field(default_factory=dict)
    # blocks: weight sort key -> [even dim, odd dim]
    weight_of: dict[tuple, Weight] = field(default_factory=dict)
    family: str = ""
    params: tuple = ()

    def add(self, weight: Weight, parity: int, dim: int) -> None:
        if dim == 0:
            return
        key = weight.sort_key()
        self.blocks.setdefault(key, [0, 0])[parity] += dim
        self.weight_of.setdefault(key, weight)

    @property
    def total(self) -> int:
        return sum(e + o for e, o in self.blocks.values())

    def total_even(self) -> int:
        return sum(e for e, _ in self.blocks.values())

    def total_odd(self) -> int:
        return sum(o for _, o in self.blocks.values())

    def block_items(self) -> list[tuple[tuple, list[int]]]:
        return sorted(self.blocks.items())

    def to_json(self, symbols=None) -> dict:
        out = {
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
                    "even": eo[0],
                    "odd": eo[1],
                }
                for key, eo in self.block_items()
            ],
        }
        if symbols is not None:
            for row, (key, _) in zip(out["blocks"], self.block_items()):
                row["label"] = self.weight_of[key].describe(symbols)
        return out

    def dumps(self, symbols=None) -> str:
        return json.dumps(self.to_json(symbols), sort_keys=True, indent=2)


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
        if h:
            res.add(cx.weight(key), key[1], h)
    return res


def h0_fixed_points(alg: NilpotentAlgebra, module: GModule) -> CohomologyResult:
    """H^0 as the joint kernel of all action matrices, blocked by weight."""
    res = CohomologyResult(alg.name, 0, ROUTE_FIXED, module.name,
                           family=alg.family, params=alg.params)
    blocks: dict[BlockKey, list[int]] = {}
    weights: dict[BlockKey, Weight] = {}
    for c in range(module.dim):
        key = (module.weights[c].sort_key(), module.parities[c])
        blocks.setdefault(key, []).append(c)
        weights.setdefault(key, module.weights[c])
    for key in sorted(blocks):
        cols = blocks[key]
        cpos = {c: i for i, c in enumerate(cols)}
        rows: dict[tuple[int, int], linalg.SparseRow] = {}
        for i in range(alg.dim):
            for (r, c), v in module.action[i].items():
                if c in cpos:
                    rows.setdefault((i, r), {})[cpos[c]] = v
        h = len(cols) - linalg.rank(list(rows.values()))
        res.add(weights[key], key[1], h)
    return res


def h1_via_quotient(alg: NilpotentAlgebra) -> CohomologyResult:
    """H^1(n, C) as (n/[n,n])* with negated weights."""
    derived = derived_subalgebra(alg)
    res = CohomologyResult(alg.name, 1, ROUTE_QUOTIENT, "C",
                           family=alg.family, params=alg.params)
    blocks: dict[BlockKey, int] = {}
    weights: dict[BlockKey, Weight] = {}
    for b in alg.basis:
        key = (b.weight.sort_key(), b.parity)
        blocks[key] = blocks.get(key, 0) + 1
        weights.setdefault(key, b.weight)
    for key in sorted(blocks):
        h = blocks[key] - derived["blocks"].get(key, 0)
        if h:
            res.add(-weights[key], key[1], h)
    return res


def h1_via_superderivations(alg: NilpotentAlgebra, module: GModule) -> CohomologyResult:
    """H^1(n, M) = SupDer/InnSupDer, solved as a blocked linear system.

    A homogeneous phi of parity p satisfies, for all basis pairs,
    phi([x,y]) = (-1)^{|x| p} x.phi(y) - (-1)^{|y|(|x|+p)} y.phi(x); inner
    superderivations are spanned by x -> (-1)^{|x||a|} x.a for a in M.
    Block key: weight(phi(x)) - weight(x), parity |x| + |phi(x)|.
    """
    res = CohomologyResult(alg.name, 1, ROUTE_SUPERDER, module.name,
                           family=alg.family, params=alg.params)
    # unknown (i, w): coefficient of m_w in phi(x_i)
    unknowns: dict[BlockKey, list[tuple[int, int]]] = {}
    uw: dict[BlockKey, Weight] = {}
    for i in range(alg.dim):
        for w in range(module.dim):
            wt = module.weights[w] - alg.weights[i]
            key = (wt.sort_key(), (alg.parities[i] + module.parities[w]) % 2)
            unknowns.setdefault(key, []).append((i, w))
            uw.setdefault(key, wt)
    for key in sorted(unknowns):
        cols = unknowns[key]
        cpos = {u: a for a, u in enumerate(cols)}
        p = key[1]
        eqs: list[linalg.SparseRow] = []
        for i in range(alg.dim):
            pi = alg.parities[i]
            for j in range(i, alg.dim):
                pj = alg.parities[j]
                if i == j and pi == EVEN:
                    continue
                rows: dict[int, linalg.SparseRow] = {}

                def put(r, u, val):
                    if u in cpos and val:
                        linalg.add_to(rows.setdefault(r, {}), cpos[u], val)

                for t, c in alg.bracket(i, j).items():
                    for w in range(module.dim):
                        put(w, (t, w), c)
                s1 = -1 if (pi * p) % 2 else 1
                for (r, c), v in module.action[i].items():
                    put(r, (j, c), -s1 * v)
                s2 = -1 if (pj * (pi + p)) % 2 else 1
                for (r, c), v in module.action[j].items():
                    put(r, (i, c), s2 * v)
                eqs.extend(rows.values())
        sd = len(cols) - linalg.rank(eqs)
        inner_rows: list[linalg.SparseRow] = []
        for a in range(module.dim):
            vec: linalg.SparseRow = {}
            for i in range(alg.dim):
                sgn = -1 if (alg.parities[i] * module.parities[a]) % 2 else 1
                for (r, c), v in module.action[i].items():
                    if c == a and (i, r) in cpos:
                        linalg.add_to(vec, cpos[(i, r)], sgn * v)
            inner_rows.append(vec)
        inner = linalg.rank(inner_rows)
        h = sd - inner
        if h:
            res.add(uw[key], p, h)
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


def cocycle_defect(
    alg: NilpotentAlgebra,
    h: dict[tuple[int, int], Rational],
    complex_cache: CochainComplex | None = None,
) -> dict:
    """d^2 h as a sparse vector over the degree-3 cochains it reaches, each
    named by its (word, module index) row of d^2; C^3 is not enumerated.
    `complex_cache` is alg's trivial-coefficient complex, if already built."""
    cx = complex_cache if complex_cache is not None else CochainComplex(alg, trivial_module(alg))
    idx2 = cx.degree(2).word_index
    vec = {idx2[word]: exact(Fraction(val)) for word, val in h.items()}
    out: dict[Row, Rational] = {}
    for name, row in cx.differential(2).items():
        val = sum(v * vec[c] for c, v in row.items() if c in vec)
        if val:
            out[name] = val
    return out


def is_cocycle(
    alg: NilpotentAlgebra,
    h: dict[tuple[int, int], Rational],
    complex_cache: CochainComplex | None = None,
) -> bool:
    return not cocycle_defect(alg, h, complex_cache)


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
    cpos = {c: a for a, c in enumerate(even_cols)}
    rows = [
        {cpos[c]: v for c, v in row.items()}
        for row in cx.differential(2).values()
        if next(iter(row)) in cpos
    ]
    red, piv_cols = linalg.rref(rows)
    kernel = linalg.kernel_of_rref(red, piv_cols, len(even_cols))
    cocycles = [{words[even_cols[a]]: v for a, v in vec.items()} for vec in kernel]
    # pivot-column unit vectors span a complement of the kernel
    non_cocycles = [{words[even_cols[c]]: Fraction(1)} for c in piv_cols]
    return cocycles, non_cocycles


# -- Euler characteristic ----------------------------------------------------------


def euler_characteristic_check(alg: NilpotentAlgebra, weight: Weight) -> dict:
    """Per-weight Euler identity sum_k (-1)^k dim C^k = sum_k (-1)^k dim H^k.

    The grading functional bounds the degrees in which the weight can occur,
    so both sums are finite.  Trivial coefficients.
    """
    cx = CochainComplex(alg, trivial_module(alg))
    vals = [alg.grading_value(b.weight) for b in alg.basis]
    if not vals:
        return {"weight": weight.to_json(), "lhs": 1, "rhs": 1, "equal": True}
    vmax = max(vals)  # closest to zero, still negative
    target = alg.grading_value(weight)
    kmax = 0 if target == 0 else target // vmax + 1
    key_par = weight.sort_key()
    lhs = 0
    rhs = 0
    for k in range(0, kmax + 1):
        src = cx.degree(k)
        ck = sum(len(src.blocks.get((key_par, p), ())) for p in (EVEN, ODD))
        hk = 0
        if ck or k == 0:
            res = cohomology(alg, None, k, complex_cache=cx)
            hk = sum(res.blocks.get(key_par, ()))
        sign = -1 if k % 2 else 1
        lhs += sign * ck
        rhs += sign * hk
    return {"weight": weight.to_json(), "lhs": lhs, "rhs": rhs, "equal": lhs == rhs}
