"""Hochschild-Serre E_2 pages, collapse verification, recursive H^2.

For an ideal I of n the E_2 page is E_2^{i,j} = H^i(n/I, H^j(I, C)).  When
I is abelian (every default ideal with m >= n is), H^j(I, C) is just
Lambda_s^j(I*) with the induced quotient action.  The d_n recursion ideals
used for osp(2m|2n) with m < n contain the long root -2d_n and are not
abelian; for those H^j(I, C) is computed honestly as a subquotient of the
Koszul complex of I, with the quotient action transported to chosen
representatives (the ideal itself acts trivially on cohomology, which the
construction asserts).

Collapse is verified, never assumed: both sides of

    dim H^k(n, C) = sum_{i+j=k} dim E_2^{i,j}

are computed through independent code paths, per weight and in total.
`collapse_check` hands its direct H^k(n, C), their complex and its E_2
page back to the caller, so `supernil spectral --recursive` computes the
direct H^2 once, shared with collapse row k = 2, and gives `h2_recursive`
the top algebra it already built (a base case's recursive H^2 is that
direct result) and, for an abelian recursion ideal, the page's n/I, I*,
Lambda_s^2(I*) and, when K >= 2, H^1(n/I, I*).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from . import linalg
from .cohomology import (
    ROUTE_SPECTRAL,
    CohomologyResult,
    cohomology,
    h0_fixed_points,
)
from .koszul import (
    BlockKey,
    CochainComplex,
    DegreeData,
    GModule,
    dual_module,
    lambda_s_module,
    normalize_word,
    trivial_module,
)
from .linalg import Sparse, add_to, sparse_matmul
from .realize import (
    IdealDesignation,
    NilpotentAlgebra,
    build_family,
    family_ideal,
    ideal_is_abelian,
    quotient_algebra,
    restrict_algebra,
    verify_ideal,
)
from .supercore import Weight, exact


def ideal_subalgebra(parent: NilpotentAlgebra, ideal: IdealDesignation) -> NilpotentAlgebra:
    """The ideal as an algebra in its own right (brackets restricted)."""
    verify_ideal(parent, ideal)
    return restrict_algebra(
        parent, ideal.sorted_ids(), f"{parent.name}|I", parent.family + "_ideal"
    )


def _cochain_action(
    parent: NilpotentAlgebra,
    ideal: IdealDesignation,
    words,
    parities,
    dual_sign: int = -1,
) -> list[Sparse]:
    """Lie-derivative action of parent basis vectors on C^j(I, C).

    Defined on the evaluation side, matching the differential's
    conventions: (x.f)(w_0 ^ .. ^ w_{j-1}) =
    dual_sign * sum_t (-1)^{|x|(|f| + |w_0|+..+|w_{t-1}|)} f(.. [x, w_t] ..).
    Returns per parent id the sparse matrix of the action on the word index.

    This action commutes with d_I exactly (asserted by the caller), which
    is what makes the Hochschild-Serre coefficient modules well defined.
    """
    members = ideal.sorted_ids()
    local = {mid: a for a, mid in enumerate(members)}
    index = {w: i for i, w in enumerate(words)}
    out = []
    for pid in range(parent.dim):
        px = parent.parities[pid]
        act: Sparse = {}
        for ridx, w in enumerate(words):
            pre = 0
            for t, x in enumerate(w):
                for u, c in parent.bracket(pid, members[x]).items():
                    s, canon = normalize_word(
                        parities, w[:t] + (local[u],) + w[t + 1 :]
                    )
                    if not s:
                        continue
                    f_par = sum(parities[y] for y in canon) % 2
                    sgn = dual_sign * (-1 if (px and (f_par + pre) % 2) else 1) * s
                    add_to(act, (ridx, index[canon]), sgn * c)
                pre ^= parities[x]
        out.append(act)
    return out


class IdealComplex:
    """The Koszul complex of an ideal I, taken as an algebra in its own
    right, and the parent's Lie-derivative action on each of its degrees;
    each is built once and shared by the H^j(I, C) of every j."""

    def __init__(self, parent: NilpotentAlgebra, ideal: IdealDesignation, dual_sign: int = -1):
        self.parent = parent
        self.ideal = ideal
        self.dual_sign = dual_sign
        self.sub = ideal_subalgebra(parent, ideal)
        self.cx = CochainComplex(self.sub, trivial_module(self.sub))
        self._actions: dict[int, list[Sparse]] = {}

    def action(self, j: int) -> list[Sparse]:
        """Per parent basis vector, its Lie-derivative action on C^j(I)."""
        if j not in self._actions:
            self._actions[j] = _cochain_action(
                self.parent, self.ideal, self.cx.degree(j).words, self.sub.parities,
                self.dual_sign,
            )
        return self._actions[j]


# per block of C^j(I): (position of each cochain in the block, index of the
# block's first class, number of image basis vectors, the transposed system
# whose columns are the image basis followed by the class representatives)
_Block = tuple[dict[int, int], int, int, list[linalg.SparseRow]]


def hj_ideal_module(ic: IdealComplex, quotient: NilpotentAlgebra, j: int) -> GModule:
    """H^j(I, C) as a module over n/I, for a possibly non-abelian ideal I.

    Representatives are chosen per (weight, parity) block of the Koszul
    complex of I; the parent acts through the coadjoint derivation action,
    which commutes with d_I, and the ideal must act trivially on the
    subquotient (asserted) for the quotient action to be well defined.
    j >= 1; H^0(I, C) is the trivial module.
    """
    cx = ic.cx
    deg = cx.degree(j)
    lam = ic.action(j)
    _assert_commutes_with_d(cx, j, lam, ic.action(j + 1))

    blocks: dict[BlockKey, _Block] = {}
    classes: Sparse = {}  # class representatives as columns over C^j(I)
    parities = []
    weights = []
    for key in sorted(deg.blocks):
        cols = deg.blocks[key]
        cpos = {c: i for i, c in enumerate(cols)}
        d_out = [{cpos[c]: x for c, x in row.items()} for row in cx.block_matrix(j, key)]
        kernel = linalg.nullspace(d_out, len(cols))
        # the image of d^{j-1} is the row space of its block's transpose,
        # each row put at its cochain's position in the block (trivial
        # coefficients: a cochain's index is its word's)
        d_in: dict[int, linalg.SparseRow] = {}
        for (w, _), row in cx.block_rows(j - 1, key).items():
            r = cpos[deg.word_index[w]]
            for c, x in row.items():
                d_in.setdefault(c, {})[r] = x
        img_basis = linalg.row_space_basis(list(d_in.values()))
        # representatives: kernel vectors independent modulo the image
        reps = []
        stack = list(img_basis)
        for vec in kernel:
            test = stack + [vec]
            if linalg.rank(test) > len(stack):
                stack = test
                reps.append(vec)
        system: list[linalg.SparseRow] = [{} for _ in cols]
        for b, vec in enumerate(stack):
            for c, x in vec.items():
                system[c][b] = x
        blocks[key] = (cpos, len(parities), len(img_basis), system)
        for vec in reps:
            for c, x in vec.items():
                classes[(cols[c], len(parities))] = x
            parities.append(key[1])
            weights.append(cx.weight(key))

    members = ic.ideal.member_ids
    keep = [b.id for b in ic.parent.basis if b.id not in members]
    action: dict[int, Sparse] = {pid: {} for pid in keep}
    for pid, col, first, coeffs in _act_on_classes(lam, classes, deg, blocks):
        if pid in members:
            # ideal members must act trivially on the subquotient
            if coeffs:
                raise AssertionError("ideal does not act trivially on H^j(I)")
            continue
        for b, cval in coeffs.items():
            action[pid][(first + b, col)] = cval

    mod = GModule(
        quotient, f"H^{j}(I)", tuple(parities), tuple(weights), list(action.values())
    )
    mod.verify()
    return mod


def _act_on_classes(
    lam: list[Sparse], classes: Sparse, deg: DegreeData, blocks: dict[BlockKey, _Block]
) -> list[tuple[int, int, int, linalg.SparseRow]]:
    """Apply every parent vector's action lam[pid] to every class and
    express each nonzero image in the classes of its block, modulo the
    image of d.  All images landing in one block are solved against one
    elimination of its system.

    Returns (parent id, class index, index of the target block's first
    class, sparse coefficients on the target block's classes) per nonzero
    image, ordered by parent id and class.
    """
    targets: dict[BlockKey, list[tuple[int, int, linalg.SparseRow]]] = {}
    for pid, act in enumerate(lam):
        images: dict[int, linalg.SparseRow] = {}
        for (r, col), v in sparse_matmul(act, classes).items():
            images.setdefault(col, {})[r] = v
        for col, cells in images.items():
            # the image must stay in one block
            tkeys = {deg.keys[r] for r in cells}
            if len(tkeys) > 1:
                raise AssertionError("coadjoint action crosses blocks")
            key = tkeys.pop()
            if key not in blocks:
                raise AssertionError("action leaves computed blocks")
            cpos = blocks[key][0]
            targets.setdefault(key, []).append((pid, col, {cpos[r]: v for r, v in cells.items()}))
    out = []
    for key, items in targets.items():
        _, first, n_img, system = blocks[key]
        sols = linalg.solve_all(system, [rhs for _, _, rhs in items])
        for (pid, col, _), sol in zip(items, sols):
            if sol is None:
                raise AssertionError("action leaves the cohomology subquotient")
            out.append((pid, col, first,
                        {b - n_img: exact(v) for b, v in sol.items() if b >= n_img}))
    return sorted(out, key=lambda t: t[:2])


def _assert_commutes_with_d(
    cx: CochainComplex, j: int, lam: list[Sparse], lam_next: list[Sparse]
) -> None:
    """Exact check that d_I^j o lam = lam_next o d_I^j, for the Lie
    derivative `lam` on C^j(I) and `lam_next` on C^{j+1}(I)."""
    d = cx.indexed_differential(j)
    for pid, (act, act_next) in enumerate(zip(lam, lam_next, strict=True)):
        if sparse_matmul(d, act) != sparse_matmul(act_next, d):
            raise AssertionError(
                f"Lie derivative of x_{pid} does not commute with d_I"
            )


@dataclass
class E2Page:
    algebra: str
    K: int
    abelian_ideal: bool
    terms: dict[tuple[int, int], CohomologyResult] = field(default_factory=dict)
    # what the terms were computed from: the ideal, the dual sign, n/I and
    # the coefficient module of each row j (Lambda_s^j(I*) when I is abelian)
    ideal: IdealDesignation | None = None
    dual_sign: int = -1
    quotient: NilpotentAlgebra | None = None
    modules: dict[int, GModule] = field(default_factory=dict)

    def term_total(self, i: int, j: int) -> int:
        t = self.terms.get((i, j))
        return t.total if t else 0

    def to_json(self) -> dict:
        return {
            "algebra": self.algebra,
            "K": self.K,
            "abelian_ideal": self.abelian_ideal,
            "terms": {
                f"{i},{j}": res.to_json() for (i, j), res in sorted(self.terms.items())
            },
        }


def e2_page(
    alg: NilpotentAlgebra,
    ideal: IdealDesignation,
    K: int,
    dual_sign: int = -1,
) -> E2Page:
    """All E_2^{i,j} with i + j <= K for the Hochschild-Serre sequence."""
    verify_ideal(alg, ideal)
    quo = quotient_algebra(alg, ideal)
    abelian = ideal_is_abelian(alg, ideal)
    modules: dict[int, GModule] = {0: trivial_module(quo)}
    page = E2Page(alg.name, K, abelian, ideal=ideal, dual_sign=dual_sign, quotient=quo,
                  modules=modules)
    if K > 0 and abelian:
        dm = dual_module(alg, ideal, quo, dual_sign)
        for j in range(1, K + 1):
            modules[j] = lambda_s_module(quo, dm, j)
    elif K > 0:
        ic = IdealComplex(alg, ideal, dual_sign)
        for j in range(1, K + 1):
            modules[j] = hj_ideal_module(ic, quo, j)
    for j in range(K + 1):
        cx = CochainComplex(quo, modules[j])
        for i in range(K + 1 - j):
            page.terms[(i, j)] = cohomology(quo, modules[j], i, complex_cache=cx)
    return page


class CollapseReport(dict):
    """`collapse_check`'s JSON report.  It also carries the direct results
    H^k(n, C), k <= K, as `direct`, the trivial-coefficient complex of n
    they were computed on as `complex` and the E_2 page as `page`, so a
    caller that needs H^2 too computes row k = 2 once, or on the same
    complex when K < 2, and `h2_recursive` reuses the page's n/I, I*,
    Lambda_s^2(I*) and H^1(n/I, I*)."""

    def __init__(self, report: dict, direct: list[CohomologyResult], cx: CochainComplex,
                 page: E2Page):
        super().__init__(report)
        self.direct = direct
        self.complex = cx
        self.page = page


def collapse_check(
    alg: NilpotentAlgebra,
    ideal: IdealDesignation,
    K: int,
    dual_sign: int = -1,
) -> CollapseReport:
    """Compare dim H^k(n, C) with sum_{i+j=k} dim E_2^{i,j}, k <= K."""
    page = e2_page(alg, ideal, K, dual_sign)
    cx = CochainComplex(alg, trivial_module(alg))
    rows = []
    directs = []
    all_match = True
    for k in range(K + 1):
        direct = cohomology(alg, None, k, complex_cache=cx)
        directs.append(direct)
        merged: dict[tuple, list[int]] = {}
        for i in range(k + 1):
            term = page.terms[(i, k - i)]
            for key, eo in term.blocks.items():
                slot = merged.setdefault(key, [0, 0])
                slot[0] += eo[0]
                slot[1] += eo[1]
        merged = {k2: v for k2, v in merged.items() if v != [0, 0]}
        match = merged == direct.blocks
        all_match = all_match and match
        rows.append(
            {
                "k": k,
                "direct_total": direct.total,
                "e2_total": sum(e + o for e, o in merged.values()),
                "terms": {f"{i},{k - i}": page.term_total(i, k - i) for i in range(k + 1)},
                "match_total": direct.total == sum(e + o for e, o in merged.values()),
                "match_blocks": match,
            }
        )
    return CollapseReport(
        {
            "algebra": alg.name,
            "K": K,
            "abelian_ideal": page.abelian_ideal,
            "rows": rows,
            "all_match": all_match,
        },
        directs,
        cx,
        page,
    )


# -- recursive H^2 ----------------------------------------------------------------


def _embed_key(key: tuple, src_symbols, dst_symbols) -> tuple:
    idx = [dst_symbols.index(s) for s in src_symbols]
    out = [0] * len(dst_symbols)
    for c, t in zip(key, idx):
        out[t] = c
    return tuple(out)


def _embedded_multiset(alg: NilpotentAlgebra, symbols) -> list:
    return sorted(
        (_embed_key(b.weight.sort_key(), alg.symbols, symbols), b.parity)
        for b in alg.basis
    )


def _recursion_step(family: str, params: tuple) -> tuple | None:
    """Smaller parameters after quotienting, or None at a base case."""
    if family == "q":
        (n,) = params
        return None if n == 2 else (n - 1,)
    m, n = params
    if family in ("gl", "sl"):
        if (m, n) in ((1, 1), (2, 2)):
            return None
        return (m - 1, n) if m > n else (m - 1, n - 1)
    if family == "osp_even":
        if m == 1 or m < n:
            return None
        return (m - 1, n)
    if family == "osp_odd":
        if m == n:
            return None
        return (m - 1, n)
    raise ValueError(f"no recursion for family {family!r}")


def h2_recursive(
    family: str,
    params: tuple,
    dual_sign: int = -1,
    alg: NilpotentAlgebra | None = None,
    direct: CohomologyResult | None = None,
    page: E2Page | None = None,
) -> CohomologyResult:
    """H^2(n, C) by the collapse decomposition, recursing through n/I.

    Each step contributes H^0(n/I, Lambda_s^2(I*)) + H^1(n/I, I*); the
    recursion bottoms out in a direct Koszul computation.  The quotient is
    identified with the freshly rebuilt smaller algebra by comparing
    (weight, parity) multisets, never by index surgery; a mismatch is a
    hard error.

    `alg` is the already built `build_family(family, params)` algebra,
    under any ideal reading; it is built here when None.  Either way the
    recursion ideal is the default ("auto") reading's, `family_ideal(alg)`.
    `direct` is alg's direct Koszul H^2(n, C), if already computed: when
    alg is itself a base case that direct computation is the result.
    `page` is an E_2 page of alg, if already built: when its ideal is
    abelian with the recursion ideal's members and its dual sign is
    `dual_sign`, the top step takes n/I, I*, Lambda_s^2(I*) and (K >= 2)
    H^1(n/I, I*) from it and computes only what it left out.
    """
    if alg is None:
        alg, ideal = build_family(family, params)
    elif (alg.family, alg.params) != (family, tuple(params)):
        raise ValueError(f"{alg.name} is not the {family}{tuple(params)} algebra")
    else:
        ideal = family_ideal(alg)
    if page is not None and not (
        page.algebra == alg.name
        and page.abelian_ideal
        and page.ideal.member_ids == ideal.member_ids
        and page.dual_sign == dual_sign
    ):
        page = None
    return _h2_recursive(alg, ideal, family, params, dual_sign, direct, page)


def _h2_recursive(
    alg: NilpotentAlgebra,
    ideal: IdealDesignation | None,
    family: str,
    params: tuple,
    dual_sign: int,
    direct: CohomologyResult | None = None,
    page: E2Page | None = None,
) -> CohomologyResult:
    """`h2_recursive` on the already built `build_family(family, params)`;
    each algebra of the chain is built once, as the previous level's
    `smaller`, and the top one's quotient, modules and H^1(n/I, I*) come
    from `page` where it has them."""
    out = CohomologyResult(alg.name, 2, ROUTE_SPECTRAL, "C", family=alg.family, params=alg.params)
    step = _recursion_step(family, params)
    if step is None:
        res = direct if direct is not None else cohomology(alg, None, 2)
        out.blocks = dict(res.blocks)
        out.weight_of = dict(res.weight_of)
        return out
    if not ideal_is_abelian(alg, ideal):
        raise AssertionError(f"{alg.name}: recursion ideal is not abelian")
    modules = page.modules if page is not None else {}
    terms = page.terms if page is not None else {}
    quo = page.quotient if page is not None else quotient_algebra(alg, ideal)
    smaller, smaller_ideal = build_family(family, step)
    if sorted(quo.weight_multiset()) != _embedded_multiset(smaller, quo.symbols):
        raise AssertionError(
            f"{alg.name}: quotient does not match rebuilt {smaller.name}"
        )
    dm = modules[1] if 1 in modules else dual_module(alg, ideal, quo, dual_sign)
    lam2 = modules[2] if 2 in modules else lambda_s_module(quo, dm, 2)
    h0 = h0_fixed_points(quo, lam2)
    h1 = terms[(1, 1)] if (1, 1) in terms else cohomology(quo, dm, 1)
    rest = _h2_recursive(smaller, smaller_ideal, family, step, dual_sign)
    for part in (h0, h1):
        for key, eo in part.blocks.items():
            for parity in (0, 1):
                out.add(part.weight_of[key], parity, eo[parity])
    for key, eo in rest.blocks.items():
        w = Weight(alg.wtag, _embed_key(key, smaller.symbols, alg.symbols))
        for parity in (0, 1):
            out.add(w, parity, eo[parity])
    return out
