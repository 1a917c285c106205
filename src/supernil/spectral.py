"""Hochschild-Serre E_2 pages, collapse verification, recursive H^2.

For an ideal I of n the E_2 page is E_2^{i,j} = H^i(n/I, H^j(I, C)).  When
I is abelian (every default ideal with m >= n is), H^j(I, C) is just
Lambda_s^j(I*) with the induced quotient action.  The d_n recursion ideals
used for osp(2m|2n) with m < n contain the long root -2d_n and are not
abelian; for those H^j(I, C) is computed honestly as a subquotient of the
Koszul complex of I, block by block from one kernel echelon of d^j and one
echelon of the image of d^{j-1} on the kernel's free coordinates.  The
representatives are the kernel vectors whose free column leads no image
row, and the quotient action on them is read off by reducing each image's
free coordinates (the ideal itself acts trivially on cohomology, which the
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

from . import linalg
from .cohomology import (
    ROUTE_SPECTRAL,
    CohomologyResult,
    cohomology,
    h0_fixed_points,
)
from .koszul import (
    CochainComplex,
    GModule,
    contragredient,
    dual_module,
    ideal_module,
    lambda_s_module,
    trivial_module,
    word_action,
)
from .linalg import Sparse, sparse_matmul
from .realize import (
    Ideal,
    NilpotentAlgebra,
    build_family,
    family_ideal,
    ideal_is_abelian,
    quotient_algebra,
    restrict_algebra,
    verify_ideal,
)
from .supercore import exact, parity_sum


def ideal_subalgebra(parent: NilpotentAlgebra, ideal: Ideal) -> NilpotentAlgebra:
    """The ideal as an algebra in its own right (brackets restricted)."""
    verify_ideal(parent, ideal)
    return restrict_algebra(parent, sorted(ideal), f"{parent.name}|I", parent.family + "_ideal")


class IdealComplex:
    """The Koszul complex of an ideal I, taken as an algebra in its own
    right, and the parent's Lie-derivative action on each of its degrees:
    on C^j(I) = Lambda_s^j(I)*, the `contragredient` of `word_action` on
    `ideal_module` over the words of `cx.degree(j)`.  The action commutes
    with d_I exactly (asserted by `hj_ideal_module`), which makes the
    Hochschild-Serre coefficient modules well defined.  Each action is built
    once, and each block of d_I kept by `cx.named_rows`, for the H^j(I, C)
    of every j."""

    def __init__(self, parent: NilpotentAlgebra, ideal: Ideal):
        self.parent = parent
        self.ideal = ideal
        self.sub = ideal_subalgebra(parent, ideal)
        self.cx = CochainComplex(self.sub, trivial_module(self.sub))
        self.adjoint = ideal_module(parent, ideal)
        self._actions: dict[int, list[Sparse]] = {}

    def action(self, j: int) -> list[Sparse]:
        """Per parent basis vector, its Lie-derivative action on C^j(I)."""
        if j not in self._actions:
            words = self.cx.degree(j).words
            word_par = [parity_sum(self.sub.parities[x] for x in w) for w in words]
            self._actions[j] = [
                contragredient(mat, self.parent.parities[pid], word_par)
                for pid, mat in enumerate(word_action(self.adjoint, words))
            ]
        return self._actions[j]


def hj_ideal_module(ic: IdealComplex, quotient: NilpotentAlgebra, j: int) -> GModule:
    """H^j(I, C) as a module over n/I, for a possibly non-abelian ideal I.

    Per (weight, parity) block of C^j(I), a cocycle is fixed by its
    coordinates on the free columns of d^j's echelon form, and the kernel
    vector of free column f is the one with 1 at f and 0 at every other
    free column.  The image of d^{j-1} is echelonized on those free
    coordinates, each row led by its last nonzero one; the classes are the
    kernel vectors whose free column leads no image row.  The parent acts
    through the coadjoint derivation action, which commutes with d_I: a
    class image must be a cocycle of one block (asserted), and its class
    coordinates are its free coordinates reduced by the image rows.  The
    ideal must act trivially on the subquotient (asserted) for the quotient
    action to be well defined.  j >= 1; H^0(I, C) is the trivial module.
    """
    deg = ic.cx.degree(j)
    lam = ic.action(j)
    _assert_commutes_with_d(ic, j, lam, ic.action(j + 1))
    # the complex keeps d^j's blocks from that check, and d^{j-1}'s from
    # H^{j-1}(I, C)
    named = ic.cx.named_rows

    classes: Sparse = {}  # class representatives as columns over C^j(I)
    class_of: dict[int, int] = {}  # free cochain of a class -> class index
    lead: dict[int, linalg.SparseRow] = {}  # free cochain -> the image row it leads
    parities = []
    weights = []
    for key in sorted(deg.blocks):
        d_out = list(named(j, key).values())
        # keyed by free cochain: a kernel vector's other entries are at earlier pivots
        kernel = {max(vec): vec for vec in linalg.nullspace(d_out, deg.blocks[key])}
        # the image of d^{j-1} is spanned by the columns of its block, each
        # entry at the cochain its row names, found by word among the block's
        # own; free cochain c is labelled -c, so each row leads at its last
        own = {deg.words[c]: c for c in deg.blocks[key]}  # trivial coefficients
        img: dict[int, linalg.SparseRow] = {}
        for (w, _), row in named(j - 1, key).items():
            r = own[w]
            if r in kernel:
                for c, x in row.items():
                    img.setdefault(c, {})[-r] = x
        for row in linalg.row_space_basis(list(img.values())):
            lead[-min(row)] = {-c: x for c, x in row.items()}
        for c, vec in kernel.items():
            if c not in lead:
                class_of[c] = len(parities)
                for p, x in vec.items():
                    classes[(p, len(parities))] = x
                parities.append(key[1])
                weights.append(key[0])

    members = ic.ideal
    action: dict[int, Sparse] = {b.id: {} for b in ic.parent.basis if b.id not in members}
    for pid, act in enumerate(lam):
        images: dict[int, linalg.SparseRow] = {}
        for (r, col), v in sparse_matmul(act, classes).items():
            images.setdefault(col, {})[r] = v
        for col in sorted(images):
            cells = images[col]
            tkeys = {deg.keys[r] for r in cells}
            if len(tkeys) > 1:
                raise AssertionError("coadjoint action crosses blocks")
            key = tkeys.pop()
            if key not in deg.blocks:
                raise AssertionError("action leaves computed blocks")
            if any(sum(x * cells.get(c, 0) for c, x in row.items())
                   for row in named(j, key).values()):
                raise AssertionError("action leaves the cohomology subquotient")
            coords = {c: v for c, v in cells.items() if c in class_of or c in lead}
            for c in [c for c in coords if c in lead]:
                x = coords[c]
                for c2, y in lead[c].items():
                    linalg.add_to(coords, c2, -x * y)
            if pid in members:
                # ideal members must act trivially on the subquotient
                if coords:
                    raise AssertionError("ideal does not act trivially on H^j(I)")
                continue
            for c in sorted(coords):
                action[pid][(class_of[c], col)] = exact(coords[c])

    mod = GModule(
        quotient, f"H^{j}(I)", tuple(parities), tuple(weights), list(action.values())
    )
    mod.verify()
    return mod


def _assert_commutes_with_d(
    ic: IdealComplex, j: int, lam: list[Sparse], lam_next: list[Sparse]
) -> None:
    """Exact check that d_I^j o lam = lam_next o d_I^j, for the Lie
    derivative `lam` on C^j(I) and `lam_next` on C^{j+1}(I), each numbering
    a cochain by its word's place in `degree`, as d_I^j's rows are here."""
    index = {w: r for r, w in enumerate(ic.cx.degree(j + 1).words)}
    d = {(index[w], c): v for key in ic.cx.degree(j).blocks
         for (w, _), row in ic.cx.named_rows(j, key).items() for c, v in row.items()}
    for pid, (act, act_next) in enumerate(zip(lam, lam_next, strict=True)):
        if sparse_matmul(d, act) != sparse_matmul(act_next, d):
            raise AssertionError(
                f"Lie derivative of x_{pid} does not commute with d_I"
            )


class E2Page:
    def __init__(self, algebra: str, abelian_ideal: bool,
                 terms: dict[tuple[int, int], CohomologyResult] | None = None,
                 ideal: Ideal | None = None, quotient: NilpotentAlgebra | None = None,
                 modules: dict[int, GModule] | None = None):
        self.algebra = algebra
        self.abelian_ideal = abelian_ideal
        self.terms = {} if terms is None else terms
        # what the terms were computed from: the ideal, n/I and the
        # coefficient module of each row j (Lambda_s^j(I*) when I is abelian)
        self.ideal = ideal
        self.quotient = quotient
        self.modules = {} if modules is None else modules

    def term_total(self, i: int, j: int) -> int:
        t = self.terms.get((i, j))
        return t.total if t else 0


def e2_page(
    alg: NilpotentAlgebra,
    ideal: Ideal,
    K: int,
) -> E2Page:
    """All E_2^{i,j} with i + j <= K for the Hochschild-Serre sequence."""
    verify_ideal(alg, ideal)
    quo = quotient_algebra(alg, ideal)
    abelian = ideal_is_abelian(alg, ideal)
    modules: dict[int, GModule] = {0: trivial_module(quo)}
    page = E2Page(alg.name, abelian, ideal=ideal, quotient=quo, modules=modules)
    if K > 0 and abelian:
        dm = dual_module(alg, ideal, quo)
        for j in range(1, K + 1):
            modules[j] = lambda_s_module(quo, dm, j)
    elif K > 0:
        ic = IdealComplex(alg, ideal)
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
    ideal: Ideal,
    K: int,
) -> CollapseReport:
    """Compare dim H^k(n, C) with sum_{i+j=k} dim E_2^{i,j}, k <= K."""
    page = e2_page(alg, ideal, K)
    cx = CochainComplex(alg, trivial_module(alg))
    rows = []
    directs = []
    all_match = True
    for k in range(K + 1):
        direct = cohomology(alg, None, k, complex_cache=cx)
        directs.append(direct)
        merged = CohomologyResult(alg.name, k, ROUTE_SPECTRAL, "C")
        for i in range(k + 1):
            merged.absorb(page.terms[(i, k - i)])
        match = merged.blocks == direct.blocks
        all_match = all_match and match
        rows.append(
            {
                "k": k,
                "direct_total": direct.total,
                "e2_total": merged.total,
                "terms": {f"{i},{k - i}": page.term_total(i, k - i) for i in range(k + 1)},
                "match_total": direct.total == merged.total,
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
        (_embed_key(b.weight, alg.symbols, symbols), b.parity)
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
    alg: NilpotentAlgebra | None = None,
    direct: CohomologyResult | None = None,
    page: E2Page | None = None,
) -> CohomologyResult:
    """H^2(n, C) by the collapse decomposition, recursing through n/I.

    Each step contributes H^0(n/I, Lambda_s^2(I*)) + H^1(n/I, I*); the
    recursion bottoms out in a direct Koszul computation.  The quotient is
    identified with the freshly rebuilt smaller algebra by comparing
    (weight, parity) multisets, never by index surgery; a mismatch is a
    hard error.  Each algebra of the chain is built once: a step builds
    the smaller algebra and recurses on it as `alg`.

    `alg` is the already built `build_family(family, params)` algebra,
    under any ideal reading; it is built here when None.  Either way the
    recursion ideal is the default ("auto") reading's, `family_ideal(alg)`.
    `direct` is alg's direct Koszul H^2(n, C), if already computed: when
    alg is itself a base case that direct computation is the result.
    `page` is an E_2 page of alg, if already built: when its ideal is the
    recursion ideal, the top step takes n/I, I*, Lambda_s^2(I*) and
    (K >= 2) H^1(n/I, I*) from it and computes only what it left out.
    """
    if alg is None:
        alg = build_family(family, params)[0]
    elif (alg.family, alg.params) != (family, tuple(params)):
        raise ValueError(f"{alg.name} is not the {family}{tuple(params)} algebra")
    out = CohomologyResult(alg.name, 2, ROUTE_SPECTRAL, "C", family=alg.family, params=alg.params)
    step = _recursion_step(family, params)
    if step is None:
        out.absorb(direct if direct is not None else cohomology(alg, None, 2))
        return out
    ideal = family_ideal(alg)
    if not ideal_is_abelian(alg, ideal):
        raise AssertionError(f"{alg.name}: recursion ideal is not abelian")
    if page is None or not (page.algebra == alg.name and page.ideal == ideal):
        # an empty page: every term below is computed here
        page = E2Page(alg.name, True, ideal=ideal, quotient=quotient_algebra(alg, ideal))
    modules, terms, quo = page.modules, page.terms, page.quotient
    smaller = build_family(family, step)[0]
    if sorted(quo.weight_multiset()) != _embedded_multiset(smaller, quo.symbols):
        raise AssertionError(
            f"{alg.name}: quotient does not match rebuilt {smaller.name}"
        )
    dm = modules[1] if 1 in modules else dual_module(alg, ideal, quo)
    lam2 = modules[2] if 2 in modules else lambda_s_module(quo, dm, 2)
    h0 = h0_fixed_points(quo, lam2)
    h1 = terms[(1, 1)] if (1, 1) in terms else cohomology(quo, dm, 1)
    rest = h2_recursive(family, step, smaller)
    out.absorb(h0)
    out.absorb(h1)
    out.absorb(rest, lambda key: _embed_key(key, smaller.symbols, alg.symbols))
    return out
