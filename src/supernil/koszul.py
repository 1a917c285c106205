"""Super-Koszul cochain complexes with exact, weight-blocked differentials.

The cochain space in degree k is C^k = Hom(Lambda_s^k(n), M), identified
with Lambda_s^k(n)* (x) M on the monomial basis.  A degree-k monomial is a
word of basis ids in canonical order: even ids strictly ascending first,
then odd ids non-decreasing (exterior on the even part, symmetric on the
odd part).

The differential follows the two-sum formula

  df(w_0 ^ ... ^ w_k) = sum_i (-1)^{tau_i} w_i . f(... ^w_i ...)
                      + sum_{i<j} (-1)^{sigma_ij} f([w_i,w_j] ^ ... ^w_i ...^w_j ...)

with tau_i = i + |w_i| (|w_0|+...+|w_{i-1}| + |f|) and
sigma_ij = i + j + |w_i||w_j| + |w_i|(|w_0|+..+|w_{i-1}|)
         + |w_j|(|w_0|+..+|w_{j-1}|).

Every entry is exact: an int unless a bracket coefficient or module action
entry has a true denominator.  Because the torus action commutes with d,
the matrices are block diagonal over (weight, parity) keys; d od = 0 is
checked as an exact sparse product wherever a test asks for it.

Block bookkeeping is done in integers too.  Each complex scales the
algebra and module weights once by the lcm of their denominators (1 for
every algebra and module built from the families), so a cochain's block
comes from a sum of int tuples.  A block's key is that (int tuple, parity)
itself when the scale is 1, and otherwise the tuple divided back by the
scale, so it always equals (Weight.sort_key(), parity), and blocks are
found by that value: `degree` files cochains, and `block_rows` finds a
block, under any key equal to it.  Equal keys are interned to one object
per complex, which saves memory; a block's `Weight` is made only when
asked for (`CochainComplex.weight`).  A block lists its cochain indices in
ascending order.

d^k is assembled from the source side and never enumerates C^{k+1}.  For
each degree-k word u, each letter t of u and each pair (a, b) whose
bracket has an x_t component (`NilpotentAlgebra.inverse_table`), the
bracket sum puts an entry in the row of the word (a, b) + (u less one t);
each nonzero module action x puts one in the row of x + u.  Rows are
sparse {C^k cochain index: value}, each named by its (canonical word,
module index) rather than by an index into C^{k+1}; only rows with a
nonzero entry exist, and the rank of a block needs no others.

The weight block is the unit of assembly.  A column (u, c) feeds only
rows of its own block, so `block_rows(k, key)` builds a block's rows from
that block's own C^k cochains alone, asserting that every row's own key
(from the int weights of its word's letters) is the block's; no zero entry
is ever made.  A word's terms are made once per complex and shared by the
blocks its cochains fall in (many, when dim M > 1).  `block_rank` ranks a
block in the calling process and keeps only the rank, so H^k holds one
block of d^k at a time and H^k and H^{k+1} on one complex assemble d^k
once between them.
`differential(k)` is the union of the block assemblies, built once and
kept, for the callers that need all of d^k: the d o d = 0 check, the
cocycle scan, `export_triples` and the Hochschild-Serre coefficient
modules; the last two number its rows through `word_index` with
`indexed_differential`, which enumerates C^{k+1}.

The dual-action convention, chosen once and validated end to end, is
(x.f)(v) = -(-1)^{|x||f|} f(x.v); the opposite global sign is available
behind the `dual_sign` flag and produces an isomorphic complex.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable, Iterable, Sequence

from .linalg import Sparse, SparseRow, add_to, rank, sparse_matmul
from .realize import IdealDesignation, NilpotentAlgebra, verify_ideal
from .supercore import EVEN, ODD, Parity, Rational, Weight, exact, parity_sum, swap_sign

Word = tuple[int, ...]
Row = tuple[Word, int]  # a cochain named by (canonical word, module index)
# a letter's action on M by column: c -> [(r, value)]
ByColumn = dict[int, list[tuple[int, Rational]]]
# a degree-k word's terms in d^k (see `CochainComplex._word_terms`)
WordTerms = tuple[list[tuple[Word, Rational]], list[tuple[Word, ByColumn, list[int]]]]


# -- monomials -----------------------------------------------------------------


def monomial_words(parities: Sequence[Parity], k: int) -> list[Word]:
    """Canonical degree-k monomial words over a graded index set.

    Count is sum_{i+j=k} C(d0, i) * C(d1+j-1, j) for d0 even and d1 odd
    generators.
    """
    even = [i for i, p in enumerate(parities) if p == EVEN]
    odd = [i for i, p in enumerate(parities) if p == ODD]
    out: list[Word] = []
    for i in range(k, -1, -1):
        j = k - i
        if i > len(even) or (j > 0 and not odd):
            continue
        for ev in itertools.combinations(even, i):
            for od in itertools.combinations_with_replacement(odd, j):
                out.append(ev + od)
    return out


def normalize_word(parities: Sequence[Parity], factors: Iterable[int]) -> tuple[int, Word | None]:
    """Sort a factor word into canonical order, tracking the Koszul sign.

    Returns (sign, word); sign 0 (word None) when an even factor repeats.
    Even factors anticommute with everything, odd factors commute with odd.
    """
    word = list(factors)
    sign = 1
    # insertion sort; each adjacent transposition contributes swap_sign
    for i in range(1, len(word)):
        j = i
        while j > 0:
            a, b = word[j - 1], word[j]
            if (parities[a], a) <= (parities[b], b):
                break
            sign *= swap_sign(parities[a], parities[b])
            word[j - 1], word[j] = b, a
            j -= 1
    for a, b in zip(word, word[1:]):
        if a == b and parities[a] == EVEN:
            return 0, None
    return sign, tuple(word)


# -- modules --------------------------------------------------------------------


class GModule:
    """Finite-dimensional module over a NilpotentAlgebra, exact action.

    `action[i]` is the sparse matrix of the i-th algebra basis vector:
    x_i . m_c = sum_r action[i][(r, c)] m_r.
    """

    def __init__(
        self,
        algebra: NilpotentAlgebra,
        name: str,
        parities: tuple[Parity, ...],
        weights: tuple[Weight, ...],
        action: list[Sparse],
    ):
        self.algebra = algebra
        self.name = name
        self.parities = parities
        self.weights = weights
        self.action = action
        self.dim = len(parities)

    def verify(self) -> None:
        """Representation identity and grading compatibility, exhaustively.

        The identity is checked on pairs i <= j only: `bracket` is
        super-antisymmetric, so both sides on (j, i) are those on (i, j)
        times the same sign.  A pair is skipped only when [x_i, x_j] = 0
        and x_i or x_j acts as zero, so both sides vanish.
        """
        alg = self.algebra
        for i, mat in enumerate(self.action):
            for (r, c), val in mat.items():
                assert val != 0
                if self.parities[r] != (self.parities[c] + alg.parities[i]) % 2:
                    raise AssertionError(f"{self.name}: action of x_{i} breaks parity")
                if self.weights[r] != self.weights[c] + alg.weights[i]:
                    raise AssertionError(f"{self.name}: action of x_{i} breaks weights")
        for i in range(alg.dim):
            for j in range(i, alg.dim):
                bij = alg.bracket(i, j)
                if not bij and not (self.action[i] and self.action[j]):
                    continue
                lhs: Sparse = {}
                for t, c in bij.items():
                    for pos, val in self.action[t].items():
                        add_to(lhs, pos, c * val)
                rhs = sparse_matmul(self.action[i], self.action[j])
                sign = 1 if (alg.parities[i] and alg.parities[j]) else -1
                for pos, val in sparse_matmul(self.action[j], self.action[i]).items():
                    add_to(rhs, pos, sign * val)
                if lhs != rhs:
                    raise AssertionError(
                        f"{self.name}: representation identity fails on ({i},{j})"
                    )


def trivial_module(alg: NilpotentAlgebra) -> GModule:
    w0 = Weight.zero(alg.wtag, len(alg.symbols))
    return GModule(alg, "C", (EVEN,), (w0,), [dict() for _ in range(alg.dim)])


def dual_module(
    parent: NilpotentAlgebra,
    ideal: IdealDesignation,
    quotient: NilpotentAlgebra,
    dual_sign: int = -1,
) -> GModule:
    """I* as a module over n/I (contragredient of the bracket action).

    Convention: (x.f)(v) = dual_sign * (-1)^{|x||f|} f(x.v) with
    dual_sign = -1 by default.  Weights are negated; parities kept.
    """
    verify_ideal(parent, ideal)
    members = ideal.sorted_ids()
    pos_of = {mid: a for a, mid in enumerate(members)}
    keep = [b.id for b in parent.basis if b.id not in ideal.member_ids]
    if len(keep) != quotient.dim:
        raise ValueError("quotient does not match the ideal complement")
    parities = tuple(parent.parities[mid] for mid in members)
    weights = tuple(-parent.weights[mid] for mid in members)
    action: list[Sparse] = []
    for pid in keep:
        px = parent.parities[pid]
        # direct bracket action on I: x . m_b = sum_a direct[(a, b)] m_a
        direct: Sparse = {}
        for b, mid in enumerate(members):
            for t, c in parent.bracket(pid, mid).items():
                add_to(direct, (pos_of[t], b), c)
        # contragredient: (x.m_b*)(m_a) = dual_sign*(-1)^{|x||m_b*|} m_b*(x.m_a)
        mat: Sparse = {}
        for (a, b), val in direct.items():
            sgn = dual_sign if not (px and parities[b]) else -dual_sign
            mat[(b, a)] = sgn * val
        action.append(mat)
    mod = GModule(quotient, "I*", parities, weights, action)
    mod.verify()
    return mod


def lambda_s_module(alg: NilpotentAlgebra, module: GModule, j: int) -> GModule:
    """Superexterior power Lambda_s^j(M) with the derivation action."""
    if j == 0:
        return trivial_module(alg)
    words = monomial_words(module.parities, j)
    index = {w: a for a, w in enumerate(words)}
    parities = tuple(parity_sum(module.parities[x] for x in w) for w in words)
    zero = (0,) * len(alg.symbols)
    coeffs = [wt.coeffs for wt in module.weights]
    weights = tuple(
        Weight(alg.wtag, tuple(map(sum, zip(zero, *[coeffs[x] for x in w])))) for w in words
    )
    action: list[Sparse] = []
    for i in range(alg.dim):
        px = alg.parities[i]
        rho = module.action[i]
        cols: dict[int, list[tuple[int, Rational]]] = {}
        for (r, c), v in rho.items():
            cols.setdefault(c, []).append((r, v))
        mat: Sparse = {}
        for widx, w in enumerate(words):
            pre = 0
            for t, x in enumerate(w):
                sgn_pre = -1 if (px and pre) else 1
                for r, v in cols.get(x, ()):
                    s, canon = normalize_word(module.parities, w[:t] + (r,) + w[t + 1 :])
                    if s:
                        add_to(mat, (index[canon], widx), sgn_pre * s * v)
                pre ^= module.parities[x]
        action.append(mat)
    mod = GModule(alg, f"L^{j}({module.name})", parities, weights, action)
    mod.verify()
    return mod


# -- the cochain complex ---------------------------------------------------------


BlockKey = tuple[tuple, Parity]  # (weight sort key, parity)


@dataclass
class DegreeData:
    words: list[Word]
    word_index: dict[Word, int]
    keys: list[BlockKey]           # per cochain index
    blocks: dict[BlockKey, list[int]]


def _scaled(w: Weight, scale: int) -> tuple[int, ...]:
    """The integer vector scale * w (scale a multiple of every denominator)."""
    return tuple(c.numerator * (scale // c.denominator) for c in w.coeffs)


class CochainComplex:
    """C^*(n, M) with lazily built bases and differentials."""

    def __init__(self, alg: NilpotentAlgebra, module: GModule):
        if module.algebra is not alg and module.algebra.wtag != alg.wtag:
            raise ValueError("module is not over this algebra's symbol system")
        self.alg = alg
        self.module = module
        weights = alg.weights + module.weights
        for w in weights:
            if w.basis_tag != alg.wtag:
                raise ValueError(
                    f"weight symbol systems differ: {w.basis_tag!r} vs {alg.wtag!r}"
                )
        self._scale = lcm(*(c.denominator for w in weights for c in w.coeffs))
        self._alg_iw = [_scaled(w, self._scale) for w in alg.weights]
        self._mod_iw = [_scaled(w, self._scale) for w in module.weights]
        self._keys: dict[BlockKey, BlockKey] = {}  # interns equal keys
        self._mono_keys: dict[tuple[tuple[int, ...], Parity], list[BlockKey]] = {}
        self._zero = (0,) * len(alg.symbols)
        self._degrees: dict[int, DegreeData] = {}
        self._diffs: dict[int, dict[Row, SparseRow]] = {}
        # per built differential: block key -> its rows, the row dicts of _diffs
        self._buckets: dict[int, dict[BlockKey, dict[Row, SparseRow]]] = {}
        # with dim M > 1, per degree: word index -> that word's terms in d;
        # and row word -> the BlockKey of each of its rows
        self._shared_terms: dict[int, dict[int, WordTerms]] = {}
        self._row_keys: dict[Word, list[BlockKey]] = {}
        self._terms: Callable[[Word], WordTerms] | None = None
        # (k, block key) -> rank of that block of d^k
        self.ranks: dict[tuple[int, BlockKey], int] = {}

    def weight(self, key: BlockKey) -> Weight:
        """The Weight of the block `key`."""
        return Weight(self.alg.wtag, key[0])

    def _mono(self, word: Word) -> tuple[tuple[int, ...], Parity]:
        """The scaled int weight and the parity of a monomial word."""
        return (
            tuple(map(sum, zip(self._zero, *[self._alg_iw[x] for x in word]))),
            sum([self.alg.parities[x] for x in word]) & 1,
        )

    def _block_keys(self, mono: tuple[tuple[int, ...], Parity]) -> list[BlockKey]:
        """The BlockKey of each cochain (word, c), c over the module basis,
        for a word of scaled weight and parity `mono`."""
        found = self._mono_keys.get(mono)
        if found is None:
            found = self._mono_keys[mono] = []
            for iw, p in zip(self._mod_iw, self.module.parities):
                wt = tuple(a - b for a, b in zip(iw, mono[0]))
                if self._scale != 1:
                    wt = tuple(exact(Fraction(v, self._scale)) for v in wt)
                key = (wt, (mono[1] + p) % 2)
                found.append(self._keys.setdefault(key, key))
        return found

    # cochain index = word_index * dim(M) + module_index
    def degree(self, k: int) -> DegreeData:
        if k in self._degrees:
            return self._degrees[k]
        words = monomial_words(self.alg.parities, k)
        word_index = {w: i for i, w in enumerate(words)}
        keys: list[BlockKey] = []
        blocks: dict[BlockKey, list[int]] = {}
        for w in words:
            for key in self._block_keys(self._mono(w)):
                blocks.setdefault(key, []).append(len(keys))
                keys.append(key)
        data = DegreeData(words, word_index, keys, blocks)
        self._degrees[k] = data
        return data

    def dim(self, k: int) -> int:
        return len(self.degree(k).words) * self.module.dim

    def _word_terms(self) -> Callable[[Word], WordTerms]:
        """The function that gives a degree-k word u its terms in d^k.

        It returns (brackets, actions).  brackets holds (w, value) per
        bracket term: w = (a, b) + (u less one t), t a letter of u, puts
        value in the row (w, c) of each column (u, c).  actions holds
        (w, by_col, totals) per letter x acting nontrivially, w = x + u:
        the column (u, c) gets v * totals[|c|] in the row (w, r) for each
        (r, v) of by_col[c], the column c of x's action.  Entries are those
        of the two-sum formula: each (position pair, or position) of a row
        word that the formula visits contributes with its own sign, odd
        letters repeating.  The setup shared by every word is made once
        per complex.
        """
        if self._terms is not None:
            return self._terms
        alg, m = self.alg, self.module
        par = alg.parities
        # each letter's place in the canonical (parity, id) order
        place = {x: i for i, x in enumerate(sorted(range(alg.dim), key=lambda x: (par[x], x)))}
        inverse = alg.inverse_table
        acting: list[tuple[int, ByColumn]] = []
        for x in range(alg.dim):
            if m.action[x]:
                by_col: ByColumn = {}
                for (r, c), v in m.action[x].items():
                    by_col.setdefault(c, []).append((r, v))
                acting.append((x, by_col))

        def insert(word: Word, letters: Word) -> Word | None:
            """The canonical word of word + letters, None if an even letter repeats."""
            for x in letters:
                if par[x] == EVEN and x in word:
                    return None
            return tuple(sorted(word + letters, key=place.__getitem__))

        def terms(u: Word) -> WordTerms:
            brackets: list[tuple[Word, Rational]] = []
            # a canonical word's odd letters all follow its even ones, so the
            # prefix before an odd letter's place i has parity i - (evens)
            evens = sum(1 for x in u if par[x] == EVEN)
            for cut, t in enumerate(u):
                if (cut and u[cut - 1] == t) or t not in inverse:
                    continue
                rest = u[:cut] + u[cut + 1:]
                # the sign of sorting (t,) + rest into u: t passes the cut
                # letters before it, which change the sign unless both odd
                s = -1 if (evens if par[t] else cut) % 2 else 1
                ne = evens - (par[t] == EVEN)
                for a, b, cval in inverse[t]:
                    w = insert(rest, (a, b))
                    if w is None:
                        continue
                    pa, pb = par[a], par[b]
                    we = ne + (pa == EVEN) + (pb == EVEN)
                    # every place i of a before a place j of b; an odd
                    # letter's places are a run, an even letter has one
                    ia, ib = w.index(a), w.index(b)
                    total = 0
                    for i in range(ia, ia + w.count(a)):
                        for j in range(max(ib, i + 1), ib + w.count(b)):
                            sigma = i + j + pa * pb + pa * (i - we) + pb * (j - we)
                            total += -1 if sigma % 2 else 1
                    if total:
                        brackets.append((w, cval * total * s))
            actions: list[tuple[Word, ByColumn, list[int]]] = []
            upar = (len(u) - evens) % 2
            for x, by_col in acting:
                w = insert(u, (x,))
                if w is None:
                    continue
                px = par[x]
                we = evens + (px == EVEN)
                ix = w.index(x)
                # the signed count of the places of x, by the parity of the
                # module vector c; |f| is the parity of the column cochain (u, c)
                totals = [
                    sum(-1 if (i + px * (i - we + f_par)) % 2 else 1
                        for i in range(ix, ix + w.count(x)))
                    for f_par in (upar, upar ^ 1)
                ]
                if any(totals):
                    actions.append((w, by_col, totals))
            return brackets, actions

        self._terms = terms
        return terms

    def _assemble(self, k: int, key: BlockKey, cols: list[int]) -> dict[Row, SparseRow]:
        """The nonzero rows of the d^k block `key`, whose degree-k cochain
        indices are `cols`, by the degree-(k+1) cochain (word, module
        index) each row stands for.  Every d^k entry is made here, for
        `block_rows` and `differential` alike."""
        terms = self._word_terms()
        words = self.degree(k).words
        nm, mpar = self.module.dim, self.module.parities
        # with dim M > 1 a word's cochains spread over many blocks; its
        # terms are then made once and shared by those blocks
        shared = self._shared_terms.setdefault(k, {}) if nm > 1 else None
        # the block's cochains (u, c) by word: u's index, then the c's
        if nm == 1:
            runs: Iterable[tuple[int, list[int]]] = zip(cols, itertools.repeat([0]))
        else:
            by_word: dict[int, list[int]] = {}
            for idx in cols:
                by_word.setdefault(idx // nm, []).append(idx % nm)
            runs = by_word.items()
        d: dict[Row, SparseRow] = {}
        for ui, mcs in runs:
            col = ui * nm
            if shared is None:
                brackets, actions = terms(words[ui])
            else:
                found = shared.get(ui)
                if found is None:
                    found = shared[ui] = terms(words[ui])
                brackets, actions = found
            for w, val in brackets:
                for c in mcs:
                    add_to(d.setdefault((w, c), {}), col + c, val)
            for w, by_col, totals in actions:
                for c in mcs:
                    total = totals[mpar[c]]
                    if total:
                        for r, v in by_col.get(c, ()):
                            add_to(d.setdefault((w, r), {}), col + c, v * total)
        # the differential must preserve (weight, parity) blocks: each row's
        # own key (from the int weights of its word's letters) must be its
        # columns' key; a row word's keys are shared like its terms
        word_keys = self._row_keys if shared is not None else {}
        for name in [name for name, row in d.items() if not row]:
            del d[name]  # its entries cancelled
        for w, r in d:
            wkeys = word_keys.get(w)
            if wkeys is None:
                wkeys = word_keys[w] = self._block_keys(self._mono(w))
            if wkeys[r] != key:
                raise AssertionError("differential entry crosses weight blocks")
        return d

    def differential(self, k: int) -> dict[Row, SparseRow]:
        """d^k: C^k -> C^{k+1} as sparse rows {C^k cochain index: value}:
        the union of the assemblies of its blocks, kept once built.

        A row is named by the degree-(k+1) cochain (canonical word, module
        index) and exists only when it has a nonzero entry; C^{k+1} is not
        enumerated (see `indexed_differential`).
        """
        if k not in self._diffs:
            buckets: dict[BlockKey, dict[Row, SparseRow]] = {}
            for key, cols in self.degree(k).blocks.items():
                rows = self._assemble(k, key, cols)
                if rows:
                    buckets[key] = rows
            self._buckets[k] = buckets
            self._diffs[k] = {name: row for rows in buckets.values() for name, row in rows.items()}
        return self._diffs[k]

    def indexed_differential(self, k: int) -> Sparse:
        """d^k as one sparse matrix {(row, col): value}, each row numbered
        by its index in C^{k+1}, which this enumerates:
        word_index(word) * dim(M) + module index."""
        index = self.degree(k + 1).word_index
        nm = self.module.dim
        return {
            (index[w] * nm + r, c): v
            for (w, r), row in self.differential(k).items()
            for c, v in row.items()
        }

    def check_d_squared(self, k: int) -> bool:
        """Exact check that d^{k+1} o d^k = 0, row by row of d^{k+1}."""
        index, nm = self.degree(k + 1).word_index, self.module.dim
        inner = {index[w] * nm + r: row for (w, r), row in self.differential(k).items()}
        for row in self.differential(k + 1).values():
            out: SparseRow = {}
            for c, x in row.items():
                for c2, y in inner.get(c, {}).items():
                    add_to(out, c2, x * y)
            if out:
                return False
        return True

    def block_rows(self, k: int, key: BlockKey) -> dict[Row, SparseRow]:
        """The nonzero rows of the d^k block `key`, by the degree-(k+1)
        cochain (word, module index) each stands for, over the degree-k
        cochain indices in `key`.  Once `differential(k)` is built these
        are its very row dicts; before, the block alone is assembled and
        not kept.  Any key equal to a block's key finds that block."""
        if k in self._diffs:
            return self._buckets[k].get(key, {})
        cols = self.degree(k).blocks.get(key)
        return self._assemble(k, key, cols) if cols else {}

    def block_matrix(self, k: int, key: BlockKey) -> list[SparseRow]:
        """The nonzero rows of the d^k block `key` (see `block_rows`)."""
        return list(self.block_rows(k, key).values())

    def block_rank(self, k: int, key: BlockKey) -> int:
        """The rank of the d^k block `key`, computed once per complex and
        kept in `ranks` as an int; the block's rows are not kept."""
        job = (k, key)
        found = self.ranks.get(job)
        if found is None:
            found = self.ranks[job] = rank(self.block_matrix(k, key))
        return found

    def export_triples(self, k: int) -> list[list]:
        """Differential as sorted (block key, row, col, "p/q") triples."""
        d = self.indexed_differential(k)
        src = self.degree(k)
        rows = []
        for (r, c), v in sorted(d.items()):
            key = src.keys[c]
            rows.append([list(map(str, key[0])), key[1], r, c, str(v)])
        return rows
