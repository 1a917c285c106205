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
On a canonical word with `we` even letters, sigma_ij reduces mod 2 to
i(1+|w_i|) + j(1+|w_j|) + |w_i||w_j| + we(|w_i|+|w_j|), so each letter pair's
(or acting letter's) sum over its places is closed-form (`_word_terms`).

Every entry is exact: an int unless a bracket coefficient or module action
entry has a true denominator.  Because the torus action commutes with d,
the matrices are block diagonal over (weight, parity) keys; d o d = 0 is
checked block by block wherever a test asks for it.

Block bookkeeping is done in integers too.  Each complex scales the
algebra and module weights once by the lcm of their denominators (1 for
every family) and packs an int vector one way, sum_i v_i * 2**(width i)
(`_packed`: linear, and injective while every |v_i| < 2**(width - 1)).
The width follows the complex's own weights (`_packing`): the fewest bits
in which a module weight less the weights of a word's letters packs, so
no weight is out of range.  A letter packs as (parity,) + weight, and a
cochain's block has the key int 2 * (m_c's packed weight less its word's
letters') + parity, from one sum of those letters.  `degree` interns its
blocks by that int, one key object per block.  A key equals (weight,
parity), the weight the exact tuple of its coordinates (`key[0]`);
`degree` files cochains, and `block_columns` finds a block, under any key
equal to it.  A block lists its cochain indices in ascending order.

d^k is assembled from the source side, by columns, and never enumerates
C^{k+1}.  The terms of a degree-k word u (`_word_terms`) are the column
of each cochain (u, c): for each letter t of u and each pair (a, b) whose
bracket has an x_t component (`NilpotentAlgebra.inverse_table`, tagged
by its sign case), the bracket sum puts an entry in the row of the word
(a, b) + (u less one t); each nonzero module action x puts one in the row
of x + u.  A row is named by its cochain (canonical word, module index),
and every reader that meets a cochain in two degrees names it so, never by
an index into a whole degree; only rows with a nonzero entry exist, and
the rank of a block needs no others.

The weight block is the unit of assembly, and `block_columns(k, key)` is
the one routine that makes a d^k entry.  A column (u, c) feeds only rows
of its own block, so a block's columns come from that block's own C^k
cochains alone, and every row's key, from its own word's letters, is
asserted to be the block's.  With dim M = 1 the module has no action (its
one weight would move); with dim M > 1 a word's terms are made once per
complex and shared by the blocks of its cochains.  Every row is checked
in the packed form that `degree` filed the block's cochains by.
`block_rank` ranks a block's columns (`block_matrix`) in the calling
process and keeps only the rank, so H^k holds one block of d^k at a time
and H^k and H^{k+1} on one complex assemble d^k once between them.
Ranking a block of d^{k-1} can fill a set `pivots` with the names of a
maximal independent set of its rows; passed on as `cleared` to that block
of d^k, it leaves their d^k columns out, which by d o d = 0 cannot raise
the rank (`block_rank`).
`check_d_squared` meets each row of a d^k block with the d^{k+1} column
of the cochain it names.  `named_rows(k, key)`, a block turned into named
rows, is kept once built, for the readers that need rows (the cocycle
scan, H^j of an ideal); `differential(k)` is the union of those blocks.

Every dual action is (x.f)(v) = -(-1)^{|x||f|} f(x.v), f the column
functional, written once, in `contragredient`.  `dual_module` (I* over
n/I) and the spectral sequence's action on C^j(I) = Lambda_s^j(I)* are
both that sign applied to `ideal_module`, the latter after `word_action`.
The opposite global sign gives +rho(x)^T, which reverses the bracket: it
is not a representation in general (it fails `GModule.verify` on gl(4|3)
and q(4)).
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from fractions import Fraction
from math import lcm
from operator import add
from typing import Callable, Collection, Iterable, Iterator, NamedTuple, Sequence

from .linalg import Sparse, SparseRow, add_to, rank
from .realize import Ideal, NilpotentAlgebra, supercommutator, verify_ideal
from .supercore import EVEN, ODD, Parity, Rational, Weight, exact, parity_sum, swap_sign

Word = tuple[int, ...]
Row = tuple[Word, int]  # a cochain named by (canonical word, module index)
# a letter's action on M by column: c -> [(r, value)]
ByColumn = dict[int, list[tuple[int, Rational]]]
# a degree-k word's action term in d^k: (row word, the acting letter's
# action by column, its totals for an even and an odd module vector) (see
# `CochainComplex._word_terms`)
ActionTerm = tuple[Word, ByColumn, int, int]


# -- monomials -----------------------------------------------------------------


def monomial_words(parities: Sequence[Parity], k: int) -> list[Word]:
    """Canonical degree-k monomial words over a graded index set.

    Count is sum_{i+j=k} C(d0, i) * C(d1+j-1, j) for d0 even and d1 odd
    generators.
    """
    even = [i for i, p in enumerate(parities) if p == EVEN]
    odd = [i for i, p in enumerate(parities) if p == ODD]
    out: list[Word] = []
    # a word holds at most len(even) even letters
    for i in range(min(k, len(even)), -1, -1):
        j = k - i
        if j > 0 and not odd:
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
    x_i . m_c = sum_r action[i][(r, c)] m_r.  Each weight must have one
    coordinate per symbol of the algebra; ValueError otherwise.
    """

    def __init__(
        self,
        algebra: NilpotentAlgebra,
        name: str,
        parities: tuple[Parity, ...],
        weights: tuple[Weight, ...],
        action: list[Sparse],
    ):
        for w in weights:
            if len(w) != len(algebra.symbols):
                raise ValueError(f"{name}: weight {w} is not over the symbol system "
                                 f"{algebra.symbols} of {algebra.name}")
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
                if self.weights[r] != tuple(map(add, self.weights[c], alg.weights[i])):
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
                rhs = supercommutator(self.action[i], alg.parities[i],
                                      self.action[j], alg.parities[j])
                if lhs != rhs:
                    raise AssertionError(
                        f"{self.name}: representation identity fails on ({i},{j})"
                    )


def trivial_module(alg: NilpotentAlgebra) -> GModule:
    w0 = (0,) * len(alg.symbols)
    return GModule(alg, "C", (EVEN,), (w0,), [dict() for _ in range(alg.dim)])


def ideal_module(parent: NilpotentAlgebra, ideal: Ideal) -> GModule:
    """The ideal I as a module over all of n by the bracket, x.m = [x, m],
    on the members in ascending id order."""
    verify_ideal(parent, ideal)
    members = sorted(ideal)
    pos_of = {mid: a for a, mid in enumerate(members)}
    action: list[Sparse] = []
    for pid in range(parent.dim):
        mat: Sparse = {}
        for b, mid in enumerate(members):
            for t, c in parent.bracket(pid, mid).items():
                mat[(pos_of[t], b)] = c
        action.append(mat)
    return GModule(parent, "I", tuple(parent.parities[mid] for mid in members),
                   tuple(parent.weights[mid] for mid in members), action)


def contragredient(mat: Sparse, px: Parity, parities: Sequence[Parity]) -> Sparse:
    """The matrix of x on M* in the dual basis, from its matrix `mat` on M.

    (x.f)(v) = -(-1)^{|x||f|} f(x.v), so the column of f = m_r* takes
    mat's row r; `parities` are those of M's basis and of its dual basis.
    """
    return {(c, r): v if px and parities[r] else -v for (r, c), v in mat.items()}


def dual_module(
    parent: NilpotentAlgebra,
    ideal: Ideal,
    quotient: NilpotentAlgebra,
) -> GModule:
    """I* as a module over n/I: the contragredient of `ideal_module` on
    the ids outside I.  Weights are negated; parities kept."""
    im = ideal_module(parent, ideal)
    keep = [b.id for b in parent.basis if b.id not in ideal]
    if len(keep) != quotient.dim:
        raise ValueError("quotient does not match the ideal complement")
    action = [contragredient(im.action[pid], parent.parities[pid], im.parities) for pid in keep]
    weights = tuple(tuple(-c for c in w) for w in im.weights)
    mod = GModule(quotient, "I*", im.parities, weights, action)
    mod.verify()
    return mod


def _by_column(mat: Sparse) -> ByColumn:
    """mat regrouped by column: c -> [(r, value)], in mat's order."""
    cols: ByColumn = {}
    for (r, c), v in mat.items():
        cols.setdefault(c, []).append((r, v))
    return cols


def word_action(module: GModule, words: Sequence[Word]) -> Iterator[Sparse]:
    """Per algebra basis vector in turn, its unverified derivation action
    on the superexterior words `words` (all of one degree) over M's basis:
    x.(m_0 ^ ..) = sum_t (-1)^{|x|(|m_0|+..+|m_{t-1}|)} m_0 ^ .. x.m_t .. ."""
    alg = module.algebra
    index = {w: a for a, w in enumerate(words)}
    for i in range(alg.dim):
        px = alg.parities[i]
        cols = _by_column(module.action[i])
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
        yield mat


def lambda_s_module(alg: NilpotentAlgebra, module: GModule, j: int) -> GModule:
    """Superexterior power Lambda_s^j(M) with the derivation action
    (`word_action`), verified."""
    if j == 0:
        return trivial_module(alg)
    words = monomial_words(module.parities, j)
    parities = tuple(parity_sum(module.parities[x] for x in w) for w in words)
    zero = (0,) * len(alg.symbols)
    weights = tuple(tuple(map(sum, zip(zero, *[module.weights[x] for x in w]))) for w in words)
    action = list(word_action(module, words))
    mod = GModule(alg, f"L^{j}({module.name})", parities, weights, action)
    mod.verify()
    return mod


# -- the cochain complex ---------------------------------------------------------


BlockKey = tuple[Weight, Parity]


class DegreeData(NamedTuple):
    words: list[Word]
    keys: list[BlockKey]           # per cochain index
    blocks: dict[BlockKey, list[int]]


def _scaled(w: Weight, scale: int) -> tuple[int, ...]:
    """The integer vector scale * w (scale a multiple of every denominator)."""
    return tuple(c.numerator * (scale // c.denominator) for c in w)


def _packed(v: Sequence[int], width: int) -> int:
    """sum_i v_i * 2**(width i): linear, and injective while every
    |v_i| < 2**(width - 1).  A sum s of letters packed as (parity,) + weight
    has their odd count, below 2**width, as its lowest coordinate: s & 1 is
    the parity, s >> width the packed weight."""
    return sum(c << width * i for i, c in enumerate(v))


class CochainComplex:
    """C^*(n, M) with lazily built bases and differentials."""

    def __init__(self, alg: NilpotentAlgebra, module: GModule):
        if module.algebra.symbols != alg.symbols:
            raise ValueError("module is not over this algebra's symbol system")
        self.alg = alg
        self.module = module
        self._scale = lcm(*(c.denominator for w in alg.weights + module.weights for c in w))
        self._alg_iw = [_scaled(w, self._scale) for w in alg.weights]
        self._mod_iw = [_scaled(w, self._scale) for w in module.weights]
        self._max_coord = max((abs(c) for iw in self._alg_iw for c in iw), default=0)
        self._max_mod = max((abs(c) for iw in self._mod_iw for c in iw), default=0)
        self._packs: dict[int, tuple[int, list[int], list[int]]] = {}  # `_packing`, by width
        self._zero = (0,) * len(alg.symbols)
        self._degrees: dict[int, DegreeData] = {}
        self._rows: dict[tuple[int, BlockKey], dict[Row, SparseRow]] = {}  # `named_rows`
        # dim M = 1 and so no action: each word has one cochain, in one block
        self._one_dim = module.dim == 1 and not any(module.action)
        # with dim M > 1, per degree: word index -> that word's terms in d,
        # (sum of its packed letters, [(row word, value)], action terms)
        self._shared_terms: dict[int, dict[int, tuple[int, list[tuple[Word, Rational]],
                                                      list[ActionTerm]]]] = {}
        self._terms: Callable[..., list[ActionTerm]] | None = None
        # (k, block key) -> rank of that block of d^k
        self.ranks: dict[tuple[int, BlockKey], int] = {}

    def _packing(self, letters: int) -> tuple[int, list[int], list[int]]:
        """(width, packed letters, packed module weights), kept per width:
        each letter's (parity,) + scaled weight and each module vector's
        scaled weight `_packed` width bits a coordinate, width the fewest in
        which a module weight less the weights of `letters` letters packs
        injectively and their odd count fits the lowest field.  Two sums s of
        up to that many letters agree on s & (-1 << width | 1) iff their
        words share weight and parity, and the key int of the cochain
        (word, c), 2 * (m_c's packed weight - s >> width) + (|m_c| ^ s & 1),
        is that of its block."""
        width = max(letters * self._max_coord + self._max_mod, letters).bit_length() + 1
        found = self._packs.get(width)
        if found is None:
            found = self._packs[width] = (
                width,
                [_packed((p,) + iw, width) for p, iw in zip(self.alg.parities, self._alg_iw)],
                [_packed(iw, width) for iw in self._mod_iw])
        return found

    def _block_key(self, word: Word, c: int, parity: Parity) -> BlockKey:
        """The BlockKey (weight, parity) of the cochain (word, c): m_c's
        weight less the word's letters', as an exact tuple."""
        iw = map(sum, zip(self._zero, *[self._alg_iw[x] for x in word]))
        wt = tuple(a - b for a, b in zip(self._mod_iw[c], iw))
        if self._scale != 1:
            wt = tuple(exact(Fraction(v, self._scale)) for v in wt)
        return wt, parity

    # cochain index = (its word's index in `words`) * dim(M) + module index
    def degree(self, k: int) -> DegreeData:
        """C^k: its words and each cochain's block, found by its key int
        from one sum of the word's letters packed by `_packing(k + 1)`, the
        form block_columns(k) checks d^k's rows in.  Blocks are interned
        here by key int, one key object per block."""
        if k in self._degrees:
            return self._degrees[k]
        width, letters, mod_ws = self._packing(k + 1)
        words = monomial_words(self.alg.parities, k)
        keys: list[BlockKey] = []
        blocks: dict[BlockKey, list[int]] = {}
        interned: dict[int, BlockKey] = {}
        mods = list(enumerate(zip(mod_ws, self.module.parities)))
        for w in words:
            s = sum(map(letters.__getitem__, w))
            ws, p = s >> width, s & 1
            for c, (mw, mp) in mods:
                ki = (mw - ws) * 2 + (mp ^ p)
                key = interned.get(ki) or interned.setdefault(ki, self._block_key(w, c, mp ^ p))
                blocks.setdefault(key, []).append(len(keys))
                keys.append(key)
        data = DegreeData(words, keys, blocks)
        self._degrees[k] = data
        return data

    def dim(self, k: int) -> int:
        return len(self.degree(k).words) * self.module.dim

    def _word_terms(self) -> Callable[..., list[ActionTerm]]:
        """The one term generator, `terms(u, col, ids, names, check)`: a
        degree-k word u's terms in d^k, its bracket terms added to `col` and
        its action terms returned.

        A bracket term w = (a, b) + (u less one t), t a letter of u, puts
        value in the row (w, c) of each column (u, c); `terms` adds it to
        col[ids[w]].  A row word met for the first time is numbered there,
        ids[w] = len(names), appended to names and checked there, once, from
        its own letters: with check = (letter, mask, want), the sum s of
        letter(x) over its letters x must have s & mask == want (`_packing`).
        An action term (w, by_col, even, odd), one per letter x acting
        nontrivially, w = x + u, gives the column (u, c) v * total in the row
        (w, r) for each (r, v) of by_col[c], the column c of x's action, total
        being `even` or `odd` by the parity of m_c.  Entries are those of the
        two-sum formula, summed in closed form over the places of the letters
        in the row word w: an even letter x has one, i_x, an odd one a run of
        c_x; w has we even letters, and a comes before b.  By the reduced
        sigma_ij (module docstring) the bracket total is (-1)^(i_a+i_b) for
        a, b even, c_b (-1)^(i_a+we) for a even and b odd, -c_a c_b for
        a != b odd and -c_a(c_a-1)/2 for a = b odd; the action total is
        (-1)^(i_x) for x even and c_x (-1)^(we+|f|) for x odd.  No total is
        0.  Made once per complex: each letter's inverse_table entries tagged
        by their bracket case, and the sort key of row words, none where
        canonical order is id order (all families but q).
        """
        if self._terms is not None:
            return self._terms
        alg, m = self.alg, self.module
        par = alg.parities
        order = sorted(range(alg.dim), key=lambda x: (par[x], x))
        place = None
        if order != list(range(alg.dim)):
            place = {x: i for i, x in enumerate(order)}.__getitem__
        # case of (a, b): 0 both even, 1 a even and b odd, 2 both odd
        cases = {t: [(a, b, c, par[a] + par[b]) for a, b, c in entries]
                 for t, entries in alg.inverse_table.items()}
        acting = [(x, _by_column(m.action[x])) for x in range(alg.dim) if m.action[x]]

        def terms(u: Word, col: SparseRow, ids: dict[Word, int], names: list[Word],
                  check: tuple[Callable[[int], int], int, int]) -> list[ActionTerm]:
            letter, mask, want = check
            evens = len(u) - sum(map(par.__getitem__, u))
            for cut, t in enumerate(u):
                if (cut and u[cut - 1] == t) or t not in cases:
                    continue
                rest = u[:cut] + u[cut + 1:]
                # the sign of sorting (t,) + rest into u: t passes the cut
                # letters before it, which change the sign unless both odd
                s = -1 if (evens if par[t] else cut) % 2 else 1
                we = evens + par[t]  # the even letters of w: evens - |t| + 1
                for a, b, cval, case in cases[t]:
                    if case == 0:
                        if a in rest or b in rest:  # no even letter may repeat
                            continue
                        w = tuple(sorted(rest + (a, b), key=place))
                        val = -cval * s if (w.index(a) + w.index(b)) % 2 else cval * s
                    elif case == 1:
                        if a in rest:
                            continue
                        w = tuple(sorted(rest + (a, b), key=place))
                        total = -w.count(b) if (w.index(a) + we) % 2 else w.count(b)
                        val = cval * total * s
                    else:
                        w = tuple(sorted(rest + (a, b), key=place))
                        ca = w.count(a)
                        total = ca * (ca - 1) // 2 if a == b else ca * w.count(b)
                        val = -cval * total * s
                    new = len(names)
                    rid = ids.setdefault(w, new)
                    if rid == new:
                        names.append(w)
                        if sum(map(letter, w)) & mask != want:
                            raise AssertionError("differential entry crosses weight blocks")
                        col[rid] = val
                    else:
                        col[rid] = col.get(rid, 0) + val
            actions: list[ActionTerm] = []
            upar = (len(u) - evens) % 2
            for x, by_col in acting:
                if par[x] == EVEN:
                    if x not in u:
                        w = tuple(sorted(u + (x,), key=place))
                        total = -1 if w.index(x) % 2 else 1
                        actions.append((w, by_col, total, total))
                else:
                    w = tuple(sorted(u + (x,), key=place))
                    total = -w.count(x) if (evens + upar) % 2 else w.count(x)
                    actions.append((w, by_col, total, -total))
            return actions

        self._terms = terms
        return terms

    def block_columns(self, k: int, key: BlockKey) -> tuple[list[Row], dict[int, SparseRow]]:
        """The d^k block `key` by columns: (names, columns), columns
        {C^k cochain index: {row id: value}} for each cochain in `key` whose
        column is nonzero, in ascending order, and names[row id] the
        degree-(k+1) cochain (word, module index) that row stands for.
        Every d^k entry is made here, from the block's own cochains, and
        nothing is kept but, with dim M > 1, the words' terms; an unknown key
        gives ([], {}).  Any key equal to a block's key finds that block.
        Each row's key int, from its word's letters packed by `_packing`
        as `degree` packed them, must be that of the block's first cochain.

        With dim M = 1 (and so no action) each word has one cochain, and
        `_word_terms` puts its terms straight into that cochain's column and
        numbers and checks each new row there: the block's rows share M's
        weight and parity, so their letters' masked sums must be the first
        word's.  With dim M > 1 a word's cochains spread over many blocks,
        so its terms are made once, into a column of its own, and shared by
        those blocks: there each bracket row's letters are checked against
        the word's, and here each new row's key int, from its module vector
        and its word's letters (a bracket row's word having its source
        word's), against the block's."""
        terms = self._word_terms()
        data = self._degrees.get(k) or self.degree(k)
        cochains = data.blocks.get(key, ())
        if not cochains:
            return [], {}
        words = data.words
        width, letters, mw = self._packing(k + 1)
        letter, mask = letters.__getitem__, -1 << width | 1
        columns: dict[int, SparseRow] = {}
        if self._one_dim:
            row_words: list[Word] = []
            ids: dict[Word, int] = {}
            check = (letter, mask, sum(map(letter, words[cochains[0]])) & mask)
            for idx in cochains:
                col: SparseRow = {}
                terms(words[idx], col, ids, row_words, check)
                if not all(col.values()):
                    col = {rid: v for rid, v in col.items() if v}  # entries cancelled
                if col:
                    columns[idx] = col
            return [(w, 0) for w in row_words], columns
        shared = self._shared_terms.setdefault(k, {})
        mpar, nm = self.module.parities, self.module.dim
        ui, c = divmod(cochains[0], nm)
        su = sum(map(letter, words[ui]))
        want = (mw[c] - (su >> width)) * 2 + (mpar[c] ^ (su & 1))  # the block's key int
        names: list[Row] = []
        # module index -> row word -> row id
        by_module: defaultdict[int, dict[Word, int]] = defaultdict(dict)
        last = -1
        for idx in cochains:
            ui, c = divmod(idx, nm)
            if ui != last:
                last = ui
                found = shared.get(ui)
                if found is None:
                    u = words[ui]
                    su = sum(map(letter, u))
                    wcol: SparseRow = {}
                    wnames: list[Word] = []
                    actions = terms(u, wcol, {}, wnames, (letter, mask, su & mask))
                    found = shared[ui] = (su, [(wnames[i], v) for i, v in wcol.items() if v],
                                          actions)
                su, brackets, actions = found
            col = {}
            ids = by_module[c]
            for w, val in brackets:  # rows (w, c), one per row word
                rid = ids.get(w)
                if rid is None:
                    rid = ids[w] = len(names)
                    names.append((w, c))
                    # d keeps (weight, parity) blocks; `terms` checked w's against u's
                    if (mw[c] - (su >> width)) * 2 + (mpar[c] ^ (su & 1)) != want:
                        raise AssertionError("differential entry crosses weight blocks")
                col[rid] = val
            for w, by_col, even, odd in actions:  # rows (w, r)
                total = odd if mpar[c] else even
                for r, v in by_col.get(c, ()):
                    rids = by_module[r]
                    rid = rids.get(w)
                    if rid is None:
                        rid = rids[w] = len(names)
                        names.append((w, r))
                        sw = sum(map(letter, w))
                        if (mw[r] - (sw >> width)) * 2 + (mpar[r] ^ (sw & 1)) != want:
                            raise AssertionError("differential entry crosses weight blocks")
                    col[rid] = col.get(rid, 0) + v * total
            if not all(col.values()):
                col = {rid: v for rid, v in col.items() if v}  # entries cancelled
            if col:
                columns[idx] = col
        return names, columns

    def named_rows(self, k: int, key: BlockKey) -> dict[Row, SparseRow]:
        """The d^k block `key` as rows {C^k cochain index: value}, each named
        by its degree-(k+1) cochain: its `block_columns` turned, kept once
        built."""
        found = self._rows.get((k, key))
        if found is None:
            names, columns = self.block_columns(k, key)
            found = self._rows[k, key] = {}
            for idx, col in columns.items():
                for rid, v in col.items():
                    found.setdefault(names[rid], {})[idx] = v
        return found

    def differential(self, k: int) -> dict[Row, SparseRow]:
        """d^k: C^k -> C^{k+1} as the union of the `named_rows` of every
        block of C^k; C^{k+1} is not enumerated."""
        return {name: row for key in self.degree(k).blocks
                for name, row in self.named_rows(k, key).items()}

    def check_d_squared(self, k: int) -> bool:
        """Exact check that d^{k+1} o d^k = 0, block by block: each row of a
        d^k block meets the d^{k+1} column of the cochain it names.  Only
        C^k and C^{k+1} are enumerated."""
        words, nm = self.degree(k + 1).words, self.module.dim
        for key in self.degree(k).blocks:
            names, columns = self.block_columns(k, key)
            after = {(words[idx // nm], idx % nm): col
                     for idx, col in self.block_columns(k + 1, key)[1].items()}
            for col in columns.values():
                image: SparseRow = {}  # d^{k+1} of this column
                for rid, v in col.items():
                    for r, x in after.get(names[rid], {}).items():
                        add_to(image, r, v * x)
                if image:
                    return False
        return True

    def block_matrix(
        self, k: int, key: BlockKey, names: list[Row] | None = None,
        cleared: Collection[Row] = frozenset(),
    ) -> list[SparseRow]:
        """The nonzero columns of the d^k block `key` (see `block_columns`)
        less those of the cochains named in the set `cleared`; a list
        `names` is extended by the names of the block's rows."""
        rows, columns = self.block_columns(k, key)
        if names is not None:
            names += rows
        if cleared:
            words, nm = self._degrees[k].words, self.module.dim
            return [col for idx, col in columns.items()
                    if (words[idx // nm], idx % nm) not in cleared]
        return list(columns.values())

    def block_rank(
        self, k: int, key: BlockKey, pivots: set[Row] | None = None,
        cleared: Collection[Row] = frozenset(),
    ) -> int:
        """The rank of the d^k block `key`, computed once per complex and
        kept in `ranks` as an int; the block's columns are not kept.  When
        it is computed, the columns of the cochains named in `cleared` are
        left out, and a given set `pivots` is filled with the names of a
        maximal independent set R of the block's rows (`rank`'s basis).
        Without its columns at R the d^{k+1} block D on `key` keeps its
        rank: with this block V, DV = 0 and V[R, J] invertible for some
        columns J give D[:, R] = -D[:, R^c] V[R^c, J] V[R, J]^-1."""
        job = (k, key)
        found = self.ranks.get(job)
        if found is None:
            names, rows = [], []
            found = rank(self.block_matrix(k, key, names, cleared), rows)
            if pivots is not None:
                pivots.update(map(names.__getitem__, rows))
            self.ranks[job] = found
        return found
