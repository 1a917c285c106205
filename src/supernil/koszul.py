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
the matrices are block diagonal over (weight, parity) keys; d od = 0 is
checked as an exact sparse product wherever a test asks for it.

Block bookkeeping is done in integers too.  Each complex scales the
algebra and module weights once by the lcm of their denominators (1 for
every algebra and module built from the families), so a cochain's block
comes from a sum of int tuples; `_block_keys` finds it by one sum of the
word's letters packed as (parity, weight) into ints, sum_i v_i * 2**(64 i)
(`_packed`: linear, and injective while every |v_i| < 2**63, which
`degree` and `block_rows` check for their sums), and makes tuples only
for a new (weight, parity).  A block's key is the (int tuple, parity)
itself when the scale is 1, and otherwise the tuple divided back by the
scale, so it always equals (weight, parity), the weight the exact tuple
of its coordinates; `key[0]` is the block's weight.  Blocks are found by
that value: `degree` files cochains, and `block_rows` finds a block,
under any key equal to it.  Equal keys are interned to one object per
complex, which saves memory.  A block lists its cochain indices in
ascending order.

d^k is assembled from the source side and never enumerates C^{k+1}.  For
each degree-k word u, each letter t of u and each pair (a, b) whose
bracket has an x_t component (`NilpotentAlgebra.inverse_table`), the
bracket sum puts an entry in the row of the word (a, b) + (u less one t);
each nonzero module action x puts one in the row of x + u.  Rows are
sparse {C^k cochain index: value}, each named by its (canonical word,
module index) rather than by an index into C^{k+1}; only rows with a
nonzero entry exist, and the rank of a block needs no others.

The weight block is the unit of assembly, and `block_rows(k, key)` is
the one routine that makes a d^k entry.  A column (u, c) feeds only rows
of its own block, so `block_rows` builds a block's rows from that
block's own C^k cochains alone, asserting that every row's own key (from
its word's packed letters) is the block's; no zero entry is ever made.  A
word's terms are made once per complex and shared by the blocks its
cochains fall in (many, when dim M > 1).  `block_rank` ranks a block in
the calling process and keeps only the rank, so H^k holds one block of
d^k at a time and H^k and H^{k+1} on one complex assemble d^k once
between them.
`differential(k)` is the union of `block_rows` over the blocks of C^k,
built once and kept, the only store of rows, for the callers that need
all of d^k: the d o d = 0 check, the cocycle scan and the
Hochschild-Serre coefficient modules (which cut it back into blocks).
All but the scan number its rows through `word_index` with
`indexed_differential`, which enumerates C^{k+1}.

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
from fractions import Fraction
from math import lcm
from operator import add
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .linalg import Sparse, SparseRow, add_to, rank, sparse_matmul
from .realize import Ideal, NilpotentAlgebra, supercommutator, verify_ideal
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
    word_index: dict[Word, int]
    keys: list[BlockKey]           # per cochain index
    blocks: dict[BlockKey, list[int]]


def _scaled(w: Weight, scale: int) -> tuple[int, ...]:
    """The integer vector scale * w (scale a multiple of every denominator)."""
    return tuple(c.numerator * (scale // c.denominator) for c in w)


def _packed(v: Sequence[int]) -> int:
    """sum_i v_i * 2**(64 i): linear, and injective while every |v_i| < 2**63.
    A sum s of letters packed as (parity,) + weight has their odd count, in
    [0, 2**63), as its lowest coordinate: s & 1 is the parity, s >> 64 the weight."""
    if any(abs(c) >> 63 for c in v):
        raise ValueError(f"weight coordinate out of the packed range: {v}")
    return sum(c << 64 * i for i, c in enumerate(v))


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
        self._alg_pw = [_packed((p,) + iw) for p, iw in zip(alg.parities, self._alg_iw)]
        self._max_coord = max((abs(c) for iw in self._alg_iw for c in iw), default=0)
        self._keys: dict[BlockKey, BlockKey] = {}  # interns equal keys
        self._mono_keys: dict[int, list[BlockKey]] = {}  # by 2 * packed weight + parity
        self._zero = (0,) * len(alg.symbols)
        self._degrees: dict[int, DegreeData] = {}
        self._diffs: dict[int, dict[Row, SparseRow]] = {}
        # with dim M > 1, per degree: word index -> that word's terms in d;
        # and row word -> the BlockKey of each of its rows
        self._shared_terms: dict[int, dict[int, WordTerms]] = {}
        self._row_keys: dict[Word, list[BlockKey]] = {}
        self._terms: Callable[[Word], WordTerms] | None = None
        # (k, block key) -> rank of that block of d^k
        self.ranks: dict[tuple[int, BlockKey], int] = {}

    def _fits(self, letters: int) -> None:  # every sum of that many letters packs injectively
        if letters * self._max_coord >> 63:
            raise ValueError(f"weights of {letters} letters leave the packed range")

    def _block_keys(self, word: Word) -> list[BlockKey]:
        """The BlockKey of each cochain (word, c), c over the module basis,
        found by one sum s of the word's packed letters (built on a miss):
        s >> 64 is its packed weight and s & 1 its parity."""
        s = sum(map(self._alg_pw.__getitem__, word))
        mono = (s >> 64) * 2 + (s & 1)  # not s: that splits the keys by odd count
        found = self._mono_keys.get(mono)
        if found is None:
            found = self._mono_keys[mono] = []
            iw = tuple(map(sum, zip(self._zero, *[self._alg_iw[x] for x in word])))
            for miw, p in zip(self._mod_iw, self.module.parities):
                wt = tuple(a - b for a, b in zip(miw, iw))
                if self._scale != 1:
                    wt = tuple(exact(Fraction(v, self._scale)) for v in wt)
                key = (wt, (s & 1) ^ p)
                found.append(self._keys.setdefault(key, key))
        return found

    # cochain index = word_index * dim(M) + module_index
    def degree(self, k: int) -> DegreeData:
        if k in self._degrees:
            return self._degrees[k]
        self._fits(k + 1)
        words = monomial_words(self.alg.parities, k)
        word_index = {w: i for i, w in enumerate(words)}
        keys: list[BlockKey] = []
        blocks: dict[BlockKey, list[int]] = {}
        for w in words:
            for key in self._block_keys(w):
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
        of the two-sum formula, summed in closed form over the places of the
        letters in the row word w: an even letter x has one, i_x, an odd one
        a run of c_x; w has we even letters, and a comes before b.  By the
        reduced sigma_ij (module docstring) the bracket total is
        (-1)^(i_a+i_b) for a, b even, c_b (-1)^(i_a+we) for a even and b odd,
        -c_a c_b for a != b odd and -c_a(c_a-1)/2 for a = b odd; the action
        total is (-1)^(i_x) for x even and c_x (-1)^(we+|f|) for x odd.  No
        total is 0.  The setup shared by every word is made once per complex.
        """
        if self._terms is not None:
            return self._terms
        alg, m = self.alg, self.module
        par = alg.parities
        # each letter's place in the canonical (parity, id) order
        place = {x: i for i, x in enumerate(sorted(range(alg.dim), key=lambda x: (par[x], x)))}
        inverse = alg.inverse_table
        acting = [(x, _by_column(m.action[x])) for x in range(alg.dim) if m.action[x]]

        def insert(word: Word, letters: Word) -> Word | None:
            """The canonical word of word + letters, None if an even letter repeats."""
            for x in letters:
                if par[x] == EVEN and x in word:
                    return None
            return tuple(sorted(word + letters, key=place.__getitem__))

        def terms(u: Word) -> WordTerms:
            brackets: list[tuple[Word, Rational]] = []
            evens = sum(1 for x in u if par[x] == EVEN)
            for cut, t in enumerate(u):
                if (cut and u[cut - 1] == t) or t not in inverse:
                    continue
                rest = u[:cut] + u[cut + 1:]
                # the sign of sorting (t,) + rest into u: t passes the cut
                # letters before it, which change the sign unless both odd
                s = -1 if (evens if par[t] else cut) % 2 else 1
                for a, b, cval in inverse[t]:
                    w = insert(rest, (a, b))
                    if w is None:
                        continue
                    if par[b] == EVEN:
                        total = -1 if (w.index(a) + w.index(b)) % 2 else 1
                    elif par[a] == EVEN:  # w has evens - |t| + 1 = evens + |t| even letters
                        total = -w.count(b) if (w.index(a) + evens + par[t]) % 2 else w.count(b)
                    elif a != b:
                        total = -w.count(a) * w.count(b)
                    else:
                        total = -w.count(a) * (w.count(a) - 1) // 2
                    brackets.append((w, cval * total * s))
            actions: list[tuple[Word, ByColumn, list[int]]] = []
            upar = (len(u) - evens) % 2
            for x, by_col in acting:
                w = insert(u, (x,))
                if w is None:
                    continue
                if par[x] == EVEN:
                    total = -1 if w.index(x) % 2 else 1
                    actions.append((w, by_col, [total, total]))
                else:
                    total = -w.count(x) if (evens + upar) % 2 else w.count(x)
                    actions.append((w, by_col, [total, -total]))
            return brackets, actions

        self._terms = terms
        return terms

    def block_rows(self, k: int, key: BlockKey) -> dict[Row, SparseRow]:
        """The nonzero rows of the d^k block `key`, by the degree-(k+1)
        cochain (word, module index) each stands for, over the degree-k
        cochain indices in `key`.  Every d^k entry is made here, from the
        block's own cochains, and the rows are not kept; an unknown key
        gives {}.  Any key equal to a block's key finds that block.  Each
        row's own key (`_block_keys` of its word) must be `key`."""
        terms = self._word_terms()
        self._fits(k + 2)  # the row words
        data = self.degree(k)
        nm, mpar = self.module.dim, self.module.parities
        # with dim M > 1 a word's cochains spread over many blocks; its
        # terms are then made once and shared by those blocks
        shared = self._shared_terms.setdefault(k, {}) if nm > 1 else None
        # the block's cochains (u, c) by word: u's index, then the c's
        by_word: dict[int, list[int]] = {}
        for idx in data.blocks.get(key, ()):
            by_word.setdefault(idx // nm, []).append(idx % nm)
        d: dict[Row, SparseRow] = {}
        for ui, mcs in by_word.items():
            col = ui * nm
            if shared is None:
                brackets, actions = terms(data.words[ui])
            else:
                found = shared.get(ui)
                if found is None:
                    found = shared[ui] = terms(data.words[ui])
                brackets, actions = found
            for w, val in brackets:
                for c in mcs:
                    add_to(d.setdefault((w, c), {}), col + c, val)
            for w, by_col, totals in actions:
                for c in mcs:
                    total = totals[mpar[c]]
                    for r, v in by_col.get(c, ()):
                        add_to(d.setdefault((w, r), {}), col + c, v * total)
        for name in [name for name, row in d.items() if not row]:
            del d[name]  # its entries cancelled
        # d keeps (weight, parity) blocks; a row word's keys are shared like its terms
        word_keys = self._row_keys if shared is not None else {}
        for w, r in d:
            wkeys = word_keys.get(w)
            if wkeys is None:
                wkeys = word_keys[w] = self._block_keys(w)
            if wkeys[r] != key:
                raise AssertionError("differential entry crosses weight blocks")
        return d

    def differential(self, k: int) -> dict[Row, SparseRow]:
        """d^k: C^k -> C^{k+1} as sparse rows {C^k cochain index: value}:
        the union of `block_rows` over the blocks of C^k, kept once built.

        A row is named by the degree-(k+1) cochain (canonical word, module
        index) and exists only when it has a nonzero entry; C^{k+1} is not
        enumerated (see `indexed_differential`).
        """
        if k not in self._diffs:
            self._diffs[k] = {name: row for key in self.degree(k).blocks
                              for name, row in self.block_rows(k, key).items()}
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
        """Exact check that d^{k+1} o d^k = 0, as one sparse product."""
        return not sparse_matmul(self.indexed_differential(k + 1), self.indexed_differential(k))

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
