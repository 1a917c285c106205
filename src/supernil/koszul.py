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

Every entry is an exact rational.  Because the torus action commutes with
d, the matrices are block diagonal over (weight, parity) keys; d od = 0 is
checked as an exact sparse product wherever a test asks for it.

Block bookkeeping is done in integers.  Each complex scales the algebra
and module weights once by the lcm of their denominators, so a cochain's
block comes from a sum of int tuples.  The `Weight` and `BlockKey` of a
block are made once, when the block is first met, and every cochain of
that block in every degree shares the one key object; `DegreeData.pos`
records each cochain's place in its block.  Building d^k visits every
nonzero once to assert that it stays in its block and, in the same pass,
files it under that block, so `block_matrix` builds a block's sparse rows
from that block's entries alone: extracting all blocks of a degree costs
O(nnz(d^k) + rows), and no zero entry is ever made.

The dual-action convention, chosen once and validated end to end, is
(x.f)(v) = -(-1)^{|x||f|} f(x.v); the opposite global sign is available
behind the `dual_sign` flag and produces an isomorphic complex.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from .linalg import Sparse, SparseRow, add_to, sparse_matmul
from .realize import IdealDesignation, NilpotentAlgebra, verify_ideal
from .supercore import EVEN, ODD, Parity, Weight, parity_sum, swap_sign

Word = tuple[int, ...]


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
        """Representation identity and grading compatibility, exhaustively."""
        alg = self.algebra
        for i, mat in enumerate(self.action):
            for (r, c), val in mat.items():
                assert val != 0
                if self.parities[r] != (self.parities[c] + alg.parities[i]) % 2:
                    raise AssertionError(f"{self.name}: action of x_{i} breaks parity")
                if self.weights[r] != self.weights[c] + alg.weights[i]:
                    raise AssertionError(f"{self.name}: action of x_{i} breaks weights")
        for i in range(alg.dim):
            for j in range(alg.dim):
                lhs: Sparse = {}
                for t, c in alg.bracket(i, j).items():
                    for pos, val in self.action[t].items():
                        add_to(lhs, pos, c * val)
                rhs = sparse_matmul(self.action[i], self.action[j])
                sign = Fraction(1 if (alg.parities[i] and alg.parities[j]) else -1)
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
            sgn = Fraction(dual_sign if not (px and parities[b]) else -dual_sign)
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
    zero = Weight.zero(alg.wtag, len(alg.symbols))
    weights = tuple(
        sum((module.weights[x] for x in w), zero) for w in words
    )
    action: list[Sparse] = []
    for i in range(alg.dim):
        px = alg.parities[i]
        rho = module.action[i]
        cols: dict[int, list[tuple[int, Fraction]]] = {}
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
                        add_to(mat, (index[canon], widx), Fraction(sgn_pre * s) * v)
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
    weights: dict[BlockKey, Weight]
    pos: list[int]                 # per cochain index: its position in blocks[key]


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
        # (scaled weight, parity) -> the one BlockKey object and Weight for it
        self._keys: dict[tuple[tuple[int, ...], Parity], tuple[BlockKey, Weight]] = {}
        self._degrees: dict[int, DegreeData] = {}
        self._diffs: dict[int, Sparse] = {}
        # per differential: id(block key) -> [(row pos, col pos, value)]
        self._buckets: dict[int, dict[int, list[tuple[int, int, Fraction]]]] = {}

    def _key(self, ikey: tuple[tuple[int, ...], Parity]) -> tuple[BlockKey, Weight]:
        """The complex's one BlockKey object, and its Weight, for a scaled key."""
        found = self._keys.get(ikey)
        if found is None:
            wt = Weight(self.alg.wtag, tuple(Fraction(v, self._scale) for v in ikey[0]))
            found = self._keys[ikey] = ((wt.sort_key(), ikey[1]), wt)
        return found

    # cochain index = word_index * dim(M) + module_index
    def degree(self, k: int) -> DegreeData:
        if k in self._degrees:
            return self._degrees[k]
        alg, m = self.alg, self.module
        words = monomial_words(alg.parities, k)
        word_index = {w: i for i, w in enumerate(words)}
        zero = (0,) * len(alg.symbols)
        keys: list[BlockKey] = []
        pos: list[int] = []
        blocks: dict[BlockKey, list[int]] = {}
        weights: dict[BlockKey, Weight] = {}
        # (key, member list) per scaled key, and per c for each distinct
        # (monomial weight, parity); hashing a BlockKey hashes Fractions, so
        # the per-cochain loop below hashes none
        block_of: dict[tuple, tuple[BlockKey, list[int]]] = {}
        by_mono: dict[tuple, list[tuple[BlockKey, list[int]]]] = {}
        for w in words:
            mono = (
                tuple(map(sum, zip(zero, *(self._alg_iw[x] for x in w)))),
                parity_sum(alg.parities[x] for x in w),
            )
            row = by_mono.get(mono)
            if row is None:
                row = by_mono[mono] = []
                for c in range(m.dim):
                    ikey = (
                        tuple(a - b for a, b in zip(self._mod_iw[c], mono[0])),
                        (mono[1] + m.parities[c]) % 2,
                    )
                    if ikey not in block_of:
                        key, wt = self._key(ikey)
                        block_of[ikey] = (key, blocks.setdefault(key, []))
                        weights[key] = wt
                    row.append(block_of[ikey])
            for key, members in row:
                pos.append(len(members))
                members.append(len(keys))
                keys.append(key)
        data = DegreeData(words, word_index, keys, blocks, weights, pos)
        self._degrees[k] = data
        return data

    def dim(self, k: int) -> int:
        return len(self.degree(k).words) * self.module.dim

    def differential(self, k: int) -> Sparse:
        """Sparse matrix of d^k: C^k -> C^{k+1} (rows degree k+1)."""
        if k in self._diffs:
            return self._diffs[k]
        alg, m = self.alg, self.module
        src = self.degree(k)
        dst = self.degree(k + 1)
        nm = m.dim
        d: Sparse = {}
        for hidx, word in enumerate(dst.words):
            pars = [alg.parities[x] for x in word]
            prefix = [0] * (len(word) + 1)
            for t, p in enumerate(pars):
                prefix[t + 1] = prefix[t] ^ p
            # action terms
            for i, x in enumerate(word):
                rest = word[:i] + word[i + 1 :]
                xi = src.word_index[rest]
                rest_par = prefix[len(word)] ^ pars[i]
                for (r, c), val in m.action[x].items():
                    # |f| is the parity of the column cochain (rest, c)
                    f_par = (rest_par + m.parities[c]) % 2
                    tau = i + pars[i] * (prefix[i] + f_par)
                    add_to(d, (hidx * nm + r, xi * nm + c), -val if tau % 2 else val)
            # bracket terms
            for i in range(len(word)):
                for j in range(i + 1, len(word)):
                    br = alg.bracket(word[i], word[j])
                    if not br:
                        continue
                    sigma = (
                        i
                        + j
                        + pars[i] * pars[j]
                        + pars[i] * prefix[i]
                        + pars[j] * prefix[j]
                    )
                    sgn = -1 if sigma % 2 else 1
                    rest = word[:i] + word[i + 1 : j] + word[j + 1 :]
                    for t, cval in br.items():
                        s, canon = normalize_word(alg.parities, (t,) + rest)
                        if not s:
                            continue
                        zi = src.word_index[canon]
                        val = cval if sgn * s > 0 else -cval
                        for w in range(nm):
                            add_to(d, (hidx * nm + w, zi * nm + w), val)

        # the differential must preserve (weight, parity) blocks; file each
        # entry under its block for block_matrix in the same pass, by id()
        # because keys are interned per complex and hashing one is slow
        buckets: dict[int, list[tuple[int, int, Fraction]]] = {}
        for (row, col), val in d.items():
            key = src.keys[col]
            if dst.keys[row] != key:
                raise AssertionError("differential entry crosses weight blocks")
            buckets.setdefault(id(key), []).append((dst.pos[row], src.pos[col], val))
        self._buckets[k] = buckets
        self._diffs[k] = d
        return d

    def check_d_squared(self, k: int) -> bool:
        """Exact check that d^{k+1} o d^k = 0."""
        return not sparse_matmul(self.differential(k + 1), self.differential(k))

    def block_matrix(self, k: int, key: BlockKey) -> list[SparseRow]:
        """d^k block as sparse rows {col pos: value}, one per degree-(k+1)
        cochain in `key` in block order (empty where the row is zero); the
        columns are the degree-k cochains in `key`, by position."""
        self.differential(k)
        src = self.degree(k)
        cols = src.blocks.get(key, ())
        out: list[SparseRow] = [{} for _ in self.degree(k + 1).blocks.get(key, ())]
        if cols:
            for r, c, v in self._buckets[k].get(id(src.keys[cols[0]]), ()):
                out[r][c] = v
        return out

    def export_triples(self, k: int) -> list[list]:
        """Differential as sorted (block key, row, col, "p/q") triples."""
        d = self.differential(k)
        src = self.degree(k)
        rows = []
        for (r, c), v in sorted(d.items()):
            key = src.keys[c]
            rows.append([list(map(str, key[0])), key[1], r, c, str(v)])
        return rows
