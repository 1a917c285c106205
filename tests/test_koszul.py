import copy
import hashlib
import itertools
import json
from collections import Counter
from fractions import Fraction
from math import comb, lcm
from operator import add, sub

import pytest
from hypothesis import given, strategies as st

from supernil import linalg, realize
from supernil.cohomology import (
    CohomologyResult,
    cohomology,
    h0_fixed_points,
    h1_via_superderivations,
)
from supernil.koszul import (
    CochainComplex,
    GModule,
    _packed,
    dual_module,
    lambda_s_module,
    monomial_words,
    normalize_word,
    trivial_module,
)
from supernil.supercore import EVEN, ODD, swap_sign


def lambda_s_dim(d0, d1, k):
    return sum(
        comb(d0, i) * (comb(d1 + (k - i) - 1, k - i) if k - i else 1)
        for i in range(k + 1)
        if i <= d0
    )


def test_monomial_counts_match_binomial_sums():
    for d0, d1 in [(2, 2), (3, 0), (0, 3), (4, 3)]:
        parities = (EVEN,) * d0 + (ODD,) * d1
        for k in range(6):
            assert len(monomial_words(parities, k)) == lambda_s_dim(d0, d1, k)


def test_monomial_basis_degree_zero():
    alg, _ = realize.build_gl(3, 2)
    assert monomial_words(alg.parities, 0) == [()]


def test_gl22_degree2_count():
    alg, _ = realize.build_gl(2, 2)
    assert len(monomial_words(alg.parities, 2)) == 8


def test_q2_all_degrees_two_dimensional():
    alg, _ = realize.build_q(2)
    for k in range(1, 7):
        assert len(monomial_words(alg.parities, k)) == 2


def test_normalize_wedge_examples():
    parities = (EVEN, EVEN, ODD, ODD)
    # single even-even swap
    assert normalize_word(parities, (1, 0)) == (-1, (0, 1))
    # odd squares survive
    assert normalize_word(parities, (2, 2)) == (1, (2, 2))
    # even squares vanish
    assert normalize_word(parities, (0, 0)) == (0, None)
    # canonical order: evens first
    sign, word = normalize_word(parities, (2, 0))
    assert word == (0, 2) and sign == -1  # odd past even: -1


def test_normalize_wedge_permutation_sign():
    # any permutation changes the result by the product of inversion swaps
    parities = (EVEN, ODD, ODD, EVEN)
    base = (0, 3, 1, 2)
    s0, w0 = normalize_word(parities, base)
    for perm in itertools.permutations(range(4)):
        factors = tuple(base[p] for p in perm)
        # predicted sign: product of swap signs over inversions
        pred = 1
        for a in range(4):
            for b in range(a + 1, 4):
                if perm[a] > perm[b]:
                    pred *= swap_sign(parities[factors[a]], parities[factors[b]])
        s, w = normalize_word(parities, factors)
        assert w == w0
        assert s == pred * s0


def test_normalize_repeated_even_inside_longer_word():
    parities = (EVEN, EVEN, ODD)
    assert normalize_word(parities, (1, 2, 1)) == (0, None)


@given(
    st.lists(st.booleans(), min_size=1, max_size=6),
    st.data(),
)
def test_normalize_word_matches_inversion_count_oracle(parity_bits, data):
    # independent oracle: the sign of any sorting is the product of
    # swap signs over inverted pairs of the input word
    parities = tuple(ODD if b else EVEN for b in parity_bits)
    word = tuple(
        data.draw(st.integers(min_value=0, max_value=len(parities) - 1))
        for _ in range(data.draw(st.integers(min_value=0, max_value=5)))
    )
    s, canon = normalize_word(parities, word)
    key = lambda x: (parities[x], x)
    expected_word = tuple(sorted(word, key=key))
    has_even_repeat = any(
        a == b and parities[a] == EVEN for a, b in zip(expected_word, expected_word[1:])
    )
    if has_even_repeat:
        assert s == 0 and canon is None
        return
    pred = 1
    for a in range(len(word)):
        for b in range(a + 1, len(word)):
            if key(word[a]) > key(word[b]):
                pred *= swap_sign(parities[word[a]], parities[word[b]])
    assert canon == expected_word
    assert s == pred


TEST_MATRIX = [
    ("gl", (2, 2)), ("gl", (3, 2)), ("gl", (3, 3)),
    ("q", (3,)), ("q", (4,)),
    ("osp_even", (2, 2)), ("osp_even", (1, 2)), ("osp_odd", (2, 1)), ("osp_odd", (2, 2)),
    ("exc", ("D21a",)),
]


@pytest.mark.parametrize("family,params", TEST_MATRIX)
def test_d_squared_zero_trivial_coefficients(built, family, params):
    alg, _ = built(family, params)
    cx = CochainComplex(alg, trivial_module(alg))
    for k in range(4):
        assert cx.check_d_squared(k)


@pytest.mark.parametrize(
    "family,params",
    [("gl", (3, 3)), ("gl", (3, 2)), ("q", (3,)), ("osp_even", (2, 2)), ("osp_odd", (2, 2))],
)
def test_d_squared_zero_module_coefficients(built, family, params):
    alg, ideal = built(family, params)
    quo = realize.quotient_algebra(alg, ideal)
    dm = dual_module(alg, ideal, quo)
    for module in (dm, lambda_s_module(quo, dm, 2)):
        cx = CochainComplex(quo, module)
        for k in range(3):
            assert cx.check_d_squared(k)


def test_check_d_squared_detects_a_perturbed_entry(built, monkeypatch):
    alg, _ = built("osp_odd", (2, 1))
    cx = CochainComplex(alg, trivial_module(alg))
    assert cx.check_d_squared(1)
    # an entry of d^1 whose row feeds d^2, doubled as block_columns hands
    # it out: d o d = 0 then fails
    words2 = cx.degree(2).words
    used = {(words2[c], 0) for key in cx.degree(2).blocks for c in cx.block_columns(2, key)[1]}
    key, c, rid = next((key, c, rid) for key in cx.degree(1).blocks
                       for names, columns in [cx.block_columns(1, key)]
                       for c, col in columns.items() for rid in col if names[rid] in used)
    assemble = CochainComplex.block_columns

    def doubled(self, k, at):
        names, columns = assemble(self, k, at)
        if (k, at) == (1, key):
            columns = {idx: dict(col) for idx, col in columns.items()}
            columns[c][rid] *= 2
        return names, columns

    monkeypatch.setattr(CochainComplex, "block_columns", doubled)
    assert not CochainComplex(alg, trivial_module(alg)).check_d_squared(1)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_check_d_squared_enumerates_no_degree_past_the_next(built, k):
    # d^{k+1} o d^k = 0 is checked on the blocks of C^k and C^{k+1} alone:
    # the row words of d^{k+1} are named, C^{k+2} is never built
    alg, ideal = built("gl", (3, 2))
    quo = realize.quotient_algebra(alg, ideal)
    for a, module in [(alg, trivial_module(alg)), (quo, dual_module(alg, ideal, quo))]:
        cx = CochainComplex(a, module)
        assert cx.check_d_squared(k)
        assert max(cx._degrees) == k + 1, module.name


def test_module_verify_detects_a_perturbed_action_entry(built):
    alg, ideal = built("osp_odd", (2, 1))
    quo = realize.quotient_algebra(alg, ideal)
    dm = dual_module(alg, ideal, quo)
    action = [dict(mat) for mat in dm.action]
    i = next(i for i, mat in enumerate(action) if mat)
    pos = min(action[i])
    action[i][pos] *= 2
    bad = GModule(quo, "I*", dm.parities, dm.weights, action)
    with pytest.raises(AssertionError, match="representation identity"):
        bad.verify()



@pytest.mark.parametrize("family,params", [("osp_odd", (2, 2)), ("q", (4,))])
def test_module_verify_detects_every_doubled_action_entry(built, family, params):
    # verify checks pairs i <= j and skips one only when [x_i, x_j] = 0
    # and x_i or x_j acts as zero; that still catches each doubled entry
    alg, ideal = built(family, params)
    quo = realize.quotient_algebra(alg, ideal)
    dm = dual_module(alg, ideal, quo)
    checked = 0
    for mod in (dm, lambda_s_module(quo, dm, 2)):
        for i, mat in enumerate(mod.action):
            for pos in mat:
                action = [dict(m) for m in mod.action]
                action[i][pos] *= 2
                bad = GModule(quo, mod.name, mod.parities, mod.weights, action)
                with pytest.raises(AssertionError, match="representation identity"):
                    bad.verify()
                checked += 1
    assert checked == {"osp_odd": 73, "q": 72}[family]



def test_module_verify_checks_a_commuting_pair_that_acts(built):
    # [x_0, x_1] = 0 in abelian gl(2|2), but x_1 x_0 m_0 = m_2 while
    # x_0 x_1 m_0 = 0: the actions do not commute, so this is no module
    alg, _ = built("gl", (2, 2))
    assert alg.bracket(0, 1) == {}
    w0 = (0,) * len(alg.symbols)
    weights = (w0, alg.weights[0], tuple(map(add, alg.weights[0], alg.weights[1])))
    action = [{} for _ in range(alg.dim)]
    action[0][(1, 0)] = 1
    action[1][(2, 1)] = 1
    bad = GModule(alg, "M", (EVEN, EVEN, EVEN), weights, action)
    with pytest.raises(AssertionError, match=r"representation identity fails on \(0,1\)"):
        bad.verify()


@pytest.mark.parametrize("parity, message", [(ODD, "breaks parity"), (EVEN, "breaks weights")])
def test_module_verify_refuses_an_action_off_the_grading(built, parity, message):
    # x_i sends m_0 to m_1, two even vectors: an odd x_i breaks parity; an
    # even one, with m_1 at m_0's weight, breaks weights (gl(2|2) has no
    # zero weight)
    alg, _ = built("gl", (2, 2))
    i = alg.parities.index(parity)
    w0 = (0,) * len(alg.symbols)
    weights = (w0, alg.weights[i] if parity == ODD else w0)
    action = [{} for _ in range(alg.dim)]
    action[i][(1, 0)] = 1
    bad = GModule(alg, "M", (EVEN, EVEN), weights, action)
    with pytest.raises(AssertionError, match=rf"M: action of x_{i} {message}"):
        bad.verify()


def test_abelian_algebra_all_differentials_vanish():
    alg, _ = realize.build_gl(2, 2)
    cx = CochainComplex(alg, trivial_module(alg))
    for k in range(4):
        assert cx.differential(k) == {}


def test_rank_d0_with_ideal_dual_coefficients():
    # image of d^0 on C^0(n/I, I*) has dimension 4(n-2) for gl(n|n)
    from supernil import linalg

    for n in (3, 4):
        alg, ideal = realize.build_gl(n, n)
        quo = realize.quotient_algebra(alg, ideal)
        dm = dual_module(alg, ideal, quo)
        cx = CochainComplex(quo, dm)
        d0 = cx.differential(0)
        assert linalg.rank(list(d0.values())) == 4 * (n - 2)


def test_dual_module_weights_negated():
    alg, ideal = realize.build_gl(3, 3)
    quo = realize.quotient_algebra(alg, ideal)
    dm = dual_module(alg, ideal, quo)
    member_weights = sorted(alg.weights[i] for i in sorted(ideal))
    dual_weights = sorted(tuple(-c for c in w) for w in dm.weights)
    assert member_weights == dual_weights


@pytest.mark.parametrize(
    "family,params", [("gl", (3, 2)), ("q", (4,)), ("osp_odd", (2, 1)), ("osp_even", (2, 2))]
)
def test_dual_module_is_the_contragredient_entry_for_entry(built, family, params):
    # (x.f)(v) = -(-1)^{|x||f|} f([x, v]) straight from the bracket, with
    # f = m_a* the column functional: x.m_a* has f([x, m_b]) at row b
    alg, ideal = built(family, params)
    quo = realize.quotient_algebra(alg, ideal)
    dm = dual_module(alg, ideal, quo)
    members = sorted(ideal)
    keep = [b.id for b in alg.basis if b.id not in ideal]
    odd_acts = False
    for q_id, x in enumerate(keep):
        px = alg.parities[x]
        expected = {}
        for a, f in enumerate(members):
            for b, v in enumerate(members):
                coeff = alg.bracket(x, v).get(f, 0)
                if coeff:
                    expected[(b, a)] = -((-1) ** (px * alg.parities[f])) * coeff
                    odd_acts = odd_acts or px == ODD
        assert dm.action[q_id] == expected
    assert odd_acts  # an odd x acts, so the sign is tested


def test_block_columns_detects_an_entry_crossing_weight_blocks(built):
    # the assertion in block_columns is the one check that d^k keeps
    # (weight, parity) blocks: once degree(k) is built, a letter whose packed
    # weight or parity is off (`_packing`, the table degree(k) and
    # block_columns(k) share) files the rows of words holding it under
    # another block; with dim M > 1 (I* and Lambda_s^2(I*)), so does a
    # module vector r whose packed weight is off, for the rows (w, r); both
    # the ranks and the whole differential reach it
    alg, ideal = built("gl", (3, 2))
    quo = realize.quotient_algebra(alg, ideal)
    dm = dual_module(alg, ideal, quo)
    k = 1

    def shift_letter(cx, row):
        width, letters, _ = cx._packing(k + 1)
        letters[row[0][0]] += 1 << width  # its first weight coordinate, plus 1

    def shift_parity(cx, row):
        cx._packing(k + 1)[1][row[0][0]] += 1  # its odd count, plus 1

    def shift_module_vector(cx, row):
        cx._packing(k + 1)[2][row[1]] += 1

    cases = [(alg, trivial_module(alg), shift_letter),
             (alg, trivial_module(alg), shift_parity),
             (quo, dm, shift_module_vector),
             (quo, lambda_s_module(quo, dm, 2), shift_module_vector)]
    routes = [lambda cx: [cx.block_rank(k, key) for key in cx.degree(k).blocks],
              lambda cx: cx.differential(k)]
    for a, module, shift in cases:
        row = next(iter(CochainComplex(a, module).differential(k)))
        for route in routes:
            cx = CochainComplex(a, module)
            cx.degree(k)
            shift(cx, row)
            with pytest.raises(AssertionError, match="crosses weight blocks"):
                route(cx)


@pytest.mark.parametrize("dual", [False, True], ids=["trivial", "ideal-dual"])
def test_block_rank_refuses_a_bracket_entry_crossing_weight_blocks(built, monkeypatch, dual):
    # one inverse_table entry (a, b, c) of a letter t with b replaced by a
    # letter of b's parity and another weight: its row words no longer have
    # the weight of their columns.  block_rank refuses them on both paths of
    # block_columns: with trivial coefficients each new row is checked where
    # it is numbered, and with I* each word's shared terms are checked
    alg, ideal = built("osp_even", (2, 2))
    if dual:
        quo = realize.quotient_algebra(alg, ideal)
        alg, module = quo, dual_module(alg, ideal, quo)
    else:
        module = trivial_module(alg)
    k = 1
    cx = CochainComplex(alg, module)
    cx.degree(k)
    assert cx._one_dim != dual
    table = {t: list(entries) for t, entries in alg.inverse_table.items()}
    t, (x, b, c), y = next((t, entry, y) for t, entries in table.items()
                           for entry in entries[:1] for y in range(alg.dim)
                           if alg.parities[y] == alg.parities[entry[1]]
                           and alg.weights[y] != alg.weights[entry[1]])
    table[t][0] = (x, y, c)
    monkeypatch.setattr(alg, "inverse_table", table)
    with pytest.raises(AssertionError, match="crosses weight blocks"):
        for key in cx.degree(k).blocks:
            cx.block_rank(k, key)


def vector_pairs(coords):
    """Two int vectors of one length, 1 to 5, with coordinates from coords."""
    def pair(n):
        vec = st.lists(coords, min_size=n, max_size=n)
        return st.tuples(vec, vec)
    return st.integers(1, 5).flatmap(pair)


@given(st.integers(1, 80), vector_pairs(st.integers()))
def test_packed_is_linear(width, uv):
    u, v = uv
    assert _packed(u, width) + _packed(v, width) == _packed([a + b for a, b in zip(u, v)], width)


def width_and_pair(width):
    """A width and two int vectors whose coordinates have |v_i| < 2**(width - 1)."""
    top = 2 ** (width - 1) - 1
    return st.tuples(st.just(width), vector_pairs(st.integers(-top, top) | st.integers(-1, 1)))


@given(st.integers(1, 80).flatmap(width_and_pair))
def test_packed_is_injective_while_coordinates_fit_the_width(wuv):
    width, (u, v) = wuv
    assert (_packed(u, width) == _packed(v, width)) == (u == v)


def test_packed_is_exact_at_and_past_2_63():
    # coordinates at and past 2**63 pack injectively once the width holds
    # them: at 64 bits (2**63, 0) and (-(2**63), 1) would both give 2**63
    assert _packed((2**63, 0), 65) != _packed((-(2**63), 1), 65)
    assert _packed((2**63, 0), 64) == _packed((-(2**63), 1), 64)
    for v in [(2**63,), (0, -(2**63)), (1, 2**64), (-(2**70), 2**70 - 1, 3)]:
        width = max(map(abs, v)).bit_length() + 1
        s = _packed(v, width)
        back = []
        for _ in v:  # the lowest field, read as a signed width-bit int
            low = s & (2**width - 1)
            low -= (low >> (width - 1)) << width
            back.append(low)
            s = (s - low) >> width
        assert tuple(back) == v and s == 0


packed_letters = st.tuples(st.integers(3, 80), st.integers(1, 4).flatmap(lambda n: st.lists(
    st.tuples(st.integers(0, 1), st.lists(st.integers(-(2**60), 2**60), min_size=n,
                                          max_size=n)),
    min_size=1, max_size=6)))


@given(packed_letters)
def test_packed_letters_sum_to_the_packed_weight_and_the_parity(width_letters):
    # a letter packed as (parity,) + weight: a sum of up to 6 such letters at
    # a width of at least 3 bits keeps the odd count in its lowest field
    width, letters = width_letters
    s = sum(_packed((p,) + tuple(v), width) for p, v in letters)
    assert s >> width == _packed([sum(c) for c in zip(*(v for _, v in letters))], width)
    assert s & (2**width - 1) == sum(p for p, _ in letters)
    assert s & 1 == sum(p for p, _ in letters) % 2


@pytest.mark.parametrize("family,params", [("gl", (3, 2)), ("q", (4,)), ("exc", ("G3",))])
def test_narrowed_letter_sums_keep_weight_and_parity(built, family, params):
    # the row words' letter check compares sums of `_packing` letters under
    # a mask: over all words of 1 to 3 letters, two agree under the mask
    # exactly when their exact weight sums and parities agree
    alg, _ = built(family, params)
    cx = CochainComplex(alg, trivial_module(alg))
    width, letters, _ = cx._packing(3)
    mask = -1 << width | 1
    zero = (0,) * len(alg.symbols)
    pairs = set()
    for n in (1, 2, 3):
        for w in itertools.combinations_with_replacement(range(alg.dim), n):
            exact = (tuple(map(sum, zip(zero, *[alg.weights[x] for x in w]))),
                     sum(alg.parities[x] for x in w) % 2)
            pairs.add((sum(letters[x] for x in w) & mask, exact))
    assert len({a for a, _ in pairs}) == len({b for _, b in pairs}) == len(pairs)


def test_packing_width_holds_the_weights_of_d_k_rows(built):
    # `_packing(k + 1)`, the form of degree(k) and block_columns(k), packs
    # the weight of every cochain of C^k and C^{k+1}, scaled to ints,
    # injectively: each coordinate is below 2**(width - 1) in absolute value
    for alg, module in _bookkeeping_cases(built):
        cx = CochainComplex(alg, module)
        for k in range(3):
            width = cx._packing(k + 1)[0]
            top = max(abs(c) * cx._scale for j in (k, k + 1)
                      for key in cx.degree(j).blocks for c in key[0])
            assert top < 2 ** (width - 1), (module.name, k)


def _scaled_weights(alg, module, scale):
    """alg and module with every weight times scale, nothing else changed."""
    big = copy.copy(alg)
    big.weights = tuple(tuple(c * scale for c in w) for w in alg.weights)
    weights = tuple(tuple(c * scale for c in w) for w in module.weights)
    return big, GModule(big, module.name, module.parities, weights, module.action)


@pytest.mark.parametrize("scale", [2**62, -(2**62), 2**70])
@pytest.mark.parametrize("coefficients", ["trivial", "L2-ideal-dual"])
@pytest.mark.parametrize("family,params", [("gl", (3, 2)), ("osp_even", (2, 2))])
def test_weights_past_2_63_give_the_unscaled_blocks(built, family, params, coefficients,
                                                    scale):
    # every algebra and module weight times scale: the weights of words and
    # of cochains pass 2**63, yet H^0..H^3 have the unscaled complex's
    # blocks, each at its weight times scale
    parent, ideal = built(family, params)
    alg, module = parent, trivial_module(parent)
    if coefficients == "L2-ideal-dual":
        alg = realize.quotient_algebra(parent, ideal)
        module = lambda_s_module(alg, dual_module(parent, ideal, alg), 2)
    big, big_module = _scaled_weights(alg, module, scale)
    cx = CochainComplex(big, big_module)
    for k in range(4):
        plain = cohomology(alg, module, k).blocks
        assert plain
        expected = {tuple(c * scale for c in key): eo for key, eo in plain.items()}
        assert cohomology(big, big_module, k, complex_cache=cx).blocks == expected
    assert max(abs(c) for key in cx.degree(3).blocks for c in key[0]) >= 2**63


PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)


def test_a_module_whose_denominators_pass_2_63_shifts_trivial_cohomology(built):
    # 16 trivial summands at weights (1/p, 0, ...), p the primes to 53: the
    # complex scales every weight by their lcm, past 2**63; H^k(n, M) is
    # H^k(n, C) shifted to each summand's weight
    alg, _ = built("osp_odd", (2, 1))
    assert lcm(*PRIMES) > 2**63
    rank = len(alg.symbols)
    weights = tuple((Fraction(1, p),) + (0,) * (rank - 1) for p in PRIMES)
    mod = GModule(alg, "16 C(1/p)", (EVEN,) * len(PRIMES), weights,
                  [{} for _ in range(alg.dim)])
    cx = CochainComplex(alg, mod)
    totals = []
    for k in range(3):
        res = cohomology(alg, mod, k, complex_cache=cx)
        expected = {tuple(map(add, key, w)): eo
                    for key, eo in cohomology(alg, None, k).blocks.items() for w in weights}
        assert res.blocks == expected
        totals.append(res.total)
    assert totals == [16, 64, 112]


def test_lambda_s_module_degree_zero_is_trivial():
    alg, ideal = realize.build_gl(3, 3)
    quo = realize.quotient_algebra(alg, ideal)
    dm = dual_module(alg, ideal, quo)
    m0 = lambda_s_module(quo, dm, 0)
    assert m0.dim == 1 and m0.parities == (EVEN,)
    assert all(not a for a in m0.action)


def test_lambda_s_module_dimension():
    alg, ideal = realize.build_gl(3, 3)
    quo = realize.quotient_algebra(alg, ideal)
    dm = dual_module(alg, ideal, quo)
    d0 = sum(1 for p in dm.parities if p == EVEN)
    d1 = dm.dim - d0
    for j in (1, 2, 3):
        assert lambda_s_module(quo, dm, j).dim == lambda_s_dim(d0, d1, j)


def test_differential_preserves_blocks(built):
    # every nonzero entry connects equal (weight, parity) keys; the
    # assembly asserts this, so building the differential is the test
    alg, _ = built("q", (3,))
    cx = CochainComplex(alg, trivial_module(alg))
    d = cx.differential(1)
    src, dst = cx.degree(1), cx.degree(2)
    index = {w: i for i, w in enumerate(dst.words)}
    for (w, m), row in d.items():
        assert row
        for c in row:
            assert dst.keys[index[w] * cx.module.dim + m] == src.keys[c]


def test_cochain_dim_formula(built):
    alg, _ = built("gl", (3, 2))
    cx = CochainComplex(alg, trivial_module(alg))
    d0, d1 = len(alg.even_ids()), len(alg.odd_ids())
    for k in range(5):
        assert cx.dim(k) == lambda_s_dim(d0, d1, k)


def _fractional_module(alg):
    """Two trivial summands at weights with denominators 2 and 3."""
    rank = len(alg.symbols)
    weights = (
        (Fraction(1, 2),) + (0,) * (rank - 1),
        (0, Fraction(-1, 3)) + (0,) * (rank - 2),
    )
    mod = GModule(alg, "C(1/2)+C(-1/3)", (EVEN, ODD), weights, [{} for _ in range(alg.dim)])
    mod.verify()
    return mod


def _bookkeeping_cases(built):
    cases = []
    for family, params in [("gl", (3, 2)), ("osp_even", (2, 2)), ("q", (3,)),
                           ("exc", ("F4",))]:
        alg, _ = built(family, params)
        cases.append((alg, trivial_module(alg)))
    alg, ideal = built("gl", (3, 2))
    quo = realize.quotient_algebra(alg, ideal)
    cases.append((quo, lambda_s_module(quo, dual_module(alg, ideal, quo), 2)))
    alg, _ = built("osp_odd", (2, 1))
    cases.append((alg, _fractional_module(alg)))
    return cases


def test_block_matrix_matches_sparse_cut_of_differential(built):
    # block_columns holds exactly the nonzero columns of the block's cut of
    # the brute-force target-side d^k, each under its cochain and with each
    # entry in the row named by the cochain it stands for; and block_matrix
    # lists those columns
    for alg, module in _bookkeeping_cases(built):
        cx = CochainComplex(alg, module)
        for k in range(3):
            d = _target_side_differential(cx, k)
            src, dst = cx.degree(k), cx.degree(k + 1)
            for key in set(src.blocks) | set(dst.blocks):
                cols = set(src.blocks.get(key, []))
                nonzero = {}
                for name, row in d.items():
                    for c, v in row.items():
                        if c in cols:
                            nonzero.setdefault(c, {})[name] = v
                names, columns = cx.block_columns(k, key)
                assert len(set(names)) == len(names), (module.name, k, key)
                assert {c: {names[rid]: v for rid, v in col.items()}
                        for c, col in columns.items()} == nonzero, (module.name, k, key)
                listed = cx.block_matrix(k, key)
                assert listed == list(columns.values()), (module.name, k, key)
                assert len(listed) == len(nonzero), (module.name, k, key)
        # blocks are found by key value: an equal copy finds the same columns
        key = next(iter(cx.degree(1).blocks))
        copy = (tuple(list(key[0])), key[1])
        assert copy == key and copy is not key
        assert cx.block_columns(1, copy) == cx.block_columns(1, key)
        assert cx.block_matrix(1, copy) == cx.block_matrix(1, key)


def test_block_keys_and_weights_match_fraction_sums(built):
    for alg, module in _bookkeeping_cases(built):
        cx = CochainComplex(alg, module)
        zero = (0,) * len(alg.symbols)
        for k in range(4):
            data = cx.degree(k)
            old_keys = []
            for idx, key in enumerate(data.keys):
                word, c = data.words[idx // module.dim], idx % module.dim
                word_wt = map(sum, zip(zero, *[alg.weights[x] for x in word]))
                wt = tuple(map(sub, module.weights[c], word_wt))
                par = (module.parities[c] + sum(alg.parities[x] for x in word)) % 2
                old_keys.append((wt, par))
                assert key == old_keys[-1]
                assert key[0] == wt
            assert list(data.blocks) == list(dict.fromkeys(old_keys))
            assert sorted(data.blocks) == sorted(set(old_keys))
            # each block lists its cochain indices in ascending order
            assert all(members == sorted(members) for members in data.blocks.values())


def test_fractional_weights_keep_their_denominators(built):
    alg, _ = built("osp_odd", (2, 1))
    cx = CochainComplex(alg, _fractional_module(alg))
    denominators = {c.denominator for key in cx.degree(2).blocks for c in key[0]}
    assert denominators == {1, 2, 3}


@pytest.mark.parametrize("family, params", [
    ("gl", (3, 2)), ("sl", (3, 2)), ("osp_odd", (2, 2)), ("osp_even", (2, 2)), ("q", (4,)),
    ("exc", ("F4",)),
])
def test_integral_values_are_stored_as_ints(built, family, params):
    # every family has integer structure constants and weights, so every
    # coefficient, action entry, weight coordinate, block key coordinate and
    # differential entry made from them is an int: no Fraction, no float
    alg, ideal = built(family, params)
    values = [c for terms in alg.table.values() for c in terms.values()]
    modules = [trivial_module(alg)]
    if ideal is not None:
        quo = realize.quotient_algebra(alg, ideal)
        dm = dual_module(alg, ideal, quo)
        modules += [dm, lambda_s_module(quo, dm, 2)]
    for mod in modules:
        alg_mod = mod.algebra
        values += [c for w in alg_mod.weights + mod.weights for c in w]
        values += [v for act in mod.action for v in act.values()]
        cx = CochainComplex(alg_mod, mod)
        for k in range(3):
            values += [v for row in cx.differential(k).values() for v in row.values()]
            values += [c for key in cx.degree(k).blocks for c in key[0]]
    assert values and {type(v) for v in values} == {int}


def test_fractional_module_keeps_its_fractions_and_shifts_cohomology(built):
    # C(1/2) (even) + C(-1/3) (odd) with trivial action: H^k(n, M) is
    # H^k(n, C) shifted to each summand's weight, the odd one parity-flipped
    alg, _ = built("osp_odd", (2, 1))
    mod = _fractional_module(alg)
    shifts = [(mod.weights[0], 0), (mod.weights[1], 1)]
    assert [type(c) for w, _ in shifts for c in w if c] == [Fraction, Fraction]
    cx = CochainComplex(alg, mod)
    for k in range(3):
        res = cohomology(alg, mod, k, complex_cache=cx)
        expected = {}
        for key, eo in cohomology(alg, None, k).blocks.items():
            for w, flip in shifts:
                slot = expected.setdefault(tuple(map(add, key, w)), [0, 0])
                slot[0] += eo[flip]
                slot[1] += eo[1 - flip]
        assert res.blocks == expected and res.total == 2 * cohomology(alg, None, k).total
        coords = [c for key in res.blocks for c in key]
        coords += [c for key in cx.degree(k).blocks for c in key[0]]
        coords += [v for row in cx.differential(k).values() for v in row.values()]
        assert {type(c) for c in coords} == {int, Fraction}
        assert all(type(c) is int for c in coords if c.denominator == 1)


def test_fractional_module_passes_the_module_routes(built):
    alg, _ = built("osp_odd", (2, 1))
    mod = _fractional_module(alg)
    assert h1_via_superderivations(alg, mod).blocks == cohomology(alg, mod, 1).blocks
    assert h0_fixed_points(alg, mod).blocks == cohomology(alg, mod, 0).blocks


# sha256 of json.dumps([H^k(osp(5|2), C(1/2)+C(-1/3)).to_json(symbols) for
# k = 0, 1, 2], sort_keys=True)
FRACTIONAL_JSON = "6444e0351285f68b2d2ce77621c3d37fec7aae21ebfd58ac296ddde37bff75e6"


def test_fractional_module_json_labels(built):
    # labels carry 1/2 and 1/3 coefficients in the describe rule's form
    alg, _ = built("osp_odd", (2, 1))
    mod = _fractional_module(alg)
    data = [cohomology(alg, mod, k).to_json(alg.symbols) for k in range(3)]
    assert [b["label"] for b in data[0]["blocks"]] == ["-1/3e2", "1/2e1"]
    assert [(b["weight"], b["label"]) for b in data[1]["blocks"]][:2] == [
        (["-1", "2/3", "0"], "-e1+2/3e2"), (["-1/2", "1", "0"], "-1/2e1+e2"),
    ]
    blob = json.dumps(data, sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == FRACTIONAL_JSON


def test_module_refuses_weights_of_another_symbol_system(built):
    # a weight of gl(2|2) has four coordinates, q(3)'s symbols are three
    alg, _ = built("q", (3,))
    other, _ = built("gl", (2, 2))
    with pytest.raises(ValueError, match="not over the symbol system"):
        GModule(alg, "C'", (EVEN,), (other.weights[0],), [{} for _ in range(alg.dim)])


def test_complex_rejects_module_weights_of_another_symbol_system(built):
    alg, _ = built("q", (3,))
    other, _ = built("gl", (2, 2))
    with pytest.raises(ValueError, match="symbol system"):
        CochainComplex(alg, trivial_module(other))


def _target_side_differential(cx, k):
    """Brute-force reference for d^k: one row per degree-(k+1) word, every
    position (action sum) and position pair (bracket sum) of it visited
    with its own sign, as the two-sum formula reads.  It enumerates
    C^{k+1}, so it serves only as an oracle."""
    from supernil.linalg import add_to

    alg, m = cx.alg, cx.module
    nm = m.dim
    index = {w: i for i, w in enumerate(cx.degree(k).words)}
    d = {}
    for word in monomial_words(alg.parities, k + 1):
        pars = [alg.parities[x] for x in word]
        prefix = [0] * (len(word) + 1)
        for t, p in enumerate(pars):
            prefix[t + 1] = prefix[t] ^ p
        for i, x in enumerate(word):
            rest = word[:i] + word[i + 1:]
            xi = index[rest]
            for (r, c), val in m.action[x].items():
                f_par = (prefix[-1] ^ pars[i] ^ m.parities[c]) % 2
                tau = i + pars[i] * (prefix[i] + f_par)
                add_to(d, ((word, r), xi * nm + c), -val if tau % 2 else val)
        for i in range(len(word)):
            for j in range(i + 1, len(word)):
                sigma = (i + j + pars[i] * pars[j] + pars[i] * prefix[i]
                         + pars[j] * prefix[j])
                rest = word[:i] + word[i + 1:j] + word[j + 1:]
                for t, cval in alg.bracket(word[i], word[j]).items():
                    s, canon = normalize_word(alg.parities, (t,) + rest)
                    if s:
                        val = cval if (-1) ** sigma * s > 0 else -cval
                        for w in range(nm):
                            add_to(d, ((word, w), index[canon] * nm + w), val)
    rows = {}
    for (name, c), v in d.items():
        rows.setdefault(name, {})[c] = v
    return rows


ORACLE_MATRIX = [
    ("gl", (3, 2)), ("sl", (3, 2)), ("q", (4,)), ("osp_odd", (2, 2)),
    ("osp_even", (2, 2)), ("osp_even", (1, 3)), ("exc", ("G3",)),
]


def _oracle_cases(built, family, params):
    """Trivial, fractional (1/2, 1/3), I* and Lambda_s^2(I*) coefficients."""
    alg, ideal = built(family, params)
    cases = [(alg, trivial_module(alg)), (alg, _fractional_module(alg))]
    if ideal is not None and realize.ideal_is_abelian(alg, ideal):
        quo = realize.quotient_algebra(alg, ideal)
        dm = dual_module(alg, ideal, quo)
        cases += [(quo, dm), (quo, lambda_s_module(quo, dm, 2))]
    return cases


@pytest.mark.parametrize("family,params", ORACLE_MATRIX)
def test_source_side_differential_matches_target_side_oracle(built, family, params):
    # every entry, each repeated-odd-letter position pair included, equals
    # the brute-force formula's
    for a, module in _oracle_cases(built, family, params):
        cx = CochainComplex(a, module)
        for k in range(4):
            assert cx.differential(k) == _target_side_differential(cx, k), (module.name, k)


def _closed_form_cases(alg, module, k):
    """How often each closed-form sign case of `_word_terms` occurs in d^k,
    counted from `inverse_table` and the degree-k words alone: bracket
    cases by the parities of (a, b), with a = b by its multiplicity in the
    row word, and action cases by the acting letter's parity and
    multiplicity."""
    par, inverse = alg.parities, alg.inverse_table
    cases = Counter()
    for u in monomial_words(par, k):
        for t in set(u) & set(inverse):
            rest = list(u)
            rest.remove(t)
            for a, b, _ in inverse[t]:
                sign, w = normalize_word(par, rest + [a, b])
                if not sign:
                    continue
                if a == b:
                    cases["self", w.count(a)] += 1
                else:
                    cases["pair", par[a], par[b]] += 1
        for x in range(alg.dim):
            sign, w = normalize_word(par, u + (x,))
            if sign and module.action[x]:
                cases["act", par[x], w.count(x)] += 1
    return cases


def test_oracle_matrix_reaches_every_closed_form_case(built):
    # shrinking ORACLE_MATRIX must not drop a case the oracle checks, on
    # either path of block_columns: one-dimensional coefficients (terms
    # straight into the block's columns) and dim M > 1 (terms shared by the
    # blocks of a word's cochains)
    paths = {True: Counter(), False: Counter()}
    for family, params in ORACLE_MATRIX:
        for a, module in _oracle_cases(built, family, params):
            one_dim = CochainComplex(a, module)._one_dim
            for k in range(4):
                paths[one_dim].update(_closed_form_cases(a, module, k))
    for one_dim, cases in paths.items():
        # a before b in inverse_table, so an odd a never meets an even b
        assert cases["pair", EVEN, EVEN] and cases["pair", EVEN, ODD], one_dim
        assert cases["pair", ODD, ODD] and not cases["pair", ODD, EVEN], one_dim
        assert any(case[0] == "self" and case[1] >= 3 for case in cases), one_dim
    # a one-dimensional module has no action
    assert not any(case[0] == "act" for case in paths[True])
    acts = paths[False]
    assert acts["act", EVEN, 1]
    assert any(case[:2] == ("act", ODD) and case[2] >= 2 for case in acts)


def _named_rows(cx, k, key):
    """The rows of the d^k block `key`, named as in `differential`, turned
    from its `block_columns`."""
    names, columns = cx.block_columns(k, key)
    rows = {}
    for c, col in columns.items():
        for rid, v in col.items():
            rows.setdefault(names[rid], {})[c] = v
    return rows


@pytest.mark.parametrize("family,params", ORACLE_MATRIX)
def test_blocks_assembled_alone_are_the_cuts_of_the_differential(built, monkeypatch, family,
                                                                 params):
    # a block assembled on its own, with d^k never built on its complex, is
    # the block's cut of the whole d^k, and the blocks together are d^k
    # with no row in two of them; on a complex whose d^k is built, a block
    # is the same cut
    for a, module in _oracle_cases(built, family, params):
        fresh, whole = CochainComplex(a, module), CochainComplex(a, module)
        for k in range(4):
            d = whole.differential(k)
            keys = fresh.degree(k).keys
            with monkeypatch.context() as patch:
                patch.setattr(CochainComplex, "differential", _refuse)
                blocks = {key: _named_rows(fresh, k, key) for key in fresh.degree(k).blocks}
            union = {}
            for key, rows in blocks.items():
                cut = {name: row for name, row in d.items() if keys[next(iter(row))] == key}
                assert rows == cut == _named_rows(whole, k, key), (module.name, k, key)
                union.update(rows)
            assert union == d and sum(map(len, blocks.values())) == len(d), (module.name, k)


def _refuse(*args):
    raise AssertionError("whole differential built")


@pytest.mark.parametrize("family,params", [("gl", (3, 3)), ("osp_odd", (2, 2)), ("q", (4,))])
def test_cohomology_never_builds_a_whole_differential(built, monkeypatch, family, params):
    # H^k ranks each block of d^k and d^{k-1} as it is assembled alone;
    # the results are those ranked from the blocks of whole differentials
    alg, ideal = built(family, params)
    quo = realize.quotient_algebra(alg, ideal)
    cases = [(alg, trivial_module(alg)), (quo, dual_module(alg, ideal, quo))]
    expected = []
    for a, module in cases:
        whole = CochainComplex(a, module)
        for k in range(4):
            whole.differential(k)
        expected.append([cohomology(a, module, k, complex_cache=whole).blocks
                         for k in range(4)])
    monkeypatch.setattr(CochainComplex, "differential", _refuse)
    for (a, module), want in zip(cases, expected):
        assert [cohomology(a, module, k).blocks for k in range(4)] == want


@pytest.mark.parametrize("family,params", [("gl", (3, 3)), ("osp_odd", (2, 2)), ("q", (4,))])
def test_cohomology_assembles_d_k_minus_1_only_on_blocks_of_c_k_minus_1(built, monkeypatch,
                                                                       family, params):
    # a block of C^k that C^{k-1} lacks has rank d^{k-1} = 0 (block_rank still
    # gives it), so H^k never asks block_columns for it, and its blocks are
    # those of ranking d^{k-1} on every block of C^k
    alg, ideal = built(family, params)
    quo = realize.quotient_algebra(alg, ideal)
    cases = [(alg, trivial_module(alg)), (quo, dual_module(alg, ideal, quo))]
    expected, absent = [], 0
    for a, module in cases:
        cx = CochainComplex(a, module)
        want = []
        for k in range(4):
            res = CohomologyResult(a.name, k, "koszul", module.name)
            for key, cols in cx.degree(k).blocks.items():
                before = cx.block_rank(k - 1, key) if k else 0
                if k and key not in cx.degree(k - 1).blocks:
                    absent += 1
                    assert before == 0 and cx.block_columns(k - 1, key) == ([], {})
                res.add(*key, len(cols) - cx.block_rank(k, key) - before)
            want.append(res.blocks)
        expected.append(want)
    assert absent
    asked = []
    columns = CochainComplex.block_columns

    def spy(cx, k, key):
        asked.append((cx, k, key))
        return columns(cx, k, key)

    monkeypatch.setattr(CochainComplex, "block_columns", spy)
    for (a, module), want in zip(cases, expected):
        assert [cohomology(a, module, k).blocks for k in range(4)] == want
    assert asked and all(key in cx.degree(k).blocks for cx, k, key in asked)


def test_cohomology_enumerates_no_previous_degree_when_c_k_is_empty(monkeypatch):
    # three even letters span no degree-4 word: H^4 = 0 with C^3 never built
    from supernil import koszul

    basis = [realize.BasisVector(i, f"x{i}", EVEN, (-1,)) for i in range(3)]
    alg = realize.NilpotentAlgebra("A", "test", (), ("e1",), basis, {}, (Fraction(1),))
    enumerated = []

    def recording(parities, k):
        enumerated.append(k)
        return monomial_words(parities, k)

    monkeypatch.setattr(koszul, "monomial_words", recording)
    assert cohomology(alg, None, 4).blocks == {}
    assert enumerated == [4]
    assert cohomology(alg, None, 3).total == 1 and enumerated == [4, 3, 2]


# every family at params <= 3, as the collapse sweep (acceptance criterion 5) takes them
SMALL_FAMILIES = (
    [(fam, (m, n)) for m in range(1, 4) for n in range(1, m + 1)
     for fam in ("gl", "sl", "osp_odd")]
    + [("osp_even", (m, n)) for m in range(1, 4) for n in range(1, 4)]
    + [("q", (n,)) for n in (2, 3)]
)


@pytest.mark.parametrize("family,params", SMALL_FAMILIES)
def test_block_ranks_match_ranks_of_the_target_side_rows(built, family, params):
    # an independent rank oracle: each block's rank, taken from its columns
    # as the assembly makes them, equals the rank of that block's rows of
    # the brute-force target-side d^k, with trivial and I* coefficients
    alg, ideal = built(family, params)
    cases = [(alg, trivial_module(alg))]
    if realize.ideal_is_abelian(alg, ideal):
        quo = realize.quotient_algebra(alg, ideal)
        cases.append((quo, dual_module(alg, ideal, quo)))
    for a, module in cases:
        cx = CochainComplex(a, module)
        for k in range(4):
            keys = cx.degree(k).keys
            rows = {}
            for row in _target_side_differential(cx, k).values():
                rows.setdefault(keys[next(iter(row))], []).append(row)
            for key in cx.degree(k).blocks:
                assert cx.block_rank(k, key) == linalg.rank(rows.get(key, [])), \
                    (module.name, k, key)


def test_rarest_first_order_eliminates_less_than_assembly_order(built, monkeypatch):
    # counted, not timed, so it is deterministic: on the benchmark's
    # module-wide complex, osp_even(3|2)/I with Lambda_s^3(I*), the blocks
    # H^2 ranks take fewer eliminations than the echelon forms of the same
    # vectors (the columns, or the rows where they are fewer) with their
    # coordinates in assembly order, at equal ranks
    alg, ideal = built("osp_even", (3, 2))
    quo = realize.quotient_algebra(alg, ideal)
    cx = CochainComplex(quo, lambda_s_module(quo, dual_module(alg, ideal, quo), 3))
    calls = Counter()
    eliminate = linalg._eliminate

    def counting(*args):
        calls["now"] += 1
        return eliminate(*args)

    monkeypatch.setattr(linalg, "_eliminate", counting)
    assert sum(map(sum, cohomology(quo, cx.module, 2, complex_cache=cx).blocks.values())) == 22
    ranked = calls.pop("now")
    assert len(cx.ranks) > 100
    for (k, key), r in cx.ranks.items():
        cols = cx.block_matrix(k, key)
        rows = {}
        for c, col in enumerate(cols):
            for rid, v in col.items():
                rows.setdefault(rid, {})[c] = v
        vecs = list(rows.values()) if len(rows) < len(cols) else cols
        assert len(linalg._echelon(vecs)) == r
    assembly_order = calls.pop("now")
    assert ranked < assembly_order


def test_clearing_keeps_eliminations_down(built, monkeypatch):
    # counted, not timed, so it is deterministic: with d^{k-1} ranked first
    # and its pivot rows clearing d^k's columns, H^2 on the module-wide
    # complex takes at most 2,000 eliminations (7,950 without clearing) and
    # H^3 on the trivial-deep one, osp_even(3|3) with C, at most 700 (1,741)
    calls = Counter()
    eliminate = linalg._eliminate

    def counting(*args):
        calls["now"] += 1
        return eliminate(*args)

    monkeypatch.setattr(linalg, "_eliminate", counting)
    alg, ideal = built("osp_even", (3, 2))
    quo = realize.quotient_algebra(alg, ideal)
    module = lambda_s_module(quo, dual_module(alg, ideal, quo), 3)
    calls.clear()
    assert cohomology(quo, module, 2).total == 22
    assert 0 < calls["now"] <= 2000
    deep, _ = built("osp_even", (3, 3))
    calls.clear()
    assert cohomology(deep, None, 3).total == 128
    assert 0 < calls["now"] <= 700


@pytest.mark.parametrize("family,params", SMALL_FAMILIES)
def test_clearing_leaves_out_pivot_rows_only(built, monkeypatch, family, params):
    # H^k on a fresh complex ranks each block's d^{k-1} first and leaves out
    # of d^k the columns of the C^k cochains at a maximal independent set of
    # that block's rows: its blocks are those of plain block ranks, the
    # cleared cochains number rank d^{k-1} on each block and keep its rank,
    # every other column is passed on; trivial and I* coefficients, k <= 3,
    # and Lambda_s^2(I*), k <= 2 (its H^3 on osp_odd(3|3) alone takes
    # seconds)
    alg, ideal = built(family, params)
    cases = [(alg, trivial_module(alg), 3)]
    if realize.ideal_is_abelian(alg, ideal):
        quo = realize.quotient_algebra(alg, ideal)
        dual = dual_module(alg, ideal, quo)
        cases += [(quo, dual, 3), (quo, lambda_s_module(quo, dual, 2), 2)]
    made, clearings = {}, []
    columns, matrix = CochainComplex.block_columns, CochainComplex.block_matrix

    def columns_spy(cx, k, key):
        made[cx, k, key] = columns(cx, k, key)
        return made[cx, k, key]

    def matrix_spy(cx, k, key, names=None, cleared=frozenset()):
        cols = matrix(cx, k, key, names, cleared)
        if cleared:
            clearings.append((cx, k, key, set(cleared), len(cols)))
        return cols

    monkeypatch.setattr(CochainComplex, "block_columns", columns_spy)
    monkeypatch.setattr(CochainComplex, "block_matrix", matrix_spy)
    for a, module, top in cases:
        plain = CochainComplex(a, module)
        for k in range(top + 1):
            made.clear()
            clearings.clear()
            want = CohomologyResult(a.name, k, "koszul", module.name)
            for key, cols in plain.degree(k).blocks.items():
                before = plain.block_rank(k - 1, key) if k else 0
                want.add(*key, len(cols) - plain.block_rank(k, key) - before)
            cx = CochainComplex(a, module)
            assert cohomology(a, module, k, complex_cache=cx).blocks == want.blocks, \
                (module.name, k)
            index, nm = {w: i for i, w in enumerate(cx.degree(k).words)}, module.dim
            for c, j, key, cleared_names, passed in clearings:
                cochains = {index[w] * nm + m for w, m in cleared_names}
                assert c is cx and j == k and cochains <= set(cx.degree(k).blocks[key])
                assert len(cochains) == cx.ranks[k - 1, key] == plain.ranks[k - 1, key]
                names, cols = made[cx, k - 1, key]
                rows = [{rid: v for rid, v in col.items() if names[rid] in cleared_names}
                        for col in cols.values()]
                assert linalg.rank(rows) == len(cochains), (module.name, k, key)
                assert passed == sum(1 for idx in made[cx, k, key][1] if idx not in cochains)
            assert sum(len(cochains) for *_, cochains, _ in clearings) == sum(
                plain.ranks[k - 1, key] for key in plain.degree(k).blocks
                if k and key in plain.degree(k - 1).blocks), (module.name, k)


def test_a_row_whose_entries_cancel_is_dropped():
    # x0 acts on the abelian ideal <x1, x2> by a square-zero matrix with a
    # nonzero diagonal, so every weight is zero (the built families have
    # none) and the two terms of d(x1* ^ x2*) on x0 ^ x1 ^ x2 cancel
    basis = [realize.BasisVector(i, f"x{i}", EVEN, (0,)) for i in range(3)]
    one = Fraction(1)
    table = {(0, 1): {1: one, 2: one}, (0, 2): {1: -one, 2: -one}}
    alg = realize.NilpotentAlgebra("N", "test", (), ("e1",), basis, table, (-one,))
    cx = CochainComplex(alg, trivial_module(alg))
    assert cx.differential(1) == _target_side_differential(cx, 1) != {}
    assert cx.differential(2) == _target_side_differential(cx, 2) == {}
    assert all(cx.block_matrix(2, key) == [] for key in cx.degree(2).blocks)
    assert cx.check_d_squared(1)


@pytest.mark.parametrize("family,params", [("gl", (3, 2)), ("osp_odd", (2, 2)), ("q", (4,))])
def test_cohomology_never_enumerates_the_next_degree(built, monkeypatch, family, params):
    from supernil import koszul
    from supernil.cohomology import cohomology, is_cocycle

    alg, ideal = built(family, params)
    quo = realize.quotient_algebra(alg, ideal)
    enumerated = []

    def recording(parities, k):
        enumerated.append(k)
        return monomial_words(parities, k)

    monkeypatch.setattr(koszul, "monomial_words", recording)
    for a, module in [(alg, None), (quo, dual_module(alg, ideal, quo))]:
        for k in range(4):
            enumerated.clear()
            cohomology(a, module, k)
            assert sorted(enumerated) == list(range(max(k - 1, 0), k + 1)), (k, enumerated)
    # d^2 h names its degree-3 entries by word, so is_cocycle stops at C^2
    h = {w: Fraction(1 + i) for i, w in enumerate(monomial_words(alg.parities, 2))
         if (alg.parities[w[0]] + alg.parities[w[1]]) % 2 == EVEN}
    enumerated.clear()
    is_cocycle(alg, h)
    assert enumerated == [2]


def _relabelled(alg, inv):
    """alg with its basis renumbered: new id i is old id inv[i]."""
    perm = {old: new for new, old in enumerate(inv)}
    basis = [alg.basis[old]._replace(id=new) for new, old in enumerate(inv)]
    table = {}
    for i in range(alg.dim):
        for j in range(i, alg.dim):
            br = alg.bracket(inv[i], inv[j])
            if br:
                table[(i, j)] = {perm[t]: c for t, c in br.items()}
    out = realize.NilpotentAlgebra(alg.name, alg.family, alg.params, alg.symbols, basis,
                                   table, alg.grading)
    out.verify()
    return out


def test_relabelling_odd_ids_first_maps_the_complex_through(built):
    # gl(3|2) and gl(3|2)/I with I*, relabelled so that every odd id comes
    # before every even one: canonical (parity, id) order is then not id
    # order, so row words take the keyed sort, as q's do.  The cochain on a
    # relabelled word is +-1 times the one on its word in the old ids
    # (`normalize_word`), so each d^k entry maps through with those signs,
    # and H^k keeps its blocks, k <= 3
    alg, ideal = built("gl", (3, 2))
    quo = realize.quotient_algebra(alg, ideal)
    for a, module in [(alg, trivial_module(alg)), (quo, dual_module(alg, ideal, quo))]:
        assert [b.id for b in a.basis] == list(range(a.dim))
        inv = a.odd_ids() + a.even_ids()
        b = _relabelled(a, inv)
        relabelled = GModule(b, module.name, module.parities, module.weights,
                             [module.action[old] for old in inv])
        relabelled.verify()
        old, new = CochainComplex(a, module), CochainComplex(b, relabelled)
        assert any(list(w) != sorted(w) for w in new.degree(2).words)
        nm = module.dim

        def to_old(word):
            return normalize_word(a.parities, [inv[x] for x in word])

        for k in range(4):
            new_src = new.degree(k)
            index = {w: i for i, w in enumerate(old.degree(k).words)}
            mapped = {}
            for (w, r), row in new.differential(k).items():
                sr, w_old = to_old(w)
                out = mapped[(w_old, r)] = {}
                for c, v in row.items():
                    sc, u_old = to_old(new_src.words[c // nm])
                    out[index[u_old] * nm + c % nm] = sr * sc * v
            assert mapped == old.differential(k), (module.name, k)
            assert (cohomology(b, relabelled, k).blocks
                    == cohomology(a, module, k).blocks), (module.name, k)
