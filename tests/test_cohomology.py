import hashlib
import itertools
import random
import re
from fractions import Fraction
from math import comb

import pytest

from supernil import koszul, linalg, realize
from supernil.cohomology import (
    CohomologyResult,
    central_extension,
    cocycle_space,
    cohomology,
    euler_characteristic_check,
    h0_fixed_points,
    h1_via_quotient,
    h1_via_superderivations,
    is_cocycle,
)
from supernil.koszul import CochainComplex, dual_module, lambda_s_module, trivial_module


def test_h2_gl22_total_8(built):
    alg, _ = built("gl", (2, 2))
    assert cohomology(alg, None, 2).total == 8


def test_h2_gl33_total_28(built):
    alg, _ = built("gl", (3, 3))
    assert cohomology(alg, None, 2).total == 28


def test_h0_is_constants(built):
    for fam, params in [("gl", (3, 2)), ("q", (3,)), ("osp_odd", (2, 2))]:
        alg, _ = built(fam, params)
        res = cohomology(alg, None, 0)
        assert res.total == 1
        ((key, eo),) = res.block_items()
        assert all(c == 0 for c in key) and eo == [1, 0]


def test_a_rank_above_the_block_width_is_refused(built, monkeypatch):
    alg, _ = built("gl", (2, 2))
    monkeypatch.setattr(koszul.CochainComplex, "block_rank", lambda self, *args, **kwargs: 10 ** 6)
    with pytest.raises(AssertionError, match="negative block dimension at"):
        cohomology(alg, None, 1)


def test_a_complex_cache_of_another_algebra_or_module_is_refused(built):
    # the cache must be the complex of the algebra and the module asked for
    # (module None: trivial coefficients), or the blocks would be another
    # complex's; an equal copy of the module is not the cache's module
    alg, ideal = built("gl", (3, 2))
    quo = realize.quotient_algebra(alg, ideal)
    dual = dual_module(alg, ideal, quo)
    other, _ = built("gl", (2, 2))
    zero = (0,) * len(quo.symbols)
    shifted = koszul.GModule(quo, "C'", (0,), (quo.weights[0],), [{} for _ in range(quo.dim)])
    odd = koszul.GModule(quo, "C'", (1,), (zero,), [{} for _ in range(quo.dim)])
    refused = [
        (alg, None, CochainComplex(other, trivial_module(other))),
        (quo, dual, CochainComplex(alg, trivial_module(alg))),
        (quo, dual, CochainComplex(quo, trivial_module(quo))),
        (quo, dual, CochainComplex(quo, dual_module(alg, ideal, quo))),
        (quo, None, CochainComplex(quo, dual)),
        (quo, None, CochainComplex(quo, shifted)),
        (quo, None, CochainComplex(quo, odd)),
    ]
    for a, module, cx in refused:
        with pytest.raises(ValueError, match="complex_cache"):
            cohomology(a, module, 1, complex_cache=cx)
        assert not cx.ranks
    for a, module, cx in [(alg, None, CochainComplex(alg, trivial_module(alg))),
                          (quo, dual, CochainComplex(quo, dual))]:
        for k in range(3):
            assert (cohomology(a, module, k, complex_cache=cx).blocks
                    == cohomology(a, module, k).blocks)


def test_cocycle_readers_refuse_a_complex_cache_of_another_algebra_or_module(built):
    # is_cocycle and cocycle_space read d^2 of alg with trivial coefficients:
    # another algebra's complex, or the I* complex of alg, gave wrong
    # cocycles or an IndexError; the right complex is taken as it is
    alg, ideal = built("gl", (3, 2))
    other, _ = built("gl", (2, 2))
    quo = realize.quotient_algebra(alg, ideal)
    cocycles, non_cocycles = cocycle_space(alg)
    assert (len(cocycles), len(non_cocycles)) == (9, 7)
    quo_space = cocycle_space(quo)
    for a, cx in [(alg, CochainComplex(other, trivial_module(other))),
                  (quo, CochainComplex(quo, dual_module(alg, ideal, quo)))]:
        with pytest.raises(ValueError, match="complex_cache"):
            cocycle_space(a, cx)
        for h in quo_space[0] if a is quo else cocycles:
            with pytest.raises(ValueError, match="complex_cache"):
                is_cocycle(a, h, cx)
    cx = CochainComplex(quo, trivial_module(quo))
    assert cocycle_space(quo, cx) == quo_space
    assert all(is_cocycle(quo, h, cx) for h in quo_space[0])


def test_h0_zero_dimensional_algebra():
    alg, _ = realize.build_gl(1, 1)
    assert alg.dim == 0
    assert cohomology(alg, None, 0).total == 1
    assert cohomology(alg, None, 1).total == 0


ROUTE_MATRIX = [
    ("gl", (2, 2)), ("gl", (3, 2)), ("gl", (3, 3)), ("gl", (4, 2)),
    ("q", (3,)), ("q", (4,)), ("q", (5,)),
    ("osp_even", (1, 1)), ("osp_even", (2, 2)), ("osp_even", (1, 2)),
    ("osp_even", (3, 2)), ("osp_odd", (2, 1)), ("osp_odd", (2, 2)),
    ("exc", ("D21a",)), ("exc", ("G3",)), ("exc", ("F4",)),
]


@pytest.mark.parametrize("family,params", ROUTE_MATRIX)
def test_h1_three_routes_agree_per_block(built, family, params):
    alg, _ = built(family, params)
    koszul_route = cohomology(alg, None, 1)
    quotient_route = h1_via_quotient(alg)
    superder_route = h1_via_superderivations(alg, trivial_module(alg))
    assert koszul_route.blocks == quotient_route.blocks
    assert koszul_route.blocks == superder_route.blocks


@pytest.mark.parametrize("family,params", [("gl", (3, 3)), ("q", (3,)), ("osp_even", (2, 2))])
def test_h0_fixed_points_equals_koszul(built, family, params):
    alg, ideal = built(family, params)
    quo = realize.quotient_algebra(alg, ideal)
    dm = dual_module(alg, ideal, quo)
    for module in (trivial_module(quo), dm, lambda_s_module(quo, dm, 2)):
        fixed = h0_fixed_points(quo, module)
        direct = cohomology(quo, module, 0)
        assert fixed.blocks == direct.blocks


@pytest.mark.parametrize("family,params", [
    ("gl", (3, 3)), ("q", (4,)), ("osp_odd", (2, 2)), ("osp_even", (3, 2)),
])
def test_module_routes_equal_koszul_per_block(built, family, params):
    # H^1 by superderivations and H^0 by fixed points, block by block, on
    # modules whose blocks mix many weights and both parities
    alg, ideal = built(family, params)
    quo = realize.quotient_algebra(alg, ideal)
    dm = dual_module(alg, ideal, quo)
    for j in (2, 3):
        module = lambda_s_module(quo, dm, j)
        cx = koszul.CochainComplex(quo, module)
        h1 = cohomology(quo, module, 1, complex_cache=cx)
        assert h1_via_superderivations(quo, module).blocks == h1.blocks, (module.name, 1)
        h0 = cohomology(quo, module, 0, complex_cache=cx)
        assert h0_fixed_points(quo, module).blocks == h0.blocks, (module.name, 0)
        assert h1.total and h0.total, module.name


def test_fixed_points_gl_proposition_dimension_8():
    # H^0(n/I, Lambda_s^2(I*)) has dimension 8 for all n (checked 3..5)
    for n in (3, 4, 5):
        alg, ideal = realize.build_gl(n, n)
        quo = realize.quotient_algebra(alg, ideal)
        dm = dual_module(alg, ideal, quo)
        assert h0_fixed_points(quo, lambda_s_module(quo, dm, 2)).total == 8


def test_fixed_points_q_dimension_2():
    for n in (3, 4, 5):
        alg, ideal = realize.build_q(n)
        quo = realize.quotient_algebra(alg, ideal)
        dm = dual_module(alg, ideal, quo)
        assert h0_fixed_points(quo, lambda_s_module(quo, dm, 2)).total == 2


def test_h1_module_coefficients_gl33():
    # H^1(n/I, I*) has total dimension 12
    alg, ideal = realize.build_gl(3, 3)
    quo = realize.quotient_algebra(alg, ideal)
    dm = dual_module(alg, ideal, quo)
    res = cohomology(quo, dm, 1)
    assert res.total == 12
    assert res.blocks == h1_via_superderivations(quo, dm).blocks


def test_superderivations_abelian_trivial_coefficients():
    # every linear map is a superderivation, none are inner
    alg, _ = realize.build_gl(2, 2)
    assert h1_via_superderivations(alg, trivial_module(alg)).total == alg.dim


def test_superderivations_q3():
    alg, _ = realize.build_q(3)
    assert h1_via_superderivations(alg, trivial_module(alg)).total == 4


def test_h1_weights_are_negated_simple_roots():
    # gl(n|n) classes sit at e_{i+1}-e_i, d_{i+1}-d_i, d_{i+1}-e_i, e_{i+1}-d_i
    n = 3
    alg, _ = realize.build_gl(n, n)
    res = cohomology(alg, None, 1)
    expected = set()
    for i in range(1, n):
        for (a, b) in (("e", "e"), ("d", "d"), ("e", "d"), ("d", "e")):
            coeffs = [Fraction(0)] * (2 * n)
            pos = lambda sym, idx: (idx - 1) if sym == "e" else (n + idx - 1)
            coeffs[pos(a, i + 1)] += 1
            coeffs[pos(b, i)] -= 1
            expected.add(tuple(coeffs))
    assert set(res.blocks) == expected


def test_h1_weights_q_even_odd_pairs():
    # q(n): one even and one odd class at each e_{i+1} - e_i
    n = 4
    alg, _ = realize.build_q(n)
    res = cohomology(alg, None, 1)
    expected = {}
    for i in range(1, n):
        coeffs = [Fraction(0)] * n
        coeffs[i] = Fraction(1)
        coeffs[i - 1] = Fraction(-1)
        expected[tuple(coeffs)] = [1, 1]
    assert res.blocks == expected


def test_h2_weights_are_negated_pair_sums():
    # for an abelian algebra every H^2 class weight is -(w_a + w_b)
    alg = realize.build_exceptional("D21a")
    res = cohomology(alg, None, 2)
    pair_sums = {
        tuple(-x - y for x, y in zip(a.weight, b.weight))
        for a in alg.basis
        for b in alg.basis
    }
    assert set(res.blocks) <= pair_sums
    assert res.total == 18


def test_abelian_h_k_equals_lambda_s(built):
    # for abelian n, dim H^k = dim Lambda_s^k(n) in every degree
    for fam, params in [("gl", (2, 2)), ("q", (2,)), ("exc", ("D21a",))]:
        alg, _ = built(fam, params)
        d0, d1 = len(alg.even_ids()), len(alg.odd_ids())
        for k in range(4):
            expected = sum(
                comb(d0, i) * (comb(d1 + (k - i) - 1, k - i) if k - i else 1)
                for i in range(k + 1)
                if i <= d0
            )
            assert cohomology(alg, None, k).total == expected


# -- central extensions ---------------------------------------------------------


def test_central_extension_zero_cochain():
    alg, _ = realize.build_q(3)
    assert central_extension(alg, {}).jacobi_failures() == []


def test_central_extension_rejects_odd_cochain():
    # the ValueError names the odd word, as that of a malformed word does
    alg, _ = realize.build_q(3)
    words = koszul.monomial_words(alg.parities, 2)
    odd_words = [w for w in words if (alg.parities[w[0]] + alg.parities[w[1]]) % 2 == 1]
    assert odd_words
    for w in odd_words:
        with pytest.raises(ValueError, match=re.escape(repr(w))):
            central_extension(alg, {w: 1})


# (1, 0) is out of canonical order, (0, 0) repeats an even id, and the
# others are not two ids of the algebra's basis
@pytest.mark.parametrize("word", [(1, 0), (0, 0), (0,), (0, 1, 2), (0, 99), (-1, 0)])
def test_malformed_cochain_words_are_refused(built, word):
    # neither a KeyError nor a key that `pair` never reads, which would
    # build the trivial extension: a ValueError that names the word
    message = rf"^{re.escape(repr(word))} is not a canonical degree-2 word"
    for family, params in [("gl", (2, 2)), ("gl", (3, 2))]:
        alg, _ = built(family, params)
        assert alg.parities[0] == alg.parities[1] == 0
        with pytest.raises(ValueError, match=message):
            is_cocycle(alg, {word: 1})
        with pytest.raises(ValueError, match=message):
            central_extension(alg, {word: 1})


def test_a_canonical_even_word_is_accepted(built):
    # x_0 ^ x_1 of gl(3|2), both even: d^2 of its dual is not 0, and the
    # extension reads it back in either order
    alg, _ = built("gl", (3, 2))
    h = {(0, 1): Fraction(1)}
    ext = central_extension(alg, h)
    assert not is_cocycle(alg, h) and ext.jacobi_failures()
    assert ext.pair(0, 1) == 1 and ext.pair(1, 0) == -1


def test_coboundaries_are_cocycles_and_give_jacobi():
    # h = d^1 f for the dual of an even basis vector
    alg, _ = realize.build_q(3)
    cx = koszul.CochainComplex(alg, trivial_module(alg))
    d1 = cx.differential(1)
    words1 = cx.degree(1).words
    # pick an even dual cochain with nonzero differential (a derived
    # generator such as Et(1,3)*; the simple generators have d = 0)
    h = {}
    for f_col, w in enumerate(words1):
        if alg.parities[w[0]] != 0:
            continue
        h = {w: row[f_col] for (w, _), row in d1.items() if f_col in row}
        if h:
            break
    assert h, "found a basis cochain with nonzero differential"
    assert is_cocycle(alg, h)
    assert central_extension(alg, h).jacobi_failures() == []


@pytest.mark.parametrize(
    "family,params",
    [("gl", (2, 2)), ("q", (2,)), ("q", (3,)), ("osp_even", (1, 1)),
     ("osp_odd", (1, 1)), ("exc", ("D21a",))],
)
def test_jacobi_iff_cocycle(built, family, params):
    alg, _ = built(family, params)
    assert alg.dim <= 6
    cocycles, non_cocycles = cocycle_space(alg)
    for h in cocycles:
        assert is_cocycle(alg, h)
        assert central_extension(alg, h).jacobi_failures() == []
    for h in non_cocycles:
        assert not is_cocycle(alg, h)
        assert central_extension(alg, h).jacobi_failures()


def test_cocycle_space_eliminates_d2_once(built, monkeypatch):
    # kernel and pivot columns come from one rref of the 11 rows of d^2
    alg, _ = built("gl", (3, 2))
    rref, calls = linalg.rref, []

    def counting(rows):
        calls.append(len(rows))
        return rref(rows)

    monkeypatch.setattr(linalg, "rref", counting)
    cocycles, non_cocycles = cocycle_space(alg)
    assert calls == [11]
    assert (len(cocycles), len(non_cocycles)) == (9, 7)
    blob = repr(([sorted(h.items()) for h in cocycles], [sorted(h.items()) for h in non_cocycles]))
    assert hashlib.sha256(blob.encode()).hexdigest() == (
        "51dd430743dac8b5e9366b1a14e4e9c37aa0a60fd8a3748b82ef5d9a2639d526"
    )


# every family with parameters <= 3
SMALL_FAMILIES = (
    [(fam, (m, n)) for fam in ("gl", "sl", "osp_odd") for m in range(1, 4)
     for n in range(1, m + 1)]
    + [("osp_even", (m, n)) for m in range(1, 4) for n in range(1, 4)]
    + [("q", (n,)) for n in (2, 3)]
)


@pytest.mark.parametrize("family,params", SMALL_FAMILIES)
def test_is_cocycle_reads_the_columns_of_d2(built, family, params):
    # h = {w: 1} is a cocycle iff column w of d^2 is zero, for every
    # canonical degree-2 word w, even or odd; a random h of mixed parity is
    # one iff d^2 h = 0
    alg, _ = built(family, params)
    cx = CochainComplex(alg, trivial_module(alg))
    words = cx.degree(2).words
    d2 = CochainComplex(alg, trivial_module(alg)).differential(2)
    hit = {c for row in d2.values() for c in row}
    for c, w in enumerate(words):
        assert is_cocycle(alg, {w: 1}, cx) == (c not in hit), w
    rng = random.Random(5)
    h = {w: rng.randint(-3, 3) for w in words if rng.random() < 0.3}
    index = {w: c for c, w in enumerate(words)}
    image = [sum(v * row.get(index[w], 0) for w, v in h.items()) for row in d2.values()]
    assert is_cocycle(alg, h, cx) == (not any(image))


def test_random_even_cochains_jacobi_iff_cocycle():
    import random

    rng = random.Random(42)
    alg, _ = realize.build_q(3)
    words = [
        w for w in koszul.monomial_words(alg.parities, 2)
        if (alg.parities[w[0]] + alg.parities[w[1]]) % 2 == 0
    ]
    for _ in range(20):
        h = {w: Fraction(rng.randint(-3, 3)) for w in words if rng.random() < 0.6}
        jac = not central_extension(alg, h).jacobi_failures()
        assert jac == is_cocycle(alg, h)



def _jacobi_failures_unskipped(ext):
    # every triple i <= j <= k, each side built from the extension bracket
    # of coefficient vectors over n (+) C, the center being index alg.dim
    alg = ext.alg
    center = alg.dim

    def br(u, w):
        out = {}
        for i, a in u.items():
            for j, b in w.items():
                if center in (i, j):
                    continue
                terms = dict(alg.bracket(i, j))
                terms[center] = terms.get(center, 0) + ext.pair(i, j)
                for t, c in terms.items():
                    out[t] = out.get(t, 0) + a * b * c
        return {t: c for t, c in out.items() if c}

    bad = []
    for i, j, k in itertools.combinations_with_replacement(range(alg.dim), 3):
        x, y, z = {i: 1}, {j: 1}, {k: 1}
        sign = -1 if (alg.parities[i] and alg.parities[j]) else 1
        rhs = br(br(x, y), z)
        for t, c in br(y, br(x, z)).items():
            rhs[t] = rhs.get(t, 0) + sign * c
        if br(x, br(y, z)) != {t: c for t, c in rhs.items() if c}:
            bad.append((i, j, k))
    return bad


@pytest.mark.parametrize("family,params", [("gl", (2, 2)), ("q", (3,))])
def test_jacobi_failures_match_an_unskipped_loop(built, family, params):
    # the shared triple loop skips a triple only when its three brackets
    # vanish; on random even cochains it finds exactly the failing triples
    rng = random.Random(7)
    alg, _ = built(family, params)
    words = [
        w for w in koszul.monomial_words(alg.parities, 2)
        if (alg.parities[w[0]] + alg.parities[w[1]]) % 2 == 0
    ]
    found = 0
    for _ in range(15):
        ext = central_extension(alg, {w: rng.randint(-3, 3) for w in words if rng.random() < 0.5})
        bad = ext.jacobi_failures()
        assert bad == _jacobi_failures_unskipped(ext)
        found += bool(bad)
    assert found or alg.abelian


# -- Euler characteristic ---------------------------------------------------------


def test_euler_characteristic_blocks():
    for fam, params in [("gl", (3, 2)), ("q", (3,)), ("osp_even", (2, 1))]:
        alg, _ = realize.build_family(fam, params)
        assert alg.dim <= 8
        # cochain weights: the negated weights of words of one and two letters
        seen = set()
        for b in alg.basis:
            seen.add(tuple(-x for x in b.weight))
            for b2 in alg.basis:
                seen.add(tuple(-x - y for x, y in zip(b.weight, b2.weight)))
        lhs = []
        for w in sorted(seen)[:10]:
            rep = euler_characteristic_check(alg, w)
            assert rep["equal"], rep
            lhs.append(rep["lhs"])
        # the identity compares nonzero sums, not 0 with 0
        assert any(lhs), (alg.name, lhs)


def test_euler_characteristic_refuses_a_weight_of_another_length(built):
    # a weight of the wrong length once zipped against the grading and the
    # block keys and passed as 0 == 0
    alg, _ = built("gl", (3, 2))
    assert len(alg.symbols) == 5
    for w in [(1, -1), (1, -1, 0, 0, 0, 7)]:
        with pytest.raises(ValueError, match="symbol system"):
            euler_characteristic_check(alg, w)
    assert euler_characteristic_check(alg, (0,) * 5)["equal"]


def test_result_serialization(built):
    alg, _ = built("gl", (3, 3))
    res = cohomology(alg, None, 1)
    data = res.to_json(alg.symbols)
    assert data["total"] == 8
    assert all(set(b) >= {"weight", "even", "odd", "label"} for b in data["blocks"])
    import json

    json.dumps(data)


def test_results_built_without_blocks_do_not_share_them():
    a = CohomologyResult("n", 1, "koszul", "C")
    b = CohomologyResult("n", 1, "koszul", "C")
    a.add((1,), 0, 2)
    assert a.blocks == {(1,): [2, 0]} and b.blocks == {} and b.total == 0
    given = {(0,): [1, 0]}
    assert CohomologyResult("n", 0, "koszul", "C", given).blocks is given
