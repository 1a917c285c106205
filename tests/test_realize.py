from fractions import Fraction
from math import comb

import pytest

from supernil import realize
from supernil.realize import (
    SuperMatrix,
    build_exceptional,
    build_gl,
    build_osp_even,
    build_osp_odd,
    build_q,
    build_sl,
    derived_subalgebra,
    elementary,
    ideal_is_abelian,
    quotient_algebra,
    supercommutator,
    verify_ideal,
)
from supernil.supercore import EVEN, ODD


def embed_multiset(alg, dst_symbols):
    idx = [dst_symbols.index(s) for s in alg.symbols]
    out = []
    for b in alg.basis:
        v = [Fraction(0)] * len(dst_symbols)
        for c, t in zip(b.weight.coeffs, idx):
            v[t] = c
        out.append((tuple(v), b.parity))
    return sorted(out)


# -- supercommutator on raw elementary matrices -------------------------------


def test_supercommutator_odd_odd():
    # in gl(2|2): [E(1bar,1), E(1,2bar)] = E(1bar,2bar), both odd
    shape = (2, 2)
    x = elementary(shape, 0, 2)  # row 1bar, col 1
    y = elementary(shape, 2, 1)  # row 1, col 2bar
    br = supercommutator(x, y)
    assert br.entries == {(0, 1): Fraction(1)}


def test_supercommutator_even_square_vanishes():
    shape = (2, 2)
    x = elementary(shape, 0, 1)  # E(1bar,2bar), even
    assert supercommutator(x, x).is_zero()


def test_supercommutator_odd_anticommutator():
    # [E(1bar,1), E(1,1bar)] = E(1bar,1bar) + E(1,1)
    shape = (2, 2)
    x = elementary(shape, 0, 2)
    y = elementary(shape, 2, 0)
    br = supercommutator(x, y)
    assert br.entries == {(0, 0): Fraction(1), (2, 2): Fraction(1)}


def test_supercommutator_shape_mismatch():
    with pytest.raises(ValueError):
        elementary((2, 2), 0, 1).matmul(elementary((2, 1), 0, 1))


def test_parity_homogeneity_enforced():
    m = SuperMatrix((2, 2), {(0, 1): Fraction(1), (0, 2): Fraction(1)})
    with pytest.raises(ValueError):
        m.parity()


# -- gl(m|n) -------------------------------------------------------------------


def test_gl_dimension_formula():
    for m in range(1, 7):
        for n in range(1, m + 1):
            alg, _ = build_gl(m, n)
            expected = comb(m, 2) + n * (m - n) + 3 * comb(n, 2)
            assert alg.dim == expected


def test_gl22_abelian():
    alg, _ = build_gl(2, 2)
    assert alg.dim == 4 and alg.abelian


def test_gl32_dimension():
    alg, _ = build_gl(3, 2)
    assert alg.dim == 8


def test_gl33_ideal():
    alg, ideal = build_gl(3, 3)
    assert len(ideal.member_ids) == 8
    labels = sorted(alg.basis[i].label for i in ideal.member_ids)
    assert labels == sorted(
        ["E(1b,3b)", "E(2b,3b)", "E(1,3b)", "E(2,3b)", "E(1b,3)", "E(2b,3)", "E(1,3)", "E(2,3)"]
    )
    assert ideal_is_abelian(alg, ideal)


def test_gl_rejects_m_less_than_n():
    with pytest.raises(ValueError):
        build_gl(2, 3)


def test_sl_alias_matches_gl():
    a, _ = build_gl(3, 2)
    b, _ = build_sl(3, 2)
    assert a.weight_multiset() == b.weight_multiset()
    assert a.table == b.table


def test_gl_torus_weights_from_realization():
    # weight of E(ibar,j) must match bracketing with diagonal torus matrices
    alg, _ = build_gl(3, 2)
    shape = (3, 2)
    for b in alg.basis:
        for t in range(5):
            h = elementary(shape, t, t)
            br = supercommutator(h, b.realization)
            expect = b.realization.scale(b.weight.coeffs[t])
            assert br.entries == expect.entries


# -- q(n) -----------------------------------------------------------------------


def test_q_dimensions():
    for n in range(2, 7):
        alg, ideal = build_q(n)
        assert alg.dim == n * (n - 1)
        assert len(alg.even_ids()) == len(alg.odd_ids())


def test_q2_abelian_one_even_one_odd():
    alg, _ = build_q(2)
    assert alg.dim == 2 and alg.abelian
    assert len(alg.even_ids()) == 1 and len(alg.odd_ids()) == 1


def test_q3_ideal():
    alg, ideal = build_q(3)
    labels = sorted(alg.basis[i].label for i in ideal.member_ids)
    assert labels == ["Eb(1,3)", "Eb(2,3)", "Et(1,3)", "Et(2,3)"]
    assert ideal_is_abelian(alg, ideal)


def test_q4_derived_dimension():
    alg, _ = build_q(4)
    assert derived_subalgebra(alg)["dim"] == 3 * 2  # (n-1)(n-2)


def test_q_even_odd_share_weights():
    alg, _ = build_q(3)
    even_w = sorted(b.weight.sort_key() for b in alg.basis if b.parity == EVEN)
    odd_w = sorted(b.weight.sort_key() for b in alg.basis if b.parity == ODD)
    assert even_w == odd_w


def test_q_rejects_small_n():
    with pytest.raises(ValueError):
        build_q(1)


# -- osp ---------------------------------------------------------------------------


def test_osp_odd_dimensions():
    # odd part 2mn, even part m^2 + n^2 (for m >= n)
    for m in range(1, 5):
        for n in range(1, m + 1):
            alg, ideal = build_osp_odd(m, n)
            assert len(alg.odd_ids()) == 2 * m * n
            assert len(alg.even_ids()) == m * m + n * n
            verify_ideal(alg, ideal)
            assert ideal_is_abelian(alg, ideal)


def test_osp_odd_requires_m_ge_n():
    with pytest.raises(ValueError):
        build_osp_odd(1, 2)


def test_osp_even_11():
    # nilradical of so(2) (+) sp(2): dimension 0 + 1
    alg, _ = build_osp_even(1, 1)
    assert len(alg.even_ids()) == 1
    assert len(alg.odd_ids()) == 1


def test_osp_even_ideal_modes():
    # e_m reading closed and abelian for m >= n; d_n reading for m < n is
    # closed but picks up the long root -2d_n
    alg, ideal = build_osp_even(2, 2)
    assert ideal_is_abelian(alg, ideal)
    alg, ideal = build_osp_even(1, 2)
    assert not ideal_is_abelian(alg, ideal)
    verify_ideal(alg, ideal)


def test_osp_even_eps_reading_fails_for_m_lt_n():
    with pytest.raises(AssertionError):
        build_osp_even(1, 2, ideal_reading="eps_only")


def test_osp_odd_or_reading_fails_beyond_m_eq_n_plus_1():
    # for m >= n+2 the bracket of two carriers lands on -e_j - e_l with
    # j, l < m, outside the carrier set
    with pytest.raises(AssertionError):
        build_osp_odd(3, 1, ideal_reading="eps_or_delta")
    # at m = n+1 the reading is still closed
    alg, ideal = build_osp_odd(2, 1, ideal_reading="eps_or_delta")
    verify_ideal(alg, ideal)
    assert not ideal_is_abelian(alg, ideal)


def test_osp_odd_or_reading_closed_at_m_eq_n():
    alg, ideal = build_osp_odd(2, 2, ideal_reading="eps_or_delta")
    verify_ideal(alg, ideal)


def test_osp_quotient_recursions():
    cases = [
        (build_osp_odd(2, 1), build_osp_odd(1, 1)),
        (build_osp_odd(3, 2), build_osp_odd(2, 2)),
        (build_osp_even(2, 2), build_osp_even(1, 2)),
        (build_osp_even(3, 2), build_osp_even(2, 2)),
        (build_osp_even(1, 3), build_osp_even(1, 2)),
    ]
    for (alg, ideal), (smaller, _) in cases:
        quo = quotient_algebra(alg, ideal)
        assert sorted(quo.weight_multiset()) == embed_multiset(smaller, quo.symbols)


def test_osp_even_1n_even_part_not_abelian_for_n_ge_2():
    # the full sp nilradical is kept; the printed abelian claim fails on it
    alg, _ = build_osp_even(1, 2)
    even = alg.even_ids()
    nonzero = [
        (i, j) for i in even for j in even if i <= j and alg.bracket(i, j)
    ]
    assert nonzero, "sp(4) nilradical is not abelian"


# -- gl quotients and derived ----------------------------------------------------


def test_gl_quotient_recursions():
    a33, i33 = build_gl(3, 3)
    quo = quotient_algebra(a33, i33)
    a22, _ = build_gl(2, 2)
    assert sorted(quo.weight_multiset()) == embed_multiset(a22, quo.symbols)

    a32, i32 = build_gl(3, 2)
    quo = quotient_algebra(a32, i32)
    a22b, _ = build_gl(2, 2)
    assert sorted(quo.weight_multiset()) == embed_multiset(a22b, quo.symbols)


def test_q_quotient_recursion():
    a4, i4 = build_q(4)
    quo = quotient_algebra(a4, i4)
    a3, _ = build_q(3)
    assert sorted(quo.weight_multiset()) == embed_multiset(a3, quo.symbols)


def test_full_quotient_is_zero_algebra():
    alg, _ = build_q(3)
    everything = realize.IdealDesignation(frozenset(range(alg.dim)))
    quo = quotient_algebra(alg, everything)
    assert quo.dim == 0


def test_gl33_derived_dimension():
    alg, _ = build_gl(3, 3)
    assert derived_subalgebra(alg)["dim"] == alg.dim - 8  # dim n - H^1


def test_derived_abelian_is_zero():
    alg, _ = build_gl(2, 2)
    assert derived_subalgebra(alg)["dim"] == 0
    for name in ("D21a", "G3", "F4"):
        assert derived_subalgebra(build_exceptional(name))["dim"] == 0


# -- exceptional families -----------------------------------------------------------


def test_exceptional_dimensions():
    expected = {"D21a": (3, 3), "G3": (3, 6), "F4": (4, 7)}
    for name, (ev, od) in expected.items():
        alg = build_exceptional(name)
        assert len(alg.even_ids()) == ev
        assert len(alg.odd_ids()) == od
        assert alg.abelian


def test_exceptional_unknown_name():
    with pytest.raises(ValueError):
        build_exceptional("E8")


def test_structural_verification_all_families(built):
    cases = [
        ("gl", (4, 2)), ("gl", (4, 4)), ("q", (4,)),
        ("osp_even", (2, 2)), ("osp_even", (2, 3)), ("osp_odd", (3, 2)),
    ]
    for fam, params in cases:
        alg, ideal = built(fam, params)
        alg.verify()  # antisymmetry, Jacobi, weight/parity additivity, grading
        verify_ideal(alg, ideal)


def test_bracket_is_super_antisymmetric(built):
    # [x_j, x_i] = -(-1)^{|i||j|} [x_i, x_j]: the table stores i <= j only,
    # and GModule.verify checks the pairs i <= j on the strength of this
    for fam, params in [("q", (4,)), ("osp_odd", (2, 2)), ("gl", (3, 2))]:
        alg, _ = built(fam, params)
        for i in range(alg.dim):
            for j in range(alg.dim):
                sign = 1 if (alg.parities[i] and alg.parities[j]) else -1
                assert alg.bracket(j, i) == {t: sign * c for t, c in alg.bracket(i, j).items()}


def test_serialization_roundtrip():
    alg, ideal = build_q(3)
    data = alg.to_json()
    assert data["family"] == "q"
    assert len(data["basis"]) == alg.dim
    assert all(len(b["weight"]) == 3 for b in data["basis"])
    # bracket triples reference valid ids
    for i, j, terms in data["brackets"]:
        assert 0 <= i <= j < alg.dim
        for t, c in terms:
            assert 0 <= t < alg.dim
            Fraction(c)


@pytest.mark.parametrize("family, params, n_coeffs", [("osp_odd", (2, 2), 24), ("q", (4,), 16)])
def test_verify_rejects_every_doubled_bracket_coefficient(built, family, params, n_coeffs):
    # Jacobi skips only triples whose three brackets all vanish, so a
    # perturbed coefficient is still caught, wherever it sits
    alg, _ = built(family, params)
    perturbed = 0
    for pair, terms in alg.table.items():
        for t, c in terms.items():
            table = dict(alg.table)
            table[pair] = {**terms, t: 2 * c}
            bad = realize.NilpotentAlgebra(alg.name, alg.family, alg.params, alg.symbols,
                                           alg.basis, table, alg.grading)
            with pytest.raises(AssertionError):
                bad.verify()
            perturbed += 1
    assert perturbed == n_coeffs
