import hashlib
import json
from fractions import Fraction
from math import comb

import pytest

from supernil import realize
from supernil.realize import (
    build_exceptional,
    build_gl,
    build_osp_even,
    build_osp_odd,
    build_q,
    build_sl,
    derived_subalgebra,
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
        for c, t in zip(b.weight, idx):
            v[t] = c
        out.append((tuple(v), b.parity))
    return sorted(out)


# -- supercommutator on raw elementary matrices -------------------------------


def test_supercommutator_odd_odd():
    # in gl(2|2): [E(1bar,1), E(1,2bar)] = E(1bar,2bar), both odd
    x = {(0, 2): 1}  # row 1bar, col 1
    y = {(2, 1): 1}  # row 1, col 2bar
    assert supercommutator(x, ODD, y, ODD) == {(0, 1): 1}


def test_supercommutator_even_square_vanishes():
    x = {(0, 1): 1}  # E(1bar,2bar), even
    assert not supercommutator(x, EVEN, x, EVEN)


def test_supercommutator_odd_anticommutator():
    # [E(1bar,1), E(1,1bar)] = E(1bar,1bar) + E(1,1)
    assert supercommutator({(0, 2): 1}, ODD, {(2, 0): 1}, ODD) == {(0, 0): 1, (2, 2): 1}


def test_parity_homogeneity_enforced():
    # in gl(2|2), E(1bar,2bar) is even and E(1bar,1) odd
    with pytest.raises(ValueError, match="not parity homogeneous"):
        realize._parity({(0, 1): 1, (0, 2): 1}, 2)
    assert realize._parity({(0, 2): 1, (3, 1): -1}, 2) == ODD
    assert realize._parity({(0, 1): 1, (2, 3): 1}, 2) == EVEN


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
    assert len(ideal) == 8
    labels = sorted(alg.basis[i].label for i in ideal)
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
    for b in alg.basis:
        for t in range(5):
            br = supercommutator({(t, t): 1}, EVEN, b.realization, b.parity)
            c = b.weight[t]
            assert br == {pos: c * v for pos, v in b.realization.items() if c}


def _assemble_gl31(raw):
    torus = [{t: 1} for t in range(4)]
    return realize._assemble("gl(3|1)", "gl", (3, 1), realize._gl_symbols(3, 1), 3, torus,
                             [(label, {(r, c): 1}) for label, r, c in raw],
                             realize._gl_grading(3, 1))


GL31_ROOTS = [("E(1b,2b)", 0, 1), ("E(1b,3b)", 0, 2), ("E(2b,3b)", 1, 2),
              ("E(1,2b)", 3, 1), ("E(1,3b)", 3, 2)]


def test_assemble_refuses_a_basis_not_closed_under_the_bracket():
    assert _assemble_gl31(GL31_ROOTS).dim == 5
    # [E(1b,2b), E(2b,3b)] = E(1b,3b), a position no basis matrix has
    without = [root for root in GL31_ROOTS if root[0] != "E(1b,3b)"]
    with pytest.raises(AssertionError, match=r"\[E\(1b,2b\), E\(2b,3b\)\] leaves the span"):
        _assemble_gl31(without)


def test_assemble_refuses_a_product_off_its_owners_ratio():
    # q(3) with Et(1,3) = E(1b,3b) + E(1,3) replaced by E(1b,3b) - E(1,3):
    # [Et(1,2), Et(2,3)] = E(1b,3b) + E(1,3) has owners for every position,
    # but no multiple of the new matrix
    torus = [{t: 1, t + 3: 1} for t in range(3)]
    raw = [(f"Et({i + 1},{j + 1})", {(i, j): 1, (i + 3, j + 3): 1}) for i, j in ((0, 1), (1, 2))]
    raw.append(("Et'(1,3)", {(0, 2): 1, (3, 5): -1}))
    with pytest.raises(AssertionError, match=r"\[Et\(1,2\), Et\(2,3\)\] leaves the span"):
        realize._assemble("q(3)", "q", (3,), ("e1", "e2", "e3"), 3, torus, raw, (1, 2, 3))


def test_assemble_refuses_basis_matrices_that_share_a_position():
    with pytest.raises(AssertionError, match=r"E\(1b,2b\) and E\(1b,2b\)' share position \(0, 1\)"):
        _assemble_gl31(GL31_ROOTS + [("E(1b,2b)'", 0, 1)])


def test_assemble_refuses_a_mixed_parity_basis_matrix():
    # E(1b,2b) + E(1b,1) has an even and an odd position of gl(3|1)
    with pytest.raises(ValueError, match="not parity homogeneous"):
        realize._assemble("gl(3|1)", "gl", (3, 1), realize._gl_symbols(3, 1), 3,
                          [{t: 1} for t in range(4)], [("x", {(0, 1): 1, (0, 3): 1})],
                          realize._gl_grading(3, 1))


def test_extract_weight_refuses_a_sum_of_two_weights():
    # E(1b,2b) + E(1b,3b) is even, but e1-e2 and e1-e3 are different weights
    torus = [{t: 1} for t in range(4)]
    with pytest.raises(AssertionError, match="not a torus weight vector"):
        realize._extract_weight(torus, {(0, 1): 1, (0, 2): 1})
    # in q(2), Et(1,2) = E(1b,2b) + E(1,2) has e1-e2 at both positions
    q2_torus = [{0: 1, 2: 1}, {1: 1, 3: 1}]
    assert realize._extract_weight(q2_torus, {(0, 1): 1, (2, 3): 1}) == (1, -1)


def _one_symbol_algebra(parities, weights, table):
    """x0, x1, .. with the given parities, weights on the one symbol e1 and
    bracket table, grading 1: not verified."""
    basis = [realize.BasisVector(i, f"x{i}", p, (w,))
             for i, (p, w) in enumerate(zip(parities, weights))]
    return realize.NilpotentAlgebra("N", "test", (), ("e1",), basis, table, (1,))


@pytest.mark.parametrize("parities, weights, table, message", [
    ((EVEN,), (1,), {}, "basis weight x0 not graded negative"),
    ((EVEN, ODD, EVEN), (-1, -1, -2), {(0, 1): {2: 1}}, r"bracket \(0,1\) breaks parity"),
    ((EVEN, ODD, ODD), (-1, -1, -3), {(0, 1): {2: 1}}, r"bracket \(0,1\) breaks weights"),
    ((EVEN, EVEN), (-1, -2), {(0, 0): {1: 1}}, r"even square \[x_0,x_0\] nonzero"),
])
def test_verify_refuses_each_broken_structure(parities, weights, table, message):
    with pytest.raises(AssertionError, match=message):
        _one_symbol_algebra(parities, weights, table).verify()


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
    labels = sorted(alg.basis[i].label for i in ideal)
    assert labels == ["Eb(1,3)", "Eb(2,3)", "Et(1,3)", "Et(2,3)"]
    assert ideal_is_abelian(alg, ideal)


def test_q4_derived_dimension():
    alg, _ = build_q(4)
    assert derived_subalgebra(alg)["dim"] == 3 * 2  # (n-1)(n-2)


def test_q_even_odd_share_weights():
    alg, _ = build_q(3)
    even_w = sorted(b.weight for b in alg.basis if b.parity == EVEN)
    odd_w = sorted(b.weight for b in alg.basis if b.parity == ODD)
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
    everything = frozenset(range(alg.dim))
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


# -- pinned bracket tables ---------------------------------------------------------

# sha256 of json.dumps({"algebra": alg.to_json(), "ideal": sorted(ideal)},
# sort_keys=True) for every family algebra with parameters up to 4 (gl, sl),
# 5 (q) and 3 (osp), under every ideal reading that builds.  Any change to a
# basis, a label, a weight, a bracket coefficient or an ideal shows here.
BRACKET_PINS = {
    "gl 1,1 auto": "356cf7c7e21be88cebe255aae451abf7c874505726efbcc8e0415ad8bdd17717",
    "gl 2,1 auto": "56004f64e356fc286809a50cd74e51918d2bbc20f01af366f4ce924cd1edee73",
    "gl 2,2 auto": "d04dc1ebb27d3956f7384770e007bccc103dee4b1a97941f0a01ffcc1cc77513",
    "gl 3,1 auto": "36c06abb9b84a52aea09e9df2dc77fac9eb23c587769ab801b5f0f6362975c53",
    "gl 3,2 auto": "21e0b66e693bbd2b101ffcca441a5ac98800e58a9a729bc076e283b126596019",
    "gl 3,3 auto": "e1ae8437351626f539e527383fc0fea355b039366bfae3e96c857cf6bf717f27",
    "gl 4,1 auto": "7c2b1d119825f7a0f9073992d4fa6545e2aa719bb4e6717e73e2884c902f17e3",
    "gl 4,2 auto": "ecec58733965a20f7aa41087586bcd2001a035c831faac3edbd3ca72b1757a82",
    "gl 4,3 auto": "3f89224d7b8e0e4a21884bdcf5e893bdd46e463f146cf6c1613b47244641df70",
    "gl 4,4 auto": "8b0c08371014df4bd559ee7652f60059d3ca8a927edf7161535e44e7551282ad",
    "sl 1,1 auto": "41a46c329bda92d3ce03b6d12a8b95660b830f5776315676361df9f97090d821",
    "sl 2,1 auto": "e7570d1f77bb2a197923468add871d9d8d8f44053aace74a6fd812e33b9c3600",
    "sl 2,2 auto": "61f80aa8c947d89ae7224423011b2d20fcbc087fcf51c26221142d60811925b8",
    "sl 3,1 auto": "e100fcb01402907179d94342b3dee1aa4194834fa7e8ab75539ad651a19879e5",
    "sl 3,2 auto": "48d82ffa6016069df0446e4f02ab2e5dcd2606e455249abd02cc7204622068da",
    "sl 3,3 auto": "295f7e264f6cbeacc42ee01cea5224b4bf7384b0e51443b0472327ddb07976d1",
    "sl 4,1 auto": "2f54a4676c6dde0f3123ed84b40b699646b96e6986006bced7a779b70e6f0ae1",
    "sl 4,2 auto": "dd061a5232972c81f235dea4b79b2c68a030aeb54d23f95c797094d3076ed0f3",
    "sl 4,3 auto": "7da0dabb2a56a3308b5a12fcd482f930f4beb9090f8b1c980444e08a2af3126c",
    "sl 4,4 auto": "899c72a52dfaa126685892ff6de2ab4bdfedc4c1bd6aeccabab99d860734c539",
    "q 2 auto": "57afd08ad60d18ce4548ed7094e5dd4a48a0dfaa1b56b5f5a8fd85c27add0314",
    "q 3 auto": "e9e118353a7b48ae7e1f85a7149cda18b440c8a27b0eb8d7095697a9cbbd6325",
    "q 4 auto": "ce21b854f27c516e735b0e36b259055e8564cca9b594eac405097622bd38a337",
    "q 5 auto": "40895d14f2563a8224352d3b712abf2aa3f91fa5ca06c8b52d05c1f3cf9ce06d",
    "osp_odd 1,1 auto": "a5a8aca89f7bfdfdc1d5eaddca871f88d36e7b4ccab54009c9e4e9b2ea34ad6f",
    "osp_odd 1,1 eps_only": "a5a8aca89f7bfdfdc1d5eaddca871f88d36e7b4ccab54009c9e4e9b2ea34ad6f",
    "osp_odd 1,1 delta_only": "19efda925dde0d6c6a6b4a0011f02820ec37908c194c3385c3088752a37f0575",
    "osp_odd 1,1 eps_or_delta": "c49af45cf3829901f36fc5189fa3074a0019f1ecc7302d530b426c8f4322f957",
    "osp_odd 2,1 auto": "612e13c745551e4a8401ffb080051e526206e7059612147e793afb645f1125f1",
    "osp_odd 2,1 eps_only": "612e13c745551e4a8401ffb080051e526206e7059612147e793afb645f1125f1",
    "osp_odd 2,1 eps_or_delta": "e84e126d6c961d20f1c0850fb6dc88e739eb3094d70793a93652d2c19e47d667",
    "osp_odd 2,2 auto": "44cc0a619741a1bb69582dec07a5cd4bd83c665c1557fc74313ebd29d600da97",
    "osp_odd 2,2 eps_only": "44cc0a619741a1bb69582dec07a5cd4bd83c665c1557fc74313ebd29d600da97",
    "osp_odd 2,2 delta_only": "ff5640cb9b3c320f34321c1305d9cf1acdc290a58b382036f206a2e25a663944",
    "osp_odd 2,2 eps_or_delta": "a8721348d857d707c08ca3372850d84e7504112cfb12717a2fc8fcf064a4deb2",
    "osp_odd 3,1 auto": "5b36a4257d1e9186c3187f7d94f4456cddc5adc1586c1dbc56f71170d0280a7e",
    "osp_odd 3,1 eps_only": "5b36a4257d1e9186c3187f7d94f4456cddc5adc1586c1dbc56f71170d0280a7e",
    "osp_odd 3,2 auto": "a30babd1641c7e903980d52f4b6b774464e0401bb7cf7289741bcb9747674a82",
    "osp_odd 3,2 eps_only": "a30babd1641c7e903980d52f4b6b774464e0401bb7cf7289741bcb9747674a82",
    "osp_odd 3,2 eps_or_delta": "14e68e26941b6e301ad9eb6c64d9f64cd326cafe5cb37a4fbe3b0694417ad0d2",
    "osp_odd 3,3 auto": "9cd4952630b872088972f833f9e4d4c17c0a81e14816552ab7b19c3a032e6adc",
    "osp_odd 3,3 eps_only": "9cd4952630b872088972f833f9e4d4c17c0a81e14816552ab7b19c3a032e6adc",
    "osp_odd 3,3 delta_only": "06f1bcf6af3aec7ee57431571228fca984ff05f903a3bb7c5c77d090c0b80429",
    "osp_odd 3,3 eps_or_delta": "19ba8932b5c5080c3732c088b869544882a612b7f7dc87e34eb1e06db6a99985",
    "osp_even 1,1 auto": "1d717e62fd53c26db03ee8943f714377324100db769f4ba65ca681ee4fbfe2eb",
    "osp_even 1,1 eps_only": "1d717e62fd53c26db03ee8943f714377324100db769f4ba65ca681ee4fbfe2eb",
    "osp_even 1,1 delta_only": "920a1e35056ba7e1b9794242a7671530a9116f088b801ea9ba46c0a1940a5141",
    "osp_even 1,1 eps_or_delta": "920a1e35056ba7e1b9794242a7671530a9116f088b801ea9ba46c0a1940a5141",
    "osp_even 1,2 auto": "aadac9d9d7ffd32fd4076dac5128d34b736a0858224467d5eccea465d2c4376a",
    "osp_even 1,2 delta_only": "aadac9d9d7ffd32fd4076dac5128d34b736a0858224467d5eccea465d2c4376a",
    "osp_even 1,2 eps_or_delta": "132650d14941a0143e39218b39d117b6f7ecbd3fc12f5c39652284aaf45d3b00",
    "osp_even 1,3 auto": "4e952baca4c860409cf01c558ae012384c63e30d94b76baf051a0dfd4f3305ab",
    "osp_even 1,3 delta_only": "4e952baca4c860409cf01c558ae012384c63e30d94b76baf051a0dfd4f3305ab",
    "osp_even 2,1 auto": "817facce374ce545eb79899bf2c4e5c1cd9f906ab0c17598a27a145f0cc9cdc8",
    "osp_even 2,1 eps_only": "817facce374ce545eb79899bf2c4e5c1cd9f906ab0c17598a27a145f0cc9cdc8",
    "osp_even 2,1 eps_or_delta": "9f2bb65afa9ebf69e0f03fb655d124d714c5564cb3b3de4f4cbd99e04dea14c3",
    "osp_even 2,2 auto": "5e65dc3347aa2ec302b931167d9ea9185ff1d614311349d259fd2ec4cf7b8fbf",
    "osp_even 2,2 eps_only": "5e65dc3347aa2ec302b931167d9ea9185ff1d614311349d259fd2ec4cf7b8fbf",
    "osp_even 2,2 delta_only": "78d5751a117d2e0240256cd5fbb0631020a26c4a7de8babc94204ec142ef4c49",
    "osp_even 2,2 eps_or_delta": "4415a2d31f12d7d09cb2e713d66bdb655fdcc7e402aee5933991f760e4cb754c",
    "osp_even 2,3 auto": "4675fd6adac2c8c53fdb4cbfb078b1aacf38108c27d202b7b2d18b68863c70b0",
    "osp_even 2,3 delta_only": "4675fd6adac2c8c53fdb4cbfb078b1aacf38108c27d202b7b2d18b68863c70b0",
    "osp_even 2,3 eps_or_delta": "38883f146b9e7fef27d0e48a5b73f8ded2d30e72fa89abc9f0489233fd753534",
    "osp_even 3,1 auto": "7e5fb83d5b2a10974931977c1ef8b63c9b5b69cdb8a90650c01c48ab326f50bd",
    "osp_even 3,1 eps_only": "7e5fb83d5b2a10974931977c1ef8b63c9b5b69cdb8a90650c01c48ab326f50bd",
    "osp_even 3,2 auto": "4e336edf907428bf3b228163dd1c4d469866d4a9f52f4a10680eda3fffa081eb",
    "osp_even 3,2 eps_only": "4e336edf907428bf3b228163dd1c4d469866d4a9f52f4a10680eda3fffa081eb",
    "osp_even 3,2 eps_or_delta": "90c101ef91c90d63c80a332501517c1123a2d27d0b545c8a4f4af081139f5cbe",
    "osp_even 3,3 auto": "5827366be07e6e81136a7276f4706e86361601689d898eeadceb82c51f6d7be6",
    "osp_even 3,3 eps_only": "5827366be07e6e81136a7276f4706e86361601689d898eeadceb82c51f6d7be6",
    "osp_even 3,3 delta_only": "10b9bc684642f3d1d6580a2a3a74e4c49ef0471133f79d0ae12cce3f399cb93d",
    "osp_even 3,3 eps_or_delta": "b36fda9c654ed378a44efa6abc15fafe7fc1e2ded7523736743f095083cfcaec",
}


def _pinned_cases():
    for fam in ("gl", "sl"):
        for m in range(1, 5):
            for n in range(1, m + 1):
                yield fam, (m, n), "auto"
    for n in range(2, 6):
        yield "q", (n,), "auto"
    for fam in ("osp_odd", "osp_even"):
        for m in range(1, 4):
            # osp(2m+1|2n) requires m >= n
            for n in range(1, (m if fam == "osp_odd" else 3) + 1):
                for reading in ("auto", "eps_only", "delta_only", "eps_or_delta"):
                    yield fam, (m, n), reading


def test_bracket_tables_are_pinned():
    seen = set()
    for fam, params, reading in _pinned_cases():
        key = f"{fam} {','.join(map(str, params))} {reading}"
        if key not in BRACKET_PINS:
            # a reading left unpinned is one whose ideal is not closed
            with pytest.raises(AssertionError, match="ideal not closed"):
                realize.build_family(fam, params, reading)
            continue
        alg, ideal = realize.build_family(fam, params, reading)
        data = json.dumps({"algebra": alg.to_json(), "ideal": sorted(ideal)}, sort_keys=True)
        assert hashlib.sha256(data.encode()).hexdigest() == BRACKET_PINS[key], key
        seen.add(key)
    assert seen == set(BRACKET_PINS)
