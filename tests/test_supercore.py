from fractions import Fraction

from hypothesis import given, strategies as st

from supernil.supercore import EVEN, ODD, Weight, describe, parity_sum, swap_sign


def test_swap_sign_table():
    assert swap_sign(EVEN, EVEN) == -1
    assert swap_sign(EVEN, ODD) == -1
    assert swap_sign(ODD, EVEN) == -1
    assert swap_sign(ODD, ODD) == 1


def test_parity_sum():
    assert parity_sum([ODD, ODD, EVEN]) == EVEN
    assert parity_sum([ODD, EVEN]) == ODD


rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=12
)
vectors = st.lists(rationals, min_size=3, max_size=3)


@given(vectors, vectors, vectors)
def test_weight_addition_associative_commutative(a, b, c):
    wa = Weight.make("t", a)
    wb = Weight.make("t", b)
    wc = Weight.make("t", c)
    assert wa + wb == wb + wa
    assert (wa + wb) + wc == wa + (wb + wc)
    assert wa + Weight.zero("t", 3) == wa
    assert not any((wa - wa).coeffs)
    assert -(-wa) == wa


def test_weight_tag_mismatch_raises():
    import pytest

    wa = Weight.make("a", [1, 2])
    wb = Weight.make("b", [1, 2])
    with pytest.raises(ValueError):
        wa + wb


def test_weight_exact_equality_fractions():
    w = Weight.make("f", ["1/2", "1/2", "1/2", "1/2"])
    assert w + w == Weight.make("f", [1, 1, 1, 1])
    assert describe(w.coeffs, ["e1", "e2", "e3", "e4"]) == "1/2e1+1/2e2+1/2e3+1/2e4"
