from fractions import Fraction
from operator import add

import supernil
from supernil.supercore import EVEN, ODD, describe, parity_sum, swap_sign


def test_swap_sign_table():
    assert swap_sign(EVEN, EVEN) == -1
    assert swap_sign(EVEN, ODD) == -1
    assert swap_sign(ODD, EVEN) == -1
    assert swap_sign(ODD, ODD) == 1


def test_parity_sum():
    assert parity_sum([ODD, ODD, EVEN]) == EVEN
    assert parity_sum([ODD, EVEN]) == ODD


def test_weight_exact_equality_fractions():
    w = (Fraction(1, 2),) * 4
    assert tuple(map(add, w, w)) == (1, 1, 1, 1)
    assert describe(w, ["e1", "e2", "e3", "e4"]) == "1/2e1+1/2e2+1/2e3+1/2e4"


def test_public_api_names_resolve_and_star_import_binds_them():
    assert len(set(supernil.__all__)) == len(supernil.__all__)
    for name in supernil.__all__:
        assert getattr(supernil, name) is not None, name
    namespace: dict = {}
    exec("from supernil import *", namespace)
    assert {name: namespace[name] for name in supernil.__all__} == {
        name: getattr(supernil, name) for name in supernil.__all__
    }
    # weights and ideals are plain tuples and frozensets
    assert supernil.Weight == tuple[supernil.Rational, ...]
    assert supernil.Ideal == frozenset[int]
