"""Shared vocabulary: parities, exact weights, and the super sign rule.

Everything downstream is graded twice over: by Z_2 parity and by the weight
of a fixed diagonal torus.  Both gradings are kept exact -- parities are the
ints 0 (even) and 1 (odd), and a weight coordinate, like every other exact
value of the package, is an `int` when it is integral and a
`fractions.Fraction` only when it has a true denominator (`exact`).  No
floating point enters any computation.  A weight is a plain tuple of
such coordinates (`Weight`), one per symbol of its algebra; the symbols
are stored once, on the algebra, and a module's weights are checked
against them where the module meets it (`koszul.GModule`,
`koszul.CochainComplex`).

The one genuinely super ingredient here is `swap_sign`: in the
superexterior algebra, transposing adjacent homogeneous factors x, y
contributes the sign -(-1)^{|x||y|}, so even factors anticommute with
everything while two odd factors commute.  `koszul.normalize_word` sorts
a word into canonical order one adjacent transposition at a time with it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

EVEN = 0
ODD = 1

Parity = int  # element of Z_2, canonically 0 or 1

#: Exact scalar of the computational core: an int where the value is
#: integral, a Fraction only where a true denominator exists.
Rational = int | Fraction

#: A weight: its exact coordinates over `NilpotentAlgebra.symbols`.
Weight = tuple[Rational, ...]


def parity_sum(parities: Iterable[Parity]) -> Parity:
    total = 0
    for p in parities:
        total ^= p & 1
    return total


def swap_sign(p: Parity, q: Parity) -> int:
    """Sign picked up when transposing adjacent homogeneous factors.

    -(-1)^{pq}: -1 unless both factors are odd.
    """
    return 1 if (p & q & 1) else -1


def exact(q: Rational) -> Rational:
    """q as an int when it is integral, else the Fraction q itself."""
    return q.numerator if q.denominator == 1 else q


def describe(coeffs: Iterable[Rational], symbols: Sequence[str]) -> str:
    """Human-readable weight like "e2-e1" or "-2d1" from its coordinates."""
    parts: list[str] = []
    for c, s in zip(coeffs, symbols):
        if c == 0:
            continue
        if c == 1:
            term = s
        elif c == -1:
            term = f"-{s}"
        else:
            term = f"{c}{s}"
        if parts and not term.startswith("-"):
            parts.append(f"+{term}")
        else:
            parts.append(term)
    return "".join(parts) if parts else "0"
