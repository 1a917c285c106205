"""Shared vocabulary: parities, exact weights, and the super sign rule.

Everything downstream is graded twice over: by Z_2 parity and by the weight
of a fixed diagonal torus.  Both gradings are kept exact -- parities are the
ints 0 (even) and 1 (odd), and a weight coordinate, like every other exact
value of the package, is an `int` when it is integral and a
`fractions.Fraction` only when it has a true denominator (`exact`).  No
floating point enters any computation.

The one genuinely super ingredient here is `swap_sign`: in the
superexterior algebra, transposing adjacent homogeneous factors x, y
contributes the sign -(-1)^{|x||y|}, so even factors anticommute with
everything while two odd factors commute.  `koszul.normalize_word` sorts
a word into canonical order one adjacent transposition at a time with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

EVEN = 0
ODD = 1

Parity = int  # element of Z_2, canonically 0 or 1

#: Exact scalar of the computational core: an int where the value is
#: integral, a Fraction only where a true denominator exists.
Rational = int | Fraction


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


def _coerce(c) -> Rational:
    if isinstance(c, (int, Fraction, str)):
        return exact(Fraction(c))
    raise TypeError(f"not an exact rational: {c!r}")


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


@dataclass(frozen=True, order=False)
class Weight:
    """Exact weight vector over a named tuple of formal symbols.

    `basis_tag` pins the symbol system (e.g. "gl(3|2)" with symbols
    e1,e2,e3,d1,d2) so that weights from different algebras never compare
    equal by accident.  Coefficients are exact rationals.  Every algebra
    the builders make, the exceptional F(4), G(3) and D(2,1;a) included,
    has integer weights; a module may still carry fractional ones.
    """

    basis_tag: str
    coeffs: tuple[Rational, ...]

    @staticmethod
    def make(basis_tag: str, coeffs: Iterable) -> "Weight":
        return Weight(basis_tag, tuple(_coerce(c) for c in coeffs))

    @staticmethod
    def zero(basis_tag: str, rank: int) -> "Weight":
        return Weight(basis_tag, (0,) * rank)

    def _check(self, other: "Weight") -> None:
        if self.basis_tag != other.basis_tag:
            raise ValueError(
                f"weight symbol systems differ: {self.basis_tag!r} vs {other.basis_tag!r}"
            )

    def __add__(self, other: "Weight") -> "Weight":
        self._check(other)
        return Weight(self.basis_tag, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "Weight") -> "Weight":
        self._check(other)
        return Weight(self.basis_tag, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "Weight":
        return Weight(self.basis_tag, tuple(-a for a in self.coeffs))

    def sort_key(self) -> tuple:
        return tuple(self.coeffs)

    def to_json(self) -> list[str]:
        return [str(c) for c in self.coeffs]
