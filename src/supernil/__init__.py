"""Exact cohomology of nilpotent subalgebras of classical Lie superalgebras.

The package constructs, over exact rationals, the nilpotent subalgebras
arising from BBW-parabolic triangular decompositions of gl(m|n), sl(m|n),
osp(2m+1|2n), osp(2m|2n), q(n) and the exceptional families, and computes
their Lie superalgebra cohomology H^k(n, M) with full weight-space
decomposition, Hochschild-Serre E_2 pages and collapse verification, and
the central-extension correspondence for H^2.
"""

__version__ = "0.1.0"

from . import cohomology, koszul, linalg, realize, spectral, supercore
from .cohomology import (
    CohomologyResult,
    central_extension,
    cohomology as compute_cohomology,
    euler_characteristic_check,
    h0_fixed_points,
    h1_via_quotient,
    h1_via_superderivations,
    is_cocycle,
)
from .koszul import (
    CochainComplex,
    GModule,
    dual_module,
    lambda_s_module,
    monomial_words,
    normalize_word,
    trivial_module,
)
from .realize import (
    BasisVector,
    Ideal,
    NilpotentAlgebra,
    build_exceptional,
    build_family,
    build_gl,
    build_osp_even,
    build_osp_odd,
    build_q,
    build_sl,
    derived_subalgebra,
    quotient_algebra,
    supercommutator,
)
from .spectral import E2Page, collapse_check, e2_page, h2_recursive
from .supercore import EVEN, ODD, Parity, Rational, Weight

__all__ = [
    "EVEN",
    "ODD",
    "BasisVector",
    "CochainComplex",
    "CohomologyResult",
    "E2Page",
    "GModule",
    "Ideal",
    "NilpotentAlgebra",
    "Parity",
    "Rational",
    "Weight",
    "build_exceptional",
    "build_family",
    "build_gl",
    "build_osp_even",
    "build_osp_odd",
    "build_q",
    "build_sl",
    "central_extension",
    "collapse_check",
    "compute_cohomology",
    "derived_subalgebra",
    "dual_module",
    "e2_page",
    "euler_characteristic_check",
    "h0_fixed_points",
    "h1_via_quotient",
    "h1_via_superderivations",
    "h2_recursive",
    "is_cocycle",
    "lambda_s_module",
    "monomial_words",
    "normalize_word",
    "quotient_algebra",
    "supercommutator",
    "trivial_module",
]
