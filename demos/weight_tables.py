"""Weight decompositions of H^1 and H^2, and the published-table check.

H^1 classes with trivial coefficients are dual to the abelianization
n/[n,n], so their weights are the negated weights of the surviving
generators; for gl(n|n) these are exactly e_{i+1}-e_i, d_{i+1}-d_i,
d_{i+1}-e_i and e_{i+1}-d_i.  Three independent routes compute the same
blocks.  The script ends with the three-state table verification, which
flags the places where the published tables disagree with themselves.
"""

from supernil import (
    build_family,
    compute_cohomology,
    h1_via_quotient,
    h1_via_superderivations,
    tables,
    trivial_module,
)
from supernil.supercore import describe

for family, params in [("gl", (3, 3)), ("q", (4,)), ("osp_even", (2, 2))]:
    alg, _ = build_family(family, params)
    koszul_route = compute_cohomology(alg, None, 1)
    quotient_route = h1_via_quotient(alg)
    superder_route = h1_via_superderivations(alg, trivial_module(alg))
    agree = koszul_route.blocks == quotient_route.blocks == superder_route.blocks
    print(f"{alg.name}: H^1 total {koszul_route.total}, routes agree: {agree}")
    for key, (even, odd) in koszul_route.block_items():
        label = describe(key, alg.symbols)
        print(f"  {label:<14} even {even} odd {odd}")
    print()

print("published-table verification (small ranges):")
rows = tables.default_expectations(
    gl_h1_max=4, q_h1_max=4, osp_max=3,
    gl_h2_max=3, glmn_h2_max=3, q_h2_max=3, osp_h2_max=2, osp_base_h2_max=2,
)
report, exit_code = tables.run_expectations(rows)
print(tables.render_report(report))
print(f"exit code: {exit_code}")
