"""The gl(3|3) computation end to end.

Builds the nilpotent subalgebra n of gl(3|3) and its ideal I, computes
H^2(n, C) directly from the Koszul complex, then reassembles the same
number from the Hochschild-Serre E_2 page

    H^2(n, C) = H^0(n/I, L^2(I*)) (+) H^1(n/I, I*) (+) H^2(n/I, C)
              =        8          (+)      12      (+)      8      = 28

and finally runs the full recursion down to the abelian gl(2|2) base.
"""

from supernil import (
    build_gl,
    collapse_check,
    compute_cohomology,
    e2_page,
    h2_recursive,
    quotient_algebra,
)
from supernil.supercore import describe

alg, ideal = build_gl(3, 3)
print(f"n in {alg.name}: dim {alg.dim} "
      f"({len(alg.even_ids())} even, {len(alg.odd_ids())} odd)")
print(f"ideal: {sorted(alg.basis[i].label for i in sorted(ideal))}")

quo = quotient_algebra(alg, ideal)
print(f"n/I: dim {quo.dim} (the n of gl(2|2), relabelled)")

h2 = compute_cohomology(alg, None, 2)
print(f"\ndirect H^2(n, C): total {h2.total}")
for key, (even, odd) in h2.block_items():
    print(f"  {describe(key, alg.symbols):<16} even {even} odd {odd}")

page = e2_page(alg, ideal, 2)
print("\nE_2 page totals:")
for (i, j), term in sorted(page.terms.items()):
    print(f"  E_2^({i},{j}) = {term.total}")

report = collapse_check(alg, ideal, 2)
for row in report["rows"]:
    print(f"collapse k={row['k']}: H^k = {row['direct_total']}, "
          f"E_2 sum = {row['e2_total']}, per-weight match: {row['match_blocks']}")

rec = h2_recursive("gl", (3, 3))
print(f"\nrecursive H^2 total: {rec.total} "
      f"(matches direct: {rec.blocks == h2.blocks})")
