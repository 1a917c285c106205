"""Acceptance suite: one test per criterion, exact tolerances, timed.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line
per criterion.  Every expected number is exact (integers); time budgets
are asserted where the criteria state them.

Criterion 3 note: the osp(2m|2n) H^1 sweep asserts the published total
2m+2n-2 over the full m, n <= 4 grid.  The published derivation only
covers |m - n| <= 1, and the computed dimensions genuinely differ outside
that band, so those grid entries fail; see the README adjudication notes.
All other entries pass.
"""

import subprocess
import sys
import time

from supernil import spectral, tables
from supernil.cohomology import (
    central_extension,
    cocycle_space,
    cohomology,
    euler_characteristic_check,
    h1_via_quotient,
    h1_via_superderivations,
)
from supernil.koszul import CochainComplex, dual_module, trivial_module
from supernil.realize import build_family, ideal_is_abelian, quotient_algebra, verify_ideal


def _check(failures, condition, message):
    if not condition:
        failures.append(message)


def test_criterion_1_abelian_base_cases():
    """H^2 totals 8 / 18 / 42 / 62 for gl(2|2), D(2,1;a), G(3), F(4); < 1 s each."""
    failures = []
    cases = [("gl", (2, 2), 8), ("exc", ("D21a",), 18), ("exc", ("G3",), 42), ("exc", ("F4",), 62)]
    for fam, params, expected in cases:
        t0 = time.time()
        alg, _ = build_family(fam, params)
        total = cohomology(alg, None, 2).total
        dt = time.time() - t0
        _check(failures, total == expected, f"{alg.name}: H^2 = {total}, expected {expected}")
        _check(failures, dt < 1.0, f"{alg.name}: took {dt:.2f}s, budget 1s")
        print(f"criterion 1: {alg.name} H^2 = {total} ({dt:.2f}s)")
    assert not failures, failures


def test_criterion_2_gl33_h2_with_split():
    """gl(3|3): H^2 = 28 with E2 split 8 + 12 + 8, < 10 s."""
    t0 = time.time()
    alg, ideal = build_family("gl", (3, 3))
    total = cohomology(alg, None, 2).total
    page = spectral.e2_page(alg, ideal, 2)
    split = (page.term_total(0, 2), page.term_total(1, 1), page.term_total(2, 0))
    dt = time.time() - t0
    print(f"criterion 2: H^2(gl(3|3)) = {total} = {split[0]}+{split[1]}+{split[2]} ({dt:.1f}s)")
    assert total == 28
    assert split == (8, 12, 8)
    assert dt < 10.0


def test_criterion_3_h1_table_sweep():
    """H^1 sweep, three routes agreeing per weight block, < 1 min."""
    t0 = time.time()
    failures = []
    sweep = []
    for n in range(2, 7):
        sweep.append(("gl", (n, n), 4 * (n - 1)))
    for m in range(2, 7):
        for n in range(1, m):
            sweep.append(("gl", (m, n), m + 3 * n - 3))
    for m in range(1, 5):
        for n in range(1, 5):
            sweep.append(("osp_even", (m, n), 2 * m + 2 * n - 2))
    for n in range(2, 7):
        sweep.append(("q", (n,), 2 * n - 2))
    for name, expected in (("D21a", 6), ("G3", 9), ("F4", 11)):
        sweep.append(("exc", (name,), expected))
    for fam, params, expected in sweep:
        alg, _ = build_family(fam, params)
        koszul_route = cohomology(alg, None, 1)
        quotient_route = h1_via_quotient(alg)
        superder_route = h1_via_superderivations(alg, trivial_module(alg))
        _check(
            failures,
            koszul_route.blocks == quotient_route.blocks == superder_route.blocks,
            f"{alg.name}: H^1 routes disagree",
        )
        _check(
            failures,
            koszul_route.total == expected,
            f"{alg.name}: H^1 = {koszul_route.total}, expected {expected}",
        )
    dt = time.time() - t0
    print(f"criterion 3: {len(sweep)} rows in {dt:.1f}s; failures: {len(failures)}")
    _check(failures, dt < 60.0, f"sweep took {dt:.1f}s, budget 60s")
    assert not failures, failures


def test_criterion_4_glnn_h2_formula():
    """gl(n|n) H^2 = 8n^2 - 20n + 16 for n in 2..5, < 5 min total."""
    t0 = time.time()
    for n in (2, 3, 4, 5):
        alg, _ = build_family("gl", (n, n))
        total = cohomology(alg, None, 2).total
        expected = 8 * n * n - 20 * n + 16
        print(f"criterion 4: gl({n}|{n}) H^2 = {total} (formula {expected})")
        assert total == expected
    dt = time.time() - t0
    assert dt < 300.0


def test_criterion_5_collapse_all_families():
    """dim H^k = sum E2^{i,j} for k <= 3, all infinite families m, n <= 3, < 10 min."""
    t0 = time.time()
    failures = []
    cases = []
    for m in range(1, 4):
        for n in range(1, m + 1):
            cases.append(("gl", (m, n)))
            cases.append(("sl", (m, n)))
            cases.append(("osp_odd", (m, n)))
    for m in range(1, 4):
        for n in range(1, 4):
            cases.append(("osp_even", (m, n)))
    for n in (2, 3):
        cases.append(("q", (n,)))
    for fam, params in cases:
        alg, ideal = build_family(fam, params)
        if alg.dim == 0:
            continue
        rep = spectral.collapse_check(alg, ideal, 3)
        _check(failures, rep["all_match"], f"{alg.name}: collapse fails: {rep['rows']}")
    dt = time.time() - t0
    print(f"criterion 5: {len(cases)} collapse checks in {dt:.1f}s")
    _check(failures, dt < 600.0, f"collapse sweep took {dt:.1f}s, budget 600s")
    assert not failures, failures


def test_criterion_6_recursion_consistency():
    """h2_recursive equals direct Koszul H^2 for gl, q, osp with params <= 4."""
    t0 = time.time()
    failures = []
    cases = []
    for m in range(1, 5):
        for n in range(1, m + 1):
            cases.append(("gl", (m, n)))
            cases.append(("osp_odd", (m, n)))
    for m in range(1, 5):
        for n in range(1, 5):
            cases.append(("osp_even", (m, n)))
    for n in (2, 3, 4):
        cases.append(("q", (n,)))
    for fam, params in cases:
        rec = spectral.h2_recursive(fam, params)
        alg, _ = build_family(fam, params)
        direct = cohomology(alg, None, 2)
        _check(
            failures,
            rec.total == direct.total and rec.blocks == direct.blocks,
            f"{alg.name}: recursive {rec.total} vs direct {direct.total}",
        )
    dt = time.time() - t0
    print(f"criterion 6: {len(cases)} recursion checks in {dt:.1f}s")
    assert not failures, failures


def test_criterion_7_discrepancy_adjudication():
    """Known paper-internal conflicts are flagged, with computed values; exit 0."""
    rows = tables.default_expectations(
        gl_h1_max=4, q_h1_max=4, osp_max=4,
        gl_h2_max=3, glmn_h2_max=4, q_h2_max=4, osp_h2_max=3, osp_base_h2_max=4,
    )
    report, code = tables.run_expectations(rows)
    assert code == 0, "verify-tables reported an unexplained mismatch"
    by_row = {r["row"]: r for r in report}

    def conflicted(prefix):
        return [
            r for rid, r in by_row.items()
            if rid.startswith(prefix) and r["status"] == tables.STATUS_CONFLICT
        ]

    # q(n) H^2: text vs table disagree for every n >= 2
    q_rows = [by_row[f"H2 q({n})"] for n in range(2, 5)]
    assert all(r["status"] == tables.STATUS_CONFLICT for r in q_rows)
    assert all(r["computed"]["total"] == 2 * n * n - 6 * n + 6 for r, n in zip(q_rows, range(2, 5)))
    # osp(2m+1|2n) H^1: text vs table
    assert conflicted("H1 osp(3|") or conflicted("H1 osp(5|") or conflicted("H1 osp(7|")
    # osp(2|2n) H^2 base case
    base_rows = [by_row[f"H2 osp(2|{2*n}) base case"] for n in range(1, 5)]
    assert all(r["status"] == tables.STATUS_CONFLICT for r in base_rows)
    # triplicated H^2 rows flagged: the identical printed totals cannot all
    # match the computed values
    assert conflicted("H2 osp(")
    assert by_row["H2 gl(3|1)"]["status"] == tables.STATUS_CONFLICT
    print("criterion 7: all anticipated conflicts flagged; exit code 0")

    # the CLI surface agrees
    proc = subprocess.run(
        [sys.executable, "-m", "supernil.cli", "verify-tables",
         "--gl-h1-max", "3", "--q-h1-max", "3", "--osp-max", "3",
         "--gl-h2-max", "2", "--glmn-h2-max", "3", "--q-h2-max", "3",
         "--osp-h2-max", "2", "--osp-base-h2-max", "2", "--format", "json"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0


def test_criterion_8_structural_property_suite():
    """d o d = 0; antisymmetry/Jacobi/weights; ideal closure; Jacobi <=> cocycle;
    Lambda_s dimension identity; Euler characteristic on small algebras."""
    failures = []
    matrix = [
        ("gl", (2, 2)), ("gl", (3, 2)), ("gl", (3, 3)), ("q", (3,)), ("q", (4,)),
        ("osp_even", (2, 2)), ("osp_even", (1, 2)), ("osp_odd", (2, 1)),
        ("osp_odd", (2, 2)), ("exc", ("D21a",)), ("exc", ("G3",)), ("exc", ("F4",)),
    ]
    for fam, params in matrix:
        alg, ideal = build_family(fam, params)
        alg.verify()
        if ideal is not None:
            verify_ideal(alg, ideal)
        cx = CochainComplex(alg, trivial_module(alg))
        for k in range(3):
            _check(failures, cx.check_d_squared(k), f"{alg.name}: d o d != 0 at degree {k}")
        if ideal is not None and ideal_is_abelian(alg, ideal):
            quo = quotient_algebra(alg, ideal)
            dm = dual_module(alg, ideal, quo)
            cxm = CochainComplex(quo, dm)
            for k in range(2):
                _check(failures, cxm.check_d_squared(k),
                       f"{alg.name}: d o d != 0 with I* coefficients")
    # Lambda_s^k dimension identity
    from math import comb

    for fam, params in [("gl", (3, 2)), ("q", (4,)), ("osp_odd", (2, 2))]:
        alg, _ = build_family(fam, params)
        d0, d1 = len(alg.even_ids()), len(alg.odd_ids())
        cx = CochainComplex(alg, trivial_module(alg))
        for k in range(4):
            expected = sum(
                comb(d0, i) * (comb(d1 + (k - i) - 1, k - i) if k - i else 1)
                for i in range(k + 1) if i <= d0
            )
            _check(failures, cx.dim(k) == expected,
                   f"{alg.name}: dim C^{k} = {cx.dim(k)} != {expected}")
    # central extension Jacobi <=> cocycle on algebras of dim <= 6
    for fam, params in [("gl", (2, 2)), ("q", (2,)), ("q", (3,)),
                        ("osp_even", (1, 1)), ("osp_odd", (1, 1)), ("exc", ("D21a",))]:
        alg, _ = build_family(fam, params)
        assert alg.dim <= 6
        cocycles, non_cocycles = cocycle_space(alg)
        for h in cocycles:
            _check(failures, not central_extension(alg, h).jacobi_failures(),
                   f"{alg.name}: cocycle fails Jacobi")
        for h in non_cocycles:
            _check(failures, bool(central_extension(alg, h).jacobi_failures()),
                   f"{alg.name}: non-cocycle passes Jacobi")
    # Euler characteristic identity on algebras of dim <= 8
    for fam, params in [("gl", (2, 2)), ("gl", (3, 2)), ("q", (3,)), ("osp_even", (2, 1))]:
        alg, _ = build_family(fam, params)
        assert alg.dim <= 8
        # cochain weights: the negated weights of words of one and two letters
        weights = sorted(
            {tuple(-x for x in b.weight) for b in alg.basis}
            | {tuple(-x - y for x, y in zip(b.weight, c.weight))
               for b in alg.basis for c in alg.basis}
        )
        lhs = []
        for w in weights[:8]:
            rep = euler_characteristic_check(alg, w)
            _check(failures, rep["equal"], f"{alg.name}: Euler fails at {rep['weight']}")
            lhs.append(rep["lhs"])
        _check(failures, any(lhs), f"{alg.name}: Euler identity compares only zeros")
    print(f"criterion 8: structural suite complete; failures: {len(failures)}")
    assert not failures, failures


def test_criterion_9_determinism():
    """Repeated runs and varied worker counts give byte-identical JSON."""
    def run(*args):
        proc = subprocess.run(
            [sys.executable, "-m", "supernil.cli", *args],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    compute = ("compute", "--family", "osp_odd", "--m", "2", "--n", "2",
               "--degree", "2", "--format", "json")
    assert run(*compute) == run(*compute)
    assert run(*compute, "--workers", "3") == run(*compute, "--workers", "1")

    spectral_cmd = ("spectral", "--family", "gl", "--m", "3", "--n", "3",
                    "--K", "2", "--format", "json")
    assert run(*spectral_cmd, "--workers", "1") == run(*spectral_cmd, "--workers", "4")

    tables_cmd = ("verify-tables", "--gl-h1-max", "3", "--q-h1-max", "3",
                  "--osp-max", "2", "--gl-h2-max", "2", "--glmn-h2-max", "2",
                  "--q-h2-max", "2", "--osp-h2-max", "1", "--osp-base-h2-max", "1",
                  "--format", "json")
    assert run(*tables_cmd) == run(*tables_cmd)
    print("criterion 9: byte-identical outputs across runs and worker counts")
