"""Verification of the published H^1/H^2 dimension tables.

Each expectation row carries every printed value for that family and
degree (in-text formula and/or appendix table entry) together with a
kind:

* "assert" rows are places where the source is internally consistent;
  a computed mismatch is unexplained and fails the run.
* "adjudicate" rows are places where the source disagrees with itself
  (or its derivation only covers part of the stated parameter range);
  these report `paper-internal-conflict` with the computed truth and all
  printed values, and never fail the run.

The adjudicated conflicts, with the computed resolution observed on the
default ranges:

* q(n) H^2: in-text 2n^2-6n+6 vs table 2(n-1)^2+(n-1); computation
  confirms the in-text formula.
* osp(2m+1|2n) H^1: in-text 2m+2n-1 vs table m+n+2r; computation gives
  2m+2n-2 on |m-n| <= 1 (both printed formulas overcount: the bracket
  [x_{-d_t}, x_{-d_t}] = -2d_t removes one symplectic class).
* osp(2m|2n) H^1: printed total 2m+2n-2 is confirmed for |m-n| <= 1,
  the range actually covered by the in-text quotient basis; outside it
  the printed weight lists are not well formed and the computed value
  differs.
* osp(2|2n) H^2 base case: (3n^2+n+4)/2 does not match the direct
  computation for any n tested.
* The H^2 table rows for gl(m|n), osp(2m|2n), osp(2m+1|2n) are textually
  identical; computation shows they differ from each other and from the
  in-text gl(m|n) case formulas.
* The exceptional H^2 odd+odd / odd+even columns are transposed
  (totals agree).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import realize
from .cohomology import CohomologyResult, cohomology

ASSERT = "assert"
ADJUDICATE = "adjudicate"

STATUS_MATCH = "match"
STATUS_MISMATCH = "mismatch"
STATUS_CONFLICT = "paper-internal-conflict"


@dataclass
class TableExpectation:
    row_id: str
    family: str
    params: tuple
    degree: int
    kind: str
    expected: dict[str, int]
    note: str = ""
    split: dict[str, tuple[int, int]] = field(default_factory=dict)
    # split: source -> (even total, odd total), asserted only on assert rows


def _table_h2_mn(m: int, n: int) -> int:
    r = min(m, n)
    return ((n - 1) ** 2 + (n - 1) + (m - 1) ** 2 + (m - 1)) // 2 + (n + m - 2) * (
        2 * r
    ) + 2 * (r * r + r)


def _text_h2_gl_mn(m: int, n: int) -> int:
    rho = m - n
    if rho == 1:
        return 8 * n * n - 12 * n + 8
    if rho == 2:
        return 8 * n * n - 8 * n + 8
    return 8 * n * n - 8 * n + 8 + 4 * n * (rho - 2) + ((rho - 3) ** 2 + (rho - 3)) // 2


def default_expectations(
    gl_h1_max: int = 6,
    q_h1_max: int = 6,
    osp_max: int = 4,
    gl_h2_max: int = 5,
    glmn_h2_max: int = 4,
    q_h2_max: int = 4,
    osp_h2_max: int = 4,
    osp_base_h2_max: int = 4,
) -> list[TableExpectation]:
    rows: list[TableExpectation] = []
    # ---- H^1, internally consistent rows
    for n in range(2, gl_h1_max + 1):
        rows.append(
            TableExpectation(
                f"H1 gl({n}|{n})", "gl", (n, n), 1, ASSERT,
                {"paper-text": 4 * (n - 1), "paper-table": 4 * (n - 1)},
                split={"paper-table": (2 * (n - 1), 2 * (n - 1))},
            )
        )
        rows.append(
            TableExpectation(
                f"H1 sl({n}|{n})", "sl", (n, n), 1, ASSERT,
                {"paper-text": 4 * (n - 1)},
            )
        )
    for m in range(2, gl_h1_max + 1):
        for n in range(1, m):
            rows.append(
                TableExpectation(
                    f"H1 gl({m}|{n})", "gl", (m, n), 1, ASSERT,
                    {"paper-text": m + 3 * n - 3},
                    split={"paper-table": (m + n - 2, 2 * n - 1)},
                )
            )
    for n in range(2, q_h1_max + 1):
        rows.append(
            TableExpectation(
                f"H1 q({n})", "q", (n,), 1, ASSERT,
                {"paper-text": 2 * n - 2, "paper-table": 2 * n - 2},
                split={"paper-table": (n - 1, n - 1)},
            )
        )
    for name, (ev, od) in (("D21a", (3, 3)), ("G3", (3, 6)), ("F4", (4, 7))):
        rows.append(
            TableExpectation(
                f"H1 {name}", "exc", (name,), 1, ASSERT,
                {"paper-table": ev + od},
                split={"paper-table": (ev, od)},
            )
        )
    # ---- H^1, conflicting rows
    for m in range(1, osp_max + 1):
        for n in range(1, osp_max + 1):
            rows.append(
                TableExpectation(
                    f"H1 osp({2 * m}|{2 * n})", "osp_even", (m, n), 1, ADJUDICATE,
                    {"paper-text": 2 * m + 2 * n - 2, "paper-table": 2 * m + 2 * n - 2},
                    note=(
                        "printed even/odd split m+n-1/m+n-1 contradicts the "
                        "printed weight lists; in-text basis only well formed "
                        "for m in {n, n+1}"
                    ),
                )
            )
    for m in range(1, osp_max + 1):
        for n in range(1, m + 1):
            r = min(m, n)
            rows.append(
                TableExpectation(
                    f"H1 osp({2 * m + 1}|{2 * n})", "osp_odd", (m, n), 1, ADJUDICATE,
                    {"paper-text": 2 * m + 2 * n - 1, "paper-table": m + n + 2 * r},
                    note="in-text and table formulas disagree for m != n+1",
                )
            )
    # ---- H^2, internally consistent rows
    for n in range(2, gl_h2_max + 1):
        rows.append(
            TableExpectation(
                f"H2 gl({n}|{n})", "gl", (n, n), 2, ASSERT,
                {"paper-text": 8 * n * n - 20 * n + 16,
                 "paper-table": 8 * n * n - 20 * n + 16},
            )
        )
    for name, (ee, oo, oe) in (
        ("D21a", (3, 9, 6)), ("G3", (3, 18, 21)), ("F4", (6, 28, 28))
    ):
        rows.append(
            TableExpectation(
                f"H2 {name}", "exc", (name,), 2, ASSERT,
                {"paper-table": ee + oo + oe},
            )
        )
        rows.append(
            TableExpectation(
                f"H2 {name} columns", "exc", (name,), 2, ADJUDICATE,
                {"paper-table-even-classes": ee + oo, "paper-table-odd-classes": oe},
                note="odd+odd and odd+even columns appear transposed",
            )
        )
    # ---- H^2, conflicting rows
    for n in range(2, q_h2_max + 1):
        rows.append(
            TableExpectation(
                f"H2 q({n})", "q", (n,), 2, ADJUDICATE,
                {"paper-text": 2 * n * n - 6 * n + 6,
                 "paper-table": 2 * (n - 1) ** 2 + (n - 1)},
                note="in-text and table formulas disagree for every n >= 2",
            )
        )
    for m in range(2, glmn_h2_max + 1):
        for n in range(1, m):
            rows.append(
                TableExpectation(
                    f"H2 gl({m}|{n})", "gl", (m, n), 2, ADJUDICATE,
                    {"paper-text": _text_h2_gl_mn(m, n),
                     "paper-table": _table_h2_mn(m, n)},
                    note="table row triplicated with the osp rows",
                )
            )
    for m in range(1, osp_h2_max + 1):
        for n in range(1, osp_h2_max + 1):
            rows.append(
                TableExpectation(
                    f"H2 osp({2 * m}|{2 * n})", "osp_even", (m, n), 2, ADJUDICATE,
                    {"paper-table": _table_h2_mn(m, n)},
                    note="table row triplicated with the gl(m|n) row",
                )
            )
    for m in range(1, osp_h2_max + 1):
        for n in range(1, m + 1):
            rows.append(
                TableExpectation(
                    f"H2 osp({2 * m + 1}|{2 * n})", "osp_odd", (m, n), 2, ADJUDICATE,
                    {"paper-table": _table_h2_mn(m, n)},
                    note="table row triplicated with the gl(m|n) row",
                )
            )
    for n in range(1, osp_base_h2_max + 1):
        rows.append(
            TableExpectation(
                f"H2 osp(2|{2 * n}) base case", "osp_even", (1, n), 2, ADJUDICATE,
                {"paper-text": (3 * n * n + n + 4) // 2},
                note="base-case formula of the recursive computation",
            )
        )
    return rows


def run_expectations(
    rows: list[TableExpectation], workers: int = 1
) -> tuple[list[dict], int]:
    """Evaluate all expectation rows; returns (report rows, exit code)."""
    algebra_cache: dict[tuple, object] = {}
    result_cache: dict[tuple, CohomologyResult] = {}
    report = []
    exit_code = 0
    for row in rows:
        akey = (row.family, row.params)
        if akey not in algebra_cache:
            alg, _ = realize.build_family(row.family, row.params)
            algebra_cache[akey] = alg
        alg = algebra_cache[akey]
        rkey = akey + (row.degree,)
        if rkey not in result_cache:
            result_cache[rkey] = cohomology(alg, None, row.degree, workers=workers)
        res = result_cache[rkey]
        computed = {
            "total": res.total,
            "even": res.total_even(),
            "odd": res.total_odd(),
        }
        ok = all(v == res.total for v in row.expected.values())
        for src, (ev, od) in row.split.items():
            ok = ok and computed["even"] == ev and computed["odd"] == od
        if row.row_id.endswith("columns"):
            # column rows compare the class splits, not the total
            ok = (
                computed["even"] == row.expected["paper-table-even-classes"]
                and computed["odd"] == row.expected["paper-table-odd-classes"]
            )
        if ok:
            status = STATUS_MATCH
        elif row.kind == ADJUDICATE:
            status = STATUS_CONFLICT
        else:
            status = STATUS_MISMATCH
            exit_code = 1
        report.append(
            {
                "row": row.row_id,
                "degree": row.degree,
                "kind": row.kind,
                "computed": computed,
                "expected": row.expected,
                "status": status,
                "note": row.note,
            }
        )
    return report, exit_code


def render_report(report: list[dict]) -> str:
    lines = []
    width = max(len(r["row"]) for r in report) + 2
    for r in report:
        exp = ", ".join(f"{k}={v}" for k, v in r["expected"].items())
        lines.append(
            f"{r['row']:<{width}} computed={r['computed']['total']:<5} "
            f"(even {r['computed']['even']}, odd {r['computed']['odd']})  "
            f"[{exp}]  {r['status']}"
            + (f"  # {r['note']}" if r["note"] and r["status"] != STATUS_MATCH else "")
        )
    counts = {}
    for r in report:
        counts[r["status"]] = counts.get(r["status"], 0) + 1
    lines.append(
        "summary: "
        + ", ".join(f"{k}: {v}" for k, v in sorted(counts.items()))
    )
    return "\n".join(lines)
