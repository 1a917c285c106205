"""The benchmark's workloads: CLI invocations and the checks on their output.

Every input is exact mathematics, so a workload takes no random data; the
seed only permutes the order in which a sweep's invocations run.  Each
invocation's exit code and stdout digest are pinned in `reference.json`
(regenerate with `python3 perfbench/pin.py` only when the program's output
is meant to change); on top of that, the known totals and the spectral
cross-check flags are asserted here.
"""

from __future__ import annotations

import hashlib
import json
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")

TRIVIAL_DEEP = ["compute", "--family", "osp_even", "--m", "3", "--n", "3",
                "--degree", "3", "--format", "json"]
MODULE_WIDE = ["compute", "--family", "osp_even", "--m", "3", "--n", "2",
               "--degree", "2", "--coefficients", "lambda-s-j", "--j", "3",
               "--format", "json"]


def _spectral_sweep() -> list[list[str]]:
    out = []
    for fam in ("gl", "sl", "osp_odd"):
        for m in range(1, 4):
            for n in range(1, m + 1):
                out.append(["spectral", "--family", fam, "--m", str(m), "--n", str(n),
                            "--K", "2", "--recursive", "--format", "json"])
    # osp_even includes m < n, whose recursion ideals are not abelian
    for m in range(1, 4):
        for n in range(1, 4):
            out.append(["spectral", "--family", "osp_even", "--m", str(m), "--n", str(n),
                        "--K", "2", "--recursive", "--format", "json"])
    for n in range(2, 5):
        out.append(["spectral", "--family", "q", "--n", str(n),
                    "--K", "2", "--recursive", "--format", "json"])
    for name in ("D21a", "G3", "F4"):
        out.append(["compute", "--family", "exc", "--name", name,
                    "--degree", "3", "--format", "json"])
    return out


# BENCHMARK.json leaves out trivial-deep: trivial-deep-w2 does the same work
# plus the pool dispatch, and trivial-deep had the widest run-to-run spread of
# the four on a shared 2-CPU host.  It still runs by name, in the run over all
# workloads and in selftest.py.
WORKLOADS: dict[str, list[list[str]]] = {
    "trivial-deep": [TRIVIAL_DEEP],
    "module-wide": [MODULE_WIDE],
    "spectral-sweep": _spectral_sweep(),
    "trivial-deep-w2": [TRIVIAL_DEEP + ["--workers", "2"]],
}

# Totals known independently of the pinned digests.
KNOWN_TOTALS = {
    " ".join(TRIVIAL_DEEP): 128,
    " ".join(TRIVIAL_DEEP + ["--workers", "2"]): 128,
    " ".join(MODULE_WIDE): 22,
}

# Flags that would let a run skip the computation or the guardrail.
FORBIDDEN_FLAGS = ("--cache-dir", "--force")


def invocations(workload: str, seed: int) -> list[list[str]]:
    """The workload's invocations, in an order fixed by the seed."""
    argvs = [list(a) for a in WORKLOADS[workload]]
    random.Random(seed).shuffle(argvs)
    for argv in argvs:
        bad = [f for f in FORBIDDEN_FLAGS if f in argv]
        if bad:
            raise ValueError(f"workload {workload} passes {bad}")
    return argvs


def key(argv: list[str]) -> str:
    return " ".join(argv)


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode()).hexdigest()


def check(argv: list[str], code: int, stdout: str, reference: dict) -> list[str]:
    """Every way the invocation's result differs from what is expected."""
    problems = []
    if code in (2, 3):
        problems.append(f"exit {code} (bad input or invariant violation)")
    pinned = reference.get(key(argv))
    if pinned is None:
        problems.append("no pinned reference")
    else:
        if code != pinned["exit"]:
            problems.append(f"exit {code}, pinned {pinned['exit']}")
        if digest(stdout) != pinned["sha256"]:
            problems.append("stdout digest differs from the pinned one")
    try:
        payload = json.loads(stdout)
    except ValueError:
        return problems + ["stdout is not JSON"]
    total = KNOWN_TOTALS.get(key(argv))
    if total is not None and payload.get("total") != total:
        problems.append(f"total {payload.get('total')}, expected {total}")
    if argv[0] == "spectral":
        if payload.get("all_match") is not True:
            problems.append("all_match is not true")
        if payload.get("h2_match") is not True:
            problems.append("h2_match is not true")
    return problems
