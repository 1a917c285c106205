"""Benchmark of supernil through its command line.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Each workload (see `workloads.py` and BENCHMARK.json) is a list of
`supernil.cli.main(argv)` invocations, run in a fresh child process per
pass so that no state carries over.  The children get no
`SUPERNIL_CACHE_DIR`, and no invocation passes `--cache-dir` or `--force`,
so every pass computes and the guardrail stays on.  Every invocation's exit
code and stdout are checked against the pins in `reference.json` and the
known totals; a mismatch is a failure, never a skip.

`--trace 0` (end-to-end, tracing off): after one warm-up, rounds of
SETUP_PROBES_PER_PASS children that only start up and one pass repeat
while the next round is expected to end within `--seconds` (at least one
round runs).
Reported are the medians over passes of `wall_s` (first `cli.main` call to
the last checked result) and `peak_rss_mb` (`ru_maxrss` of the child, or
of its pool workers if larger), and the median `setup_s` (child start to
supernil imported and argv generated) over probes and passes.

`--trace 1` (per layer): one untraced pass, then two traced passes (see
`tracer.py`).  Times are the mean of the two traced passes; every count
must repeat exactly between them, or the run fails.  `trace.overhead_s` is
the traced minus the untraced `wall_s`.  Spans go to `.perfbench/`.

Without `--workload` every workload of `workloads.py` runs in turn.  The last line of stdout
is one JSON object with `correct`, `attempted`, `failed` and `metrics`; the
exit code is 1 if any invocation failed, 2 if the benchmark could not run.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
SETUP_PROBES_PER_PASS = 3
CHILD_TIMEOUT = 150
CACHE_ENV = "SUPERNIL_CACHE_DIR"

sys.path.insert(0, HERE)
import workloads  # noqa: E402


class BenchError(Exception):
    pass


@dataclasses.dataclass
class Result:
    metrics: dict[str, float]
    attempted: int             # invocations run
    failed: int                # invocations whose result was wrong
    notes: list[str]
    problems: list[str] = dataclasses.field(default_factory=list)  # other failed checks


def spawn(workload: str, seed: int, mode: str, spans: str = "") -> dict:
    """Run child.py in a fresh process and return its JSON result."""
    env = {k: v for k, v in os.environ.items() if k != CACHE_ENV}
    cmd = [sys.executable, CHILD, ROOT, workload, str(seed), mode]
    cmd += [repr(perf_counter())] + ([spans] if spans else [])
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{workload} {mode} pass exceeded {CHILD_TIMEOUT} s")
    if proc.returncode != 0:
        raise BenchError(f"{workload} {mode} pass exited {proc.returncode}")
    return json.loads(out.decode().splitlines()[-1])


def _report_failures(workload: str, passes: list[dict]) -> None:
    for p in passes:
        for f in p["failures"]:
            print(f"FAIL {workload}: {f['argv']}: {'; '.join(f['problems'])}", file=sys.stderr)


def measure(workload: str, seed: int, seconds: float) -> Result:
    """End-to-end metrics with tracing off."""
    spawn(workload, seed, "setup")  # warm-up: bytecode caches, page cache
    setups = []
    passes = []
    start = perf_counter()
    elapsed = 0.0
    # another round only if, at the mean round length so far, it ends in time
    while not passes or elapsed * (len(passes) + 1) / len(passes) <= seconds:
        setups += [spawn(workload, seed, "setup")["setup_s"]
                   for _ in range(SETUP_PROBES_PER_PASS)]
        passes.append(spawn(workload, seed, "run"))
        elapsed = perf_counter() - start
    _report_failures(workload, passes)
    setups += [p["setup_s"] for p in passes]
    metrics = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    notes = [f"{len(passes)} passes, {len(setups)} setup samples",
             "wall_s per pass: " + " ".join(f"{p['wall_s']:.3f}" for p in passes)]
    return Result(metrics, sum(p["attempted"] for p in passes),
                  sum(p["failed"] for p in passes), notes)


def trace(workload: str, seed: int) -> Result:
    """Per-layer metrics from two traced passes, checked to repeat."""
    plain = spawn(workload, seed, "run")
    traced = [spawn(workload, seed, "trace", f".perfbench/trace-{workload}-seed{seed}-{i}.json")
              for i in (1, 2)]
    passes = [plain] + traced
    _report_failures(workload, passes)
    first, second = (t["layers"] for t in traced)
    metrics = {}
    problems = []
    for name, value in first.items():
        if name.endswith("_s"):
            metrics[name] = (value + second[name]) / 2
        else:
            metrics[name] = value
            if value != second[name]:
                problems.append(f"count {name} did not repeat: {value} then {second[name]}")
    traced_wall = statistics.mean(t["wall_s"] for t in traced)
    metrics["trace.overhead_s"] = traced_wall - plain["wall_s"]
    notes = [f"untraced wall_s {plain['wall_s']:.3f}, traced wall_s "
             + " ".join(f"{t['wall_s']:.3f}" for t in traced)]
    return Result(metrics, sum(p["attempted"] for p in passes),
                  sum(p["failed"] for p in passes), notes, problems)


def _commit() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "supernil")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "supernil", "cli.py")):
        print(f"error: no supernil source under {ROOT}/src", file=sys.stderr)
        return 2

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    meta = {"seed": args.seed, "commit": _commit(), "source_sha256": _source_digest(),
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "loadavg_at_start": os.getloadavg(), "trace": args.trace,
            # measured by traced runs only; an untraced run makes no traced pass
            "trace_overhead_s": {} if args.trace else None}
    results = {}
    attempted = failed = 0
    correct = True
    for name in names:
        try:
            res = trace(name, args.seed) if args.trace else measure(name, args.seed, args.seconds)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if set(res.metrics) != set(units):
            print(f"error: metrics {sorted(set(res.metrics) ^ set(units))} do not match "
                  "BENCHMARK.json", file=sys.stderr)
            return 2
        for problem in res.problems:
            print(f"FAIL {name}: {problem}", file=sys.stderr)
        correct = correct and res.failed == 0 and not res.problems
        attempted += res.attempted
        failed += res.failed
        print(f"== {name}: {res.attempted} invocations, "
              f"error_rate {res.failed / res.attempted:.4f}")
        for note in res.notes:
            print(f"   {note}")
        for metric in units:
            print(f"   {metric} = {res.metrics[metric]:.6g} {units[metric]}")
        if args.trace:
            meta["trace_overhead_s"][name] = res.metrics["trace.overhead_s"]
        prefix = "" if args.workload else f"{name}/"
        for metric in units:
            results[prefix + metric] = {"value": res.metrics[metric], "unit": units[metric]}
    print("meta " + json.dumps(meta))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": results}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
