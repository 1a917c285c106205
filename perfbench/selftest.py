"""Self-test of the benchmark's count metrics.

    python3 perfbench/selftest.py [--seed N]

Traces every workload (two traced passes each, which `run.trace` requires
to give identical counts), then requires `trivial-deep` and
`trivial-deep-w2` to give identical counts: the worker count must not
change the work done, only where the rank jobs run.  Every metric not in
seconds is a count or a ratio of counts and is compared exactly.  Also
checks that `layers.json` maps exactly the per-layer metrics of
BENCHMARK.json.
Exit code 0 if every check holds, 1 otherwise.
"""

import argparse
import json
import os
import sys

import run
import workloads


def main() -> int:
    parser = argparse.ArgumentParser(description="Check that the trace counts repeat.")
    parser.add_argument("--seed", type=int, default=0)
    seed = parser.parse_args().seed
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    with open(os.path.join(run.HERE, "layers.json")) as fh:
        mapped = set(json.load(fh)["metrics"])
    ok = declared == mapped
    print(f"{'ok' if ok else 'FAIL'} layers.json maps the per-layer metrics of BENCHMARK.json")
    counts = {}
    for name in workloads.WORKLOADS:
        res = run.trace(name, seed)
        counts[name] = {m: v for m, v in res.metrics.items() if not m.endswith("_s")}
        for problem in res.problems:
            print(f"FAIL {name}: {problem}")
        if res.failed:
            print(f"FAIL {name}: {res.failed} invocations failed")
        good = not res.problems and not res.failed
        ok = ok and good
        print(f"{'ok' if good else 'FAIL'} {name}: "
              f"{len(counts[name])} counts repeat across two traced passes")
    one, two = counts["trivial-deep"], counts["trivial-deep-w2"]
    differ = sorted(m for m in one if one[m] != two[m])
    for m in differ:
        print(f"FAIL trivial-deep vs trivial-deep-w2: {m} = {one[m]} vs {two[m]}")
    print(f"{'FAIL' if differ else 'ok'} trivial-deep and trivial-deep-w2 give identical counts")
    return 0 if ok and not differ else 1


if __name__ == "__main__":
    sys.exit(main())
