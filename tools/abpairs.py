"""Alternating A/B pairs of the benchmark between two checkouts.

    python3 tools/abpairs.py PARENT CHANGE --workload W --pairs N [--seconds S]

PARENT and CHANGE are two checkouts of this repository (for example made
with `git archive`).  Each pair runs `perfbench/run.py --workload W`
untraced once in each checkout, in its own directory; the side that runs
first alternates from pair to pair.  For each end-to-end metric that
BENCHMARK.json declares it prints every run, each side's median and
quartiles, the pairs the change won (ties count for neither side), and whether a gain may
be claimed: the change wins at least 9 of every 10 pairs and its median
beats the parent's by more than the parent's interquartile range.

It only reads the benchmark's output.  The exit code is 1 if any run
reports `correct: false` or gives no result line, else 0.

The benchmark's `peak_rss_mb` moves by about 0.1 MB with the length of
the checkout path alone, so it warns on stderr when the absolute paths of
PARENT and CHANGE differ in length; name the checkouts alike (say
`a/repo` and `b/repo`) to compare memory.  It also moves, by up to about
0.2 MB either way, with source text that the workload never executes
(comments, docstrings, code on other paths) and with the environment the
children inherit (a pyenv shim's variables, the working directory), so a
`peak_rss_mb` difference near its bound need not come from what the run
holds; a `tracemalloc` peak of the same call tells the two apart.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_side(root: str, workload: str, seconds: float | None) -> dict | None:
    """The last stdout line of one benchmark run in `root`, as JSON, or
    None when the run gives no such line."""
    root = os.path.abspath(root)
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def summarize(parent: list[float], change: list[float], better: str) -> dict:
    """Medians, quartiles and pairs won for one metric measured in pairs
    (parent[i], change[i]), and whether the gain rule holds for it."""
    sign = 1 if better == "lower" else -1
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    pq = statistics.quantiles(parent, n=4, method="inclusive")
    cq = statistics.quantiles(change, n=4, method="inclusive")
    gap = sign * (pq[1] - cq[1])
    return {
        "parent": pq, "change": cq, "wins": wins, "pairs": len(parent),
        "gain": 10 * wins >= 9 * len(parent) and gap > pq[2] - pq[0],
    }


def describe(s: dict) -> str:
    """One `summarize` result as text: quartiles, pairs won and the gain rule."""
    quart = {side: " ".join(f"{v:.4g}" for v in s[side]) for side in ("parent", "change")}
    return (f"parent q1/median/q3 {quart['parent']}, change {quart['change']}, "
            f"change won {s['wins']}/{s['pairs']}, gain {'holds' if s['gain'] else 'not shown'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    with open(os.path.join(args.parent, "BENCHMARK.json")) as fh:
        metrics = json.load(fh)["end_to_end"]
    sides = {"parent": args.parent, "change": args.change}
    lengths = {side: len(os.path.abspath(root)) for side, root in sides.items()}
    if lengths["parent"] != lengths["change"]:
        print(f"warning: the checkout paths differ in length ({lengths['parent']} and "
              f"{lengths['change']} characters), which moves peak_rss_mb by itself",
              file=sys.stderr)
    values: dict[str, dict[str, list[float]]] = {side: {} for side in sides}
    correct = True
    for i in range(args.pairs):
        for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            out = run_side(sides[side], args.workload, args.seconds)
            if out is None or not out.get("correct"):
                print(f"pair {i + 1}: {side} run not correct", file=sys.stderr)
                correct = False
                continue
            for name, entry in out["metrics"].items():
                values[side].setdefault(name, []).append(entry["value"])
    for metric in metrics:
        name = metric["name"]
        parent, change = values["parent"].get(name, []), values["change"].get(name, [])
        if len(parent) != args.pairs or len(change) != args.pairs:
            print(f"{name}: incomplete ({len(parent)} parent, {len(change)} change runs)")
            continue
        print(f"{args.workload} {name} ({metric['unit']}, {metric['better']} is better): "
              + describe(summarize(parent, change, metric["better"])))
        print(f"  runs in pair order: parent {' '.join(f'{v:.4g}' for v in parent)}; "
              f"change {' '.join(f'{v:.4g}' for v in change)}")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
