"""Alternating A/B runs of one CLI invocation between two checkouts.

    python3 tools/deskab.py PARENT CHANGE [--pairs N] -- <cli args>

PARENT and CHANGE are two checkouts of this repository.  Each pair runs
`supernil.cli.main(<cli args>)` once in a fresh interpreter on each
checkout's `src`; the side that runs first alternates from pair to pair.
No cache directory reaches the children, so every run computes.  For each
run it prints the wall and CPU time of the `cli.main` call, the child's
`ru_maxrss` and the sha256 of its stdout; then, over the pairs in which
both runs succeeded, once there are two, the summary of `abpairs.summarize`
for `wall_s`, `cpu_s` and `maxrss_mb`: each side's quartiles, the pairs
the change won (ties count for neither side), and whether a gain may be
claimed (the change wins at least 9 of every 10 pairs and its median
beats the parent's by more than the parent's interquartile range).

The exit code is 1 if any run exits nonzero or fails, or if the stdout
sha256 differs between runs, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from abpairs import describe, summarize

# one run in a fresh interpreter: argv[1] is the checkout's src, the rest
# the CLI's arguments; hashlib and json are imported after the run, so that
# ru_maxrss holds what the run itself needed
CHILD = """
import io, resource, sys, time
from contextlib import redirect_stdout
sys.path.insert(0, sys.argv[1])
from supernil import cli
buf = io.StringIO()
start, cpu = time.perf_counter(), time.process_time()
with redirect_stdout(buf):
    code = cli.main(sys.argv[2:])
wall, cpu = time.perf_counter() - start, time.process_time() - cpu
maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
import hashlib, json
print(json.dumps({"code": code, "wall_s": wall, "cpu_s": cpu, "maxrss_mb": maxrss,
                  "sha256": hashlib.sha256(buf.getvalue().encode()).hexdigest()}))
"""


def run_side(root: str, argv: list[str]) -> dict | None:
    """One run of the CLI on `root`'s source: its exit code, `wall_s`,
    `cpu_s`, `maxrss_mb` and stdout `sha256`, or None when the child gives
    no such line."""
    src = os.path.join(os.path.abspath(root), "src")
    env = {k: v for k, v in os.environ.items() if k != "SUPERNIL_CACHE_DIR"}
    proc = subprocess.run([sys.executable, "-c", CHILD, src, *argv],
                          capture_output=True, text=True, env=env)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except json.JSONDecodeError:
        return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--pairs", type=int, default=3)
    argv = sys.argv[1:] if argv is None else list(argv)
    cut = argv.index("--") if "--" in argv else len(argv)
    args, cli = parser.parse_args(argv[:cut]), argv[cut + 1:]
    if not cli:
        parser.error("give the CLI arguments after --")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    sides = {"parent": args.parent, "change": args.change}
    runs: dict[str, list[dict | None]] = {side: [None] * args.pairs for side in sides}
    ok = True
    for i in range(args.pairs):
        for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            out = run_side(sides[side], cli)
            if out is None or out["code"] != 0:
                print(f"pair {i + 1}: {side} run failed", file=sys.stderr)
                ok = False
                continue
            runs[side][i] = out
            print(f"pair {i + 1} {side}: wall_s {out['wall_s']:.4f}, cpu_s {out['cpu_s']:.4f}, "
                  f"ru_maxrss {out['maxrss_mb']:.1f} MB, sha256 {out['sha256']}")
    done = [i for i in range(args.pairs) if runs["parent"][i] and runs["change"][i]]
    digests = {out["sha256"] for side in sides for out in runs[side] if out}
    if len(digests) > 1:
        print(f"stdout sha256 differs between runs: {sorted(digests)}", file=sys.stderr)
        ok = False
    if len(done) < 2:  # quartiles need two values a side
        return 0 if ok else 1
    for metric in ("wall_s", "cpu_s", "maxrss_mb"):
        print(f"{metric}: " + describe(summarize([runs["parent"][i][metric] for i in done],
                                                 [runs["change"][i][metric] for i in done],
                                                 "lower")))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
