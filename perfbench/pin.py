"""Pin every workload invocation's exit code and stdout digest.

    python3 perfbench/pin.py

Runs each invocation once through `supernil.cli.main` from this checkout's
`src/` and rewrites `perfbench/reference.json`.  Run it only at a commit
whose output is trusted; the benchmark then fails any run whose output
differs from these pins.
"""

import json
import os
import sys

import child
import workloads

ROOT = os.path.dirname(workloads.HERE)


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    reference = {}
    for argvs in workloads.WORKLOADS.values():
        for argv in argvs:
            code, out = child.run_cli(argv)
            reference[workloads.key(argv)] = {"exit": code, "sha256": workloads.digest(out)}
            problems = workloads.check(argv, code, out, reference)
            if problems:
                print(f"{workloads.key(argv)}: {problems}", file=sys.stderr)
                return 1
            print(f"{code} {reference[workloads.key(argv)]['sha256'][:12]} {workloads.key(argv)}")
    with open(workloads.REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
