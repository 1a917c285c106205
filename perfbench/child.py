"""One pass of a workload in a fresh process; prints one JSON line.

    python3 perfbench/child.py ROOT WORKLOAD SEED MODE SPAWNED [SPANS]

ROOT is the checkout holding `src/supernil`.  SPAWNED is the parent's
`time.perf_counter()` just before it started this process (the clock is
system-wide), so `setup_s` covers interpreter start-up, importing supernil
and generating the argv list.  MODE is `setup` (stop there), `run` (run
the invocations untraced) or `trace` (run them with every layer wrapped and
write the spans, once at the end, to the file SPANS under ROOT).
"""

from time import perf_counter

import contextlib
import io
import json
import os
import resource
import sys
import traceback


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of `supernil.cli.main(argv)`."""
    import supernil.cli  # looked up per call, so a traced `main` is used

    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = supernil.cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    except Exception:
        traceback.print_exc()
        code = -1
    return code, buf.getvalue()


def main(argv: list[str]) -> int:
    root, workload, seed, mode, spawned = argv[1:6]
    src = os.path.join(os.path.abspath(root), "src")
    sys.path.insert(0, src)
    import supernil.cli

    if not os.path.abspath(supernil.__file__).startswith(src + os.sep):
        print(f"supernil imported from {supernil.__file__}, not from {src}", file=sys.stderr)
        return 2
    import workloads

    argvs = workloads.invocations(workload, int(seed))
    result = {"setup_s": perf_counter() - float(spawned)}
    if mode == "setup":
        print(json.dumps(result))
        return 0

    reference = workloads.load_reference()
    tracer = None
    if mode == "trace":
        import tracer as tracing

        tracer = tracing.install()
    failures = []
    start = perf_counter()
    for i, args in enumerate(argvs):
        if tracer is not None:
            tracer.begin_invocation(i)
        code, out = run_cli(args)
        problems = workloads.check(args, code, out, reference)
        if problems:
            failures.append({"argv": workloads.key(args), "problems": problems})
    wall = perf_counter() - start

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result.update(wall_s=wall, peak_rss_mb=max(own, kids) / 1024,
                  attempted=len(argvs), failed=len(failures), failures=failures)
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer.spans, tracer.counts)
        path = os.path.join(root, argv[6])
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"workload": workload, "seed": int(seed), "invocations": argvs,
                       "span_fields": ["invocation", "name", "start", "end", "parent"],
                       "spans": tracer.spans}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
