"""Per-layer tracing of supernil from outside the package.

`install()` wraps the public functions of each layer (`realize`, `koszul`,
`linalg`, `cohomology`, `spectral`, `cli`) and rebinds every name a caller
imported, so no file of the package is edited.  Each wrapped call records
one span (invocation id, name, start, end, parent span) in memory; counts
are taken at the same boundaries.  The rank jobs that `cohomology` sends to
a `multiprocessing` pool are traced in the workers and their spans and
counts are shipped back with each result.

`layer_metrics()` turns the spans into the per-layer metrics: a layer's
time is the sum of its spans' self times, a span's self time being its
duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import resource
import sys
from collections import Counter
from time import perf_counter

# metric -> span name whose self time it sums
TIME_METRICS = {
    "realize.build_s": "realize.build",
    "realize.verify_s": "realize.verify",
    "koszul.degree_s": "koszul.degree",
    "koszul.differential_s": "koszul.differential",
    "koszul.block_matrix_s": "koszul.block_matrix",
    "koszul.module_s": "koszul.module",
    "koszul.module_verify_s": "koszul.module_verify",
    "linalg.rank_s": "linalg.rank",
    "linalg.elim_s": "linalg.elim",
    "cohomology.self_s": "cohomology",
    "spectral.hj_ideal_module_s": "spectral.hj_ideal_module",
    "spectral.h2_recursive_s": "spectral.h2_recursive",
    "spectral.collapse_s": "spectral.collapse",
    "cli.self_s": "cli",
}
# counting work done by the tracer itself; a child of the traced span's
# parent, so it is not billed to any layer
COUNT_SPAN = "trace.count"

_ACTIVE: "Tracer | None" = None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []    # [invocation, name, start, end, parent]
        self.stack: list[int] = []     # indices of the open spans
        self.counts: Counter = Counter()
        self.invocation = 0
        self._seen: dict[int, object] = {}  # memoized results already counted

    def begin_invocation(self, invocation: int) -> None:
        self.invocation = invocation
        self._seen.clear()

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([self.invocation, name, perf_counter(), 0.0, parent])
        return idx

    def wrap(self, name: str, fn, count=None, child_cpu: bool = False):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if child_cpu:
                cpu0 = _children_cpu()
            idx = tracer._open(name)
            tracer.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.stack.pop()
                tracer.spans[idx][3] = perf_counter()
            if count is not None:
                cidx = tracer._open(COUNT_SPAN)
                count(tracer, args, result)
                tracer.spans[cidx][3] = perf_counter()
            if child_cpu:
                tracer.counts["cohomology.child_cpu_s"] += _children_cpu() - cpu0
            return result

        return traced

    def first_time(self, obj) -> bool:
        """True the first time a memoized result is seen in this invocation."""
        if id(obj) in self._seen:
            return False
        self._seen[id(obj)] = obj
        return True

    def adopt(self, spans: list[list], counts: Counter, parent: int) -> None:
        """Attach spans recorded in a pool worker under the span `parent`."""
        offset = len(self.spans)
        for _, name, start, end, p in spans:
            self.spans.append([self.invocation, name, start, end,
                               parent if p < 0 else p + offset])
        self.counts.update(counts)


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


# -- counting hooks ----------------------------------------------------------


def _count_build(t: Tracer, args, result) -> None:
    t.counts["realize.builds"] += 1


def _count_degree(t: Tracer, args, data) -> None:
    if not t.first_time(data):
        return
    t.counts["koszul.cochains"] += len(data.keys)
    t.counts["koszul.blocks"] += len(data.blocks)
    largest = max((len(v) for v in data.blocks.values()), default=0)
    t.counts["koszul.max_block"] = max(t.counts["koszul.max_block"], largest)


def _count_differential(t: Tracer, args, d) -> None:
    if t.first_time(d):
        t.counts["koszul.diff_nnz"] += len(d)


def _count_block(t: Tracer, args, rows) -> None:
    t.counts["koszul.block_cells"] += len(rows) * (len(rows[0]) if rows else 0)
    t.counts["koszul.block_nnz"] += sum(1 for row in rows for x in row if x)


def _count_rank(t: Tracer, args, r) -> None:
    rows = args[0]
    t.counts["linalg.rank_calls"] += 1
    t.counts["linalg.rank_cells"] += len(rows) * (len(rows[0]) if rows else 0)
    t.counts["linalg.rank_zero"] += r == 0


def _count_call(t: Tracer, args, result) -> None:
    t.counts["cohomology.calls"] += 1


# -- installation --------------------------------------------------------------


def _layers():
    """(owner, attribute, span name, count hook, child cpu) per wrapped callable."""
    realize = importlib.import_module("supernil.realize")
    koszul = importlib.import_module("supernil.koszul")
    return [
        ("supernil.realize", "build_family", "realize.build", _count_build, False),
        ("supernil.realize", "verify_ideal", "realize.verify", None, False),
        (realize.NilpotentAlgebra, "verify", "realize.verify", None, False),
        (koszul.CochainComplex, "degree", "koszul.degree", _count_degree, False),
        (koszul.CochainComplex, "differential", "koszul.differential", _count_differential, False),
        (koszul.CochainComplex, "block_matrix", "koszul.block_matrix", _count_block, False),
        ("supernil.koszul", "dual_module", "koszul.module", None, False),
        ("supernil.koszul", "lambda_s_module", "koszul.module", None, False),
        (koszul.GModule, "verify", "koszul.module_verify", None, False),
        ("supernil.linalg", "rank", "linalg.rank", _count_rank, False),
        ("supernil.linalg", "rref", "linalg.elim", None, False),
        ("supernil.linalg", "solve", "linalg.elim", None, False),
        ("supernil.linalg", "nullspace", "linalg.elim", None, False),
        ("supernil.linalg", "row_space_basis", "linalg.elim", None, False),
        ("supernil.cohomology", "cohomology", "cohomology", _count_call, True),
        ("supernil.spectral", "hj_ideal_module", "spectral.hj_ideal_module", None, False),
        ("supernil.spectral", "h2_recursive", "spectral.h2_recursive", None, False),
        ("supernil.spectral", "collapse_check", "spectral.collapse", None, False),
        ("supernil.cli", "main", "cli", None, False),
    ]


def install() -> Tracer:
    """Wrap every layer of the imported supernil package; returns the tracer."""
    global _ACTIVE
    if _ACTIVE is not None:
        return _ACTIVE
    importlib.import_module("supernil.cli")  # loads every layer
    tracer = Tracer()
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "supernil" or n.startswith("supernil."))]
    for owner, attr, name, count, child_cpu in _layers():
        if isinstance(owner, str):
            original = getattr(importlib.import_module(owner), attr)
            traced = tracer.wrap(name, original, count, child_cpu)
            # rebind the name in the defining module and in every importer
            for mod in modules:
                for var, val in list(vars(mod).items()):
                    if val is original:
                        setattr(mod, var, traced)
        else:
            setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), count, child_cpu))
    cohomology = importlib.import_module("supernil.cohomology")
    cohomology.Pool = _traced_pool(cohomology.Pool, tracer)
    _ACTIVE = tracer
    return tracer


def _traced_pool(real_pool, tracer: Tracer):
    class TracedPool:
        def __init__(self, *args, **kwargs):
            self._pool = real_pool(*args, **kwargs)

        def __enter__(self):
            self._pool.__enter__()
            return self

        def __exit__(self, *exc):
            return self._pool.__exit__(*exc)

        def map(self, fn, iterable):
            parent = tracer.stack[-1] if tracer.stack else -1
            out = []
            for result, spans, counts in self._pool.map(_pool_task, [(fn, x) for x in iterable]):
                tracer.adopt(spans, counts, parent)
                out.append(result)
            return out

    return TracedPool


def _pool_task(job):
    """Run one pool job under a fresh trace in the worker; return its records."""
    fn, arg = job
    tracer = install()
    tracer.spans, tracer.stack, tracer.counts = [], [], Counter()
    result = fn(arg)
    return result, tracer.spans, tracer.counts


# -- aggregation -----------------------------------------------------------------


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _, _, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for idx, (_, _, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for s, e in sorted(children.get(idx, ())):
            s, e = max(s, reach), min(e, end)
            if e > s:
                covered += e - s
                reach = e
        out.append(end - start - covered)
    return out


def layer_metrics(spans: list[list], counts: Counter) -> dict[str, float]:
    """Every per-layer metric from one traced pass (0 where a layer never ran)."""
    by_name: Counter = Counter()
    for span, own in zip(spans, self_times(spans)):
        by_name[span[1]] += own
    out: dict[str, float] = {m: by_name[n] for m, n in TIME_METRICS.items()}
    for name in ("realize.builds", "koszul.cochains", "koszul.blocks", "koszul.max_block",
                 "koszul.diff_nnz", "koszul.block_cells", "linalg.rank_calls",
                 "linalg.rank_cells", "cohomology.calls", "cohomology.child_cpu_s"):
        out[name] = counts[name]
    cells = counts["koszul.block_cells"]
    out["koszul.block_fill"] = counts["koszul.block_nnz"] / cells if cells else 0.0
    calls = counts["linalg.rank_calls"]
    out["linalg.rank_zero_ratio"] = counts["linalg.rank_zero"] / calls if calls else 0.0
    return out
