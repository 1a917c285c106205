"""Command-line front end.

Subcommands:

* compute          -- H^k(n, M) with full weight decomposition
* verify-tables    -- run the published-table expectations, three-state
* spectral         -- Hochschild-Serre collapse report; with --recursive
                      also recursive vs direct H^2, on the one algebra and
                      the one direct H^2 the collapse rows use
* extension-check  -- central-extension Jacobi <=> cocycle scan
* dump-algebra     -- serialized basis/bracket data

Exit codes: 0 success, 1 unexplained table mismatch, 2 bad input
(including a negative --degree, --K, --j, --samples or verify-tables range
flag, a --workers below 1 and compute --routes off degree 1), 3 internal
invariant violation (including an H^1 route that disagrees with the Koszul
route on a block, a collapse mismatch and a recursive H^2 that disagrees
with the direct H^2).  An --ideal-reading whose ideal is not closed is bad
input; an "auto" ideal that is not closed is a violation.  Each subcommand
takes only the flags it reads: --cache-dir is compute's, and --force
belongs to compute, spectral and extension-check.  --workers is accepted
and validated but changes nothing: every rank is taken in this process,
one weight block at a time.  Output is deterministic: repeated runs
produce byte-identical bytes.  Cache entries are keyed by the arguments,
the package version and a digest of the package source, and store the
sha256 of their payload.  A cache directory that cannot be created is bad
input.  A cache entry that cannot be read or parsed, or whose digest is
missing or wrong, is reported on stderr and recomputed; entries are
written to a temporary file and renamed into place.  An entry that cannot
be written (a full disk, a read-only directory) is reported on stderr, its
temporary file is removed and the result is still printed.  A closed
stdout ends the run quietly with exit 0.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import inspect
import json
import math
import os
import random
import sys

from . import __version__, tables
from .cohomology import (
    central_extension,
    cocycle_space,
    cohomology,
    h1_via_quotient,
    h1_via_superderivations,
    is_cocycle,
)
from .koszul import CochainComplex, dual_module, lambda_s_module, trivial_module
from .realize import IdealNotClosed, build_family, quotient_algebra
from .spectral import collapse_check, h2_recursive

CACHE_ENV = "SUPERNIL_CACHE_DIR"
MONOMIAL_GUARD = 10 ** 6
# the verify-tables range flags: one per default_expectations keyword,
# with its default
TABLE_RANGES = inspect.signature(tables.default_expectations).parameters


def _family_params(args) -> tuple[str, tuple]:
    fam = args.family
    if fam == "exc":
        if not args.name:
            _fail_input("exc needs --name")
        return fam, (args.name,)
    if fam == "q":
        if args.n is None:
            _fail_input("q(n) needs --n")
        return fam, (args.n,)
    if args.m is None or args.n is None:
        _fail_input(f"{fam} needs --m and --n")
    return fam, (args.m, args.n)


def _fail_input(msg: str):
    print(f"error: {msg}", file=sys.stderr)
    raise SystemExit(2)


def _build(args):
    fam, params = _family_params(args)
    reading = args.ideal_reading
    try:
        return build_family(fam, params, ideal_reading=reading)
    except ValueError as exc:
        _fail_input(str(exc))
    except IdealNotClosed as exc:
        if reading == "auto":  # the default ideal must be one
            raise
        _fail_input(f"--ideal-reading {reading} gives no ideal: {exc}")


def _estimate_cochains(parities, k: int, mod_dim: int) -> int:
    """mod_dim times the number of degree-k words over basis vectors of the
    given parities (see `koszul.monomial_words`)."""
    d1 = sum(parities)
    d0 = len(parities) - d1
    total = 0
    for i in range(min(k, d0) + 1):  # C(d0, i) = 0 beyond
        j = k - i
        total += math.comb(d0, i) * (math.comb(d1 + j - 1, j) if j else 1)
    return total * mod_dim


def _guard(args, parities, k: int, mod_dim: int, what: str = "cochain count") -> None:
    """Exit 2, unless --force, when the degree-k words over basis vectors of
    the given parities, times mod_dim, are too many to enumerate: C^k(n, M)
    for dim M = mod_dim, or Lambda_s^k(M) for mod_dim = 1.  A degree-k word
    holds k letters, so a degree above MONOMIAL_GUARD is refused, as is an
    estimated count above it."""
    if args.force:
        return
    if k > MONOMIAL_GUARD:
        _fail_input(f"degree {k} exceeds {MONOMIAL_GUARD}; pass --force")
    est = _estimate_cochains(parities, k, mod_dim)
    if est > MONOMIAL_GUARD:
        _fail_input(f"estimated {what} {est} exceeds {MONOMIAL_GUARD}; pass --force")


def _cache_dir(args) -> str | None:
    """The cache directory in use, created if missing; exit 2 if it cannot be."""
    path = args.cache_dir or os.environ.get(CACHE_ENV)
    if path:
        try:
            os.makedirs(path, exist_ok=True)
        except OSError as exc:
            _fail_input(f"cannot create cache directory {path}: {exc}")
    return path


def _json_digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _cache_lookup(cache_dir, key):
    if not cache_dir:
        return None
    path = os.path.join(cache_dir, key + ".json")
    if not os.path.exists(path):
        return None
    try:
        with open(path) as fh:
            entry = json.load(fh)
        digest = entry.pop("payload_sha256", None) if isinstance(entry, dict) else None
        if digest != _json_digest(entry):
            raise ValueError("payload digest missing or wrong")
        return entry
    except (OSError, ValueError) as exc:
        print(f"warning: recomputing unreadable cache entry {path}: {exc}", file=sys.stderr)
        return None


def _cache_store(cache_dir, key, payload) -> None:
    if not cache_dir:
        return
    path = os.path.join(cache_dir, key + ".json")
    # write a per-process temporary file and rename it into place, so no
    # reader ever sees a partial entry
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            json.dump({**payload, "payload_sha256": _json_digest(payload)}, fh, sort_keys=True)
        os.replace(tmp, path)
    except OSError as exc:
        # a full disk or read-only directory costs the cache, not the result
        print(f"warning: cannot write cache entry {path}: {exc}", file=sys.stderr)
        if os.path.exists(tmp):
            os.remove(tmp)


def _source_digest() -> str:
    """sha256 of the package's own .py files, so a code change is a cache miss."""
    digest = hashlib.sha256()
    here = os.path.dirname(os.path.abspath(__file__))
    for name in sorted(os.listdir(here)):
        if name.endswith(".py"):
            digest.update(name.encode() + b"\0")
            with open(os.path.join(here, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def _cache_key(**parts) -> str:
    return _json_digest({"version": __version__, "source": _source_digest(), **parts})[:24]


def _emit(args, payload: dict) -> None:
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        _render_text(payload)


def _render_text(payload: dict) -> None:
    print(f"{payload['algebra']}  degree {payload['degree']}  "
          f"coefficients {payload['coefficients']}  route {payload['route']}")
    print(f"total {payload['total']}")
    if "routes" in payload:
        print("routes", *(f"{name} {n}" for name, n in sorted(payload["routes"].items())))
    for row in payload["blocks"]:
        print(f"  {row['label']:<24} even {row['even']}  odd {row['odd']}")


def cmd_compute(args) -> int:
    if args.routes and args.degree != 1:
        _fail_input("--routes compares the H^1 routes; it needs --degree 1")
    cache_dir = _cache_dir(args)
    alg, ideal = _build(args)
    mod_name = args.coefficients
    if mod_name == "trivial":
        target, module = alg, trivial_module(alg)
    else:
        if ideal is None:
            _fail_input("this family has no distinguished ideal")
        target = quotient_algebra(alg, ideal)
        dm = dual_module(alg, ideal, target)
        if mod_name == "ideal-dual":
            module = dm
        else:
            # Lambda_s^j(I*) is built on its degree-j words over I*'s basis
            _guard(args, dm.parities, args.j, 1, "dimension of L^j(I*)")
            module = lambda_s_module(target, dm, args.j)
    # H^k enumerates C^{k-1} and C^k, and holds one block of d^k at a time
    _guard(args, target.parities, args.degree, module.dim)
    key = None
    if cache_dir:
        # the reading picks the ideal, so only the quotient routes depend on it
        key = _cache_key(
            cmd="compute", family=alg.family, params=list(alg.params),
            degree=args.degree, coefficients=module.name,  # C, I* or L^j(I*)
            ideal_reading=None if mod_name == "trivial" else args.ideal_reading,
            routes=args.routes,
        )
    payload = _cache_lookup(cache_dir, key)
    if payload is None:
        res = cohomology(target, module, args.degree)
        payload = res.to_json(target.symbols)
        if args.routes:
            routes = {"koszul": res, "superderivation": h1_via_superderivations(target, module)}
            if mod_name == "trivial":
                routes["quotient_dual"] = h1_via_quotient(target)
            for name, other in routes.items():
                if other.blocks != res.blocks:
                    raise AssertionError(f"H^1 route {name} disagrees with the Koszul route")
            payload["routes"] = {name: other.total for name, other in routes.items()}
        _cache_store(cache_dir, key, payload)
    _emit(args, payload)
    return 0


def cmd_verify_tables(args) -> int:
    rows = tables.default_expectations(**{name: getattr(args, name) for name in TABLE_RANGES})
    report, code = tables.run_expectations(rows)
    if args.format == "json":
        print(json.dumps({"rows": report, "exit": code}, sort_keys=True, indent=2))
    else:
        print(tables.render_report(report))
    return code


def cmd_spectral(args) -> int:
    alg, ideal = _build(args)
    if ideal is None:
        _fail_input("spectral needs a family with a distinguished ideal")
    # the collapse rows take H^k(n, C) for k <= K, and --recursive H^2
    _guard(args, alg.parities, max(args.K, 2) if args.recursive else args.K, 1)
    rep = collapse_check(alg, ideal, args.K)
    if args.recursive:
        # direct H^2 is collapse row k = 2, or taken on the same complex
        if args.K >= 2:
            direct = rep.direct[2]
        else:
            direct = cohomology(alg, None, 2, complex_cache=rep.complex)
        rec = h2_recursive(alg.family, alg.params, alg, direct, rep.page)
        rep["h2_recursive"] = rec.total
        rep["h2_direct"] = direct.total
        rep["h2_match"] = rec.blocks == direct.blocks
    if args.format == "json":
        print(json.dumps(rep, sort_keys=True, indent=2))
    else:
        print(f"{rep['algebra']}  K={rep['K']}  abelian ideal: {rep['abelian_ideal']}")
        for row in rep["rows"]:
            terms = " + ".join(f"{v}" for v in row["terms"].values())
            flag = "ok" if row["match_blocks"] else "MISMATCH"
            print(f"  k={row['k']}: H^k = {row['direct_total']}  E2 sum = "
                  f"{row['e2_total']} ({terms})  {flag}")
        if "h2_recursive" in rep:
            print(f"  recursive H^2 = {rep['h2_recursive']}  direct = "
                  f"{rep['h2_direct']}  match = {rep['h2_match']}")
    return 0 if rep["all_match"] and rep.get("h2_match", True) else 3


def cmd_extension_check(args) -> int:
    alg, _ = _build(args)
    if alg.dim > 8 and not args.force:
        _fail_input("extension scan is exponential; pass --force beyond dim 8")
    # one trivial-coefficient complex: d^2 is built once for every check
    cx = CochainComplex(alg, trivial_module(alg))
    cocycles, non_cocycles = cocycle_space(alg, cx)
    # (kind, cochain, is it a cocycle): its extension must be Jacobi exactly then
    cases = [("cocycles", h, True) for h in cocycles]
    cases += [("non_cocycles", h, False) for h in non_cocycles]
    even_words = [w for w in cx.degree(2).words
                  if (alg.parities[w[0]] + alg.parities[w[1]]) % 2 == 0]
    rng = random.Random(args.seed)
    for _ in range(args.samples):
        h = {w: rng.randint(-3, 3) for w in even_words if rng.random() < 0.5}
        cases.append(("random", h, is_cocycle(alg, h, cx)))
    checked = dict.fromkeys(("cocycles", "non_cocycles", "random"), 0)
    failures = 0
    for kind, h, cocycle in cases:
        checked[kind] += 1
        failures += bool(central_extension(alg, h).jacobi_failures()) == cocycle
    payload = {
        "algebra": alg.name,
        "checked": checked,
        "consistent": not failures,
        "failures": failures,
    }
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(
            f"{alg.name}: {checked['cocycles']} cocycles, "
            f"{checked['non_cocycles']} non-cocycles, {checked['random']} random "
            f"cochains; Jacobi <=> cocycle: {payload['consistent']}"
        )
    return 0 if payload["consistent"] else 3


def cmd_dump_algebra(args) -> int:
    alg, ideal = _build(args)
    payload = alg.to_json()
    if ideal is not None:
        payload["ideal"] = sorted(ideal)
    print(json.dumps(payload, sort_keys=True, indent=2))
    return 0


def nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_family_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", required=True,
                   choices=["gl", "sl", "q", "osp_even", "osp_odd", "exc"])
    p.add_argument("--m", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--name", choices=["D21a", "G3", "F4"])
    p.add_argument("--ideal-reading", default="auto",
                   choices=["auto", "eps_only", "delta_only", "eps_or_delta"],
                   help="reading of the garbled osp ideal description")


def _add_common_flags(p: argparse.ArgumentParser, force: bool = True) -> None:
    p.add_argument("--format", default="text", choices=["text", "json"])
    p.add_argument("--workers", type=positive_int, default=1,
                   help="accepted for compatibility; has no effect")
    if force:
        p.add_argument("--force", action="store_true")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once: each build leaves cyclic garbage."""
    parser = argparse.ArgumentParser(
        prog="supernil",
        description="Exact cohomology of BBW-parabolic nilpotent subalgebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="compute H^k(n, M)")
    _add_family_flags(p)
    _add_common_flags(p)
    p.add_argument("--cache-dir", default=None)
    p.add_argument("--degree", type=nonnegative_int, required=True)
    p.add_argument("--coefficients", default="trivial",
                   choices=["trivial", "ideal-dual", "lambda-s-j"])
    p.add_argument("--j", type=nonnegative_int, default=2, help="j for lambda-s-j coefficients")
    p.add_argument("--routes", action="store_true",
                   help="also cross-check H^1 by the independent routes (degree 1)")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("verify-tables", help="check published dimension tables")
    _add_common_flags(p, force=False)
    for name, param in TABLE_RANGES.items():
        p.add_argument("--" + name.replace("_", "-"), type=nonnegative_int,
                       default=param.default)
    p.set_defaults(func=cmd_verify_tables)

    p = sub.add_parser("spectral", help="Hochschild-Serre collapse report")
    _add_family_flags(p)
    _add_common_flags(p)
    p.add_argument("--K", type=nonnegative_int, default=2)
    p.add_argument("--recursive", action="store_true",
                   help="also compare recursive vs direct H^2")
    p.set_defaults(func=cmd_spectral)

    p = sub.add_parser("extension-check", help="Jacobi <=> cocycle scan")
    _add_family_flags(p)
    _add_common_flags(p)
    p.add_argument("--samples", type=nonnegative_int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_extension_check)

    p = sub.add_parser("dump-algebra", help="serialize basis and brackets")
    _add_family_flags(p)
    _add_common_flags(p, force=False)
    p.set_defaults(func=cmd_dump_algebra)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except AssertionError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # the reader closed stdout (e.g. `| head`); send what is still
        # buffered to devnull so the exit flush cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
