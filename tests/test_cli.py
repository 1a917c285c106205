import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from supernil import cli, realize
from supernil.cli import main
from supernil.koszul import monomial_words
from supernil.realize import build_family


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "supernil.cli", *args],
        capture_output=True,
        text=True,
    )
    return proc


def test_compute_gl33_degree2():
    proc = run_cli("compute", "--family", "gl", "--m", "3", "--n", "3",
                   "--degree", "2", "--format", "json")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["total"] == 28


def test_compute_exceptional_f4():
    proc = run_cli("compute", "--family", "exc", "--name", "F4",
                   "--degree", "2", "--format", "json")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["total"] == 62


def test_compute_q2_degree5():
    proc = run_cli("compute", "--family", "q", "--n", "2", "--degree", "5",
                   "--format", "json")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["total"] == 2


def test_compute_module_coefficients():
    proc = run_cli("compute", "--family", "gl", "--m", "3", "--n", "3",
                   "--degree", "1", "--coefficients", "ideal-dual",
                   "--format", "json")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["total"] == 12


def test_compute_routes_flag():
    proc = run_cli("compute", "--family", "q", "--n", "3", "--degree", "1",
                   "--routes", "--format", "json")
    data = json.loads(proc.stdout)
    assert data["routes"]["koszul"] == data["routes"]["quotient_dual"] == 4


def test_bad_input_exit_2():
    proc = run_cli("compute", "--family", "gl", "--m", "2", "--n", "3",
                   "--degree", "1")
    assert proc.returncode == 2
    proc = run_cli("compute", "--family", "q", "--degree", "1")
    assert proc.returncode == 2
    # exceptional families have no distinguished ideal
    proc = run_cli("compute", "--family", "exc", "--name", "G3",
                   "--degree", "1", "--coefficients", "ideal-dual")
    assert proc.returncode == 2
    # the routes are H^1 routes: another degree is refused, not ignored
    proc = run_cli("compute", "--family", "q", "--n", "3", "--degree", "2", "--routes")
    assert proc.returncode == 2
    assert "error:" in proc.stderr and proc.stdout == ""


def test_compute_routes_in_text_output(capsys):
    assert main(["compute", "--family", "q", "--n", "3", "--degree", "1", "--routes"]) == 0
    (line,) = [line for line in capsys.readouterr().out.splitlines()
               if line.startswith("routes")]
    assert line == "routes koszul 4 quotient_dual 4 superderivation 4"


def test_compute_routes_disagreement_exits_3(monkeypatch, capsys):
    import supernil.cli as cli

    superderivations = cli.h1_via_superderivations

    def one_block_off(alg, module):
        res = superderivations(alg, module)
        res.blocks[min(res.blocks)][0] += 1
        return res

    monkeypatch.setattr(cli, "h1_via_superderivations", one_block_off)
    assert main(["compute", "--family", "q", "--n", "3", "--degree", "1", "--routes",
                 "--format", "json"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and "superderivation" in err


def test_spectral_command():
    proc = run_cli("spectral", "--family", "gl", "--m", "3", "--n", "3", "--K", "2")
    assert proc.returncode == 0
    assert "28" in proc.stdout and "8 + 12 + 8" in proc.stdout


def test_spectral_recursive_flag():
    proc = run_cli("spectral", "--family", "q", "--n", "4", "--K", "2",
                   "--recursive", "--format", "json")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["all_match"] and data["h2_match"]
    assert data["h2_recursive"] == data["h2_direct"] == 14


def test_spectral_recursive_h2_mismatch_exits_3(monkeypatch, capsys):
    recursive = cli.h2_recursive

    def one_block_off(*args):
        res = recursive(*args)
        res.blocks[min(res.blocks)][0] += 1
        return res

    monkeypatch.setattr(cli, "h2_recursive", one_block_off)
    code = main(["spectral", "--family", "gl", "--m", "3", "--n", "3", "--K", "2",
                 "--recursive", "--format", "json"])
    data = json.loads(capsys.readouterr().out)  # the report is still printed
    assert code == 3 and data["all_match"] and data["h2_match"] is False


def test_spectral_recursion_keeps_the_default_ideal(capsys):
    # the eps_or_delta ideal of osp(7|4) is not abelian; the recursion still
    # takes the default reading's abelian ideal
    code = main(["spectral", "--family", "osp_odd", "--m", "3", "--n", "2", "--K", "2",
                 "--recursive", "--ideal-reading", "eps_or_delta", "--format", "json"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0 and data["abelian_ideal"] is False
    assert data["h2_recursive"] == data["h2_direct"] == 28
    assert data["h2_match"] is True


@pytest.mark.parametrize("family, m, n", [("gl", 3, 2), ("osp_even", 1, 3)])
def test_spectral_recursive_h2_independent_of_K(capsys, family, m, n):
    # for K < 2, direct H^2 is computed on the collapse check's complex
    seen = []
    for K in ("0", "1", "2"):
        code = main(["spectral", "--family", family, "--m", str(m), "--n", str(n),
                     "--K", K, "--recursive", "--format", "json"])
        data = json.loads(capsys.readouterr().out)
        assert code == 0
        seen.append((data["h2_direct"], data["h2_recursive"], data["h2_match"]))
    assert seen[0] == seen[1] == seen[2] and seen[0][2] is True


REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"


@pytest.mark.parametrize("argv", [
    "spectral --family gl --m 2 --n 2 --K 2 --recursive --format json",
    "spectral --family osp_odd --m 3 --n 1 --K 2 --recursive --format json",
    "spectral --family osp_even --m 1 --n 3 --K 2 --recursive --format json",
    "spectral --family q --n 4 --K 2 --recursive --format json",
    "compute --family osp_even --m 3 --n 3 --degree 3 --format json",
    "compute --family osp_even --m 3 --n 2 --degree 2 --coefficients lambda-s-j --j 3 "
    "--format json",
], ids=["gl22-base-case", "osp_odd31-abelian", "osp_even13-nonabelian", "q4",
        "trivial-deep", "module-wide"])
def test_spectral_stdout_matches_benchmark_pins(capsys, argv):
    # the benchmark's pinned exit code and stdout sha256, checked in tier-1
    # too: four spectral-sweep invocations and the trivial-deep and
    # module-wide compute runs
    with open(REFERENCE) as fh:
        pinned = json.load(fh)[argv]
    code = main(argv.split())
    out = capsys.readouterr().out
    assert code == pinned["exit"]
    assert hashlib.sha256(out.encode()).hexdigest() == pinned["sha256"]


@pytest.mark.parametrize("argv,total,sha256", [
    ("compute --family q --n 4 --degree 5 --format json", 48,
     "8f97281795d9a51c6309c9944da101c842828b96b346af976d72bb702552732d"),
    ("compute --family osp_odd --m 2 --n 2 --degree 5 --format json", 76,
     "9e9c77985806bd1ddf8bdd78fe452b7b5f270d43f4e598ce3e80a71bb7734b5a"),
    ("compute --family gl --m 3 --n 3 --degree 4 --coefficients ideal-dual --format json", 16,
     "7ceb41c7daf5905cb899f924fd04c0cd2235d866c525f58a701aa71abf2c74c4"),
], ids=["q4-deg5", "osp_odd22-deg5", "gl33-ideal-dual-deg4"])
def test_deep_compute_stdout_pins(capsys, argv, total, sha256):
    # odd letters repeated up to 6 times in a row word, past the degrees
    # the target-side oracle in test_koszul reaches
    code = main(argv.split())
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)["total"] == total
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


def test_extension_check_command():
    proc = run_cli("extension-check", "--family", "gl", "--m", "2", "--n", "2",
                   "--samples", "4", "--format", "json")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["consistent"] is True


def test_extension_check_builds_d2_once(monkeypatch, capsys):
    # cocycle_space and every random sample's is_cocycle share one complex
    from supernil.koszul import CochainComplex

    differential = CochainComplex.differential
    built = []  # (complex, degree) per d^k build, the complex kept alive

    def counting(cx, k):
        if not any(c is cx and j == k for c, j in built):
            built.append((cx, k))
        return differential(cx, k)

    monkeypatch.setattr(CochainComplex, "differential", counting)
    assert main(["extension-check", "--family", "q", "--n", "3", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["checked"]["random"] == 10
    assert len(built) == 1


def test_dump_algebra_command():
    proc = run_cli("dump-algebra", "--family", "q", "--n", "3")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert len(data["basis"]) == 6
    assert data["ideal"] == sorted(data["ideal"])


def test_verify_tables_small_exit_zero():
    proc = run_cli(
        "verify-tables", "--gl-h1-max", "3", "--q-h1-max", "3", "--osp-max", "2",
        "--gl-h2-max", "2", "--glmn-h2-max", "2", "--q-h2-max", "2",
        "--osp-h2-max", "1", "--osp-base-h2-max", "1", "--format", "json",
    )
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    statuses = {r["status"] for r in data["rows"]}
    assert "mismatch" not in statuses
    assert "paper-internal-conflict" in statuses


def test_determinism_repeated_runs():
    args = ("compute", "--family", "osp_even", "--m", "2", "--n", "2",
            "--degree", "2", "--format", "json")
    out1 = run_cli(*args).stdout
    out2 = run_cli(*args).stdout
    assert out1 == out2


def test_determinism_across_workers():
    base = ("spectral", "--family", "gl", "--m", "3", "--n", "3", "--K", "2",
            "--format", "json")
    out1 = run_cli(*base, "--workers", "1").stdout
    out2 = run_cli(*base, "--workers", "3").stdout
    assert out1 == out2


def test_cache_roundtrip(tmp_path):
    args = ("compute", "--family", "gl", "--m", "3", "--n", "2", "--degree", "2",
            "--format", "json", "--cache-dir", str(tmp_path))
    out1 = run_cli(*args).stdout
    cached = list(tmp_path.glob("*.json"))
    assert cached, "cache file written"
    out2 = run_cli(*args).stdout
    assert out1 == out2


def test_cache_env_var(tmp_path):
    import os
    import subprocess

    env = dict(os.environ, SUPERNIL_CACHE_DIR=str(tmp_path))
    proc = subprocess.run(
        [sys.executable, "-m", "supernil.cli", "compute", "--family", "q",
         "--n", "3", "--degree", "2", "--format", "json"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert list(tmp_path.glob("*.json"))


def test_main_entry_in_process(capsys):
    code = main(["compute", "--family", "gl", "--m", "2", "--n", "2",
                 "--degree", "2", "--format", "json"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["total"] == 8


def test_guardrail_refuses_huge_computation():
    proc = run_cli("compute", "--family", "osp_odd", "--m", "4", "--n", "4",
                   "--degree", "5")
    assert proc.returncode == 2
    assert "force" in proc.stderr


def test_guardrail_bounds_the_cochains_h_k_enumerates(monkeypatch, capsys):
    # H^k enumerates C^{k-1} and C^k, never C^{k+1}: a guard of exactly
    # dim C^k lets gl(2|2) H^2 run, and one below refuses it
    alg, _ = build_family("gl", (2, 2))
    dim_ck = len(monomial_words(alg.parities, 2))
    argv = ["compute", "--family", "gl", "--m", "2", "--n", "2", "--degree", "2"]
    monkeypatch.setattr(cli, "MONOMIAL_GUARD", dim_ck)
    assert main(argv) == 0
    monkeypatch.setattr(cli, "MONOMIAL_GUARD", dim_ck - 1)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "force" in capsys.readouterr().err


def test_guardrail_refuses_a_huge_degree_at_once(capsys):
    # a degree-k word holds k letters, so the degree alone is refused
    start = time.monotonic()
    with pytest.raises(SystemExit) as exc:
        main(["compute", "--family", "gl", "--m", "2", "--n", "1", "--degree", "3000000000000"])
    assert exc.value.code == 2 and time.monotonic() - start < 1
    assert "degree 3000000000000 exceeds" in capsys.readouterr().err


def test_spectral_guardrail_refuses_a_huge_collapse_check(capsys):
    # the collapse rows take C^6 of osp(7|6), as compute --degree 6 would
    start = time.monotonic()
    with pytest.raises(SystemExit) as exc:
        main(["spectral", "--family", "osp_odd", "--m", "3", "--n", "3", "--K", "6"])
    assert exc.value.code == 2 and time.monotonic() - start < 1
    assert "estimated cochain count 3116952 exceeds" in capsys.readouterr().err


def test_spectral_guardrail_bounds_the_top_degree_and_yields_to_force(monkeypatch, capsys):
    # gl(2|2) has dim C^1 = 4 and dim C^2 = 8; --recursive takes H^2 even at K = 1
    monkeypatch.setattr(cli, "MONOMIAL_GUARD", 4)
    argv = ["spectral", "--family", "gl", "--m", "2", "--n", "2", "--K", "1"]
    assert main(argv) == 0
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--recursive"])
    assert exc.value.code == 2 and "force" in capsys.readouterr().err
    assert main(argv + ["--recursive", "--force"]) == 0


def test_lambda_s_j_guardrail_refuses_a_huge_power_before_building_it(capsys):
    # Lambda_s^400(I*) over osp(7|6)/I would take minutes and gigabytes to build
    start = time.monotonic()
    with pytest.raises(SystemExit) as exc:
        main(["compute", "--family", "osp_odd", "--m", "3", "--n", "3", "--degree", "0",
              "--coefficients", "lambda-s-j", "--j", "400"])
    assert exc.value.code == 2 and time.monotonic() - start < 1
    assert "estimated dimension of L^j(I*) 34134400002 exceeds" in capsys.readouterr().err


def test_lambda_s_j_guardrail_bounds_the_power_and_yields_to_force(monkeypatch, capsys):
    # Lambda_s^3(I*) over osp(6|4)/I has dimension 88, and C^0 with it 88 cochains
    argv = ["compute", "--family", "osp_even", "--m", "3", "--n", "2", "--degree", "0",
            "--coefficients", "lambda-s-j", "--j", "3"]
    monkeypatch.setattr(cli, "MONOMIAL_GUARD", 88)
    assert main(argv) == 0
    capsys.readouterr()
    monkeypatch.setattr(cli, "MONOMIAL_GUARD", 87)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "estimated dimension of L^j(I*) 88 exceeds 87" in capsys.readouterr().err
    monkeypatch.setattr(cli, "MONOMIAL_GUARD", 2)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2 and "degree 3 exceeds 2" in capsys.readouterr().err
    assert main(argv + ["--force"]) == 0


@pytest.mark.parametrize("family", ["gl", "osp_odd", "osp_even", "q"])
def test_cochain_estimate_matches_the_enumerator(family):
    # the guardrail's closed form counts exactly the words it guards, past
    # the d0 even letters a word can hold too (on the smaller algebras)
    params = [(n,) for n in (2, 3)] if family == "q" else [
        (m, n) for m in (1, 2, 3) for n in (1, 2, 3) if family == "osp_even" or n <= m]
    for p in params:
        alg, _ = build_family(family, p)
        d0 = len(alg.even_ids())
        for k in sorted({*range(5), *(range(d0, d0 + 4) if alg.dim <= 12 else ())}):
            assert cli._estimate_cochains(alg.parities, k, 1) == len(monomial_words(alg.parities, k)), (p, k)


def test_degenerate_algebra():
    proc = run_cli("compute", "--family", "gl", "--m", "1", "--n", "1",
                   "--degree", "0", "--format", "json")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["total"] == 1


def test_ideal_reading_flag():
    proc = run_cli("spectral", "--family", "osp_odd", "--m", "2", "--n", "2",
                   "--K", "1", "--ideal-reading", "eps_or_delta", "--format", "json")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["abelian_ideal"] is False  # the or-reading is never abelian
    # closure fails for m >= n+2: the chosen reading is bad input
    proc = run_cli("spectral", "--family", "osp_odd", "--m", "3", "--n", "1",
                   "--K", "1", "--ideal-reading", "eps_or_delta")
    assert proc.returncode == 2


@pytest.mark.parametrize("args", [
    ("compute", "--family", "osp_even", "--m", "1", "--n", "2", "--degree", "1",
     "--ideal-reading", "eps_only"),
    ("spectral", "--family", "osp_even", "--m", "1", "--n", "2", "--ideal-reading", "eps_only"),
    ("dump-algebra", "--family", "osp_odd", "--m", "3", "--n", "1",
     "--ideal-reading", "eps_or_delta"),
], ids=["compute", "spectral", "dump-algebra"])
def test_a_chosen_ideal_reading_that_is_not_closed_exits_2(args):
    # the user's flag is at fault, even where trivial coefficients never use the ideal
    proc = run_cli(*args)
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"error: --ideal-reading {args[-1]} ")
    assert "ideal not closed" in proc.stderr and "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_an_auto_ideal_that_is_not_closed_exits_3(monkeypatch, capsys):
    # read every ideal off e1 alone: for osp(2|4) that set is not closed,
    # and a default ideal that is not one is a violation, not bad input
    weight_ideal = realize._weight_ideal
    monkeypatch.setattr(realize, "_weight_ideal", lambda alg, idx: weight_ideal(alg, [0]))
    assert main(["compute", "--family", "osp_even", "--m", "1", "--n", "2", "--degree", "1"]) == 3
    assert "internal invariant violation" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ("spectral", "--family", "gl", "--m", "2", "--n", "2", "--cache-dir"),
    ("extension-check", "--family", "gl", "--m", "2", "--n", "2", "--cache-dir"),
    ("verify-tables", "--cache-dir"),
    ("dump-algebra", "--family", "q", "--n", "3", "--cache-dir"),
    ("verify-tables", "--force"),
    ("dump-algebra", "--family", "q", "--n", "3", "--force"),
    ("dump-algebra", "--family", "q", "--n", "3", "--format"),
], ids=["spectral-cache-dir", "extension-check-cache-dir", "verify-tables-cache-dir",
        "dump-algebra-cache-dir", "verify-tables-force", "dump-algebra-force",
        "dump-algebra-format"])
def test_a_flag_the_subcommand_does_not_read_exits_2(tmp_path, capsys, args):
    argv = list(args) + ([str(tmp_path / "cache")] if args[-1] == "--cache-dir" else [])
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {args[-1]}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "args",
    [
        ("compute", "--family", "gl", "--m", "2", "--n", "2", "--degree", "-1"),
        ("spectral", "--family", "gl", "--m", "2", "--n", "2", "--K", "-1"),
        ("compute", "--family", "gl", "--m", "3", "--n", "3", "--degree", "1",
         "--coefficients", "lambda-s-j", "--j", "-2"),
        ("compute", "--family", "exc", "--degree", "1"),
        ("extension-check", "--family", "gl", "--m", "2", "--n", "2", "--samples", "-2"),
        ("compute", "--family", "gl", "--m", "2", "--n", "2", "--degree", "1", "--workers", "0"),
        ("compute", "--family", "gl", "--m", "2", "--n", "2", "--degree", "1", "--workers", "-3"),
        ("verify-tables", "--gl-h1-max", "-5"),
        ("compute", "--family", "q", "--n", "4", "--degree", "1",
         "--coefficients", "ideal-dual", "--dual-sign", "1"),
    ],
    ids=["degree", "K", "j", "exc-without-name", "samples", "workers-0", "workers-negative",
         "table-range", "removed-dual-sign"],
)
def test_bad_numbers_and_missing_name_exit_2(args):
    proc = run_cli(*args)
    assert proc.returncode == 2
    assert "error:" in proc.stderr
    assert proc.stdout == ""


def test_truncated_cache_entry_is_recomputed(tmp_path):
    args = ("compute", "--family", "gl", "--m", "3", "--n", "2", "--degree", "2",
            "--format", "json", "--cache-dir", str(tmp_path))
    first = run_cli(*args)
    (entry,) = tmp_path.glob("*.json")
    entry.write_text(entry.read_text()[:20])
    again = run_cli(*args)
    assert again.returncode == 0
    assert again.stdout == first.stdout
    assert "cache" in again.stderr and "Traceback" not in again.stderr
    # the bad entry was overwritten with a good one
    assert json.loads(entry.read_text())["total"] == json.loads(first.stdout)["total"]


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda text: "[]",
        lambda text: '"hello"',
        lambda text: '{"blocks": 5}',
        lambda text: json.dumps({**json.loads(text), "total": json.loads(text)["total"] + 1}),
    ],
    ids=["list", "string", "foreign-dict", "total-changed"],
)
def test_cache_entry_not_as_written_is_recomputed(tmp_path, capsys, corrupt):
    # an entry that parses but is not the payload that was stored with its
    # digest is reported, recomputed and overwritten, like an unparseable one
    argv = ["compute", "--family", "gl", "--m", "3", "--n", "2", "--degree", "2",
            "--format", "json", "--cache-dir", str(tmp_path)]
    assert main(argv) == 0
    cold = capsys.readouterr().out
    (entry,) = tmp_path.glob("*.json")
    entry.write_text(corrupt(entry.read_text()))
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert out == cold
    assert "cache" in err and "Traceback" not in err
    # the overwritten entry is read back without a warning
    assert main(argv) == 0
    assert capsys.readouterr() == (cold, "")


def test_readme_commands_run(monkeypatch, capsys):
    # every line of README's "Command line" block runs as documented
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```")[1]
    lines = [line for line in block.splitlines() if line.strip()]
    assert len(lines) >= 8 and all(line.startswith("supernil ") for line in lines)
    monkeypatch.delenv("SUPERNIL_CACHE_DIR", raising=False)
    for line in lines:
        assert main(shlex.split(line)[1:]) == 0, line
        assert capsys.readouterr().out.strip(), line


def test_readme_flags_are_accepted(capsys):
    # every --flag README's command-line section names is some subcommand's
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"--[a-z][a-z-]*", section))
    with pytest.raises(SystemExit):
        main(["--help"])
    subcommands = re.search(r"\{([a-z,-]+)\}", capsys.readouterr().out).group(1).split(",")
    accepted = set()
    for sub in subcommands:
        with pytest.raises(SystemExit):
            main([sub, "--help"])
        accepted |= set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
    assert len(subcommands) == 5 and len(named) >= 10
    assert named <= accepted, sorted(named - accepted)


def test_closed_stdout_exits_quietly():
    proc = subprocess.Popen(
        [sys.executable, "-m", "supernil.cli", "compute", "--family", "gl",
         "--m", "3", "--n", "3", "--degree", "2", "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait() == 0
    assert "Traceback" not in err


def test_uncreatable_cache_dir_exit_2(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    proc = run_cli("compute", "--family", "gl", "--m", "2", "--n", "2", "--degree", "1",
                   "--cache-dir", str(blocker / "x"))
    assert proc.returncode == 2
    assert "error:" in proc.stderr and "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_cache_key_covers_source_digest(tmp_path, monkeypatch, capsys):
    import supernil.cli as cli

    argv = ["compute", "--family", "gl", "--m", "2", "--n", "2", "--degree", "2",
            "--format", "json", "--cache-dir", str(tmp_path)]
    outs = []
    for digest in ("old", "new"):
        monkeypatch.setattr(cli, "_source_digest", lambda: digest)
        assert main(argv) == 0
        outs.append(capsys.readouterr().out)
    # the changed digest missed the first entry and wrote a second one
    assert len(list(tmp_path.glob("*.json"))) == 2
    assert outs[0] == outs[1]


@pytest.mark.parametrize("coefficients, entries", [
    ("trivial", 1), ("ideal-dual", 1), ("lambda-s-j", 2),
])
def test_cache_key_holds_j_only_when_it_matters(tmp_path, monkeypatch, capsys,
                                                coefficients, entries):
    argv = ["compute", "--family", "gl", "--m", "3", "--n", "2", "--degree", "1",
            "--coefficients", coefficients, "--format", "json", "--cache-dir", str(tmp_path)]
    assert main(argv + ["--j", "2"]) == 0
    first = capsys.readouterr().out
    if entries == 1:
        # a run that differs only in --j must read the entry, not recompute
        def refuse(*args, **kwargs):
            raise AssertionError("recomputed a cached result")

        monkeypatch.setattr(cli, "cohomology", refuse)
    assert main(argv + ["--j", "3"]) == 0
    assert len(list(tmp_path.glob("*.json"))) == entries
    assert (capsys.readouterr().out == first) == (entries == 1)


@pytest.mark.parametrize("coefficients, readings, entries", [
    ("trivial", ("auto", "eps_only", "delta_only"), 1),
    ("ideal-dual", ("eps_only", "delta_only"), 2),
])
def test_cache_key_holds_the_ideal_reading_only_when_it_matters(tmp_path, capsys, coefficients,
                                                                readings, entries):
    # the reading picks osp's ideal: trivial coefficients never see it, the
    # quotient n/I and its module I* do
    argv = ["compute", "--family", "osp_even", "--m", "2", "--n", "2", "--degree", "2",
            "--coefficients", coefficients, "--format", "json", "--cache-dir", str(tmp_path)]
    outs = []
    for reading in readings:
        assert main(argv + ["--ideal-reading", reading]) == 0
        outs.append(capsys.readouterr().out)
    assert len(list(tmp_path.glob("*.json"))) == entries
    if entries == 1:
        assert len(set(outs)) == 1


def test_failed_cache_write_still_prints_result(tmp_path, monkeypatch, capsys):
    import errno

    import supernil.cli as cli

    argv = ["compute", "--family", "gl", "--m", "3", "--n", "2", "--degree", "2",
            "--format", "json"]
    assert main(argv) == 0
    expected = capsys.readouterr().out

    def full_disk(src, dst):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(cli.os, "replace", full_disk)
    assert main(argv + ["--cache-dir", str(tmp_path)]) == 0
    out, err = capsys.readouterr()
    assert out == expected
    assert "warning" in err and "cache" in err
    # neither an entry nor its temporary file is left behind
    assert list(tmp_path.iterdir()) == []


def test_workers_start_no_process(monkeypatch, capsys):
    import multiprocessing

    import supernil.cohomology as cohomology_module

    class NoPool:
        def __init__(self, *args, **kwargs):
            raise AssertionError("a process pool was started")

    # two CPUs claimed, so a pool would be worth starting on any host
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(cohomology_module, "Pool", NoPool)
    monkeypatch.setattr(multiprocessing, "Pool", NoPool)
    argv = ["compute", "--family", "gl", "--m", "3", "--n", "2", "--degree", "2",
            "--format", "json", "--workers"]
    outs = []
    for workers in ("1", "2"):
        assert main(argv + [workers]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] and json.loads(outs[0])["total"] > 0


def test_import_loads_only_what_compute_and_spectral_run():
    code = ("import json, sys; before = set(sys.modules); import supernil.cli; "
            "print(json.dumps(sorted(set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout))
    # what only verify-tables, extension-check or the cache uses is imported
    # when it runs, and dataclasses, inspect and multiprocessing not at all
    assert not loaded & {"dataclasses", "inspect", "hashlib", "_hashlib", "random",
                         "multiprocessing", "supernil.tables"}
    # perfbench/tracer.py wraps only the layers that importing the cli loads
    assert "supernil.spectral" in loaded


def test_parser_is_built_once_per_process(monkeypatch, capsys):
    import argparse

    builds = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        builds.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli._parser.cache_clear()
    argv = ["dump-algebra", "--family", "gl", "--m", "2", "--n", "1"]
    outs = []
    for _ in range(2):
        assert main(argv) == 0
        outs.append(capsys.readouterr().out)
    # one root parser and one per subcommand, all from the first call
    assert builds.count("supernil") == 1 and len(builds) == 6
    assert outs[0] == outs[1]


def test_benchmark_tracer_wraps_every_layer():
    # perfbench/tracer.py wraps supernil functions by name; a rename must
    # fail here, not only in a traced benchmark run
    root = Path(__file__).resolve().parents[1]
    code = """
import sys
sys.path.insert(0, "perfbench")
import tracer
t = tracer.install()
from supernil import cli, realize
code = cli.main(["compute", "--family", "gl", "--m", "3", "--n", "2", "--degree", "1",
                 "--workers", "2"])
# compute ranks d^k block by block; the cocycle scan needs all of d^2
code = code or cli.main(["extension-check", "--family", "q", "--n", "3", "--samples", "1"])
# osp(2|6)'s ideal is not abelian: its E_2 rows are H^j(I, C), from nullspace
# and row_space_basis
code = code or cli.main(["spectral", "--family", "osp_even", "--m", "1", "--n", "3",
                         "--K", "2"])
# tables is imported by verify-tables itself, after the tracer wrapped
# cohomology; its rows must still be computed by the wrapped function
assert "supernil.tables" not in sys.modules
first = len(t.spans)
ranges = [arg for flag in cli.TABLE_RANGES for arg in ("--" + flag.replace("_", "-"), "2")]
code = code or cli.main(["verify-tables", *ranges])
names = {span[1] for span in t.spans}
missing = {"cli", "realize.build", "realize.verify", "koszul.degree", "koszul.differential",
           "koszul.block_matrix", "linalg.rank", "linalg.elim", "cohomology",
           "spectral.hj_ideal_module"} - names
hj = {i for i, span in enumerate(t.spans) if span[1] == "spectral.hj_ideal_module"}
if not any(span[1] == "linalg.elim" and span[4] in hj for span in t.spans):
    missing.add("linalg.elim in spectral.hj_ideal_module")
if not any(span[1] == "cohomology" for span in t.spans[first:]):
    missing.add("cohomology in verify-tables")
if missing:
    sys.exit(f"untraced: {sorted(missing)}")
sys.exit(code)
"""
    env = {k: v for k, v in os.environ.items() if k != "SUPERNIL_CACHE_DIR"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("gl(3|2)  degree 1")
