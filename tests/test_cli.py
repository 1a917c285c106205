import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from supernil.cli import main


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
    # closure fails for m >= n+2: internal invariant violation
    proc = run_cli("spectral", "--family", "osp_odd", "--m", "3", "--n", "1",
                   "--K", "1", "--ideal-reading", "eps_or_delta")
    assert proc.returncode == 3


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
    ],
    ids=["degree", "K", "j", "exc-without-name", "samples", "workers-0", "workers-negative",
         "table-range"],
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


def test_benchmark_tracer_wraps_every_layer():
    # perfbench/tracer.py wraps supernil functions by name; a rename must
    # fail here, not only in a traced benchmark run
    root = Path(__file__).resolve().parents[1]
    code = """
import sys
sys.path.insert(0, "perfbench")
import tracer
t = tracer.install()
from supernil import cli
code = cli.main(["compute", "--family", "gl", "--m", "3", "--n", "2", "--degree", "1",
                 "--workers", "2"])
# compute ranks d^k block by block; the cocycle scan needs all of d^2
code = code or cli.main(["extension-check", "--family", "q", "--n", "3", "--samples", "1"])
names = {span[1] for span in t.spans}
missing = {"cli", "realize.build", "realize.verify", "koszul.degree", "koszul.differential",
           "koszul.block_matrix", "linalg.rank", "linalg.elim", "cohomology"} - names
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
