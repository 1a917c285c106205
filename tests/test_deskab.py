import hashlib
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
import deskab  # noqa: E402


def _run(wall, sha="ab" * 32, code=0):
    return {"code": code, "wall_s": wall, "cpu_s": wall / 2, "maxrss_mb": 30.0, "sha256": sha}


def test_main_alternates_sides_and_counts_pairs_won(monkeypatch, capsys):
    calls = []

    def fake(root, argv):
        calls.append((root, argv))
        pair = (len(calls) - 1) // 2  # 0, 1, 2 for the three pairs
        return _run(2.0 + pair / 10 if root == "parent" else 1.5 + pair / 100)

    monkeypatch.setattr(deskab, "run_side", fake)
    code = deskab.main(["parent", "change", "--pairs", "3", "--", "compute", "--degree", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert [root for root, _ in calls] == ["parent", "change", "change", "parent",
                                           "parent", "change"]
    assert all(argv == ["compute", "--degree", "3"] for _, argv in calls)
    # the summary is abpairs.summarize's: quartiles, pairs won and the gain rule
    assert ("wall_s: parent q1/median/q3 2.05 2.1 2.15, change 1.505 1.51 1.515, "
            "change won 3/3, gain holds") in out
    assert ("cpu_s: parent q1/median/q3 1.025 1.05 1.075, change 0.7525 0.755 0.7575, "
            "change won 3/3, gain holds") in out
    assert ("maxrss_mb: parent q1/median/q3 30 30 30, change 30 30 30, "
            "change won 0/3, gain not shown") in out


def test_main_prints_no_summary_for_one_pair(monkeypatch, capsys):
    monkeypatch.setattr(deskab, "run_side", lambda root, argv: _run(1.0))
    assert deskab.main(["parent", "change", "--pairs", "1", "--", "compute"]) == 0
    out = capsys.readouterr().out
    assert out.count("wall_s 1.0000") == 2 and "q1/median/q3" not in out


@pytest.mark.parametrize("change", [_run(1.0, sha="cd" * 32), _run(1.0, code=1), None],
                         ids=["sha256-differs", "exit-code", "no-result"])
def test_main_exits_nonzero_on_a_changed_output_or_a_failed_run(monkeypatch, capsys, change):
    monkeypatch.setattr(deskab, "run_side",
                        lambda root, argv: _run(1.0) if root == "parent" else change)
    assert deskab.main(["parent", "change", "--pairs", "2", "--", "compute"]) == 1


def test_main_needs_cli_arguments(capsys):
    with pytest.raises(SystemExit):
        deskab.main(["parent", "change", "--pairs", "2"])


def test_run_side_times_cli_main_in_a_fresh_interpreter(tmp_path):
    # a stand-in checkout whose cli.main prints its arguments
    pkg = tmp_path / "src" / "supernil"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "cli.py").write_text("def main(argv):\n    print(' '.join(argv))\n"
                                "    return 2 if argv == ['bad'] else 0\n")
    out = deskab.run_side(str(tmp_path), ["compute", "--degree", "3"])
    assert out["code"] == 0 and out["wall_s"] >= 0 and out["cpu_s"] >= 0
    assert out["maxrss_mb"] > 0
    assert out["sha256"] == hashlib.sha256(b"compute --degree 3\n").hexdigest()
    assert deskab.run_side(str(tmp_path), ["bad"])["code"] == 2
    (pkg / "cli.py").write_text("raise ImportError\n")
    assert deskab.run_side(str(tmp_path), ["compute"]) is None
    json.dumps(out)  # one JSON line per run
