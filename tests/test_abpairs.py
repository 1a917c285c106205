import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
import abpairs  # noqa: E402


def test_summary_of_a_clear_gain():
    parent = [0.30, 0.32, 0.31, 0.33, 0.29, 0.32, 0.31, 0.30, 0.34, 0.32]
    change = [0.24, 0.25, 0.23, 0.24, 0.26, 0.24, 0.25, 0.23, 0.24, 0.35]
    s = abpairs.summarize(parent, change, "lower")
    assert s["wins"] == 9 and s["pairs"] == 10
    assert s["parent"] == pytest.approx([0.3025, 0.315, 0.32])
    assert s["change"] == pytest.approx([0.24, 0.24, 0.25])
    assert s["gain"]


def test_summary_needs_nine_tenths_of_the_pairs():
    parent = [1.0] * 10
    change = [0.5] * 8 + [1.0, 1.5]  # a tie counts for neither side
    s = abpairs.summarize(parent, change, "lower")
    assert s["wins"] == 8 and not s["gain"]


def test_summary_needs_a_median_gap_beyond_the_parent_spread():
    parent = [1.0, 2.0, 3.0, 4.0, 5.0, 1.0, 2.0, 3.0, 4.0, 5.0]
    change = [v - 0.5 for v in parent]
    s = abpairs.summarize(parent, change, "lower")
    assert s["wins"] == 10 and not s["gain"]  # gap 0.5, parent IQR 2


def test_summary_of_a_higher_is_better_metric():
    s = abpairs.summarize([1.0, 1.0, 1.0], [2.0, 2.0, 2.0], "higher")
    assert s["wins"] == 3 and s["gain"]
    s = abpairs.summarize([1.0, 1.0, 1.0], [2.0, 2.0, 2.0], "lower")
    assert s["wins"] == 0 and not s["gain"]


def _result(correct, wall):
    metrics = {"wall_s": {"value": wall, "unit": "s"}}
    return {"correct": correct, "attempted": 1, "failed": 0 if correct else 1,
            "metrics": metrics}


@pytest.mark.parametrize("correct", [True, False])
def test_main_alternates_sides_and_exits_nonzero_on_an_incorrect_run(monkeypatch, capsys,
                                                                      correct):
    calls = []

    def fake(root, workload, seconds):
        calls.append(root)
        return _result(correct or root != str(ROOT) or len(calls) < 3,
                       0.3 if root == str(ROOT) else 0.2)

    monkeypatch.setattr(abpairs, "run_side", fake)
    code = abpairs.main([str(ROOT), "change", "--workload", "w", "--pairs", "4"])
    out = capsys.readouterr().out
    assert calls == [str(ROOT), "change", "change", str(ROOT)] * 2
    assert code == (0 if correct else 1)
    if correct:
        assert "change won 4/4, gain holds" in out
    else:
        assert "wall_s: incomplete" in out


def test_run_side_reads_the_last_stdout_line(tmp_path, monkeypatch):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    line = json.dumps(_result(True, 0.25))
    (bench / "run.py").write_text(f"print('== w')\nprint({line!r})\n")
    assert abpairs.run_side(str(tmp_path), "w", 1.0) == json.loads(line)
    monkeypatch.chdir(tmp_path.parent)  # a checkout named relative to the working directory
    assert abpairs.run_side(tmp_path.name, "w", 1.0) == json.loads(line)
    (bench / "run.py").write_text("print('no result')\n")
    assert abpairs.run_side(str(tmp_path), "w", None) is None



@pytest.mark.parametrize("change, warned", [(ROOT.parent / ("x" * len(ROOT.name)), False),
                                            (ROOT.parent / (ROOT.name + "x"), True)])
def test_main_warns_when_the_checkout_paths_differ_in_length(monkeypatch, capsys, change,
                                                             warned):
    monkeypatch.setattr(abpairs, "run_side", lambda root, workload, seconds: _result(True, 0.3))
    assert abpairs.main([str(ROOT), str(change), "--workload", "w", "--pairs", "2"]) == 0
    assert ("differ in length" in capsys.readouterr().err) == warned
