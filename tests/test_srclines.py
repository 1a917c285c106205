import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
import srclines  # noqa: E402

# each line's kind: d docstring, c code, # comment, b blank
SAMPLE = '''"""A module docstring,

on three lines."""

import os  # code with a comment is code

# a comment line
  # an indented comment line
def f(x):
    """One line."""
    s = """a string that is
no docstring"""
    (
        x

    )
    "a bare string statement"
    return s


class A:  # d below
    """Two
    lines."""
    x = 1
'''
KINDS = "dddbcb##cdccccbcdcbbcddc"


def test_count_of_a_sample_source():
    assert len(KINDS) == len(SAMPLE.splitlines())
    assert srclines.count(SAMPLE) == {
        "code": KINDS.count("c"), "docstring": KINDS.count("d"),
        "comment": KINDS.count("#"), "blank": KINDS.count("b")}


def _checkout(root, files):
    pkg = root / "src" / "supernil"
    pkg.mkdir(parents=True)
    for name, text in files.items():
        (pkg / name).write_text(text)
    (pkg / "notes.txt").write_text("not python\n")
    return str(root)


def test_main_counts_per_file_and_the_difference(tmp_path, capsys):
    a = _checkout(tmp_path / "a", {"one.py": SAMPLE, "gone.py": "x = 1\n"})
    b = _checkout(tmp_path / "b", {"one.py": SAMPLE + "y = 2\n\n"})
    assert srclines.main([a]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in out] == ["file", "gone.py", "one.py", "total"]
    code, doc, comment, blank = (KINDS.count(c) for c in "cd#b")
    assert out[-1].split() == ["total", str(code + 1), str(doc), str(comment), str(blank)]
    assert srclines.main([a, b]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1].split() == ["gone.py"] + "1 -> 0 (-1) 0 -> 0 (+0) 0 -> 0 (+0) 0 -> 0 (+0)".split()
    assert out[-1].split()[:4] == ["total", str(code + 1), "->", str(code + 1)]
    assert out[-1].split()[-4:] == [str(blank), "->", str(blank + 1), "(+1)"]
