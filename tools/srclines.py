"""Code, docstring, comment and blank lines of `src/supernil`, per file.

    python3 tools/srclines.py ROOT [ROOT2]

ROOT (and ROOT2) are checkouts of this repository.  Each physical line of
each `src/supernil/*.py` is counted once, by `tokenize`, as the first of
these that it holds:

- code: any token but a comment or a docstring;
- docstring: part of a string that stands alone as a statement;
- comment: a comment;
- blank: nothing (a blank line inside a docstring is docstring).

It prints a table per file and the total.  With ROOT2 each count reads
ROOT -> ROOT2 (difference); a file missing from one side counts 0 there.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
import tokenize

KINDS = ("code", "docstring", "comment", "blank")
# token types that hold no text of a line
LAYOUT = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENDMARKER}
# a string stands alone as a statement between these token types
STARTS = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT}
ENDS = {tokenize.NEWLINE, tokenize.ENDMARKER}


def count(source: str) -> dict[str, int]:
    """The count of each kind of line in one Python source."""
    kind = [len(KINDS) - 1] * len(source.splitlines())  # index into KINDS
    tokens = [t for t in tokenize.generate_tokens(io.StringIO(source).readline)
              if t.type != tokenize.NL]
    before = tokenize.NEWLINE  # the type of the last token that is no comment
    for i, tok in enumerate(tokens):
        if tok.type in LAYOUT:
            before = tok.type
            continue
        if tok.type == tokenize.COMMENT:
            k = KINDS.index("comment")
        else:
            alone = (tok.type == tokenize.STRING and before in STARTS
                     and next((tokens[j].type for j in range(i + 1, len(tokens))
                               if tokens[j].type != tokenize.COMMENT), None) in ENDS)
            k = KINDS.index("docstring" if alone else "code")
            before = tok.type
        for line in range(tok.start[0], tok.end[0] + 1):
            kind[line - 1] = min(kind[line - 1], k)
    return {name: kind.count(i) for i, name in enumerate(KINDS)}


def count_root(root: str) -> dict[str, dict[str, int]]:
    """Per file name of `root`/src/supernil/*.py, its counts."""
    pkg = os.path.join(root, "src", "supernil")
    out = {}
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                out[name] = count(fh.read())
    return out


def _total(files: dict[str, dict[str, int]]) -> dict[str, int]:
    return {k: sum(c[k] for c in files.values()) for k in KINDS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("root")
    parser.add_argument("root2", nargs="?")
    args = parser.parse_args(argv)
    sides = [count_root(args.root)] + ([count_root(args.root2)] if args.root2 else [])
    names = sorted(set().union(*sides))
    rows = [(name, [side.get(name, dict.fromkeys(KINDS, 0)) for side in sides])
            for name in names]
    rows.append(("total", [_total(side) for side in sides]))
    print(f"{'file':<16}" + "".join(f"{k:>22}" if args.root2 else f"{k:>10}" for k in KINDS))
    for name, counts in rows:
        cells = []
        for k in KINDS:
            if args.root2:
                a, b = counts[0][k], counts[1][k]
                cells.append(f"{f'{a} -> {b} ({b - a:+d})':>22}")
            else:
                cells.append(f"{counts[0][k]:>10}")
        print(f"{name:<16}" + "".join(cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())
