"""Lines of ``src/``, raw and as code, per package — and against a commit.

    python3 scripts/loc.py [--ref <commit>]        (make loc [REF=<commit>])

Two counts per package of ``src/repro`` and in total: *raw* lines, and
*code* lines as ``tokenize`` sees them — a line counts when it carries at
least one token that is not a comment, a docstring or layout, so blank
lines, comment-only lines and docstrings are left out.  With ``--ref`` the
same counts are taken of that commit's ``src/`` through ``git ls-tree`` and
``git show <commit>:<path>`` (no checkout, no clone) and the delta is
printed beside them: the two numbers a CHANGES.md entry reports for a PR.
"""

from __future__ import annotations

import argparse
import io
import os
import subprocess
import sys
import tokenize
from typing import Dict, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = "src/repro"

LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def code_lines(source: str) -> int:
    """Lines of ``source`` holding a token that is not layout, a comment or
    a docstring (a string that is a whole statement)."""
    lines = set()
    statement_start = True
    tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    for i, tok in enumerate(tokens):
        if tok.type in LAYOUT:
            if tok.type in (tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT):
                statement_start = True
            continue
        docstring = (
            tok.type == tokenize.STRING
            and statement_start
            and tokens[i + 1].type in (tokenize.NEWLINE, tokenize.ENDMARKER)
        )
        statement_start = False
        if not docstring:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def count(files: Dict[str, str]) -> Dict[str, Tuple[int, int]]:
    """``{package: (raw, code)}`` over ``{path under src/repro: source}``."""
    totals: Dict[str, Tuple[int, int]] = {}
    for path, source in files.items():
        package = path.split("/")[0] if "/" in path else "(top level)"
        raw, code = totals.get(package, (0, 0))
        totals[package] = (raw + source.count("\n"), code + code_lines(source))
    return totals


def total(counts: Dict[str, Tuple[int, int]]) -> Tuple[int, int]:
    return (
        sum(raw for raw, _code in counts.values()),
        sum(code for _raw, code in counts.values()),
    )


def working_tree() -> Dict[str, str]:
    files = {}
    for folder, _dirs, names in os.walk(os.path.join(ROOT, SRC)):
        for name in names:
            if name.endswith(".py"):
                full = os.path.join(folder, name)
                with open(full, encoding="utf-8") as fh:
                    files[os.path.relpath(full, os.path.join(ROOT, SRC))] = fh.read()
    return files


def at_commit(ref: str) -> Dict[str, str]:
    def git(*args: str) -> str:
        return subprocess.run(
            ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
        ).stdout

    paths = git("ls-tree", "-r", "--name-only", ref, "--", SRC).splitlines()
    return {
        os.path.relpath(path, SRC): git("show", f"{ref}:{path}")
        for path in paths
        if path.endswith(".py")
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ref", help="commit to print the delta against")
    args = parser.parse_args(argv)
    now = count(working_tree())
    then = count(at_commit(args.ref)) if args.ref else {}
    packages = sorted(set(now) | set(then))
    header = "%-14s %7s %7s" % ("package", "raw", "code")
    if args.ref:
        header += "   %7s %7s   (against %s)" % ("raw", "code", args.ref)
    print(header)

    def row(name: str, cur: Tuple[int, int], old: Tuple[int, int]) -> None:
        line = "%-14s %7d %7d" % (name, *cur)
        if args.ref:
            line += "   %+7d %+7d" % (cur[0] - old[0], cur[1] - old[1])
        print(line)

    for package in packages:
        row(package, now.get(package, (0, 0)), then.get(package, (0, 0)))
    row("total", total(now), total(then))
    return 0


if __name__ == "__main__":
    sys.exit(main())
