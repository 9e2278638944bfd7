"""Every inlined copy of a rule names its home and carries its A/B verdict.

A rule lives in one place, under its own name.  A hot path may keep a
hand-inlined second copy only while a measured A/B of the plain call shows
a resolved loss of ``sim_s_per_busy_s``, and the copy then says so where it
stands.  Checked on the source text (comments and string literals, read
with ``tokenize``), in the style of ``tests/test_import_graph.py``: every
such line under ``src/repro`` that matches ``inlin`` (any case) names its
home in backticks and carries a verdict ``A/B: <date>, <workload>, <median
delta> %``, the date of the A/B, the workload it lost on and the median
change of ``sim_s_per_busy_s`` that the call cost.
"""

import io
import re
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

MENTION = re.compile(r"inlin", re.IGNORECASE)
HOME = re.compile(r"``?[A-Za-z_][\w.]*``?")
VERDICT = re.compile(r"A/B: \d{4}-\d{2}-\d{2}, [a-z][\w-]*, [+-]?\d+(\.\d+)? %")


def prose_lines(source: str):
    """``(line number, text)`` of every comment and string-literal line."""
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in (tokenize.COMMENT, tokenize.STRING):
            for offset, line in enumerate(token.string.splitlines()):
                yield token.start[0] + offset, line


def unjustified(source: str):
    """Lines of ``source`` that mention an inlined copy without its home
    and verdict."""
    return [
        (number, line.strip())
        for number, line in prose_lines(source)
        if MENTION.search(line) and not (HOME.search(line) and VERDICT.search(line))
    ]


def test_every_inlined_copy_carries_its_verdict():
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        lines = unjustified(path.read_text(encoding="utf-8"))
        if lines:
            found[str(path.relative_to(SRC))] = lines
    assert found == {}, (
        "an inlined copy must name its home in backticks and its verdict "
        "`A/B: <date>, <workload>, <median delta> %` on the same line — or "
        f"call the home: {found}"
    )


class TestScan:
    def test_a_bare_mention_is_caught(self):
        source = "def f():\n    # the energy step inlined: measurable\n    pass\n"
        assert unjustified(source) == [(2, "# the energy step inlined: measurable")]

    def test_a_docstring_mention_is_caught(self):
        source = 'def f():\n    """Inlines ``g``."""\n'
        assert [number for number, _ in unjustified(source)] == [2]

    def test_a_home_without_a_verdict_is_caught(self):
        source = "x = 1  # ``g`` inlined\n"
        assert len(unjustified(source)) == 1

    def test_a_verdict_without_a_home_is_caught(self):
        source = "x = 1  # inlined, A/B: 2026-10-17, churn-mix, -5.8 %\n"
        assert len(unjustified(source)) == 1

    def test_a_named_and_measured_copy_passes(self):
        source = "x = 1  # ``g`` inlined, A/B: 2026-10-17, churn-mix, -5.8 %\n"
        assert unjustified(source) == []

    def test_code_is_not_prose(self):
        assert unjustified("inline_count = 1\n") == []
