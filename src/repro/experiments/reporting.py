"""Plain-text table rendering for experiment results.

Benchmarks print the same rows/series the paper's figures report, so a
terminal run of ``pytest benchmarks/ --benchmark-only -s`` doubles as the
reproduction artifact.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence


def format_table(
    title: str,
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
) -> str:
    """Render an aligned ASCII table with a title line."""
    materialized: List[List[str]] = [[_cell(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in materialized:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [title, ""]
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in materialized:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


#: characters of a full (1.0) bar in :func:`format_series`
SERIES_WIDTH = 60


def format_series(title: str, pairs: Iterable[tuple]) -> str:
    """Render a (k, value-in-[0,1]) series as an ASCII sparkline block."""
    lines = [title, ""]
    for k, value in pairs:
        bar = "#" * int(round(max(0.0, min(1.0, value)) * SERIES_WIDTH))
        lines.append(f"{k:>4}  {value:5.2f} |{bar}")
    return "\n".join(lines)


def _cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)
