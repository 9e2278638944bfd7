"""ASCII visualization of the sensor field and query sessions.

Terminal-friendly rendering used by the CLI and handy in notebooks/debug
sessions: the deployment region becomes a character grid showing sleeping
nodes, backbone nodes, the user's path and the current query area.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..geometry.grid import cell_of
from ..geometry.shapes import Circle
from ..geometry.vec import Vec2
from ..mobility.path import PiecewisePath
from ..net.network import Network


#: points a rendered user path is sampled at, end to end
PATH_SAMPLES = 120


def render_field(
    network: Network,
    width: int = 72,
    path: Optional[PiecewisePath] = None,
    area: Optional[Circle] = None,
    user: Optional[Vec2] = None,
) -> str:
    """Render the deployment as an ASCII map.

    Legend: ``O`` backbone node, ``.`` sleeping node, ``*`` user path,
    ``U`` current user position, ``:`` query-area interior.
    """
    region = network.config.region
    # Terminal cells are ~2x taller than wide; halve the row count.
    height = max(8, int(width * region.height / region.width / 2.0))
    cell_w = region.width / width
    cell_h = region.height / height
    grid: List[List[str]] = [[" "] * width for _ in range(height)]

    def to_cell(p: Vec2) -> Tuple[int, int]:
        col, row = cell_of(p.x, p.y, region.x_min, region.y_min, cell_w, cell_h)
        # rows grow downward on screen
        return height - 1 - min(height - 1, max(0, row)), min(width - 1, max(0, col))

    if area is not None:
        for row in range(height):
            for col in range(width):
                center = Vec2(
                    region.x_min + (col + 0.5) * cell_w,
                    region.y_min + (height - 1 - row + 0.5) * cell_h,
                )
                if area.contains(center):
                    grid[row][col] = ":"

    if path is not None and path.end_time > path.start_time:
        span = path.end_time - path.start_time
        for i in range(PATH_SAMPLES + 1):
            t = path.start_time + span * i / PATH_SAMPLES
            r, c = to_cell(path.position_at(t))
            grid[r][c] = "*"

    for node in network.nodes:
        r, c = to_cell(node.position)
        grid[r][c] = "O" if node.is_active else "."

    if user is not None:
        r, c = to_cell(user)
        grid[r][c] = "U"

    border = "+" + "-" * width + "+"
    body = "\n".join("|" + "".join(row) + "|" for row in grid)
    legend = (
        "legend: O backbone   . sleeper   * user path   U user   : query area"
    )
    return f"{border}\n{body}\n{border}\n{legend}"


#: periods per line of a fidelity strip
STRIP_WIDTH = 60


def render_fidelity_strip(series: Sequence[Tuple[int, float]]) -> str:
    """One-character-per-period fidelity strip (#=1.0 .. ' '=0).

    Compresses a whole session into a couple of lines — the Figure 5 story
    at a glance.
    """
    ramp = " .:-=+*#"
    chars = []
    for _, fidelity in series:
        index = int(round(max(0.0, min(1.0, fidelity)) * (len(ramp) - 1)))
        chars.append(ramp[index])
    lines = []
    for start in range(0, len(chars), STRIP_WIDTH):
        chunk = "".join(chars[start : start + STRIP_WIDTH])
        lines.append(f"k={start + 1:>4} {chunk}")
    return "\n".join(lines)
