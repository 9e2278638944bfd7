"""A figure cell is a file: every cell the figures run is a plain-data spec.

Each sweep of ``repro.experiments.figures`` builds its cells as
``ScenarioSpec``\\ s, so any one of them can be stored as JSON and re-run
with ``repro scenario --file`` (the ``scenario-fig4-cell`` CLI transcript
does, for the committed Fig. 4 cell).  No simulation runs here.
"""

import json
import pathlib

import pytest

from repro.api.scenarios import ScenarioSpec, load_scenario_file
from repro.experiments.figures import (
    SCALE_PAPER,
    SCALE_QUICK,
    fig4_cells,
    figure_cells,
)
from repro.experiments.perf import perf_scenarios

CELL = pathlib.Path(__file__).parent / "data" / "cli" / "fig4-cell.json"


@pytest.mark.parametrize("scale", [SCALE_QUICK, SCALE_PAPER])
def test_every_figure_cell_round_trips_through_json(scale):
    cells = figure_cells(scale)
    assert cells
    for spec in cells:
        text = json.dumps(spec.to_dict())
        assert ScenarioSpec.from_dict(json.loads(text)) == spec, spec.name


def test_stored_fig4_cell_is_the_quick_figure_cell():
    """The committed file is the cell ``repro fig 4`` runs for its MQ-JIT,
    Tsleep = 9 s bar — the ``fig4_jit`` run the pin ledger pins."""
    stored = load_scenario_file(str(CELL))
    cells = {key: spec for key, spec, _ in fig4_cells(SCALE_QUICK)}
    assert stored == cells[("jit", 9.0, (3.0, 5.0))]
    assert stored == perf_scenarios(SCALE_QUICK)["fig4_jit"]
