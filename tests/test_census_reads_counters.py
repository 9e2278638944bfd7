"""The census asks the engines; it does not reach into them.

``leak_census`` (``faults/sweep.py``), the daemon's drain check and
``scripts/soak.py`` count what the protocol engines and the sleep schedulers
hold through ``session_count()`` / ``collector_count()`` /
``tree_state_count()`` / ``pending_batch_count()`` /
``pending_override_count(now)``, so an engine can change how it stores a
session without the census silently reading an empty table.  Checked on the
source text, in the style of ``tests/test_import_graph.py``: nothing under
``faults``, ``serve``, ``api`` or ``scripts/`` names a private attribute of
a protocol engine or a scheduler's ``_overrides``.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WATCHED = ("src/repro/faults", "src/repro/serve", "src/repro/api", "scripts")
#: ``….protocol._x`` / ``protocol._x`` (``np_protocol`` included), ``sched._overrides``
REACHES_IN = re.compile(r"protocol\._\w|\._overrides\b")


def watched_sources():
    return {
        str(path.relative_to(ROOT)): path.read_text(encoding="utf-8")
        for folder in WATCHED
        for path in sorted((ROOT / folder).rglob("*.py"))
    }


def offenders(sources):
    found = {rel: REACHES_IN.findall(text) for rel, text in sources.items()}
    return {rel: hits for rel, hits in found.items() if hits}


def test_no_census_reaches_into_an_engine():
    sources = watched_sources()
    assert {
        "src/repro/faults/sweep.py", "src/repro/serve/daemon.py", "scripts/soak.py"
    } <= set(sources)
    assert offenders(sources) == {}


def test_reaching_in_is_caught():
    sources = watched_sources()
    sources["scripts/soak.py"] += "\ntotal += len(service.np_protocol._sessions)\n"
    sources["src/repro/faults/sweep.py"] += (
        "\nfuture = [e for _s, e in sched._overrides]\n"
        "spec = spec.with_overrides(shards=1)  # not a scheduler's table\n"
    )
    assert offenders(sources) == {
        "scripts/soak.py": ["protocol._s"],
        "src/repro/faults/sweep.py": ["._overrides"],
    }
