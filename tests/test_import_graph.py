"""The stable layers do not import from the experiment harness.

``repro.api`` and everything under it (cluster, serve, faults, approx,
workload, core, net) is what the harness, the CLI and the daemon are
built on; an import the other way round would make the stable surface
depend on the code it replaced.  Checked on the source text (an AST walk
over import statements), so lazy in-function imports count and no
interpreter state is involved.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
STABLE_PACKAGES = (
    "api", "cluster", "serve", "faults", "approx", "workload", "core", "net",
)


def _imported_names(tree: ast.AST):
    """Every dotted module name an import statement in ``tree`` mentions."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            yield node.module or ""
            for alias in node.names:
                yield alias.name


def experiments_imports(source: str):
    """The names in ``source``'s imports that go through ``experiments``."""
    return [
        name
        for name in _imported_names(ast.parse(source))
        if "experiments" in name.split(".")
    ]


def test_stable_packages_do_not_import_experiments():
    offenders = {}
    for package in STABLE_PACKAGES:
        for path in sorted((SRC / package).rglob("*.py")):
            names = experiments_imports(path.read_text(encoding="utf-8"))
            if names:
                offenders[str(path.relative_to(SRC))] = names
    assert offenders == {}


def test_checker_sees_every_import_form():
    """What pointing ``api/service.py`` back at the harness would look like."""
    for source, found in (
        ("from ..experiments.config import ExperimentConfig\n", ["experiments.config"]),
        ("def f():\n    from .. import experiments\n", ["experiments"]),
        ("import repro.experiments.runner as r\n", ["repro.experiments.runner"]),
        ("from .config import ExperimentConfig  # not experiments\n", []),
    ):
        assert experiments_imports(source) == found


def test_experiments_config_reexports_the_api_objects():
    import repro.api.config as stable
    import repro.experiments.config as legacy

    assert set(legacy.__all__) >= {
        "ExperimentConfig", "QueryParams", "MODE_JIT", "paper_section62_config",
    }
    for name in legacy.__all__:
        assert getattr(legacy, name) is getattr(stable, name), name
