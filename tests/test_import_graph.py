"""Nothing under ``src/repro`` imports the experiment harness but its front ends.

``repro.api`` and everything beside it (cluster, serve, faults, approx,
workload, core, net, ...) is what the harness, the CLI and the daemon are
built on; an import the other way round would make the stable surface
depend on the code it replaced.  ``experiments`` is a leaf: only
``cli.py``, the top-level ``repro/__init__.py`` re-export and the harness
itself may import it.  Checked on the source text (an AST walk over
import statements), so lazy in-function imports count and no interpreter
state is involved.

The same walk keeps the model below the service: nothing under ``core``,
``net``, ``sim``, ``geometry``, ``mobility`` or ``power`` imports
``workload``, ``api``, ``cluster`` or ``serve`` — a gateway releases what
it set up without learning what a handle, a shard or a daemon is.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
#: the only files allowed to import ``experiments`` (besides the package itself)
FRONT_ENDS = ("cli.py", "__init__.py")
#: the simulated model, and the layers built on it that it must not import
MODEL_LAYERS = ("core", "net", "sim", "geometry", "mobility", "power")
SERVICE_LAYERS = ("workload", "api", "cluster", "serve")


def tree_sources():
    """Source text of every module that must not import ``experiments``."""
    return {
        str(path.relative_to(SRC)): path.read_text(encoding="utf-8")
        for path in sorted(SRC.rglob("*.py"))
        if str(path.relative_to(SRC)) not in FRONT_ENDS
        and path.relative_to(SRC).parts[0] != "experiments"
    }


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


def imports_through(source: str, packages):
    """The names in ``source``'s imports that go through one of ``packages``."""
    return [
        name
        for name in _imported_names(ast.parse(source))
        if set(packages) & set(name.split("."))
    ]


def experiments_imports(source: str):
    """The names in ``source``'s imports that go through ``experiments``."""
    return imports_through(source, ("experiments",))


def offenders(sources, packages=("experiments",)):
    found = {rel: imports_through(text, packages) for rel, text in sources.items()}
    return {rel: names for rel, names in found.items() if names}


def model_sources():
    """Source text of every module of the simulated model."""
    return {
        rel: text
        for rel, text in tree_sources().items()
        if rel.split("/")[0] in MODEL_LAYERS
    }


def test_stable_packages_do_not_import_experiments():
    sources = tree_sources()
    assert {"api/service.py", "faults/sweep.py", "sim/kernel.py"} <= set(sources)
    assert offenders(sources) == {}


def test_pointing_the_sweep_at_the_runner_is_caught():
    sources = tree_sources()
    sources["faults/sweep.py"] += (
        "\ndef _shortcut(config):\n"
        "    from ..experiments.runner import run_experiment\n"
        "    return run_experiment(config)\n"
    )
    assert offenders(sources) == {"faults/sweep.py": ["experiments.runner"]}


def test_checker_sees_every_import_form():
    """What pointing ``api/service.py`` back at the harness would look like."""
    for source, found in (
        ("from ..experiments.config import ExperimentConfig\n", ["experiments.config"]),
        ("def f():\n    from .. import experiments\n", ["experiments"]),
        ("import repro.experiments.runner as r\n", ["repro.experiments.runner"]),
        ("from .config import ExperimentConfig  # not experiments\n", []),
    ):
        assert experiments_imports(source) == found


def test_model_layers_do_not_import_the_service_layers():
    sources = model_sources()
    assert {"core/gateway.py", "net/channel.py", "sim/kernel.py"} <= set(sources)
    assert offenders(sources, SERVICE_LAYERS) == {}


def test_teaching_a_gateway_about_handles_is_caught():
    sources = model_sources()
    sources["core/gateway.py"] += (
        "\ndef _owner(gateway):\n"
        "    from ..api.service import SessionHandle\n"
        "    return SessionHandle\n"
    )
    assert offenders(sources, SERVICE_LAYERS) == {
        "core/gateway.py": ["api.service"]
    }
