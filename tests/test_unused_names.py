"""Every function and method under ``src/repro`` has a caller outside tests.

A name that only its own tests call is a moving part nothing runs: delete
it with its tests, or give it a line in :data:`ALLOWED` saying why it
stays.  Checked on the syntax tree, in the style of
``tests/test_inline_verdicts.py``.  A definition counts as called when its
name appears in ``src/``, ``examples/``, ``scripts/``, ``bench/`` or
``benchmarks/`` as an attribute (``x.name``), as a string constant equal
to it (``getattr`` dispatch), as an imported name, or — for a module-level
function only — as a bare name read.  Mentions in ``tests/`` do not count.
Dunders and the HTTP hooks the standard library dispatches by name are
exempt.

The scan matches names, not qualified names: a method whose name another
method shares (``Simulator.stop`` beside the daemon client's ``stop``) is
counted as called through the other, and is beyond it.  That is how a whole
class can go unused with every method "called": a second shape class whose
``contains`` shares its name with the one the service runs.  So every class
is checked too: its name must appear outside ``tests/`` as a name, an
attribute, an import or a string, and a package ``__init__.py`` re-exporting
it does not count.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
CALLER_DIRS = ("src", "examples", "scripts", "bench", "benchmarks")

#: methods :class:`http.server.BaseHTTPRequestHandler` calls by name
HTTP_HOOKS = frozenset({"do_GET", "do_POST", "do_DELETE", "log_message"})

#: qualified name -> why it stays with no caller outside tests
ALLOWED = {
    "repro.geometry.vec.Vec2.is_close": "kept on purpose: the tolerance "
    "equality geometry tests compare with",
    "repro.serve.errors.WireError.from_payload": "kept on purpose: the "
    "inverse of WireError.payload, pinning the wire format both ways",
    "repro.workload.engine.WorkloadResult.session_for": "kept on purpose: "
    "a session's scores by user id, the lookup result readers need",
    "repro.geometry.shapes.Circle.intersection_points": "the CCP oracle's "
    "crossings (tests/ccp_oracle.py); the kernel builds its own table",
    "repro.net.channel.Channel.listeners_near": "the brute-force oracle "
    "of the channel's mobile cell index",
    "repro.net.radio.Radio.state": "test observation: the state a "
    "bystander's reception reads as, without settling it",
    "repro.net.psm.WakeWheel.schedulers": "test observation: the cohort "
    "one beacon phase wakes",
    "repro.core.baseline.NoPrefetchProtocol.session_state_count": "test "
    "observation: what one session still holds (leak checks)",
    "repro.sim.trace.Tracer.keep_kind": "test observation: retain a "
    "record kind after the tracer was built",
    "repro.mobility.path.PiecewisePath.stationary": "test fixture: a user "
    "standing still",
}


def definitions(source: str, module: str):
    """``(qualified name, name, is method)`` of every def in ``source``."""
    found = []

    def walk(node, prefix, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}{child.name}.", True)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.append((f"{module}.{prefix}{child.name}", child.name, in_class))
                walk(child, f"{prefix}{child.name}.<locals>.", False)
            else:
                walk(child, prefix, in_class)

    walk(ast.parse(source), "", False)
    return found


def references(source: str):
    """``(attribute-like names, bare names)`` one file refers to."""
    attrs, bare = set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            attrs.add(node.attr)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            bare.add(node.id)
        elif isinstance(node, ast.alias):
            bare.add(node.asname or node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            attrs.add(node.value)
    return attrs, bare


def classes(source: str, module: str):
    """``(qualified name, name)`` of every class in ``source``."""
    found = []

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                found.append((f"{module}.{prefix}{child.name}", child.name))
                walk(child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                walk(child, f"{prefix}{child.name}.<locals>.")
            else:
                walk(child, prefix)

    walk(ast.parse(source), "")
    return found


def unnamed(sources, defined):
    """Qualified names of the classes in ``defined`` nothing in ``sources`` names."""
    named = set()
    for source in sources:
        attrs, bare = references(source)
        named |= attrs | bare
    return [qualified for qualified, name in defined if name not in named]


def uncalled(sources, defined):
    """Qualified names in ``defined`` that nothing in ``sources`` calls."""
    attrs, bare = set(), set()
    for source in sources:
        file_attrs, file_bare = references(source)
        attrs |= file_attrs
        bare |= file_bare
    bare |= attrs
    return [
        qualified
        for qualified, name, is_method in defined
        if not (name.startswith("__") and name.endswith("__"))
        and name not in HTTP_HOOKS
        and name not in (attrs if is_method else bare)
    ]


def tree_definitions(scan=definitions):
    defined = []
    for path in sorted(SRC.rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        module = ".".join(("repro",) + tuple(p for p in parts if p != "__init__"))
        defined += scan(path.read_text(encoding="utf-8"), module)
    return defined


def caller_sources(reexports=True):
    """Every caller file's text; without the package ``__init__.py`` files
    (which only import and list ``__all__``) when ``reexports`` is False."""
    for folder in CALLER_DIRS:
        for path in sorted((ROOT / folder).rglob("*.py")):
            if reexports or path.name != "__init__.py":
                yield path.read_text(encoding="utf-8")


def test_every_def_has_a_caller_outside_tests():
    found = [q for q in uncalled(caller_sources(), tree_definitions()) if q not in ALLOWED]
    assert found == [], (
        "nothing outside tests/ calls these: delete them with their tests, "
        f"or say in ALLOWED why they stay: {found}"
    )


def test_every_class_is_named_outside_tests():
    found = [
        q for q in unnamed(caller_sources(reexports=False), tree_definitions(classes))
        if q not in ALLOWED
    ]
    assert found == [], (
        "nothing outside tests/ names these classes: delete them with their "
        f"tests, or say in ALLOWED why they stay: {found}"
    )


def test_every_allowed_name_is_still_defined():
    defined = {qualified for qualified, _, _ in tree_definitions()}
    defined |= {qualified for qualified, _ in tree_definitions(classes)}
    assert sorted(set(ALLOWED) - defined) == []


class TestScan:
    def test_an_uncalled_method_is_caught(self):
        source = "class C:\n    def gone(self):\n        pass\n"
        assert uncalled([source], definitions(source, "m")) == ["m.C.gone"]

    def test_a_method_called_as_an_attribute_passes(self):
        source = "class C:\n    def kept(self):\n        pass\nC().kept()\n"
        assert uncalled([source], definitions(source, "m")) == []

    def test_a_local_variable_does_not_call_a_method(self):
        source = "class C:\n    def near(self):\n        pass\nnear = 1\nprint(near)\n"
        assert uncalled([source], definitions(source, "m")) == ["m.C.near"]

    def test_a_keyword_argument_does_not_call_a_method(self):
        source = "class C:\n    def lag(self):\n        pass\nprint(lag=1)\n"
        assert uncalled([source], definitions(source, "m")) == ["m.C.lag"]

    def test_a_function_read_by_name_or_imported_passes(self):
        source = "def f():\n    pass\ndef g():\n    pass\nh = f\n"
        assert uncalled([source, "from m import g\n"], definitions(source, "m")) == []

    def test_getattr_dispatch_by_string_passes(self):
        source = "class C:\n    def run_x(self):\n        pass\ngetattr(C(), 'run_x')\n"
        assert uncalled([source], definitions(source, "m")) == []

    def test_an_unnamed_class_is_caught(self):
        source = "class A:\n    pass\nclass B:\n    class Inner:\n        pass\n"
        found = unnamed([source], classes(source, "m"))
        assert found == ["m.A", "m.B", "m.B.Inner"]

    def test_a_class_named_by_a_read_an_attribute_an_import_or_a_string_passes(self):
        source = "".join(f"class {name}:\n    pass\n" for name in "ABCD")
        callers = ["x = A()\n", "y = m.B\n", "from m import C\n", "z = 'D'\n"]
        assert unnamed(callers, classes(source, "m")) == []

    def test_dunders_and_http_hooks_are_exempt(self):
        source = "class H:\n    def __len__(self):\n        return 0\n    def do_GET(self):\n        pass\n"
        assert uncalled([source], definitions(source, "m")) == []
