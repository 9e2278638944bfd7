"""The settable-value census: defaults that no caller outside ``tests/`` sets.

    python3 scripts/census.py             (make census)

Lists each defaulted parameter of a function or method under ``src/`` and
each defaulted field of a dataclass there that no file outside ``tests/``
sets by keyword (or positionally, or through ``dataclasses.replace``), or
sets only to its default, with the lines that do set it.  Such a value is
an option only tests reach: make it a module constant holding its old
default, or say why it stays.

The scan is on the syntax tree and matches names, not types: a call sets
``f``'s parameter ``p`` when its callee's last name is ``f`` (a method, a
function, or the class for ``__init__`` and dataclass fields) and it passes
``p=`` or enough positional arguments to reach it.  A parameter of the
enclosing function forwarded by keyword (``p=q``) is not a setter: the
caller that sets the forwarder is.

A plain-data key is set by the files and request bodies that carry it,
which the scan cannot read, so such values are listed under a heading of
their own: the fields of each class passed to ``load(`` / ``checked(``
under ``src/`` (only the keys the call lets through, when it passes a
subset such as ``_PAYLOAD_KEYS``), and of the dataclasses those keys are
annotated with.  Finding them imports ``repro``.  The last line is the
summary the standing diet reports before and after.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
import os
import sys
import typing
from collections import defaultdict
from typing import Dict, List, Optional, Set, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = "src"
#: where setters are looked for (``tests/`` setters are listed, not counted)
CALLER_DIRS = ("src", "examples", "scripts", "bench", "benchmarks", "tests")


def _python_files(top: str) -> List[str]:
    found = []
    for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        found += [
            os.path.relpath(os.path.join(dirpath, f), ROOT)
            for f in sorted(filenames)
            if f.endswith(".py")
        ]
    return found


def _parse(path: str) -> ast.Module:
    with open(os.path.join(ROOT, path), "r", encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename=path)


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def _field_default(value: ast.expr) -> Optional[ast.expr]:
    """The default expression of a dataclass field, or None when the field
    is not an ``__init__`` parameter with a default."""
    if isinstance(value, ast.Call) and getattr(value.func, "id", "") == "field":
        keywords = {k.arg: k.value for k in value.keywords}
        init = keywords.get("init")
        if isinstance(init, ast.Constant) and init.value is False:
            return None
        return keywords.get("default", keywords.get("default_factory"))
    return value


class Value:
    """One defaulted parameter or field."""

    def __init__(self, path, line, owner, callee, name, index, default):
        self.path, self.line = path, line
        self.owner, self.callee, self.name = owner, callee, name
        #: positional index a call reaches it at (None: keyword only)
        self.index = index
        self.default = default


def collect_values() -> List[Value]:
    values: List[Value] = []
    for path in _python_files(SRC):
        tree = _parse(path)
        for cls_or_mod in [tree] + [
            n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)
        ]:
            cls = cls_or_mod if isinstance(cls_or_mod, ast.ClassDef) else None
            if cls is not None and _is_dataclass(cls):
                index = 0
                for stmt in cls.body:
                    if not isinstance(stmt, ast.AnnAssign) or not isinstance(
                        stmt.target, ast.Name
                    ):
                        continue
                    if "ClassVar" in ast.dump(stmt.annotation):
                        continue
                    default = None if stmt.value is None else _field_default(stmt.value)
                    if default is not None:
                        values.append(Value(
                            path, stmt.lineno, cls.name, cls.name,
                            stmt.target.id, index, default,
                        ))
                    index += 1
            for stmt in cls_or_mod.body:
                if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                callee = cls.name if cls is not None and stmt.name == "__init__" else stmt.name
                owner = f"{cls.name}.{stmt.name}" if cls is not None else stmt.name
                args = stmt.args
                positional = args.posonlyargs + args.args
                skip = 1 if cls is not None and positional and positional[0].arg in ("self", "cls") else 0
                firsts = len(positional) - len(args.defaults)
                for i, default in enumerate(args.defaults):
                    arg = positional[firsts + i]
                    values.append(Value(
                        path, arg.lineno, owner, callee, arg.arg,
                        firsts + i - skip, default,
                    ))
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        values.append(Value(
                            path, arg.lineno, owner, callee, arg.arg, None, default,
                        ))
    return values


def _callee_name(call: ast.Call) -> str:
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    return getattr(func, "id", "")


def _enclosing_params(stack: List[ast.AST]) -> set:
    for node in reversed(stack):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            return {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    return set()


def collect_setters() -> Tuple[Dict, Dict]:
    """``(keyword setters, positional calls)``: ``{(callee, name): [(path,
    line, value)]}`` and ``{callee: [(path, line, n_positional)]}``."""
    by_keyword: Dict = defaultdict(list)
    by_position: Dict = defaultdict(list)
    for top in CALLER_DIRS:
        for path in _python_files(top):
            tree = _parse(path)
            stack: List[ast.AST] = []

            def visit(node: ast.AST) -> None:
                stack.append(node)
                if isinstance(node, ast.Call):
                    callee = _callee_name(node)
                    params = _enclosing_params(stack)
                    for kw in node.keywords:
                        if kw.arg is None:
                            continue
                        value = kw.value
                        forwarded = isinstance(value, ast.Name) and value.id in params
                        if not forwarded:
                            by_keyword[(callee, kw.arg)].append((path, node.lineno, value))
                    starred = any(isinstance(a, ast.Starred) for a in node.args)
                    by_position[callee].append(
                        (path, node.lineno, 10 ** 6 if starred else len(node.args))
                    )
                for child in ast.iter_child_nodes(node):
                    visit(child)
                stack.pop()

            visit(tree)
    return by_keyword, by_position


def _classes(obj: object) -> List[type]:
    """``obj`` if it is a class, the classes of a registry dict, else none."""
    if isinstance(obj, type):
        return [obj]
    if isinstance(obj, dict):
        return [v for v in obj.values() if isinstance(v, type)]
    return []


def _loaded_classes(name: ast.Name, stack: List[ast.AST], module) -> List[type]:
    """The classes the first argument of a loader call can be: a name the
    enclosing function assigns (from a registry), ``cls`` in a class's
    method, or a module-level name."""
    for node in reversed(stack):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for stmt in ast.walk(node):
                if isinstance(stmt, ast.Assign) and any(
                    getattr(t, "id", None) == name.id for t in stmt.targets
                ):
                    return [
                        cls for n in ast.walk(stmt.value) if isinstance(n, ast.Name)
                        for cls in _classes(getattr(module, n.id, None))
                    ]
        if isinstance(node, ast.ClassDef) and name.id == "cls":
            return _classes(getattr(module, node.name, None))
    return _classes(getattr(module, name.id, None))


def plain_data_keys() -> Dict[str, Set[str]]:
    """``{class name: keys plain data can set}`` for every class a loader
    call under ``src/`` builds, and the dataclasses those keys name."""
    sys.path.insert(0, os.path.join(ROOT, SRC))
    from repro.plain import parameters

    keys: Dict[str, Set[str]] = defaultdict(set)

    def add(cls: type, exposed) -> None:
        new = (set(exposed) & parameters(cls)) - keys[cls.__name__]
        keys[cls.__name__] |= new
        hints = typing.get_type_hints(
            cls if dataclasses.is_dataclass(cls) else cls.__init__
        )
        for key in new:
            for inner in _annotated_dataclasses(hints.get(key)):
                add(inner, parameters(inner))

    for path in _python_files(SRC):
        calls = []
        stack: List[ast.AST] = []

        def visit(node: ast.AST) -> None:
            stack.append(node)
            if (
                isinstance(node, ast.Call)
                and getattr(node.func, "id", None) in ("load", "checked")
                and node.args and isinstance(node.args[0], ast.Name)
            ):
                calls.append((node, list(stack)))
            for child in ast.iter_child_nodes(node):
                visit(child)
            stack.pop()

        visit(_parse(path))
        if not calls:
            continue
        module = importlib.import_module(
            os.path.splitext(os.path.relpath(path, SRC))[0]
            .replace(os.sep, ".").removesuffix(".__init__")
        )
        for call, where in calls:
            subset = call.args[3] if len(call.args) > 3 else next(
                (k.value for k in call.keywords if k.arg == "keys"), None
            )
            for cls in _loaded_classes(call.args[0], where, module):
                exposed = parameters(cls)
                if isinstance(subset, ast.Name):
                    exposed = getattr(module, subset.id)
                add(cls, exposed)
    return keys


def _annotated_dataclasses(annotation: object) -> List[type]:
    """The dataclasses an annotation names, through Optional, Tuple, List."""
    if dataclasses.is_dataclass(annotation) and isinstance(annotation, type):
        return [annotation]
    return [
        cls for arg in typing.get_args(annotation)
        for cls in _annotated_dataclasses(arg)
    ]


def census() -> int:
    values = collect_values()
    by_keyword, by_position = collect_setters()
    plain = plain_data_keys()
    dataclass_fields = {v.name for v in values if v.owner == v.callee and "." not in v.owner}
    unset, keyed = [], []
    for value in sorted(values, key=lambda v: (v.path, v.line)):
        setters = list(by_keyword.get((value.callee, value.name), ()))
        if value.name in dataclass_fields and value.owner == value.callee:
            setters += by_keyword.get(("replace", value.name), ())
        default_dump = ast.dump(value.default)
        real = [
            (path, line) for path, line, expr in setters
            if ast.dump(expr) != default_dump
        ]
        if value.index is not None:
            real += [
                (path, line) for path, line, n in by_position.get(value.callee, ())
                if n > value.index
            ]
        outside = [s for s in real if not s[0].startswith("tests" + os.sep)]
        if outside:
            continue
        is_key = value.name in plain.get(value.callee, ()) and value.owner in (
            value.callee, f"{value.callee}.__init__"
        )
        (keyed if is_key else unset).append((value, real))
    for heading, listed in (
        (None, unset),
        ("plain-data keys (set by the files and bodies that carry them):", keyed),
    ):
        if heading:
            print(f"\n{heading}\n")
        for value, real in listed:
            where = ", ".join(f"{p}:{n}" for p, n in sorted(set(real))) or "(none)"
            print(
                f"{value.path}:{value.line}  {value.owner}({value.name}="
                f"{ast.unparse(value.default)})\n    set by: {where}"
            )
    print(
        f"census: {len(values)} defaulted values under {SRC}/; {len(unset)} set "
        f"by no file outside tests/ (or only to their default), and "
        f"{len(keyed)} plain-data keys"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(census())
