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
caller that sets the forwarder is.  Values
of a plain-data spec (a ``ScenarioSpec`` key read from JSON) are set by the
files that carry them, which the scan cannot see.  The last line is the
summary the standing diet reports before and after.
"""

from __future__ import annotations

import ast
import os
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

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


def census() -> int:
    values = collect_values()
    by_keyword, by_position = collect_setters()
    dataclass_fields = {v.name for v in values if v.owner == v.callee and "." not in v.owner}
    unset = 0
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
        unset += 1
        where = ", ".join(f"{p}:{n}" for p, n in sorted(set(real))) or "(none)"
        print(
            f"{value.path}:{value.line}  {value.owner}({value.name}="
            f"{ast.unparse(value.default)})\n    set by: {where}"
        )
    print(
        f"census: {len(values)} defaulted values under {SRC}/; {unset} set by "
        f"no file outside tests/ (or only to their default)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(census())
