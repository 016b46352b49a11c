"""No module of the package and no demo script imports a name it never
reads, and no function has a parameter it never reads.

A name is read when the module loads it anywhere, lists it in
``__all__``, or names it in a string annotation.  A parameter is read when
its function's body, nested functions included, loads it.  ``self``,
``cls``, ``__future__`` imports and names that start with ``_`` are
exempt, and so are the package root's imports, which are its exports.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "natlog"
DEMOS = ROOT / "demos"


def _loaded(node) -> set[str]:
    """The names that ``node`` loads, string annotations parsed."""
    names = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            names.add(n.id)
        annotations = []
        if isinstance(n, ast.arg):
            annotations = [n.annotation]
        elif isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations = [n.returns]
        elif isinstance(n, ast.AnnAssign):
            annotations = [n.annotation]
        for annotation in annotations:
            for c in ast.walk(annotation) if annotation else ():
                if isinstance(c, ast.Constant) and isinstance(c.value, str):
                    names |= _loaded(ast.parse(c.value, mode="eval"))
    return names


def _exempt(name: str) -> bool:
    return name in ("self", "cls") or name.startswith("_")


def _all(tree) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused(tree) -> list[str]:
    """The module's unused imports and unread parameters, as ``import
    name`` and ``function(parameter)``, in source order."""
    found = []
    loaded = _loaded(tree) | _all(tree)
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if not _exempt(name) and name not in loaded:
                    found.append(f"import {name}")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs]
            params += [a for a in (args.vararg, args.kwarg) if a is not None]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = set().union(*(_loaded(statement) for statement in body))
            name = getattr(node, "name", "lambda")
            found += [
                f"{name}({p.arg})"
                for p in params
                if not _exempt(p.arg) and p.arg not in read
            ]
    return found


def test_no_unused_import_or_unread_parameter():
    demos = sorted(DEMOS.glob("*.py"))
    assert len(demos) == 6
    for path in sorted(PACKAGE.glob("*.py")) + demos:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.stem == "__init__":
            tree.body = [
                n for n in tree.body if not isinstance(n, (ast.Import, ast.ImportFrom))
            ]
        assert unused(tree) == [], path.name


def test_an_unused_import_and_unread_parameters_are_found():
    module = ast.parse(
        "from __future__ import annotations\n"
        "import os, re as _re\n"
        "from .relations import join, project, Relation\n"
        "__all__ = ['project']\n"
        "def f(self, a, b, _c, *args, **kw) -> 'Relation':\n"
        "    def g(d):\n"
        "        return a\n"
        "    return len(args), (lambda e, f: e)\n"
    )
    assert unused(module) == [
        "import os",
        "import join",
        "f(b)",
        "f(kw)",
        "g(d)",
        "lambda(f)",
    ]
