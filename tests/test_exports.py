"""The package's exports that the library itself never reaches.

An export is reached when ``natlog``'s command line (``cli.main``) or a
module's top-level code refers to it by name, directly or through the
top-level functions and classes it refers to.  Every export that is not
reached must have a user outside the library, named in ``USERS``, and
the package docstring must list it; a new export with no caller fails
here until it is deleted or its user is named.

Every string in a module's ``__all__`` names a top-level definition,
assignment or import of that module, so deleting a public name deletes
its entry too.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "natlog"

# export -> the file outside the library that uses it
USERS = {
    "align": "demos/03_lexical_knowledge.py",
    "argmax": "benchmarks/run.py",
    "distribution": "benchmarks/tracing.py",
    "enumerate_programs": "benchmarks/run.py",
    "extract_rationales": "tests/test_executor.py",
    "featurize_pair": "demos/05_introspective_revision.py",
    "grad_log_prob": "benchmarks/tracing.py",
    "group": "demos/01_relation_algebra.py",
    "label_accuracy": "tests/test_acceptance.py",
    "phrasal_prf": "tests/test_acceptance.py",
    "project": "demos/01_relation_algebra.py",
    "propose": "demos/03_lexical_knowledge.py",
    "reinforce_objective": "tests/test_acceptance.py",
    "sample": "tests/test_policy.py",
    "save_genspec": "benchmarks/run.py",
    "state_accuracy": "tests/test_acceptance.py",
}


def _trees():
    return {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in PACKAGE.glob("*.py")
    }


def _exports(root):
    """Each name the package root imports, with the module it comes from."""
    return {
        alias.asname or alias.name: node.module
        for node in root.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def _reached(trees):
    """The (module, name) of every top-level definition that the command
    line or some module's top-level code reaches."""
    graph, roots = {}, {("cli", "main")}
    for module, tree in trees.items():
        if module == "__init__":
            continue
        imported = {
            alias.asname or alias.name: (node.module, alias.name)
            for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names
        }
        for node in tree.body:
            refs = {
                imported.get(n.id, (module, n.id))
                for n in ast.walk(node)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                graph[module, node.name] = refs
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                roots |= refs
    reached, stack = set(), list(roots)
    while stack:
        key = stack.pop()
        if key not in reached:
            reached.add(key)
            stack.extend(graph.get(key, ()))
    return reached


def _unreached(trees):
    reached = _reached(trees)
    return {
        name
        for name, module in _exports(trees["__init__"]).items()
        if (module, name) not in reached
    }


def test_every_unreached_export_has_a_named_user():
    assert _unreached(_trees()) == set(USERS)


def test_each_named_user_uses_its_export():
    for name, user in USERS.items():
        text = (ROOT / user).read_text(encoding="utf-8")
        assert re.search(rf"\b{name}\b", text), (name, user)


def test_package_docstring_lists_the_unreached_exports():
    root = _trees()["__init__"]
    doc = ast.get_docstring(root)
    paragraph = doc[doc.index("Exports that no library module") :]
    listed = set(re.findall(r"``(\w+)``", paragraph))
    assert listed & set(_exports(root)) == set(USERS)


def test_a_new_export_with_no_caller_is_found():
    # the second orphan's name is also a field of a class that top-level
    # code reaches: a field is assigned, not a reference
    trees = _trees()
    trees["relations"].body += ast.parse(
        "def orphan(): return join\n"
        "def orphan_field(): return join\n"
        "class Report:\n"
        "    orphan_field: int = 0\n"
        "REPORT = Report()\n"
    ).body
    imports = "from .relations import orphan, orphan_field"
    trees["__init__"].body.append(ast.parse(imports).body[0])
    assert _unreached(trees) == set(USERS) | {"orphan", "orphan_field"}



def _listing(tree):
    """A module's ``__all__`` strings, None without one, and the names of
    its top-level definitions, assignments and imports."""
    listed, defined = None, set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            defined.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = {
                n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)
            }
            defined |= names
            if "__all__" in names:
                listed = ast.literal_eval(node.value)
    return listed, defined


def _unresolved(tree):
    """The strings of a module's ``__all__`` that name nothing it defines
    or imports at top level, in list order."""
    listed, defined = _listing(tree)
    return [name for name in listed or () if name not in defined]


def test_every_all_entry_names_a_top_level_definition():
    trees = _trees()
    assert sum(_listing(tree)[0] is not None for tree in trees.values()) == 10
    for module, tree in trees.items():
        assert _unresolved(tree) == [], module


def test_an_all_entry_that_names_nothing_is_found():
    module = ast.parse(
        "from .relations import join\n"
        "__all__ = ['join', 'gone', 'helper', 'CAP']\n"
        "CAP: int = 8\n"
        "def helper(): return join\n"
    )
    assert _unresolved(module) == ["gone"]
    # a deleted function whose name stays listed
    tree = _trees()["executor"]
    tree.body = [n for n in tree.body if getattr(n, "name", None) != "single_edits"]
    assert _unresolved(tree) == ["single_edits"]
