"""Hygiene gates over ``src/semfed``, parsed with ``ast``.

Every module-level import is read by its module or exported in
``__all__``, and every top-level private function or class is read by
some module other than through its own definition.
"""

import ast
from pathlib import Path

import semfed

# Kept importable under these names for benchmark tools that wrap them; delete
# an entry when its import goes.
SHIMS = {
    ("protocol", "encode"),
    ("protocol", "normalize"),
    ("cli", "transcript_to_dict"),
}


def unused_imports(tree: ast.Module) -> set[str]:
    """Names bound by top-level imports that the module never loads nor lists in __all__."""
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {(a.asname or a.name).split(".")[0] for a in node.names}
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= set(ast.literal_eval(node.value))
    return bound - read - exported


def test_src_modules_have_no_unused_imports():
    found = set()
    for path in sorted(Path(semfed.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found |= {(path.stem, name) for name in unused_imports(tree)}
    assert found - SHIMS == set(), "unused imports"
    assert SHIMS - found == set(), "allow-list entries that are no longer unused imports"


def test_the_check_sees_an_unused_import():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\nimport sys as system\nfrom json import dumps, loads\n"
        "__all__ = ['loads']\n"
        "def f():\n    return system.argv\n"
    )
    assert unused_imports(tree) == {"os", "dumps"}


def reads(node: ast.AST) -> set[str]:
    """Names that ``node`` loads, as plain names, attributes or ``from`` imports."""
    found = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            found.add(n.id)
        elif isinstance(n, ast.Attribute):
            found.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            found |= {a.name for a in n.names}
    return found


def orphan_helpers(modules: dict[str, ast.Module]) -> set[tuple[str, str]]:
    """(module, name) of top-level private defs that no other statement reads."""
    readers: dict[str, set[tuple[str, int]]] = {}
    for module, tree in modules.items():
        for index, node in enumerate(tree.body):
            for name in reads(node):
                readers.setdefault(name, set()).add((module, index))
    return {
        (module, node.name)
        for module, tree in modules.items()
        for index, node in enumerate(tree.body)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and not readers.get(node.name, set()) - {(module, index)}
    }


def test_src_modules_have_no_orphan_private_helpers():
    modules = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in sorted(Path(semfed.__file__).parent.glob("*.py"))
    }
    assert orphan_helpers(modules) == set(), "private helpers that no module reads"


def test_the_check_sees_an_orphan_helper():
    source = {
        "a": "def _used():\n    pass\ndef _recursive(n):\n    return _recursive(n - 1)\n"
        "class _Lonely:\n    pass\ndef __getattr__(name):\n    pass\n",
        "b": "from a import _used\nfrom . import a\ndef _caller():\n    return a._by_attr()\n"
        "def _by_attr():\n    pass\n",
    }
    modules = {name: ast.parse(text) for name, text in source.items()}
    assert orphan_helpers(modules) == {("a", "_recursive"), ("a", "_Lonely"), ("b", "_caller")}
