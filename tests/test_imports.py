"""Hygiene gates over ``src/semfed``, parsed with ``ast``.

Every module-level import is read by its module or exported in
``__all__``; every top-level private function or class is read by
some module other than through its own definition; every private method
is read outside its own body, and every private attribute stored on
``self`` is loaded somewhere.
"""

import ast
from collections import Counter
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


def private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


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
        and private(node.name)
        and not readers.get(node.name, set()) - {(module, index)}
    }


def src_modules() -> dict[str, ast.Module]:
    return {
        path.stem: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in sorted(Path(semfed.__file__).parent.glob("*.py"))
    }


def test_src_modules_have_no_orphan_private_helpers():
    assert orphan_helpers(src_modules()) == set(), "private helpers that no module reads"


def test_the_check_sees_an_orphan_helper():
    source = {
        "a": "def _used():\n    pass\ndef _recursive(n):\n    return _recursive(n - 1)\n"
        "class _Lonely:\n    pass\ndef __getattr__(name):\n    pass\n",
        "b": "from a import _used\nfrom . import a\ndef _caller():\n    return a._by_attr()\n"
        "def _by_attr():\n    pass\n",
    }
    modules = {name: ast.parse(text) for name, text in source.items()}
    assert orphan_helpers(modules) == {("a", "_recursive"), ("a", "_Lonely"), ("b", "_caller")}


def loads(node: ast.AST) -> Counter[str]:
    """How often ``node`` reads each name, as a plain name or an attribute.

    An augmented assignment's target counts as a read.
    """
    found: Counter[str] = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            found[n.id] += 1
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            found[n.attr] += 1
        elif isinstance(n, ast.AugAssign) and isinstance(n.target, ast.Attribute):
            found[n.target.attr] += 1
    return found


def orphan_members(modules: dict[str, ast.Module]) -> set[tuple[str, str, str]]:
    """(module, class, name) of private methods that no statement outside
    their own body reads, and of private attributes stored on ``self``
    that nothing loads."""
    total: Counter[str] = Counter()
    for tree in modules.values():
        total += loads(tree)
    found = set()
    for module, tree in modules.items():
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and private(node.name):
                    if total[node.name] == loads(node)[node.name]:
                        found.add((module, cls.name, node.name))
            for n in ast.walk(cls):
                if (
                    isinstance(n, ast.Attribute)
                    and isinstance(n.ctx, ast.Store)
                    and isinstance(n.value, ast.Name)
                    and n.value.id == "self"
                    and private(n.attr)
                    and not total[n.attr]
                ):
                    found.add((module, cls.name, n.attr))
    return found


def test_src_modules_have_no_orphan_private_members():
    assert orphan_members(src_modules()) == set(), "private methods or attributes that nothing reads"


def test_the_check_sees_an_orphan_member():
    source = {
        "a": "class Index:\n"
        "    def __init__(self):\n"
        "        self._cache = self._ordered = None\n"
        "        self._count = 0\n"
        "        self.__mangled = 1\n"
        "    def _build(self):\n"
        "        self._count += 1\n"
        "        return self._cache\n"
        "    def _recursive(self, n):\n"
        "        return self._recursive(n - 1)\n"
        "    def _lonely(self):\n"
        "        pass\n"
        "    def __len__(self):\n"
        "        return 0\n",
        "b": "from a import Index\ndef f(index):\n    return index._build()\n",
    }
    modules = {name: ast.parse(text) for name, text in source.items()}
    assert orphan_members(modules) == {
        ("a", "Index", "_ordered"),
        ("a", "Index", "_recursive"),
        ("a", "Index", "_lonely"),
    }
