"""Every module-level import in ``src/semfed`` is read by its module or exported in ``__all__``."""

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
