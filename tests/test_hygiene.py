"""Static hygiene of the sources.

No module imports a name it never uses, and no private module-level
name of the package goes unreferenced.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "hypverify").glob("*.py"))
# the package __init__ imports names only to re-export them
FILES = sorted(
    p for p in [*SOURCES, *(ROOT / "tests").glob("*.py")] if p.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_checker_flags_an_unused_import():
    assert unused_imports("import math\nfrom os import path, sep\nprint(sep)\n") == [
        "math (line 1)",
        "path (line 2)",
    ]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def _private_definitions(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, node


def orphaned_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level names starting with one underscore that no code refers
    to outside their own definition, over all the given modules."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    refs = []  # (referenced name, node)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                refs.append((node.id, node))
            elif isinstance(node, ast.Attribute):
                refs.append((node.attr, node))
            elif isinstance(node, ast.ImportFrom):
                refs.extend((alias.name, node) for alias in node.names)
    out = []
    for module, tree in trees.items():
        for name, definition in _private_definitions(tree):
            if not name.startswith("_") or name.startswith("__"):
                continue
            inside = {id(n) for n in ast.walk(definition)}
            if not any(ref == name and id(node) not in inside for ref, node in refs):
                out.append(f"{module}: {name}")
    return sorted(out)


def test_checker_flags_an_orphaned_private_name():
    sources = {
        "a.py": "_A = 1\n_B = 2\n__all__ = []\n"
        "def _f():\n    return _f()\ndef g():\n    return _B + b._h()\n",
        "b.py": "from a import _C\ndef _h():\n    return 0\n",
    }
    assert orphaned_private_names(sources) == ["a.py: _A", "a.py: _f"]


def test_no_orphaned_private_names():
    assert orphaned_private_names({p.name: p.read_text() for p in SOURCES}) == []
