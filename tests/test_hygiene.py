"""Static hygiene of the sources.

No module imports a name it never uses, no private module-level name of
the package goes unreferenced, every public function, class and method
is either reached from the library or the benchmark, or listed as
user-facing API, no test sets mpmath's global precision, and only
``radial`` builds Gauss rules.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "hypverify").glob("*.py"))
BENCHMARK = sorted((ROOT / "perfbench").glob("*.py"))
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


def mpmath_precision_assignments(source: str) -> list[str]:
    """Assignments to an attribute named ``dps`` or ``prec`` (mpmath's
    global precision, ``mp.dps`` or ``mp.mp.dps``).  Such a setting
    outlives the test that makes it; ``mp.workdps`` restores it."""
    tree = ast.parse(source)
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Attribute) and target.attr in ("dps", "prec"):
                out.append(f"{ast.unparse(target)} (line {node.lineno})")
    return out


def test_checker_flags_an_mpmath_precision_assignment():
    source = (
        "mp.mp.dps = 30\nmpmath.mp.prec += 10\nmp.dps: int = 20\n"
        "with mp.workdps(30):\n    x = mp.mpf(1)\ndps = 15\n"
    )
    assert mpmath_precision_assignments(source) == [
        "mp.mp.dps (line 1)",
        "mpmath.mp.prec (line 2)",
        "mp.dps (line 3)",
    ]


@pytest.mark.parametrize("path", sorted((ROOT / "tests").glob("*.py")), ids=lambda p: p.name)
def test_no_test_sets_mpmath_precision(path):
    assert mpmath_precision_assignments(path.read_text()) == []


def gauss_rule_constructors(source: str) -> list[str]:
    """Gauss-rule constructors a module reaches: scipy's ``roots_*`` and
    numpy's ``leggauss``, whether imported by name or read as an
    attribute."""

    def constructor(name: str) -> bool:
        return name.startswith("roots_") or name == "leggauss"

    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            out.extend((node.lineno, a.name) for a in node.names if constructor(a.name))
        elif isinstance(node, ast.Attribute) and constructor(node.attr):
            out.append((node.lineno, node.attr))
    return [f"{name} (line {line})" for line, name in sorted(out)]


def test_checker_flags_a_gauss_rule_constructor():
    source = (
        "from scipy.special import gamma, roots_jacobi\n"
        "import scipy.special as sps\nx = sps.roots_legendre(8)\n"
        "from numpy.polynomial.legendre import leggauss, legvander\n"
        "y = np.polynomial.legendre.leggauss(4)\nroots = 3\n"
    )
    assert gauss_rule_constructors(source) == [
        "roots_jacobi (line 1)",
        "roots_legendre (line 3)",
        "leggauss (line 4)",
        "leggauss (line 5)",
    ]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "radial.py"],
                         ids=lambda p: p.name)
def test_only_radial_builds_gauss_rules(path):
    # every rule comes from radial._gauss_jacobi, cached and read-only
    assert gauss_rule_constructors(path.read_text()) == []


def _private_definitions(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, node


def _references(trees) -> list:
    """(referenced name, node) for every Name load, attribute and
    ``from ... import`` name in the given trees."""
    refs = []
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                refs.append((node.id, node))
            elif isinstance(node, ast.Attribute):
                refs.append((node.attr, node))
            elif isinstance(node, ast.ImportFrom):
                refs.extend((alias.name, node) for alias in node.names)
    return refs


def orphaned_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level names starting with one underscore that no code refers
    to outside their own definition, over all the given modules."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    refs = _references(trees.values())
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


# Public names that nothing in the library or the benchmark calls, kept
# on purpose as API for users of the package.
USER_API = [
    "geometry.py: HalfSpacePoint.height",  # the x1 coordinate, by its name
    "geometry.py: halfspace_to_ball",  # inverse of ball_to_halfspace
    "geometry.py: volume_density",  # the sinh^(n-1) factor of the volume
    "exact.py: LaurentElement.coefficient",  # read one exact coefficient
    "kernels.py: frac_resolvent_h3",  # the Bessel-family kernel on H^3
    "kernels.py: fractional_green_h3",  # and its zero-shift limit
    "specialfn.py: harish_chandra_c",  # the c-function itself
]


def _public_definitions(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def unreferenced_public_names(library: dict[str, str], others: list[str]) -> list[str]:
    """Public functions, classes and methods of the library modules that no
    library module (outside their own definition) and none of the other
    sources refer to.  A method counts as referenced wherever an
    attribute of its name is."""
    trees = {name: ast.parse(src) for name, src in library.items()}
    refs = _references([*trees.values(), *(ast.parse(src) for src in others)])
    out = []
    for module, tree in trees.items():
        for name, definition in _public_definitions(tree):
            short = name.rsplit(".", 1)[-1]
            inside = {id(n) for n in ast.walk(definition)}
            if not any(ref == short and id(node) not in inside for ref, node in refs):
                out.append(f"{module}: {name}")
    return sorted(out)


def test_checker_flags_an_unreferenced_public_name():
    library = {
        "a.py": "def f():\n    return f()\ndef g():\n    return 0\n"
        "class C:\n    def m(self):\n        return self.n()\n"
        "    def n(self):\n        return 0\n",
        "b.py": "from a import g\n",
    }
    assert unreferenced_public_names(library, ["x.C()\n"]) == ["a.py: C.m", "a.py: f"]
    assert unreferenced_public_names(library, ["x.f(C().m())\n"]) == []


def test_public_names_are_reached_or_user_api():
    # __init__.py only re-exports, and the tests do not count as callers
    library = {p.name: p.read_text() for p in SOURCES if p.name != "__init__.py"}
    others = [p.read_text() for p in BENCHMARK]
    assert unreferenced_public_names(library, others) == sorted(USER_API)
