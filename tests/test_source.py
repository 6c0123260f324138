"""Static checks of the package source."""

import ast
import re
import sys
from pathlib import Path

import pytest

import bbgky_zne

PACKAGE = Path(bbgky_zne.__file__).parent


def unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports that the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_unused_import_detector():
    source = (
        "from __future__ import annotations\n"
        "import os\nimport sys\nfrom a import b, c\nprint(sys.argv, c)\n"
    )
    assert unused_imports(source) == ["os (line 2)", "b (line 4)"]


def test_no_unused_module_level_imports():
    found = {
        path.name: unused_imports(path.read_text())
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }
    assert {name: unused for name, unused in found.items() if unused} == {}


def foreign_imports(source: str, allowed: set[str]) -> list[str]:
    """Absolute imports anywhere in ``source`` whose top-level module is not
    in ``allowed``; relative imports are the package's own."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [
            f"{name} (line {node.lineno})" for name in names if name.split(".")[0] not in allowed
        ]
    return found


def declared_dependencies() -> set[str]:
    """Import names of the runtime dependencies in pyproject.toml."""
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text())["project"]
    return {
        re.split(r"[\s<>=!~;\[]", dep, maxsplit=1)[0].lower().replace("-", "_")
        for dep in project["dependencies"]
    }


def test_foreign_import_detector():
    source = (
        "import os\nimport scipy.linalg\nfrom numpy import linalg\nfrom . import pauli\n"
        "from networkx.algorithms import x\ndef f():\n    import hypothesis\n"
    )
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    assert foreign_imports(source, allowed) == [
        "scipy.linalg (line 2)", "networkx.algorithms (line 5)", "hypothesis (line 7)"
    ]


def test_package_imports_only_stdlib_itself_and_declared_dependencies():
    allowed = set(sys.stdlib_module_names) | {"bbgky_zne"} | declared_dependencies()
    found = {
        path.name: foreign_imports(path.read_text(), allowed)
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert {name: foreign for name, foreign in found.items() if foreign} == {}


def unreferenced_private_functions(sources: dict[str, str]) -> list[str]:
    """Module-level functions whose names start with one underscore and that
    no module of ``sources`` (name -> text) reads by name or attribute."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    used = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    return [
        f"{name}: {node.name} (line {node.lineno})"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and node.name not in used
    ]


def test_unreferenced_private_function_detector():
    sources = {
        "a.py": "def _used():\n    pass\ndef _left():\n    pass\ndef __dunder__():\n    pass\n",
        "b.py": "from a import _used\nimport a\nx = a._used() or _used\n",
    }
    assert unreferenced_private_functions(sources) == ["a.py: _left (line 3)"]


def test_every_private_function_is_referenced():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced_private_functions(sources) == []


def environment_reads(source: str) -> list[str]:
    """Reads of the process environment in ``source``: ``os.environ``,
    ``os.environb``, ``os.getenv`` and ``os.getenvb``, through ``os`` or an
    alias of it, or imported by name from ``os``."""
    names = {"environ", "environb", "getenv", "getenvb"}
    tree = ast.parse(source)
    modules = {"os"} | {
        alias.asname
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name == "os" and alias.asname
    }
    found = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in names
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        ):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [(node.lineno, f"os.{a.name}") for a in node.names if a.name in names]
    return [f"{name} (line {line})" for line, name in sorted(found)]


def test_environment_read_detector():
    source = (
        "import os\nimport os as system\nfrom os import getenv, path\n"
        "a = os.environ['HOME']\nb = system.getenv('X')\nc = os.path.join('a')\n"
        "def f():\n    return os.environb.get(b'Y')\nd = environ = 1\n"
    )
    assert environment_reads(source) == [
        "os.getenv (line 3)", "os.environ (line 4)", "system.getenv (line 5)",
        "os.environb (line 8)",
    ]


def test_package_reads_no_environment_variables():
    """Every setting comes from the config file or the command line, so a
    rerun with the same inputs gives the same bytes in any environment."""
    found = {
        path.name: environment_reads(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))
    }
    assert {name: reads for name, reads in found.items() if reads} == {}


def dense_builders(source: str) -> list[str]:
    """Reads of ``kron`` (as ``np.kron``, ``numpy.kron`` or imported by
    name) and of ``dense_pauli`` in ``source``: the 2^n x 2^n builders that
    only the test oracles may use."""
    names = {"kron", "dense_pauli"}
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in names:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.Name) and node.id in names:
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.ImportFrom):
            found += [(node.lineno, a.name) for a in node.names if a.name in names]
    return [f"{name} (line {line})" for line, name in sorted(found)]


def test_dense_builder_detector():
    source = (
        "import numpy as np\nfrom numpy import kron\nfrom .pauli import dense_pauli\n"
        "a = np.kron(x, y)\nb = kron(x, y)\nc = pauli.dense_pauli(s, 2)\nd = np.dot(x, y)\n"
    )
    assert dense_builders(source) == [
        "kron (line 2)", "dense_pauli (line 3)", "kron (line 4)", "kron (line 5)",
        "dense_pauli (line 6)",
    ]


def test_package_builds_no_dense_pauli_matrices():
    """The exact reference works in the initial state's sector; the dense
    2^n x 2^n path lives on in tests/oracles.py as its oracle only."""
    found = {path.name: dense_builders(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: uses for name, uses in found.items() if uses} == {}
