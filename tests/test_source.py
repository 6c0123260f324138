"""Static checks of the package source."""

import ast
from pathlib import Path

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
