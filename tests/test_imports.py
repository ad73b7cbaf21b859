"""Every module of the package uses each name it imports."""

import ast
from pathlib import Path

import hizfo

PACKAGE = Path(hizfo.__file__).parent


def unused_imports(source: str) -> list[str]:
    """Names bound by an import in `source` that no expression reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.add(alias.asname or alias.name)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name not in used)


def test_checker_flags_an_unused_import():
    source = "import os\nimport sys as system\nfrom json import dumps, loads\nprint(loads, system)\n"
    assert unused_imports(source) == ["dumps", "os"]


def test_no_module_imports_a_name_it_never_uses():
    # __init__.py imports names to re-export them
    found = {
        path.name: names
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py" and (names := unused_imports(path.read_text()))
    }
    assert found == {}
