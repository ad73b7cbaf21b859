"""The demos and README's quickstart keep working against the package they show."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import hizfo

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"
SRC = Path(hizfo.__file__).resolve().parent.parent


def python_source(path):
    """A demo's text, or the ```python blocks of a Markdown file."""
    text = path.read_text()
    if path.suffix != ".md":
        return text
    return "\n".join(re.findall(r"^```python\n(.*?)^```", text, flags=re.M | re.S))


@pytest.mark.parametrize("path", sorted(DEMOS.glob("*.py")) + [ROOT / "README.md"], ids=lambda p: p.stem)
def test_demo_imports_resolve(path):
    source = python_source(path)
    assert "hizfo" in source
    missing = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "hizfo":
            module = importlib.import_module(node.module)
            missing += [f"{node.module}.{a.name}" for a in node.names if not hasattr(module, a.name)]
    assert missing == []


def test_quadratic_demo_runs():
    run = subprocess.run([sys.executable, str(DEMOS / "01_quadratic_partitioning.py")],
                         env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
