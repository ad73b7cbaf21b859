"""The demos keep working against the package they show."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hizfo

DEMOS = Path(__file__).resolve().parent.parent / "demos"
SRC = Path(hizfo.__file__).resolve().parent.parent


@pytest.mark.parametrize("path", sorted(DEMOS.glob("*.py")), ids=lambda p: p.stem)
def test_demo_imports_resolve(path):
    missing = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "hizfo":
            module = importlib.import_module(node.module)
            missing += [f"{node.module}.{a.name}" for a in node.names if not hasattr(module, a.name)]
    assert missing == []


def test_quadratic_demo_runs():
    run = subprocess.run([sys.executable, str(DEMOS / "01_quadratic_partitioning.py")],
                         env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
