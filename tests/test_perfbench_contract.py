"""The functions and methods the benchmark's tracer wraps must stay where its
table names them, so a change that deletes or moves one fails in tier-1 and
not only in ``pytest perfbench``. The tracer is read by path, unchanged."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("kind,module,owner,attr", tracing.WRAPPED, ids=[w[0] for w in tracing.WRAPPED])
def test_wrapped_target_resolves(kind, module, owner, attr):
    home = importlib.import_module(module)
    if owner is None:
        assert callable(getattr(home, attr, None)), f"{module}.{attr}"
    else:
        cls = getattr(home, owner)
        # the tracer patches the class's own attribute, not an inherited one
        assert callable(vars(cls).get(attr)), f"{module}.{owner}.{attr}"


def _snapshot():
    """Every attribute of every hizfo module and of every wrapped class."""
    objs = [m for n, m in sys.modules.items() if n == "hizfo" or n.startswith("hizfo.")]
    objs += [getattr(sys.modules[mod], owner) for _, mod, owner, _ in tracing.WRAPPED if owner]
    return [(obj, dict(vars(obj))) for obj in objs]


def _changed(snapshot):
    return [(obj, k) for obj, attrs in snapshot for k, v in attrs.items() if vars(obj).get(k) is not v]


def test_install_then_uninstall_puts_every_attribute_back():
    for _, module, _, _ in tracing.WRAPPED:
        importlib.import_module(module)
    before = _snapshot()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        patched = {(obj, k) for obj, k in _changed(before)}
    finally:
        tracer.uninstall()
    for _, module, owner, attr in tracing.WRAPPED:
        home = sys.modules[module]
        assert ((getattr(home, owner) if owner else home), attr) in patched, (module, owner, attr)
    assert _changed(before) == []
