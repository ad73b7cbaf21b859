"""The functions and methods the benchmark's tracer wraps must stay where its
table names them, and the calls its harness makes must keep working, so a
change that deletes or moves one fails in tier-1 and not only in ``pytest
perfbench``. The tracer and the harness are read by path, unchanged."""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from hizfo.models import TinyAttentionLM
from hizfo.optimizer import OptimizerConfig, baseline_step_mezo, hizfo_step
from hizfo.tensors import Batch

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


tracing = _load("perfbench_tracing", PERFBENCH / "tracing.py")
sys.modules.setdefault("tracing", tracing)  # the name the harness imports it by
harness = _load("perfbench_harness", PERFBENCH / "harness.py")


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


@pytest.mark.parametrize("workload", sorted(harness.WORKLOADS))
def test_harness_steps_every_algorithm(workload, tmp_path):
    # the set-up path and one step of each algorithm, as the benchmark calls
    # them: the config keys, OptimizerConfig fields, FoUpdater, the
    # fo_updater= keyword it passes and the plan applied to each deep copy
    # of the set-up model must all still work
    w = harness.WORKLOADS[workload]
    setup = harness.set_up(harness.make_inputs(w, 7, tmp_path, steps=5))
    checks = harness.Checks()
    trainer = harness.Trainer(setup, 10**9, w.reference, checks)
    for a in trainer.algs:
        trainer.step(a)
    assert checks.attempted > 0 and checks.failed == 0, checks.notes



def test_harness_steps_frozen_subset_on_the_kept_prefix(tmp_path):
    # the harness passes one FoUpdater per run, so its frozen_subset steps run
    # the frozen layers once per batch and the benchmark times that path
    w = harness.WORKLOADS["lm_d4_train"]
    setup = harness.set_up(harness.make_inputs(w, 7, tmp_path, steps=5))
    checks = harness.Checks()
    trainer = harness.Trainer(setup, 10**9, w.reference, checks)
    (a,) = [a for a in trainer.algs if a.name == "frozen_subset"]
    embed, calls = a.model.layers[-1], []
    forward = embed.forward
    embed.forward = lambda x: calls.append(1) or forward(x)
    for _ in range(32):
        trainer.step(a)
    assert len(setup.batches) == 16 and len(calls) == 16
    assert checks.failed == 0, checks.notes

def test_noise_spans_count_the_elements_drawn():
    # the traced run counts rng.noise_elems from the first argument of each
    # rng.add_scaled_noise call and matches the hybrid step's phases by call
    # order: two calls per hybrid step over the ZO set (perturb, then restore
    # and update in one), four per MeZO step over the whole model
    m = TinyAttentionLM(vocab_size=10, d_model=4, depth=3, context=8, seed=0)
    fo = ("head.weight", "block2.b1", "block1.wq", "embed.position")
    m.assign(fo)
    zo_elems = sum(t.size for t in m.tensors() if t.name not in fo)
    rng = np.random.default_rng(0)
    batch = Batch(rng.integers(0, 10, size=(2, 8)), rng.integers(0, 10, size=(2, 8)))
    cfg = OptimizerConfig(eta_fo=0.05, eta_zo=0.005, epsilon=1e-3, alpha=0.1, master_seed=1)
    for step, expected in ((hizfo_step, [zo_elems] * 2), (baseline_step_mezo, [m.flat.size] * 4)):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            step(m, batch, cfg, 0)
        finally:
            tracer.uninstall()
        assert [s[4] for s in tracer.spans if s[0] == "rng.add_scaled_noise"] == expected, step.__name__
