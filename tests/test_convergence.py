"""Slow convergence regressions for the hybrid optimizer."""

import numpy as np

from hizfo.models import RosenbrockModel
from hizfo.optimizer import FoUpdater, OptimizerConfig, hizfo_step
from hizfo.partition import PartitionPlan, apply_plan


def test_rosenbrock_hybrid_reaches_valley_floor():
    # x first-order, y zeroth-order, from the classic start (-1.2, 1);
    # regression threshold frozen from the tuned run: loss < 1e-2 well
    # within a 50k-step budget (hits around step 13k at these rates)
    model = RosenbrockModel()
    apply_plan(model, PartitionPlan(["x"], ["y"], 0.5, 0.0, 0, 0.0))
    cfg = OptimizerConfig(eta_fo=2e-3, eta_zo=2e-4, epsilon=1e-3, alpha=0.1, master_seed=1)
    updater = FoUpdater(cfg)
    batch = model.dummy_batch()
    best = np.inf
    hit_step = None
    for step in range(20_000):
        rec = hizfo_step(model, batch, cfg, step, fo_updater=updater)
        assert not rec.diverged
        if rec.L_FO < best:
            best = rec.L_FO
            if best < 1e-2:
                hit_step = step
                break
    assert hit_step is not None and hit_step < 50_000, f"best loss {best:.3e}"
