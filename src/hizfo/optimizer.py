"""The hybrid FO/ZO optimization step, baselines, and the training loop.

One hybrid step runs two forward passes: a clean pass giving the reference
loss and a pass with the ZO parameters perturbed in place by one seeded
gaussian noise vector ``u``, the single-probe estimator of MeZO.
First-order tensors are updated with the gradient of
``L_clean + alpha * L_perturbed``, zeroth-order tensors with the scaled
finite-difference direction ``(L_perturbed - L_clean) / eps * u``. The step
perturbs, runs the perturbed forward, truncated backward and FO update, and
only then restores, so the alpha term is the true gradient of the perturbed
loss. The hybrid step ends in one pass that restores and adds the ZO update,
zero when the step aborts; the noise is never stored: each pass regenerates it.

``backward_flops`` in a step record is what the model tally counts for the
step's clean truncated backward over the FO set, the budget-comparable
cost; with ``alpha > 0`` the tally also counts the perturbed-pass backward.
"""

from __future__ import annotations

import ctypes
import math
import time
from dataclasses import dataclass, field, fields

import numpy as np

from .models import LayeredModel
from .partition import PartitionPlan, apply_plan
from .rng import add_scaled_noise, step_seed
from .tensors import Batch, ConfigurationError, NumericOverflowError

ALGORITHMS = ("hizfo", "full_fo", "frozen_subset", "mezo")

# glibc returns freed heap memory above 128 KiB to the OS, so each step faults
# its ~1 MB of temporaries in again: keep it, and take arrays up to 32 MiB from the heap.
try:
    ctypes.CDLL(None).mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD
    ctypes.CDLL(None).mallopt(-3, 1 << 25)  # M_MMAP_THRESHOLD
except (AttributeError, OSError, TypeError):  # not glibc: the defaults stay
    pass


@dataclass
class OptimizerConfig:
    eta_fo: float = 2e-5
    eta_zo: float = 2e-6
    epsilon: float = 1e-3
    alpha: float = 0.1
    master_seed: int = 0
    max_steps: int = 100
    eval_interval: int = 50

    def __post_init__(self):
        if not 0 < self.epsilon < np.inf:  # negated, so that NaN fails too
            raise ConfigurationError("epsilon must be finite and > 0")
        if not (0 < self.eta_fo < np.inf and 0 < self.eta_zo < np.inf):
            raise ConfigurationError("learning rates must be finite and > 0")
        if not 0 <= self.alpha < np.inf:
            raise ConfigurationError("alpha must be finite and >= 0")


@dataclass
class StepRecord:
    step: int
    L_FO: float
    L_ZO: float
    L_total: float
    fo_grad_norm: float
    zo_estimate_norm: float
    backward_flops: int
    forward_flops: int
    wall_ns: int
    diverged: bool = False


class FoUpdater:
    """SGD at ``eta_fo`` on the FO tensors; the steps take it as ``fo_updater`` so a caller can swap it.

    One updater serves one run: ``kept`` holds the run's frozen-layer outputs by batch
    (``models._SequentialModel._forward``). A caller that writes the model's frozen
    tensors or a batch's inputs between steps passes a new updater."""

    def __init__(self, cfg: OptimizerConfig):
        self.cfg = cfg
        self.kept = {}

    @np.errstate(over="ignore", invalid="ignore")
    def apply(self, tensors, grads) -> None:
        for t in tensors:
            t.data -= self.cfg.eta_fo * grads[t.name]


def _grad_norm(grads) -> float:
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.sqrt(sum(float(g @ g) for g in grads)))


def _record(step, lfo, lzo, ltotal, gnorm, znorm, bwd, fwd, t0, diverged=False):
    return StepRecord(step, lfo, lzo, ltotal, gnorm, znorm, int(bwd), int(fwd),
                      time.perf_counter_ns() - t0, diverged)


def _diverged(step, model, fwd_before, t0, lfo=float("nan"), lzo=0.0):
    """The record of a step aborted by a non-finite forward pass."""
    return _record(step, lfo, lzo, float("nan"), 0.0, 0.0, 0,
                   model.tally.forward - fwd_before, t0, diverged=True)


def hizfo_step(
    model: LayeredModel,
    batch: Batch,
    cfg: OptimizerConfig,
    step_index: int,
    fo_updater: FoUpdater | None = None,
) -> StepRecord:
    """One hybrid step over the model's FO/ZO split, as ``assign`` last set it."""
    t0 = time.perf_counter_ns()
    fo, fo_names, zo = model.fo, model.fo_names, [model.zo]
    updater = fo_updater or FoUpdater(cfg)
    fwd_before, bwd_before = model.tally.forward, model.tally.backward

    try:
        loss_clean, cache_clean = model.forward_with_cache(batch)
    except NumericOverflowError:
        return _diverged(step_index, model, fwd_before, t0)
    grads = model.backward_from_cache(batch, cache_clean, fo_names)
    del cache_clean  # the perturbed pass needs only its own activations
    bwd = model.tally.backward - bwd_before

    seed = step_seed(cfg.master_seed, step_index)
    eps = cfg.epsilon
    update = 0.0  # the ZO update's noise multiple, none if the step aborts
    add_scaled_noise(zo, seed, +eps)
    try:
        loss_pert, cache_pert = model.forward_with_cache(batch)
        if cfg.alpha != 0.0 and fo_names:
            # still perturbed: layers read their weights at backward time
            for name, g in model.backward_from_cache(batch, cache_pert, fo_names).items():
                grads[name] = grads[name] + cfg.alpha * g
        updater.apply(fo, grads)
        coef = (loss_pert - loss_clean) / eps
        update = -cfg.eta_zo * coef
    except NumericOverflowError:
        return _diverged(step_index, model, fwd_before, t0, loss_clean, float("nan"))
    finally:
        # restore and update in one pass; the next forward reports an overflow
        sq = add_scaled_noise(zo, seed, update - eps)
    return _record(step_index, loss_clean, loss_pert, loss_clean + cfg.alpha * loss_pert,
                   _grad_norm(grads[name] for name in fo_names), abs(coef) * math.sqrt(sq), bwd,
                   model.tally.forward - fwd_before, t0)


def baseline_step_full_fo(
    model: LayeredModel, batch: Batch, cfg: OptimizerConfig, step_index: int = 0,
    fo_updater: FoUpdater | None = None,
) -> StepRecord:
    """Plain full backprop on every tensor; ZO fields stay zero."""
    tensors = model.tensors()
    return _fo_step(model, batch, cfg, step_index, fo_updater, tensors, [t.name for t in tensors])


def baseline_step_frozen_subset(
    model: LayeredModel, batch: Batch, cfg: OptimizerConfig, plan: PartitionPlan,
    step_index: int = 0, fo_updater: FoUpdater | None = None,
) -> StepRecord:
    """First-order updates on the model's FO set, after applying `plan` if the model does not
    hold it. The frozen layers below the deepest FO layer run once per batch and split in
    one `fo_updater`, whose ``kept`` holds their outputs; without one, every step runs them."""
    if set(plan.fo_set) != set(model.fo_names):
        apply_plan(model, plan)
    kept = fo_updater.kept if fo_updater else None
    return _fo_step(model, batch, cfg, step_index, fo_updater, model.fo, model.fo_names, kept)


def _fo_step(model, batch, cfg, step_index, fo_updater, tensors, names, kept=None) -> StepRecord:
    """First-order update of `tensors`, called `names`, from one truncated backward."""
    t0 = time.perf_counter_ns()
    updater = fo_updater or FoUpdater(cfg)
    fwd_before, bwd_before = model.tally.forward, model.tally.backward
    try:
        loss, cache = model.forward_with_cache(batch, kept)
    except NumericOverflowError:
        return _diverged(step_index, model, fwd_before, t0)
    grads = model.backward_from_cache(batch, cache, names)
    updater.apply(tensors, grads)
    return _record(step_index, loss, 0.0, loss, _grad_norm(grads.values()), 0.0,
                   model.tally.backward - bwd_before, model.tally.forward - fwd_before, t0)


def baseline_step_mezo(
    model: LayeredModel, batch: Batch, cfg: OptimizerConfig, step_index: int = 0,
) -> StepRecord:
    """Pure zeroth order: seeded central difference over all parameters.

    The step record's ``L_FO`` column holds the midpoint of the two probe
    losses (no clean pass is run) and ``L_ZO`` stays zero. The draw is laid
    over ``flat`` in its layout order: tensor order on an unsplit model, as
    every caller runs it, and ZO tensors first on a model that ``assign`` split.
    """
    t0 = time.perf_counter_ns()
    runs = [model.flat]
    seed = step_seed(cfg.master_seed, step_index)
    eps = cfg.epsilon
    fwd_before = model.tally.forward
    add_scaled_noise(runs, seed, +eps)
    shift = eps  # the noise multiple the parameters carry
    try:
        loss_plus = model.forward(batch)
        add_scaled_noise(runs, seed, -2 * eps)
        shift = -eps
        loss_minus = model.forward(batch)
    except NumericOverflowError:
        return _diverged(step_index, model, fwd_before, t0)
    finally:
        add_scaled_noise(runs, seed, -shift)  # restore, also when the step aborts
    coef = (loss_plus - loss_minus) / (2 * eps)
    sq = add_scaled_noise(runs, seed, -cfg.eta_zo * coef)
    mid = 0.5 * (loss_plus + loss_minus)
    return _record(step_index, mid, 0.0, mid, 0.0,
                   abs(coef) * math.sqrt(sq), 0, model.tally.forward - fwd_before, t0)


@dataclass
class RunReport:
    algorithm: str
    steps_run: int
    diverged: bool
    final_eval_loss: float | None
    eval_history: list = field(default_factory=list)   # (step, eval_loss)
    records: list = field(default_factory=list)
    total_backward_flops: int = 0
    total_forward_flops: int = 0
    wall_total_ns: int = 0
    memory_proxy: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """Every field but the step records, which steps.csv holds. JSON has
        no inf: a diverged run's final eval loss is written as None (null)."""
        d = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "records"}
        loss = self.final_eval_loss
        d["final_eval_loss"] = loss if loss is not None and np.isfinite(loss) else None
        return d


def evaluate(model: LayeredModel, batches) -> float:
    return float(np.mean([model.forward(b) for b in batches]))


def _evaluate_or_none(model: LayeredModel, batches) -> float | None:
    """The eval loss, or None when a forward pass or the mean overflows: the run diverged."""
    try:
        with np.errstate(over="ignore"):
            loss = evaluate(model, batches)
    except NumericOverflowError:
        return None
    return loss if np.isfinite(loss) else None


def train(
    model: LayeredModel,
    data,
    cfg: OptimizerConfig,
    plan: PartitionPlan | None = None,
    algorithm: str = "hizfo",
    eval_batches=None,
) -> RunReport:
    """Run one deterministic optimization loop and collect step records; a
    forward pass that overflows, in a step or an eval, ends the run as diverged."""
    if algorithm not in ALGORITHMS:
        raise ConfigurationError(f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}")
    batches = list(data)
    if cfg.max_steps > 0 and not batches:
        raise ConfigurationError("training needs at least one batch")
    if eval_batches is not None and len(eval_batches) == 0:
        raise ConfigurationError("evaluation needs at least one batch")
    if algorithm in ("hizfo", "frozen_subset"):
        if plan is None:
            raise ConfigurationError(f"{algorithm} requires a partition plan")
        apply_plan(model, plan)

    updater = FoUpdater(cfg)
    # the step functions are looked up per call, so wrappers installed on
    # this module's attributes see every step
    step_fn = {
        "hizfo": lambda b, s: hizfo_step(model, b, cfg, s, fo_updater=updater),
        "full_fo": lambda b, s: baseline_step_full_fo(model, b, cfg, s, fo_updater=updater),
        "frozen_subset": lambda b, s: baseline_step_frozen_subset(model, b, cfg, plan, s, fo_updater=updater),
        "mezo": lambda b, s: baseline_step_mezo(model, b, cfg, s),
    }[algorithm]
    records: list[StepRecord] = []
    eval_history: list[tuple[int, float]] = []
    diverged = False
    t_start = time.perf_counter_ns()

    for step in range(cfg.max_steps):
        rec = step_fn(batches[step % len(batches)], step)
        records.append(rec)
        if rec.diverged:
            diverged = True
            break
        if eval_batches and cfg.eval_interval > 0 and (step + 1) % cfg.eval_interval == 0:
            loss = _evaluate_or_none(model, eval_batches)
            if loss is None:
                diverged = True
                break
            eval_history.append((step + 1, loss))

    final_eval = None
    if eval_batches is not None:
        # a periodic eval after the last step already saw the final weights
        if not diverged and (not eval_history or eval_history[-1][0] != len(records)):
            loss = _evaluate_or_none(model, eval_batches)
            diverged = loss is None
            if not diverged:
                eval_history.append((len(records), loss))
        final_eval = float("inf") if diverged else eval_history[-1][1]

    # tensors whose activations the gradient tape must keep
    taped = {"full_fo": model.tensors(), "mezo": []}.get(algorithm, model.fo)
    return RunReport(
        algorithm=algorithm,
        steps_run=len(records),
        diverged=diverged,
        final_eval_loss=final_eval,
        eval_history=eval_history,
        records=records,
        total_backward_flops=int(sum(r.backward_flops for r in records)),
        total_forward_flops=int(sum(r.forward_flops for r in records)),
        wall_total_ns=time.perf_counter_ns() - t_start,
        memory_proxy={"tape_params": int(sum(t.size for t in taped))},
    )
