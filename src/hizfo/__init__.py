"""Hybrid first-order/zeroth-order optimization with cost-aware partitioning.

The package splits a model's tensors into a first-order set, updated with
exact truncated backpropagation, and a zeroth-order set, updated with a
seeded in-place finite-difference estimate, selecting the split with an
exact Pareto-frontier solver over per-tensor importance scores under a
backward-FLOPs budget. Baselines (full FO, frozen subset, pure ZO) and an empirical
validation suite for the estimator and convergence-rate properties are
included.
"""

from .datasets import CharCorpus, two_moons, two_moons_batches
from .importance import ImportanceProfile, estimate_importance
from .models import (
    CostEntry,
    CostModel,
    LayeredModel,
    MLPModel,
    QuadraticModel,
    TinyAttentionLM,
    backward_truncated,
    flops_profile,
    full_gradient,
)
from .optimizer import (
    ALGORITHMS,
    FoUpdater,
    OptimizerConfig,
    RunReport,
    StepRecord,
    baseline_step_frozen_subset,
    baseline_step_full_fo,
    baseline_step_mezo,
    evaluate,
    hizfo_step,
    train,
)
from .partition import (
    PartitionPlan,
    apply_plan,
    brute_force_select,
    full_fo_plan,
    solve_dp,
)
from .rng import add_scaled_noise, regenerate_noise, splitmix64, step_seed
from .tensors import Batch, ConfigurationError, NumericOverflowError, ParamTensor
from .verify import (
    QuadraticObjective,
    QuarticObjective,
    RateResult,
    SuiteResult,
    estimator_mean,
    estimator_second_moment,
    rate_experiment,
    verify_all,
)

__version__ = "0.1.0"
