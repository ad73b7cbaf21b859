"""The mutation catalogue of tier 1, and its runner.

Each live entry puts one fault into the program by exact string
replacement: one or more ``(old, new)`` pairs in one file, each ``old``
occurring exactly once there. ``killers`` are the test functions that the
last kill matrix saw fail under the mutant. An entry with one killer says
in ``pinned`` why one test is enough. Retired entries name mutants whose
code is gone, with the reason.

    python3 tools/mutants.py [--matrix] [ID ...]

The runner copies the tracked files of the working tree (``git ls-files``)
to a temporary directory and runs tier 1 there unmutated; it stops if that
run fails. It then applies one mutant at a time, the named ones or all:

* by default it runs the entry's killers first and the full tier 1 with
  ``-x`` only if they pass, and prints ``killed``, ``survived``,
  ``timeout`` or ``stale`` (an ``old`` that no longer occurs exactly once);
* ``--matrix`` runs the full tier 1 without ``-x`` under every mutant and
  prints each mutant's failing tests, then each test function's kills, the
  kills no other test makes, and its call time in the unmutated run.

Every run sets ``PYTHONPATH`` to the copy's ``src`` only, checks that
``hizfo`` imports from the copy, sets ``HZFO_THREADS=1`` and passes
``-p no:cacheprovider``. A run that outlives its time limit is killed with
its process group and reported as ``timeout``. Nothing is written under the
working tree. The exit status is 0 when every selected mutant is killed.
"""

from __future__ import annotations

import argparse
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FRESHNESS = "--ignore=tests/test_mutants.py"  # it reads the catalogue's old strings, which a mutant removes
TIER1 = ("-q", "-p", "no:cacheprovider", "--continue-on-collection-errors", "-o", "junit_duration_report=call")


@dataclass(frozen=True)
class Mutant:
    id: str
    path: str
    pairs: tuple  # ((old, new), ...), applied in order
    description: str
    killers: tuple = ()  # test functions, as node ids under tests/ without parameters
    pinned: str = ""  # why a single killer is enough


@dataclass(frozen=True)
class Retired:
    id: str
    description: str
    reason: str


MODELS, OPT, PART = "src/hizfo/models.py", "src/hizfo/optimizer.py", "src/hizfo/partition.py"
RNG, IMP, DATA, VERIFY = "src/hizfo/rng.py", "src/hizfo/importance.py", "src/hizfo/datasets.py", "src/hizfo/verify.py"
ZO_UPDATE = "update = -cfg.eta_zo * coef"
SCORE = "raw = {n: float(-(last_update[n] @ grads[n])) for n in names}"
FROZEN_PLAN = "if set(plan.fo_set) != set(model.fo_names):"
RESET = "    _GEN.bit_generator.state = _START  # the stream of a fresh Philox keyed by seed\n"

MUTANTS = (
    # the cost model and the planner
    Mutant("r01", MODELS, (("prop = 2 * fc1 + proj + 4 * mix + 3 * proj", "prop = 2 * fc1 + proj + 4 * mix + 2 * proj"),),
           "attention prop charges 2 of the 3 q/k/v projections",
           killers=("test_partition.py::TestGoldenPlans::test_attention_lm_depth4",
                    "test_partition.py::TestGoldenPlans::test_attention_lm_depth4_rho08_fills_the_budget")),
    Mutant("r02", MODELS, (("fwd = 4 * proj + 2 * mix + 2 * fc1", "fwd = 4 * proj + 2 * fc1"),),
           "attention forward FLOPs without the two mixing matmuls",
           killers=("test_models.py::TestCostModel::test_forward_flops_are_the_matmuls_it_runs",),
           pinned="the metered forward is the one count of a layer's forward FLOPs made apart from the cost model; the "
                  "tally and criterion 12 read the cost model itself (ROADMAP item 1)"),
    Mutant("r03", MODELS, (("CostEntry(tok.name, layer_index, n, 0, n)", "CostEntry(tok.name, layer_index, 0, 0, n)"),),
           "embed.token gradient cost 0",
           killers=("test_partition.py::TestGoldenPlans::test_attention_lm_depth4_rho08_fills_the_budget",),
           pinned="embed.token's gradient cost moves only a plan, and the golden rho-0.8 plan is the fixture where it "
                  "decides one; a backward meter (ROADMAP item 1) would be the second"),
    Mutant("r04", MODELS, (("CostEntry(b.name, layer_index, rows * self.fan_out, 0, 0)",
                            "CostEntry(b.name, layer_index, 0, 0, 0)"),),
           "dense bias gradient cost 0",
           killers=("test_models.py::TestCostModel::test_mlp_dense_layer_flops", "test_optimizer.py::test_golden_hybrid_steps",
                    "test_partition.py::TestGoldenPlans::test_mlp_two_moons")),
    Mutant("r05", MODELS, (("CostEntry(self.tensors[0].name, layer_index, mw, mw, mw)",
                            "CostEntry(self.tensors[0].name, layer_index, mw, mw, mw // 2)"),),
           "dense forward FLOPs halved",
           killers=("test_models.py::TestCostModel::test_forward_flops_are_the_matmuls_it_runs",
                    "test_optimizer.py::test_golden_hybrid_steps")),
    Mutant("r06", MODELS, (("self.cumprop[max(pos)]", "self.cumprop[min(pos)]"),),
           "subset cost propagates to the shallowest selected tensor",
           killers=("test_config_cli.py::TestCli::test_attention_lm_trains_through_the_cli",
                    "test_models.py::TestCostModel::test_flops_monotone_in_active_set",
                    "test_models.py::TestCostModel::test_tally_charges_each_batch_at_its_own_length",
                    "test_models.py::TestCostModel::test_total_matches_measured_full_backward_exactly",
                    "test_optimizer.py::TestBaselines::test_fo_baseline_backward_flops_field",
                    "test_partition.py::TestGoldenPlans::test_attention_lm_depth4",
                    "test_partition.py::TestGoldenPlans::test_attention_lm_depth4_rho08_fills_the_budget",
                    "test_partition.py::TestProperties::test_subset_cost_is_grads_plus_propagation_to_deepest",
                    "test_partition.py::TestSolveDp::test_fixture_matches_enumeration",
                    "test_partition.py::TestSolveDp::test_rho_one_selects_every_positive_tensor")),
    Mutant("r07", OPT, ((ZO_UPDATE, "update = -2 * cfg.eta_zo * coef"),), "hizfo ZO update doubled",
           killers=("test_acceptance.py::test_criterion_05_restore_exactness",
                    "test_config_cli.py::TestCli::test_verify_fast_passes",
                    "test_datasets_verify.py::TestLmStepEstimator::test_shipped_step_error_matches_single_probe_variance",
                    "test_datasets_verify.py::TestVerifySuites::test_all_suites_pass_fast",
                    "test_optimizer.py::TestHizfoStep::test_forced_unit_noise_hand_arithmetic",
                    "test_optimizer.py::test_golden_hybrid_steps")),
    Mutant("r08", OPT, (("_record(step_index, loss_clean, loss_pert,", "_record(step_index, loss_pert, loss_pert,"),),
           "hizfo record reports the perturbed loss as L_FO",
           killers=("test_acceptance.py::test_criterion_05_restore_exactness",
                    "test_optimizer.py::TestHizfoStep::test_forced_unit_noise_hand_arithmetic",
                    "test_optimizer.py::TestTrain::test_overflowing_zo_coefficient_diverges",
                    "test_optimizer.py::test_golden_hybrid_steps")),
    Mutant("r09", OPT, (("grads[name] = grads[name] + cfg.alpha * g", "grads[name] = grads[name]"),),
           "alpha term dropped from the FO gradient",
           killers=("test_optimizer.py::TestHizfoStep::test_alpha_term_is_gradient_of_perturbed_loss",
                    "test_optimizer.py::TestHizfoStep::test_zero_noise_fo_gradient_is_one_plus_alpha_scaled",
                    "test_optimizer.py::test_golden_hybrid_steps")),
    Mutant("r10", OPT, (("coef = (loss_plus - loss_minus) / (2 * eps)", "coef = (loss_plus - loss_minus) / eps"),),
           "MeZO coefficient divides by eps, not 2 eps",
           killers=("test_optimizer.py::TestBaselines::test_mezo_quadratic_central_difference_is_exact",),
           pinned="MeZO's coefficient enters only its own update; the exact central difference on a quadratic pins the "
                  "factor, and the criteria compare MeZO only by direction"),
    Mutant("r11", OPT, (("[model.forward(b) for b in batches]", "[model.forward(b) for b in batches[:1]]"),),
           "evaluate reads only the first eval batch",
           killers=("test_acceptance.py::test_criterion_11_alpha_ablation",
                    "test_optimizer.py::TestTrain::test_overflowing_eval_mean_reports_divergence")),
    Mutant("r12", OPT, (("fo_updater, model.fo, model.fo_names, kept)",
                         "fo_updater, model.fo, [t.name for t in model.tensors()], kept)"),),
           "frozen_subset backward over every tensor",
           killers=("test_acceptance.py::test_criterion_08_beats_pure_zo",
                    "test_acceptance.py::test_criterion_09_beats_frozen_subset",
                    "test_acceptance.py::test_criterion_11_alpha_ablation",
                    "test_optimizer.py::TestBaselines::test_fo_baseline_backward_flops_field",
                    "test_optimizer.py::TestBaselines::test_frozen_subset_applies_a_plan_the_model_does_not_hold",
                    "test_optimizer.py::TestFrozenPrefix::test_a_change_to_what_the_prefix_reads_misses",
                    "test_optimizer.py::TestFrozenPrefix::test_no_kept_output_outlives_train",
                    "test_optimizer.py::TestFrozenPrefix::test_steps_match_the_reference_loop",
                    "test_optimizer.py::TestFrozenPrefix::test_without_an_updater_every_step_runs_the_prefix",
                    "test_perfbench_contract.py::test_harness_steps_frozen_subset_on_the_kept_prefix")),
    Mutant("r13", PART, (("e[1] > front[-1][1] + _TIE", "e[1] > front[-1][1] - _TIE"),),
           "planner tie keeps the dearer frontier entry",
           killers=("test_partition.py::TestSolveDp::test_equal_importance_cheaper_set_wins",),
           pinned="a tie needs two sets of exactly equal importance; the hand fixture builds two, and the property's "
                  "integer instances reach one only by chance"),
    Mutant("r14", PART, (("bisect_right(front, budget - p - g,", "bisect_right(front, budget - g,"),),
           "planner room leaves cumprop out",
           killers=("test_acceptance.py::test_criterion_06_dp_oracle_equivalence",
                    "test_acceptance.py::test_criterion_12_flops_budget",
                    "test_partition.py::TestGoldenPlans::test_attention_lm_depth4",
                    "test_partition.py::TestGoldenPlans::test_mlp_two_moons",
                    "test_partition.py::TestProperties::test_dp_equals_brute_force",
                    "test_partition.py::TestSolveDp::test_consumed_within_budget",
                    "test_partition.py::TestSolveDp::test_fixture_matches_enumeration",
                    "test_partition.py::TestSolveDp::test_float_costs_never_beat_oracle")),
    Mutant("r15", PART, (("from bisect import bisect_right", "from bisect import bisect_left"),
                         ("bisect_right(front, budget - p - g,", "bisect_left(front, budget - p - g,")),
           "planner fit is strict",
           killers=("test_partition.py::TestProperties::test_dp_equals_brute_force",
                    "test_partition.py::TestSolveDp::test_fixture_matches_enumeration")),
    Mutant("r16", MODELS, (("for e in layer.cost_entries(li, *key)]",
                            "for e in layer.cost_entries(li, *key) if e.name in self.fo_names]"),),
           "cost model prices only the FO tensors",
           killers=("test_datasets_verify.py::TestLmStepEstimator::test_doubled_zo_update_leaves_the_band",
                    "test_datasets_verify.py::TestLmStepEstimator::test_shipped_step_error_matches_single_probe_variance",
                    "test_models.py::TestCostModel::test_roles_do_not_change_costs",
                    "test_optimizer.py::TestBaselines::test_fo_baseline_backward_flops_field",
                    "test_optimizer.py::TestFrozenPrefix::test_a_change_to_what_the_prefix_reads_misses",
                    "test_optimizer.py::TestTrain::test_final_weights_are_evaluated_once",
                    "test_optimizer.py::test_golden_hybrid_steps",
                    "test_optimizer.py::test_hybrid_step_frees_the_clean_cache_before_the_perturbed_pass",
                    "test_optimizer.py::test_steady_state_steps_fault_in_no_pages")),
    # hand mutants of the step, the noise, the forward pass, the data and the plan
    Mutant("h01", OPT, (("sq = add_scaled_noise(zo, seed, update - eps)", "sq = add_scaled_noise(zo, seed, update - 2 * eps)"),),
           "hizfo closing pass subtracts 2 eps",
           killers=("test_acceptance.py::test_criterion_05_restore_exactness",
                    "test_config_cli.py::TestCli::test_verify_fast_passes",
                    "test_datasets_verify.py::TestLmStepEstimator::test_shipped_step_error_matches_single_probe_variance",
                    "test_datasets_verify.py::TestVerifySuites::test_all_suites_pass_fast",
                    "test_optimizer.py::TestHizfoStep::test_aborted_step_restores_zo_alone",
                    "test_optimizer.py::TestHizfoStep::test_forced_unit_noise_hand_arithmetic",
                    "test_optimizer.py::TestHizfoStep::test_nonfinite_perturbed_loss_restores_zo_and_reports",
                    "test_optimizer.py::test_golden_hybrid_steps")),
    Mutant("h02", OPT, (("    finally:\n        # restore and update in one pass", "    else:\n        # restore and update in one pass"),),
           "hizfo closing pass runs only when no exception",
           killers=("test_optimizer.py::TestHizfoStep::test_aborted_step_restores_zo_alone",
                    "test_optimizer.py::TestHizfoStep::test_nonfinite_perturbed_loss_restores_zo_and_reports")),
    Mutant("h03", OPT, ((ZO_UPDATE, "update = cfg.eta_zo * coef"),), "hizfo ZO update sign-flipped",
           killers=("test_acceptance.py::test_criterion_05_restore_exactness",
                    "test_acceptance.py::test_criterion_07_convergence_rate_band",
                    "test_acceptance.py::test_criterion_09_beats_frozen_subset",
                    "test_config_cli.py::TestCli::test_verify_fast_passes",
                    "test_datasets_verify.py::TestVerifySuites::test_all_suites_pass_fast",
                    "test_datasets_verify.py::TestVerifySuites::test_wrong_zo_update_fails_verify",
                    "test_optimizer.py::TestHizfoStep::test_forced_unit_noise_hand_arithmetic",
                    "test_optimizer.py::test_golden_hybrid_steps")),
    Mutant("h04", OPT, ((ZO_UPDATE, "update = 0.0 * coef"),), "hizfo ZO update zeroed",
           killers=("test_acceptance.py::test_criterion_05_restore_exactness",
                    "test_acceptance.py::test_criterion_07_convergence_rate_band",
                    "test_acceptance.py::test_criterion_10_r_sweep_instability",
                    "test_config_cli.py::TestCli::test_verify_fast_passes",
                    "test_datasets_verify.py::TestLmStepEstimator::test_shipped_step_error_matches_single_probe_variance",
                    "test_datasets_verify.py::TestVerifySuites::test_all_suites_pass_fast",
                    "test_models.py::TestRoleSplit::test_copy_after_a_step_moves_only_its_own_zo_tensors",
                    "test_optimizer.py::TestHizfoStep::test_forced_unit_noise_hand_arithmetic",
                    "test_optimizer.py::TestTrain::test_overflowing_zo_coefficient_diverges",
                    "test_optimizer.py::test_golden_hybrid_steps")),
    Mutant("h05", RNG, ((RESET, ""),), "noise stream not reset per call",
           killers=("test_acceptance.py::test_criterion_05_restore_exactness",
                    "test_config_cli.py::TestCli::test_rerun_same_seed_identical_files",
                    "test_config_cli.py::TestCli::test_verify_fast_passes",
                    "test_datasets_verify.py::TestCharCorpus::test_batches_are_bytes_and_train_like_int64_ones",
                    "test_datasets_verify.py::TestLmStepEstimator::test_shipped_step_error_matches_single_probe_variance",
                    "test_datasets_verify.py::TestVerifySuites::test_all_suites_pass_fast",
                    "test_models.py::TestFlatBuffer::test_copy_keeps_its_own_buffer",
                    "test_models.py::TestFlatBuffer::test_zo_equals_per_tensor_noise",
                    "test_optimizer.py::TestBaselines::test_mezo_aborted_step_restores_parameters",
                    "test_optimizer.py::TestFrozenPrefix::test_a_change_to_what_the_prefix_reads_misses",
                    "test_optimizer.py::TestHizfoStep::test_aborted_step_restores_zo_alone",
                    "test_optimizer.py::TestHizfoStep::test_alpha_term_is_gradient_of_perturbed_loss",
                    "test_optimizer.py::TestTrain::test_identical_configs_bitwise_identical_records",
                    "test_optimizer.py::TestTrain::test_overflowing_zo_coefficient_diverges",
                    "test_optimizer.py::test_golden_hybrid_steps",
                    "test_tensors_rng.py::TestRng::test_noise_is_the_seed_stream_whatever_was_drawn_before",
                    "test_tensors_rng.py::TestRng::test_perturb_then_restore_within_4_ulp",
                    "test_tensors_rng.py::TestRng::test_regenerate_matches_apply")),
    Mutant("h06", RNG, ((RESET, "    s = _GEN.bit_generator.state\n    s['state']['key'][0] = seed & _MASK64\n"
                                "    _GEN.bit_generator.state = s\n"),),
           "noise reset sets the key only, not the counter and buffer",
           killers=("test_acceptance.py::test_criterion_05_restore_exactness",
                    "test_acceptance.py::test_criterion_07_convergence_rate_band",
                    "test_config_cli.py::TestCli::test_rerun_same_seed_identical_files",
                    "test_config_cli.py::TestCli::test_verify_fast_passes",
                    "test_datasets_verify.py::TestCharCorpus::test_batches_are_bytes_and_train_like_int64_ones",
                    "test_datasets_verify.py::TestLmStepEstimator::test_shipped_step_error_matches_single_probe_variance",
                    "test_datasets_verify.py::TestVerifySuites::test_all_suites_pass_fast",
                    "test_models.py::TestFlatBuffer::test_copy_keeps_its_own_buffer",
                    "test_models.py::TestFlatBuffer::test_zo_equals_per_tensor_noise",
                    "test_optimizer.py::TestBaselines::test_mezo_aborted_step_restores_parameters",
                    "test_optimizer.py::TestFrozenPrefix::test_a_change_to_what_the_prefix_reads_misses",
                    "test_optimizer.py::TestHizfoStep::test_aborted_step_restores_zo_alone",
                    "test_optimizer.py::TestHizfoStep::test_alpha_term_is_gradient_of_perturbed_loss",
                    "test_optimizer.py::TestTrain::test_identical_configs_bitwise_identical_records",
                    "test_optimizer.py::TestTrain::test_overflowing_zo_coefficient_diverges",
                    "test_optimizer.py::test_golden_hybrid_steps",
                    "test_tensors_rng.py::TestRng::test_noise_is_the_seed_stream_whatever_was_drawn_before",
                    "test_tensors_rng.py::TestRng::test_perturb_then_restore_within_4_ulp",
                    "test_tensors_rng.py::TestRng::test_regenerate_matches_apply")),
    Mutant("h07", MODELS, (("if not np.isfinite(loss + np.add.reduce(h, axis=None)):", "if not np.isfinite(loss):"),),
           "finite check on the loss only",
           killers=("test_models.py::TestOneFiniteCheck::test_minus_inf_logit_off_the_targets_is_caught",),
           pinned="only a -inf logit that no target reads leaves the loss finite, and that one test builds the case "
                  "against the eager oracle"),
    Mutant("h08", MODELS, (("for li in range(start, -1, -1):\n                if not", "for li in range(start + 1):\n                if not"),),
           "overflow scan in reverse order",
           killers=("test_models.py::TestDeterminismAndErrors::test_overflow_carries_layer_index",
                    "test_models.py::TestOneFiniteCheck::test_poisoned_tensor_fails_like_the_eager_walk",
                    "test_optimizer.py::TestFrozenPrefix::test_an_overflowing_prefix_fails_like_the_uncached_pass")),
    Mutant("h09", MODELS, (("e /= n\n", "e *= 1 / n\n"),), "softmax gradient scaled by 1/n, not divided by n",
           killers=("test_models.py::TestLossKernels::test_loss_matches_the_two_gather_formula",),
           pinned="the bit-for-bit comparison with the two-gather reference is the only check at rounding level; every "
                  "other test has a tolerance that a 1-ulp change passes"),
    Mutant("h10", MODELS, (("float(nll.sum() / n)", "float(nll.sum() * (1 / n))"),), "loss scaled by 1/n, not divided by n",
           killers=("test_models.py::TestLossKernels::test_loss_matches_the_two_gather_formula",),
           pinned="the bit-for-bit comparison with the two-gather reference is the only check at rounding level; every "
                  "other test has a tolerance that a 1-ulp change passes"),
    Mutant("h11", MODELS, (("np.maximum.reduce(", "np.fmax.reduce("),), "np.fmax in _row_max",
           killers=("test_models.py::TestLossKernels::test_row_max_is_max_over_the_last_axis",),
           pinned="np.fmax differs from np.maximum only where a row holds NaN, which only the row-max test places, "
                  "against numpy's own max"),
    Mutant("h12", MODELS, (("unknown = selected - self.index.keys()\n        if unknown:",
                            "unknown = selected - self.index.keys()\n        if False:"),),
           "subset cost skips the unknown-name check",
           killers=("test_models.py::TestGradients::test_unknown_active_tensor_rejected",
                    "test_models.py::TestRoleSplit::test_subset_cost_memo_rejects_unknown_names")),
    Mutant("h13", DATA, (("size=(n_batches, batch_size))", "size=(batch_size, n_batches)).T"),),
           "corpus starts drawn as (B, n) and transposed",
           killers=("test_datasets_verify.py::TestCharCorpus::test_batches_equal_one_draw_and_stack_per_batch",),
           pinned="the windows keep their content and only change batch, which no training test can tell from another "
                  "seed; the corpus test is the reference draw"),
    Mutant("h14", DATA, (("np.ascontiguousarray(w[..., :-1]), np.ascontiguousarray(w[..., 1:])", "w[..., :-1], w[..., 1:]"),),
           "uncopied corpus window slices",
           killers=("test_datasets_verify.py::TestCharCorpus::test_batches_equal_one_draw_and_stack_per_batch",),
           pinned="uncopied windows hold the same values; only the corpus test asserts the batches are C-contiguous"),
    Mutant("h15", OPT, (("    del cache_clean  # the perturbed pass needs only its own activations\n", ""),),
           "clean cache kept through the perturbed pass",
           killers=("test_optimizer.py::test_hybrid_step_frees_the_clean_cache_before_the_perturbed_pass",),
           pinned="the clean cache's lifetime shows only in a step's peak memory, which one tracemalloc test measures"),
    Mutant("h16", MODELS, (('if k not in ("flat", "zo")', 'if k not in ("flat",)'),), "pickle keeps the ZO view",
           killers=("test_models.py::TestRoleSplit::test_copy_after_a_step_moves_only_its_own_zo_tensors",),
           pinned="a pickle that keeps the ZO view restores the same values; only its size, which one test bounds, "
                  "tells"),
    Mutant("h17", OPT, (("add_scaled_noise(runs, seed, -shift)", "add_scaled_noise(runs, seed, -eps)"),),
           "MeZO restore always subtracts eps",
           killers=("test_optimizer.py::TestBaselines::test_mezo_aborted_step_restores_parameters",
                    "test_optimizer.py::TestBaselines::test_mezo_overflow_restores_parameters",
                    "test_optimizer.py::TestBaselines::test_mezo_quadratic_central_difference_is_exact")),
    Mutant("h18", MODELS, (("tokens.shape[1] > self.context \\\n                or batch.targets.shape != tokens.shape:",
                            "tokens.shape[1] > self.context:"),),
           "LM target shape condition dropped",
           killers=("test_models.py::TestDeterminismAndErrors::test_targets_checked_at_the_boundary",),
           pinned="misshaped LM targets reach the boundary check only in the boundary test; the cross-entropy's own "
                  "index check fails later with another message"),
    Mutant("h19", OPT, (("if not diverged and (not eval_history or eval_history[-1][0] != len(records)):",
                         "if not diverged:"),),
           "final weights evaluated twice",
           killers=("test_optimizer.py::TestTrain::test_final_weights_are_evaluated_once",),
           pinned="evaluating the final weights twice returns the same loss; only a counting evaluate sees the second "
                  "call"),
    Mutant("h20", MODELS, (("order = [t for t in self._tensors if t.name not in names] + self.fo",
                            "order = [t for t in self._tensors if t.name not in names][::-1] + self.fo"),),
           "ZO group laid out in reverse",
           killers=("test_acceptance.py::test_criterion_05_restore_exactness",
                    "test_models.py::TestFlatBuffer::test_zo_equals_per_tensor_noise",
                    "test_optimizer.py::TestHizfoStep::test_alpha_term_is_gradient_of_perturbed_loss",
                    "test_optimizer.py::test_golden_hybrid_steps",
                    "test_partition.py::TestApplyPlan::test_empty_fo_all_zo",
                    "test_partition.py::TestApplyPlan::test_roles_assigned")),
    Mutant("h21", IMP, (("        grads = full_gradient(model, batch)\n        raw",
                         "        grads = {n: -u / warmup_lr for n, u in last_update.items()}\n        raw"),),
           "importance from the pre-update gradient",
           killers=("test_importance.py::TestQuadraticClosedForm::test_raw_scores_match_closed_form",
                    "test_importance.py::TestScoreIsTheUndoRise::test_raw_score_matches_the_measured_undo_rise",
                    "test_partition.py::TestGoldenPlans::test_attention_lm_depth4_rho08_fills_the_budget")),
    Mutant("h22", IMP, ((SCORE, "raw = {n: float(last_update[n] @ grads[n]) for n in names}"),), "importance score negated",
           killers=("test_config_cli.py::TestCli::test_diverged_exit_code",
                    "test_config_cli.py::TestCli::test_diverged_steps_csv_has_a_row_per_record",
                    "test_config_cli.py::TestCli::test_profile_partition_train_report",
                    "test_demos.py::test_quadratic_demo_runs",
                    "test_importance.py::TestProtocol::test_isolated_replay_sign_property",
                    "test_importance.py::TestQuadraticClosedForm::test_argmax_invariant_under_lr_scaling",
                    "test_importance.py::TestQuadraticClosedForm::test_high_curvature_block_wins",
                    "test_importance.py::TestQuadraticClosedForm::test_raw_scores_match_closed_form",
                    "test_importance.py::TestScoreIsTheUndoRise::test_each_injected_fault_fails_the_check",
                    "test_importance.py::TestScoreIsTheUndoRise::test_raw_score_matches_the_measured_undo_rise",
                    "test_partition.py::TestGoldenPlans::test_attention_lm_depth4",
                    "test_partition.py::TestGoldenPlans::test_attention_lm_depth4_rho08_fills_the_budget",
                    "test_partition.py::TestGoldenPlans::test_mlp_two_moons")),
    Mutant("h23", IMP, ((SCORE, "raw = {n: float(-(last_update[n] @ grads[n])) / grads[n].size for n in names}"),),
           "importance score divided by tensor size",
           killers=("test_importance.py::TestQuadraticClosedForm::test_raw_scores_match_closed_form",
                    "test_importance.py::TestScoreIsTheUndoRise::test_raw_score_matches_the_measured_undo_rise",
                    "test_partition.py::TestGoldenPlans::test_attention_lm_depth4_rho08_fills_the_budget")),
    Mutant("h24", OPT, ((FROZEN_PLAN, "if False:"),), "frozen step never applies its plan",
           killers=("test_optimizer.py::TestBaselines::test_frozen_subset_applies_a_plan_the_model_does_not_hold",
                    "test_optimizer.py::TestFrozenPrefix::test_a_change_to_what_the_prefix_reads_misses")),
    Mutant("h25", OPT, ((FROZEN_PLAN, "if True:"),), "frozen step always applies its plan",
           killers=("test_optimizer.py::TestBaselines::test_frozen_subset_keeps_the_layout_of_a_held_plan",
                    "test_optimizer.py::TestFrozenPrefix::test_a_change_to_what_the_prefix_reads_misses",
                    "test_optimizer.py::TestFrozenPrefix::test_no_kept_output_outlives_train",
                    "test_optimizer.py::TestFrozenPrefix::test_steps_match_the_reference_loop",
                    "test_perfbench_contract.py::test_harness_steps_frozen_subset_on_the_kept_prefix")),
    Mutant("h26", OPT, ((FROZEN_PLAN, "if list(plan.fo_set) != list(model.fo_names):"),), "frozen step compares plan lists",
           killers=("test_optimizer.py::TestBaselines::test_frozen_subset_keeps_the_layout_of_a_held_plan",),
           pinned="plan lists in another order name the same split, and only the held-layout test passes a reordered "
                  "plan"),
    Mutant("h27", "src/hizfo/__init__.py", (("    flops_profile,\n", ""),), "flops_profile dropped from hizfo/__init__",
           killers=("test_demos.py::test_demo_imports_resolve", "test_demos.py::test_quadratic_demo_runs")),
    Mutant("h28", "README.md", (("```python\n", "```py\n"),), "README quickstart fence renamed",
           killers=("test_demos.py::test_demo_imports_resolve",),
           pinned="README's quickstart is read by the demo import test alone"),
    Mutant("h29", MODELS, (("cells = tokens.astype(np.intp)[..., None]", "cells = tokens[..., None]"),),
           "token-embedding scatter multiplies uint8 ids, which wrap",
           killers=("test_importance.py::TestScoreIsTheUndoRise::test_raw_score_matches_the_measured_undo_rise",
                    "test_models.py::TestAttentionKernels::test_token_gradient_is_the_row_wise_scatter",
                    "test_partition.py::TestGoldenPlans::test_attention_lm_depth4_rho08_fills_the_budget")),
    # aimed at the experiments of tests that were deleted
    Mutant("t01", MODELS, (("grads[self.tensors[1].name] = g_pre.sum(axis=0)",
                            "grads[self.tensors[1].name] = g_pre.sum(axis=0) * (1 + 1e-4)"),),
           "dense bias gradient 1e-4 too large",
           killers=("test_acceptance.py::test_criterion_01_gradient_correctness",
                    "test_importance.py::TestScoreIsTheUndoRise::test_raw_score_matches_the_measured_undo_rise",
                    "test_optimizer.py::test_golden_hybrid_steps")),
    Mutant("t02", MODELS, (("return grads, g_x.reshape(B, T, d)", "return grads, g_x.reshape(B, T, d) * (1 + 1e-4)"),),
           "attention input gradient 1e-4 too large",
           killers=("test_acceptance.py::test_criterion_01_gradient_correctness",
                    "test_importance.py::TestScoreIsTheUndoRise::test_raw_score_matches_the_measured_undo_rise",
                    "test_models.py::TestAttentionKernels::test_alternating_sequence_lengths",
                    "test_partition.py::TestGoldenPlans::test_attention_lm_depth4_rho08_fills_the_budget")),
    Mutant("t03", MODELS, (("self.tally.backward += flops", "self.tally.backward += flops + 1"),),
           "backward tally one FLOP over the cost model",
           killers=("test_acceptance.py::test_criterion_06_dp_oracle_equivalence",
                    "test_config_cli.py::TestCli::test_attention_lm_trains_through_the_cli",
                    "test_models.py::TestCostModel::test_tally_charges_each_batch_at_its_own_length",
                    "test_models.py::TestCostModel::test_total_matches_measured_full_backward_exactly",
                    "test_optimizer.py::TestBaselines::test_fo_baseline_backward_flops_field",
                    "test_optimizer.py::TestBaselines::test_frozen_subset_applies_a_plan_the_model_does_not_hold",
                    "test_optimizer.py::TestHizfoStep::test_backward_flops_field_is_fo_accounting",
                    "test_optimizer.py::TestHizfoStep::test_backward_flops_field_with_probes_is_one_backward",
                    "test_optimizer.py::test_golden_hybrid_steps")),
    Mutant("t04", VERIFY, (("return float(np.mean(np.sum(ghat * ghat, axis=1)))",
                            "return 3 * float(np.mean(np.sum(ghat * ghat, axis=1)))"),),
           "estimator second moment tripled",
           killers=("test_acceptance.py::test_criterion_04_second_moment_bound",
                    "test_config_cli.py::TestCli::test_verify_fast_passes",
                    "test_datasets_verify.py::TestVerifySuites::test_all_suites_pass_fast")),
    Mutant("t05", VERIFY, (("u = np.concatenate([u, -u])", "u = np.concatenate([u, u])"),), "antithetic pairing dropped",
           killers=("test_datasets_verify.py::TestEstimatorProperties::test_bias_vanishes_in_small_mu_limit",
                    "test_datasets_verify.py::TestEstimatorProperties::test_quadratic_forward_difference_unbiased")),
    # the truncated backward's skips and the frozen prefix
    Mutant("p01", MODELS, (("any(W.name in active for W in (Wq, Wk, Wv, Wo))", "any(W.name in active for W in (Wq, Wk, Wv))"),),
           "attention half skipped with wo active",
           killers=("test_models.py::TestAttentionKernels::test_deepest_block_gradients_are_the_full_ones",),
           pinned="the attention-half skip is wrong only when wo alone is active in the deepest block, which the "
                  "bitwise per-tensor gradient test covers"),
    Mutant("p02", MODELS, (("(g_pre @ W.view().T).reshape(x.shape) if propagate else None", "None"),),
           "dense input gradient always skipped",
           killers=("test_acceptance.py::test_criterion_01_gradient_correctness",
                    "test_acceptance.py::test_criterion_06_dp_oracle_equivalence",
                    "test_acceptance.py::test_criterion_08_beats_pure_zo",
                    "test_acceptance.py::test_criterion_09_beats_frozen_subset",
                    "test_acceptance.py::test_criterion_10_r_sweep_instability",
                    "test_acceptance.py::test_criterion_11_alpha_ablation",
                    "test_acceptance.py::test_criterion_12_flops_budget",
                    "test_config_cli.py::TestCli::test_artifact_format_contract",
                    "test_config_cli.py::TestCli::test_attention_lm_trains_through_the_cli",
                    "test_config_cli.py::TestCli::test_diverged_exit_code",
                    "test_config_cli.py::TestCli::test_diverged_report_is_strict_json",
                    "test_config_cli.py::TestCli::test_diverged_steps_csv_has_a_row_per_record",
                    "test_config_cli.py::TestCli::test_fuzzed_config_never_gives_a_traceback",
                    "test_config_cli.py::TestCli::test_partition_below_min_cost_warns",
                    "test_config_cli.py::TestCli::test_profile_partition_train_report",
                    "test_config_cli.py::TestCli::test_rerun_same_seed_identical_files",
                    "test_config_cli.py::TestCli::test_rho_sweep_reports_without_asserting",
                    "test_config_cli.py::TestCli::test_seed_override_changes_run",
                    "test_config_cli.py::TestCli::test_sweep_axis_and_medians",
                    "test_config_cli.py::TestCli::test_warmup_overflow_exits_diverged",
                    "test_datasets_verify.py::TestCharCorpus::test_batches_are_bytes_and_train_like_int64_ones",
                    "test_datasets_verify.py::TestLmStepEstimator::test_doubled_zo_update_leaves_the_band",
                    "test_datasets_verify.py::TestLmStepEstimator::test_shipped_step_error_matches_single_probe_variance",
                    "test_importance.py::TestProtocol::test_csv_roundtrip",
                    "test_importance.py::TestProtocol::test_parameters_restored_bit_identical",
                    "test_importance.py::TestProtocol::test_scores_keyed_by_model_tensors",
                    "test_importance.py::TestProtocol::test_warmup_steps_validated",
                    "test_importance.py::TestScoreIsTheUndoRise::test_each_injected_fault_fails_the_check",
                    "test_importance.py::TestScoreIsTheUndoRise::test_raw_score_matches_the_measured_undo_rise",
                    "test_models.py::TestAttentionKernels::test_alternating_sequence_lengths",
                    "test_models.py::TestAttentionKernels::test_deepest_block_gradients_are_the_full_ones",
                    "test_models.py::TestAttentionKernels::test_truncation_matches_full_backward",
                    "test_models.py::TestCostModel::test_flops_monotone_in_active_set",
                    "test_models.py::TestCostModel::test_tally_charges_each_batch_at_its_own_length",
                    "test_models.py::TestCostModel::test_total_matches_measured_full_backward_exactly",
                    "test_models.py::TestFlatBuffer::test_copy_keeps_its_own_buffer",
                    "test_models.py::TestGradients::test_deepest_dense_layer_gradients_are_the_full_ones",
                    "test_models.py::TestGradients::test_full_gradient_tallies_its_forward",
                    "test_models.py::TestGradients::test_top_layer_only_equals_full_slice",
                    "test_models.py::TestGradients::test_truncation_matches_full_backward",
                    "test_models.py::TestRoleSplit::test_copy_after_a_step_moves_only_its_own_zo_tensors",
                    "test_models.py::TestRoleSplit::test_split_follows_the_roles",
                    "test_models.py::TestRoleSplit::test_train_assigns_the_plan_once",
                    "test_optimizer.py::TestBaselines::test_fo_baseline_backward_flops_field",
                    "test_optimizer.py::TestBaselines::test_frozen_with_full_plan_matches_full_fo",
                    "test_optimizer.py::TestBaselines::test_full_fo_mlp_single_step_descends",
                    "test_optimizer.py::TestFrozenPrefix::test_a_change_to_what_the_prefix_reads_misses",
                    "test_optimizer.py::TestFrozenPrefix::test_an_overflowing_prefix_fails_like_the_uncached_pass",
                    "test_optimizer.py::TestFrozenPrefix::test_no_kept_output_outlives_train",
                    "test_optimizer.py::TestFrozenPrefix::test_steps_match_the_reference_loop",
                    "test_optimizer.py::TestFrozenPrefix::test_without_an_updater_every_step_runs_the_prefix",
                    "test_optimizer.py::TestHizfoStep::test_alpha_term_is_gradient_of_perturbed_loss",
                    "test_optimizer.py::TestTrain::test_final_weights_are_evaluated_once",
                    "test_optimizer.py::test_hybrid_step_frees_the_clean_cache_before_the_perturbed_pass",
                    "test_optimizer.py::test_steady_state_steps_fault_in_no_pages",
                    "test_partition.py::TestGoldenPlans::test_attention_lm_depth4",
                    "test_partition.py::TestGoldenPlans::test_attention_lm_depth4_rho08_fills_the_budget",
                    "test_partition.py::TestGoldenPlans::test_mlp_two_moons",
                    "test_perfbench_contract.py::test_harness_steps_every_algorithm",
                    "test_perfbench_contract.py::test_harness_steps_frozen_subset_on_the_kept_prefix",
                    "test_perfbench_contract.py::test_noise_spans_count_the_elements_drawn")),
    Mutant("p03", MODELS, (("if b is batch and fo is self.fo:", "if b is batch:"),),
           "kept prefix read back without the fo is self.fo check",
           killers=("test_optimizer.py::TestFrozenPrefix::test_a_change_to_what_the_prefix_reads_misses",),
           pinned="the fo check matters only when one updater meets another split or model; the miss test covers all "
                  "four such events"),
    Mutant("p04", OPT, (("kept = fo_updater.kept if fo_updater else None", "kept = {} if fo_updater else None"),),
           "frozen step passes a fresh {} as kept",
           killers=("test_optimizer.py::TestFrozenPrefix::test_a_change_to_what_the_prefix_reads_misses",
                    "test_optimizer.py::TestFrozenPrefix::test_no_kept_output_outlives_train",
                    "test_optimizer.py::TestFrozenPrefix::test_steps_match_the_reference_loop",
                    "test_perfbench_contract.py::test_harness_steps_frozen_subset_on_the_kept_prefix")),
)

RETIRED = (
    Retired("p05", "kept prefix read back without the ZO-byte check",
            "the byte compare is gone: the run's FoUpdater owns the prefix, so no check remains to mutate"),
    Retired("p06", "kept prefix read back without the batch-input check",
            "the input-bytes key is gone with the byte compares; an entry is read back only for the same batch object"),
    Retired("p07", "assign keeps the prefix cache",
            "the model holds no prefix and assign resets nothing; a new fo list misses instead (p03)"),
)


def mutated(text: str, mutant: Mutant) -> str | None:
    """`text` with the mutant's pairs applied in order, or None if an old string does not occur exactly once."""
    for old, new in mutant.pairs:
        if text.count(old) != 1:
            return None
        text = text.replace(old, new)
    return text


def copy_tree(dest: Path) -> None:
    files = subprocess.run(["git", "ls-files", "-z"], cwd=ROOT, check=True, capture_output=True).stdout
    for name in files.decode().split("\0"):
        src = ROOT / name
        if name and src.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            (dest / name).write_bytes(src.read_bytes())


def environment(root: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"), HZFO_THREADS="1", PYTHONDONTWRITEBYTECODE="1")
    found = subprocess.run([sys.executable, "-c", "import hizfo; print(hizfo.__file__)"], cwd=root, env=env,
                           check=True, capture_output=True, text=True).stdout.strip()
    if not Path(found).resolve().is_relative_to(root.resolve()):
        sys.exit(f"hizfo imports from {found}, not from the copy at {root}")
    return env


def node_id(root: Path, classname: str, name: str) -> str:
    """A junit test case as a pytest node id: the module path, then classes and name."""
    parts = classname.split(".")
    for i in range(len(parts), 0, -1):
        path = "/".join(parts[:i]) + ".py"
        if (root / path).is_file():
            return "::".join([path, *parts[i:], name])
    return "::".join([classname, name])


def function_of(test_id: str) -> str:
    return re.sub(r"\[.*\]$", "", test_id)


class Runner:
    def __init__(self, root: Path, env: dict, report: Path):
        self.root, self.env, self.report = root, env, report
        self.limit = None  # seconds; set from the unmutated run

    def pytest(self, *args) -> tuple[str, list, dict]:
        """Run pytest in the copy: ('ok' | 'failed' | 'timeout' | 'error', failing ids, call seconds by id)."""
        self.report.unlink(missing_ok=True)
        cmd = [sys.executable, "-m", "pytest", *TIER1, f"--junitxml={self.report}", *args]
        proc = subprocess.Popen(cmd, cwd=self.root, env=self.env, stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL, start_new_session=True)
        try:
            code = proc.wait(timeout=self.limit)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            return "timeout", [], {}
        if not self.report.is_file():
            return "error", [], {}
        failing, seconds = [], {}
        for case in ET.parse(self.report).iter("testcase"):
            tid = node_id(self.root, case.get("classname", ""), case.get("name", ""))
            seconds[tid] = float(case.get("time", 0.0))
            if case.find("failure") is not None or case.find("error") is not None:
                failing.append(tid)
        if failing:
            return "failed", failing, seconds
        return ("ok" if code == 0 else "error"), [], seconds


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--matrix", action="store_true", help="run the full tier 1 under every mutant, without -x")
    ap.add_argument("ids", nargs="*", help="mutant ids; all live entries by default")
    args = ap.parse_args(argv)
    by_id = {m.id: m for m in MUTANTS}
    unknown = [i for i in args.ids if i not in by_id]
    if unknown:
        ap.error(f"unknown or retired mutant ids: {', '.join(unknown)}")
    selected = [by_id[i] for i in args.ids] or list(MUTANTS)

    with tempfile.TemporaryDirectory(prefix="hizfo-mutants-") as tmp:
        root, report = Path(tmp) / "tree", Path(tmp) / "report.xml"
        copy_tree(root)
        run = Runner(root, environment(root), report)
        t0 = time.perf_counter()
        status, failing, clean = run.pytest()
        base = time.perf_counter() - t0
        if status != "ok":
            print(f"unmutated tier 1 did not pass ({status}): {' '.join(failing[:5])}")
            return 2
        run.limit = 120 + 4 * base
        print(f"unmutated tier 1: {len(clean)} tests passed in {base:.1f} s; time limit {run.limit:.0f} s per run")

        results = {}
        for m in selected:
            t0 = time.perf_counter()
            original = (root / m.path).read_text()
            text = mutated(original, m)
            if text is None:
                results[m.id] = ("stale", [])
            else:
                (root / m.path).write_text(text)
                try:
                    status, failing = "ok", []
                    if not args.matrix and m.killers:
                        status, failing, _ = run.pytest("-x", *(f"tests/{k}" for k in m.killers))
                    if status == "ok":
                        status, failing, _ = run.pytest(FRESHNESS, *(() if args.matrix else ("-x",)))
                finally:
                    (root / m.path).write_text(original)
                verdict = {"failed": "killed", "ok": "survived"}.get(status, status)
                results[m.id] = (verdict, failing)
            verdict, failing = results[m.id]
            shown = sorted({function_of(t) for t in failing})
            print(f"{m.id}  {verdict:<8} {time.perf_counter() - t0:6.1f} s  {m.description}"
                  + (f"  [{len(shown)}: {', '.join(shown)}]" if shown else ""), flush=True)

    if args.matrix:
        print_matrix(results, clean)
    bad = [i for i, (v, _) in results.items() if v != "killed"]
    print(f"{len(results) - len(bad)} of {len(results)} killed" + (f"; not killed: {' '.join(bad)}" if bad else ""))
    return 1 if bad else 0


def print_matrix(results: dict, clean: dict) -> None:
    """Per test function: the mutants it kills, those only it kills, and its summed call time."""
    kills = defaultdict(set)
    for mid, (_, failing) in results.items():
        for t in failing:
            kills[function_of(t)].add(mid)
    seconds = defaultdict(float)
    for t, s in clean.items():
        seconds[function_of(t)] += s
    killers = defaultdict(set)
    for f, ms in kills.items():
        for mid in ms:
            killers[mid].add(f)
    print("\ntest function | kills | only killer of | call s")
    for f in sorted(seconds, key=lambda f: (-len(kills[f]), f)):
        only = sorted(m for m in kills[f] if killers[m] == {f})
        print(f"{f} | {' '.join(sorted(kills[f])) or '-'} | {' '.join(only) or '-'} | {seconds[f]:.3f}")
    single = sorted(m for m, fs in killers.items() if len(fs) == 1)
    print(f"\nmutants with one killer: {' '.join(single) or 'none'}")


if __name__ == "__main__":
    sys.exit(main())
