"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import harness  # noqa: E402

# short enough to finish quickly, long enough that every layer is exercised
SMOKE_STEPS = {"lm_d4_train": 12, "mlp_moons_train": 20, "lm_r_sweep": 6}


def test_percentile_known_data():
    assert harness.percentile([4, 1, 3, 2], 50) == 2.5
    assert harness.percentile(range(101), 90) == 90
    assert harness.percentile([7.0], 90) == 7.0
    assert harness.percentile([1, 2], 0) == 1 and harness.percentile([1, 2], 100) == 2
    xs = np.random.default_rng(0).exponential(size=257)
    for q in (10, 50, 90, 99):
        assert math.isclose(harness.percentile(xs, q), float(np.percentile(xs, q)), rel_tol=1e-12)


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(harness.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(SMOKE_STEPS))
def test_smoke_run_emits_every_metric(name, trace, tmp_path):
    checks, metrics, tracer = harness.run_workload(
        name, seed=3, seconds=0, trace=trace, work=tmp_path, steps=SMOKE_STEPS[name])
    assert list(metrics) == list(harness.PER_LAYER if trace else harness.END_TO_END)
    assert all(isinstance(v, (int, float)) and math.isfinite(v) for v in metrics.values())
    assert checks.attempted > 0
    # runs this short end far from the reference losses; nothing else may fail
    assert all("loss" in note for note in checks.notes), checks.notes
    assert (tracer is not None) == trace
    if trace:
        assert metrics["hizfo.models.forward_calls"] == 2
        assert metrics["mezo.rng.noise_calls"] == 4
        assert metrics["full_fo.rng.noise_calls"] == 0
        assert metrics["hizfo.optimizer.bwd_flops_recorded"] > 0
        assert metrics["partition.fo_tensors"] + metrics["partition.zo_tensors"] > 0


def test_full_length_run_has_no_failures(tmp_path):
    checks, metrics, _ = harness.run_workload("mlp_moons_train", 1, 0, False, tmp_path)
    assert checks.failed == 0, checks.notes
    assert metrics["hizfo.step_ms_p90"] > 0


def test_wrong_reference_loss_is_a_failed_operation(tmp_path):
    wrong = dict(harness.WORKLOADS["mlp_moons_train"].reference, hizfo=5.0)
    checks, _, _ = harness.run_workload("mlp_moons_train", 1, 0, False, tmp_path, reference=wrong)
    assert checks.failed >= 1
    assert all(note.startswith("hizfo final loss") for note in checks.notes), checks.notes


def test_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        shutil.copy(f, tmp_path / "perfbench" / f.name)
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mlp_moons_train", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
