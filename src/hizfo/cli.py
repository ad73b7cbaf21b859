"""Command-line harness: profile, partition, train, sweep, verify, report.

Exit codes: 0 ok, 1 config error, 2 diverged run, 3 verification failure.
Sweeps fan out over a process pool capped by the HZFO_THREADS environment
variable; every run is rebuilt from its serialized config, so results are
independent of worker scheduling.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import statistics
import sys
from dataclasses import fields
from multiprocessing import Pool
from operator import attrgetter
from pathlib import Path

from .config import (
    ExperimentConfig,
    _convert,
    build_data,
    build_model,
    build_optimizer_config,
    load_config,
    parse_config,
    serialize_config,
)
from .importance import estimate_importance
from .models import flops_profile
from .optimizer import StepRecord, train
from .partition import full_fo_plan, solve_dp
from .tensors import ConfigurationError, NumericOverflowError
from .verify import verify_all

SWEEP_AXES = ("rho", "r", "alpha")
SWEEP_SEEDS = 5

# steps.csv: every StepRecord field but `diverged`, in field order, three under short names
_STEP_FIELDS = tuple(f.name for f in fields(StepRecord) if f.name != "diverged")
_SHORT_NAMES = {"zo_estimate_norm": "zo_est_norm", "backward_flops": "bwd_flops", "forward_flops": "fwd_flops"}
STEP_CSV_COLUMNS = tuple(_SHORT_NAMES.get(n, n) for n in _STEP_FIELDS)


# every artifact goes through these two writers: JSON with sorted keys, an
# indent of 2 and a trailing newline; CSV whose floats csv writes as repr
def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


def _profile(cfg: ExperimentConfig):
    model = build_model(cfg)
    train_batches, eval_batches = build_data(cfg, model)
    steps, lr = cfg.warmup()
    profile = estimate_importance(model, train_batches, warmup_steps=steps, warmup_lr=lr)
    cost = flops_profile(model, cfg.get("task", "batch_size"))
    return model, train_batches, eval_batches, profile, cost


def _solve(cfg: ExperimentConfig, profile, cost):
    if cfg.algorithm == "full_fo":
        return full_fo_plan(profile, cost)
    return solve_dp(profile, cost, cfg.rho, cfg.buckets)


def _run(cfg: ExperimentConfig):
    """Profile, plan and train one configured run: (plan, report)."""
    opt = build_optimizer_config(cfg)  # a bad [optimizer] value fails before any work
    model, batches, eval_batches, profile, cost = _profile(cfg)
    plan = _solve(cfg, profile, cost)
    return plan, train(model, batches, opt, plan, cfg.algorithm, eval_batches=eval_batches)


def cmd_profile(cfg: ExperimentConfig, out: Path) -> int:
    _, _, _, profile, cost = _profile(cfg)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(
        out / "importance.csv",
        ("tensor", "layer_index", "raw_importance", "normalized_importance"),
        ((e.name, e.layer_index, profile.raw_scores[e.name], profile.scores[e.name]) for e in cost.entries),
    )
    _write_json(out / "cost_model.json", cost.to_dict())
    print(f"wrote {out / 'importance.csv'} and {out / 'cost_model.json'}")
    return 0


def cmd_partition(cfg: ExperimentConfig, out: Path) -> int:
    _, _, _, profile, cost = _profile(cfg)
    plan = _solve(cfg, profile, cost)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "plan.json", plan.to_dict())
    msg = f"wrote {out / 'plan.json'} (|FO|={len(plan.fo_set)}, |ZO|={len(plan.zo_set)})"
    if plan.warning:
        msg += f" warning: {plan.warning}"
    print(msg)
    return 0


def cmd_train(cfg: ExperimentConfig, out: Path) -> int:
    plan, report = _run(cfg)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "plan.json", plan.to_dict())
    _write_json(out / "report.json", report.to_dict())
    _write_csv(out / "steps.csv", STEP_CSV_COLUMNS, map(attrgetter(*_STEP_FIELDS), report.records))
    (out / "config.txt").write_text(serialize_config(cfg))
    print(
        f"{cfg.algorithm}: {report.steps_run} steps, final eval loss "
        f"{report.final_eval_loss}, diverged={report.diverged}"
    )
    return 2 if report.diverged else 0


def _set_seed(cfg: ExperimentConfig, seed: int) -> None:
    """One seed for the run, the model and the data."""
    for section, key in (("run", "master_seed"), ("model", "seed"), ("task", "data_seed")):
        cfg.set(section, key, seed)


def _sweep_worker(args):
    text, axis, value, seed = args
    cfg = parse_config(text)
    _set_seed(cfg, seed)
    if axis == "rho":
        cfg.set("partition", "rho", value)
    elif axis == "r":
        cfg.set("optimizer", "eta_zo", value * cfg.get("optimizer", "eta_fo"))
    elif axis == "alpha":
        cfg.set("optimizer", "alpha", value)
    _, report = _run(cfg)
    return {
        "axis": axis,
        "value": value,
        "seed": seed,
        "final_eval_loss": report.final_eval_loss,  # inf when the run diverged
        "diverged": int(report.diverged),
        "steps": report.steps_run,
        "backward_flops": report.total_backward_flops,
    }


def cmd_sweep(cfg: ExperimentConfig, out: Path, axis: str, values: list[float]) -> int:
    if axis not in SWEEP_AXES:
        raise ConfigurationError(f"sweep axis must be one of {SWEEP_AXES}, got {axis!r}")
    if not values:
        raise ConfigurationError("sweep needs at least one value")
    text = serialize_config(cfg)
    jobs = [
        (text, axis, v, cfg.master_seed + s) for v in values for s in range(SWEEP_SEEDS)
    ]
    threads = os.environ.get("HZFO_THREADS", str(os.cpu_count() or 1))
    workers = max(1, min(_convert("i", threads, "HZFO_THREADS"), len(jobs)))
    if workers == 1:
        rows = [_sweep_worker(j) for j in jobs]
    else:
        with Pool(processes=workers) as pool:
            rows = pool.map(_sweep_worker, jobs)
    rows.sort(key=lambda r: (r["value"], r["seed"]))
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "sweep.csv", rows[0].keys(), (r.values() for r in rows))
    summary = []
    for v in values:  # as given: a repeated value repeats its row
        group = [r for r in rows if r["value"] == v]
        med = statistics.median(r["final_eval_loss"] for r in group)
        summary.append((axis, v, med, sum(r["diverged"] for r in group), len(group)))
    header = ("axis", "value", "median_final_eval_loss", "n_diverged", "n_runs")
    _write_csv(out / "sweep_summary.csv", header, summary)
    print(f"wrote {out / 'sweep.csv'} and {out / 'sweep_summary.csv'} ({len(rows)} runs)")
    return 0


def cmd_verify(fast: bool) -> int:
    results = verify_all(fast=fast)
    for r in results:
        print(f"[{'PASS' if r.passed else 'FAIL'}] {r.name}: {r.detail}")
    return 0 if all(r.passed for r in results) else 3


def cmd_report(out: Path) -> int:
    path = out / "report.json"
    if not path.is_file():
        raise ConfigurationError(f"no report.json under {out}")
    try:
        with open(path) as f:
            report = json.load(f)
        proxy = report.get("memory_proxy", {})
        lines = (
            f"algorithm:          {report['algorithm']}",
            f"steps run:          {report['steps_run']}",
            f"diverged:           {report['diverged']}",
            f"final eval loss:    {report['final_eval_loss']}",
            f"backward FLOPs:     {report['total_backward_flops']}",
            f"forward FLOPs:      {report['total_forward_flops']}",
            f"memory proxy:       {proxy.get('tape_params', 0)} gradient-tape params",
            f"wall time:          {report['wall_total_ns'] / 1e9:.3f} s",
        )
    except (ValueError, KeyError, TypeError, AttributeError) as e:
        # not JSON, not UTF-8, or not the object `hizfo train` writes
        raise ConfigurationError(f"bad report {path}: {e!r}") from e
    print("\n".join(lines))
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a malformed command line is a config error
        raise ConfigurationError(message)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="hizfo", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)
    for name in ("profile", "partition", "train", "sweep"):
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="experiment config path")
        sp.add_argument("--seed", type=int, default=None, help="override master seed")
        sp.add_argument("--out", default=None, help="override output directory")
        if name == "sweep":
            sp.add_argument("--axis", required=True, help=f"one of {', '.join(SWEEP_AXES)}")
            sp.add_argument("--values", required=True, help="comma-separated values")
    sub.add_parser("verify").add_argument("--fast", action="store_true", help="reduced Monte-Carlo budgets")
    sub.add_parser("report").add_argument("--out", required=True, help="run directory to summarize")
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "verify":
            return cmd_verify(args.fast)
        if args.command == "report":
            return cmd_report(Path(args.out))
        cfg = load_config(args.config)
        if args.seed is not None:
            _set_seed(cfg, args.seed)
        out = Path(args.out or cfg.get("run", "out_dir"))
        # fail before the run, not when its results are written
        existing = next(p for p in (out, *out.parents) if p.exists())
        if not existing.is_dir():
            raise ConfigurationError(f"output path {out}: {existing} is not a directory")
        if args.command == "sweep":
            values = [_convert("f", v, "--values") for v in args.values.split(",") if v.strip()]
            bad = [v for v in values if not math.isfinite(v)]
            if bad:
                raise ConfigurationError(f"--values must be finite, got {bad[0]!r}")
            return cmd_sweep(cfg, out, args.axis, values)
        return {"profile": cmd_profile, "partition": cmd_partition, "train": cmd_train}[args.command](cfg, out)
    except (ConfigurationError, FileNotFoundError, IsADirectoryError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except NumericOverflowError as e:
        # an overflow outside the training loop, e.g. in the importance warm-up
        print(f"diverged: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
