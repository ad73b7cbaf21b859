"""Workloads, seeded inputs, output checks and metrics of the hizfo benchmark.

A run builds its inputs from the seed (a word-list corpus file and an
experiment config), sets the program up several times, then trains all
four algorithms from the same initial weights and plan in a closed loop,
one step of each algorithm per round. The sweep workload also runs the
``hizfo sweep`` CLI. Every output the program produces is checked, and
each failed check counts as one failed operation.
"""

from __future__ import annotations

import contextlib
import copy
import csv
import io
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from hizfo import cli, config, importance, models, optimizer, partition
from hizfo.tensors import NumericOverflowError

import tracing

ALGS = ("hizfo", "full_fo", "frozen_subset", "mezo")

# The step time's median is not here: host noise on a shared VM makes the
# step-time distribution bimodal, so the median of a run jumps between the
# two modes and spread 0.22-0.26 over ten seeds. The 90th percentile sits
# in the slow mode and spread under 0.09. The median is reported by the
# traced run instead, without a bound.
# The sweep's throughput is not here either: it is a mean over one sweep of
# about 26 s, in which the host switches between a fast and a slow mode (3
# and 4.7 ms per step) every 5-15 s, so over ten seeds it spread 0.17 and
# 0.27 with a worker pool and 0.18 serially. Its parts are gated instead: the
# per-run set-up by setup_s and the training by the step times.
END_TO_END = {
    "setup_s": "s",
    **{f"{a}.step_ms_p90": "ms" for a in ALGS},
    "hizfo.final_loss": "nats",
    "peak_rss_mb": "MB",
}

_PER_ALG = {
    "step_ms_p50": "ms",
    "models.forward_ms": "ms",
    "models.forward_calls": "count",
    "models.backward_ms": "ms",
    "models.backward_calls": "count",
    "models.fwd_flops": "FLOPs",
    "models.bwd_flops_executed": "FLOPs",
    "rng.noise_ms": "ms",
    "rng.noise_calls": "count",
    "rng.noise_elems": "count",
    "optimizer.fo_update_ms": "ms",
    "optimizer.self_ms": "ms",
    "optimizer.bwd_flops_recorded": "FLOPs",
    "memory.step_peak_kb": "KB",
}

# the hybrid step's direct calls in order, and the phase each one is
PHASES = (
    ("models.forward_with_cache", "clean_fwd_ms"),
    ("models.backward_from_cache", "fo_bwd_ms"),
    ("rng.add_scaled_noise", "perturb_ms"),
    ("models.forward_with_cache", "pert_fwd_ms"),
    ("rng.add_scaled_noise", "restore_ms"),
    ("models.backward_from_cache", "pert_bwd_ms"),
    ("optimizer.fo_update", "fo_update_ms"),
    ("rng.add_scaled_noise", "zo_update_ms"),
)

PER_LAYER = {
    **{f"{a}.{m}": u for a in ALGS for m, u in _PER_ALG.items()},
    **{f"hizfo.phase.{p}": "ms" for _, p in PHASES},
    "importance.warmup_ms": "ms",
    "partition.solve_dp_ms": "ms",
    "partition.dp_cells": "count",
    "partition.fo_tensors": "count",
    "partition.zo_tensors": "count",
    "datasets.build_ms": "ms",
    "models.cost_profile_ms": "ms",
    "config.parse_ms": "ms",
    "datasets.corpus_build_ms": "ms",
    "datasets.corpus_builds_per_run": "count",
    "optimizer.train_ms": "ms",
    "sweep.diverged_runs": "count",
    "sweep.steps_total": "count",
    "sweep.runs_per_s": "runs/s",
    "cli.sweep_parallel_efficiency": "ratio",
    "hizfo.bwd_flops_share": "ratio",
    "hizfo.wall_share": "ratio",
    "trace.overhead_pct": "%",
}

WORDS = ("the", "cat", "sat", "on", "a", "mat", "dog", "ran", "far", "big", "red", "sun")
SWEEP_VALUES = (0.1, 0.3, 0.5, 0.7, 0.9)

# A final loss further than this share from its reference fails the run.
# The references are medians over seeds 0-9. Those seeds lie within 12% of
# them, except MeZO, whose loss on the MLP reached 28% above on seed 202;
# the bands leave room for seeds not yet tried.
LOSS_TOLERANCE = {"hizfo": 0.25, "full_fo": 0.25, "frozen_subset": 0.25, "mezo": 0.5,
                  "sweep": 0.25}

SETUP_MIN_REPS = 5
SETUP_MIN_SECONDS = 2.0
# A plain run also sets up again after every SETUP_EVERY_SECONDS of
# training, for at least one rep and SETUP_BLOCK_SECONDS. Set-ups taken only
# at the start all land in the host mode of that moment, fast or slow (1.6x
# apart), so the median of a run jumped between the two and the medians of
# two sets of ten runs moved by 37%. Spread over the run, the set-ups see
# both modes; setup_s is their 90th percentile, which sits in the slow
# mode, as the step times' does.
SETUP_EVERY_SECONDS = 2.0
SETUP_BLOCK_SECONDS = 0.2
WARMUP_ROUNDS = 10     # rounds whose step times are not kept
TRACE_BLOCK_SECONDS = 1.0  # traced and untraced blocks alternate, so host noise hits both alike
MEMORY_STEPS = 10      # steps per algorithm measured under tracemalloc
BURST_SHARE = 0.5      # of --seconds the sweep workload trains; its sweep comes after
SWEEP_TIMEOUT_SECONDS = 60  # a parallel sweep normally takes 15-20 s

_LM_CONFIG = """\
[model]
kind = attention_lm
seed = {seed}
d_model = 16
depth = {depth}
context = 16

[task]
dataset = char_corpus
batch_size = {batch}
train_batches = {train_batches}
eval_batches = {eval_batches}
corpus_path = {corpus}
data_seed = {seed}

[optimizer]
algorithm = hizfo
eta_fo = 0.05
eta_zo = {eta_zo}
epsilon = 0.001
alpha = 0.1
max_steps = {steps}
eval_interval = 1000000000

[partition]
rho = {rho}
buckets = {buckets}
warmup_steps = {warmup_steps}
warmup_lr = 0.001

[run]
master_seed = {seed}
out_dir = {out}
"""

_MOONS_CONFIG = """\
[model]
kind = mlp
seed = {seed}
hidden_dims = 16

[task]
dataset = two_moons
batch_size = 64
train_batches = 8
eval_batches = 128
noise = 0.2
data_seed = {seed}

[optimizer]
algorithm = hizfo
eta_fo = 0.05
eta_zo = 0.005
epsilon = 0.001
alpha = 0.1
max_steps = {steps}
eval_interval = 1000000000

[partition]
rho = 0.6
buckets = 10000
warmup_steps = 5
warmup_lr = 0.001

[run]
master_seed = {seed}
out_dir = {out}
"""


@dataclass(frozen=True)
class Workload:
    name: str
    template: str
    params: dict          # template fields other than seed, corpus, steps, out
    steps: int            # training steps per run of one algorithm
    reference: dict       # algorithm (or "sweep") -> reference final eval loss
    corpus: bool = True
    sweep: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "lm_d4_train", _LM_CONFIG,
            dict(depth=4, batch=16, train_batches=16, eval_batches=32, eta_zo=0.002,
                 rho=0.3, buckets=100_000, warmup_steps=5),
            steps=300,
            reference={"hizfo": 2.27, "full_fo": 1.148, "frozen_subset": 2.342, "mezo": 2.738},
        ),
        Workload(
            "mlp_moons_train", _MOONS_CONFIG, {}, steps=600, corpus=False,
            reference={"hizfo": 0.295, "full_fo": 0.289, "frozen_subset": 0.298, "mezo": 0.362},
        ),
        Workload(
            "lm_r_sweep", _LM_CONFIG,
            dict(depth=2, batch=8, train_batches=8, eval_batches=2, eta_zo=0.005,
                 rho=0.6, buckets=10_000, warmup_steps=3),
            steps=300, sweep=True,
            reference={"hizfo": 1.861, "full_fo": 1.471, "frozen_subset": 1.998, "mezo": 2.751,
                       "sweep": 1.855},
        ),
    )
}


class Checks:
    """Operations attempted and failed, with a note for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def check(self, ok: bool, note: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(note)

    def same(self, seen: dict, key, value, what: str) -> None:
        """A deterministic count must repeat exactly; the first value is kept."""
        first = seen.setdefault(key, value)
        self.check(first == value, f"{what} changed: {first!r} then {value!r}")


def percentile(values, q: float) -> float:
    """q-th percentile (0..100) with linear interpolation between ranks."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def near_reference(loss: float, reference: dict, key: str) -> bool:
    ref = reference[key]
    return math.isfinite(loss) and abs(loss - ref) <= LOSS_TOLERANCE[key] * ref


def make_inputs(workload: Workload, seed: int, work: Path, steps: int | None = None) -> str:
    """Write the seeded corpus file and return the experiment config text."""
    corpus = work / "corpus.txt"
    if workload.corpus:
        rng = np.random.default_rng(seed)
        corpus.write_bytes(" ".join(rng.choice(WORDS, size=6000)).encode())
    return workload.template.format(
        seed=seed, corpus=corpus, out=work / "out",
        steps=workload.steps if steps is None else steps, **workload.params,
    )


@dataclass
class Setup:
    cfg: object
    model: object
    batches: list
    eval_batches: list
    plan: object
    seconds: float


def set_up(text: str) -> Setup:
    """The set-up path of ``hizfo train`` and of each sweep run: parse the
    config, build model and data, warm up, profile costs and plan."""
    t0 = time.perf_counter()
    cfg = config.parse_config(text)
    model = config.build_model(cfg)
    batches, _ = config.build_data(cfg, model)
    steps, lr = cfg.warmup()
    profile = importance.estimate_importance(model, batches, warmup_steps=steps, warmup_lr=lr)
    cost = models.flops_profile(model, cfg.get("task", "batch_size"))
    plan = partition.solve_dp(profile, cost, cfg.rho, cfg.buckets)
    _, eval_batches = config.build_data(cfg, model)
    return Setup(cfg, model, batches, eval_batches, plan, time.perf_counter() - t0)


def dp_cells(setup: Setup) -> int:
    """Cells of the DP table: tensors times quantized budget steps.

    Mirrors how solve_dp sizes its budget axis: unit cells when the whole
    backward fits in ``buckets`` integer FLOPs, else ``buckets`` cells.
    """
    cost = setup.model.cost_model(setup.cfg.get("task", "batch_size"))
    rho, buckets, total = setup.cfg.rho, setup.cfg.buckets, cost.total_backward_flops
    if rho >= 1.0:
        return 0
    axis = total if total <= buckets else buckets
    return len(cost.entries) * (math.floor(rho * axis + 1e-9) + 1)


def set_up_repeatedly(text: str, checks: Checks, seen: dict, reps: int = SETUP_MIN_REPS,
                      seconds: float = SETUP_MIN_SECONDS) -> tuple[Setup, list]:
    """Set up until both the rep and time minimums are met; checks every
    plan against the first one recorded in `seen`."""
    times, setup = [], None
    t0 = time.perf_counter()
    while len(times) < reps or time.perf_counter() - t0 < seconds:
        setup = set_up(text)
        times.append(setup.seconds)
        plan = setup.plan
        checks.check(plan.consumed_flops <= plan.budget_flops,
                     f"plan consumes {plan.consumed_flops} > budget {plan.budget_flops}")
        checks.same(seen, "plan", (tuple(plan.fo_set), plan.consumed_flops), "plan")
        checks.same(seen, "dp_cells", dp_cells(setup), "dp_cells")
    return setup, times


@dataclass
class AlgState:
    name: str
    model: object
    updater: object = None
    step: int = 0
    times: list = field(default_factory=list)
    losses: list = field(default_factory=list)
    runs_ended: int = 0   # finished or diverged


class Trainer:
    """Trains the four algorithms from the same start, one step each per round.

    A run of one algorithm is ``steps`` steps long. When it ends the model
    is evaluated and reset to the initial weights, so the timed steps of a
    long measurement repeat the same work and every run's final loss must
    come out bit for bit the same.
    """

    def __init__(self, setup: Setup, steps: int, reference: dict, checks: Checks):
        self.setup, self.steps, self.reference, self.checks = setup, steps, reference, checks
        self.opt = config.build_optimizer_config(setup.cfg)
        self.initial = [t.data.copy() for t in setup.model.tensors()]
        self.algs = []
        for name in ALGS:
            model = copy.deepcopy(setup.model)
            if name in ("hizfo", "frozen_subset"):
                partition.apply_plan(model, setup.plan)
            self.algs.append(AlgState(name, model, optimizer.FoUpdater(self.opt)))
        self.rounds = 0
        self.flops: dict = {}

    def _call(self, a: AlgState, batch):
        s, opt, m = a.step, self.opt, a.model
        if a.name == "hizfo":
            return optimizer.hizfo_step(m, batch, opt, s, fo_updater=a.updater)
        if a.name == "full_fo":
            return optimizer.baseline_step_full_fo(m, batch, opt, s, fo_updater=a.updater)
        if a.name == "frozen_subset":
            return optimizer.baseline_step_frozen_subset(m, batch, opt, self.setup.plan, s,
                                                         fo_updater=a.updater)
        return optimizer.baseline_step_mezo(m, batch, opt, s)

    def step(self, a: AlgState, keep_time: bool = True):
        batches = self.setup.batches
        batch = batches[a.step % len(batches)]
        tally = a.model.tally
        f0, b0 = tally.forward, tally.backward
        t0 = time.perf_counter_ns()
        rec = self._call(a, batch)
        dt = time.perf_counter_ns() - t0
        if keep_time:
            a.times.append(dt)
        self.checks.check(not rec.diverged, f"{a.name} diverged at step {a.step}")
        self.checks.same(self.flops, a.name,
                         (rec.forward_flops, rec.backward_flops,
                          tally.forward - f0, tally.backward - b0),
                         f"{a.name} FLOPs per step")
        a.step += 1
        if rec.diverged or a.step == self.steps:
            self._end_run(a, finished=not rec.diverged)
        return rec

    def _end_run(self, a: AlgState, finished: bool) -> None:
        if finished:
            loss = optimizer.evaluate(a.model, self.setup.eval_batches)
            self.checks.check(near_reference(loss, self.reference, a.name),
                              f"{a.name} final loss {loss} too far from {self.reference[a.name]}")
            if a.losses:
                self.checks.check(loss == a.losses[0], f"{a.name} final loss not repeated")
            a.losses.append(loss)
        for t, init in zip(a.model.tensors(), self.initial):
            t.data[:] = init
        a.updater = optimizer.FoUpdater(self.opt)
        a.step = 0
        a.runs_ended += 1

    def run_for(self, seconds: float) -> None:
        """Round-robin steps until `seconds` pass, one full run of each
        algorithm has ended and step times were kept."""
        t0 = time.perf_counter()
        while (time.perf_counter() - t0 < seconds
               or not all(a.runs_ended and a.times for a in self.algs)):
            keep = self.rounds >= WARMUP_ROUNDS
            for a in self.algs:
                self.step(a, keep)
            self.rounds += 1

    def take_times(self) -> dict:
        """Step times kept since the last call, per algorithm."""
        out = {a.name: a.times for a in self.algs}
        for a in self.algs:
            a.times = []
        return out

    def memory_kb(self) -> dict:
        """Median tracemalloc peak of single steps, per algorithm."""
        out = {}
        tracemalloc.start()
        try:
            for a in self.algs:
                peaks = []
                for _ in range(MEMORY_STEPS):
                    tracemalloc.reset_peak()
                    base = tracemalloc.get_traced_memory()[0]
                    self.step(a, keep_time=False)
                    peaks.append((tracemalloc.get_traced_memory()[1] - base) / 1024)
                out[a.name] = statistics.median(peaks)
        finally:
            tracemalloc.stop()
        return out


def run_sweep(text: str, seed: int, work: Path, threads: int, checks: Checks,
              seen: dict) -> tuple[float, list]:
    """One ``hizfo sweep --axis r``; returns wall time and the rows written.

    With one thread the sweep runs in this process, so that a traced run
    sees its spans. Otherwise it runs as its own process with a worker pool,
    as a user would start it, and is killed if it does not finish in time.
    """
    cfg_path = work / "sweep.cfg"
    cfg_path.write_text(text)
    out = work / "sweep"
    argv = ["sweep", "--config", str(cfg_path), "--axis", "r",
            "--values", ",".join(map(str, SWEEP_VALUES)), "--out", str(out)]
    t0 = time.perf_counter()
    if threads == 1:
        code, err = _sweep_here(argv)
    else:
        code, err = _sweep_process(argv, threads)
    wall = time.perf_counter() - t0
    checks.check(code == 0, f"hizfo sweep {'timed out' if code is None else f'exited {code}'}: {err}")
    rows = []
    if (out / "sweep.csv").exists():
        with open(out / "sweep.csv", newline="") as f:
            rows = list(csv.DictReader(f))
    got = {(float(r["value"]), int(r["seed"])) for r in rows}
    for v in SWEEP_VALUES:
        for s in range(seed, seed + cli.SWEEP_SEEDS):
            checks.check((v, s) in got, f"sweep row r={v} seed={s} missing")
    for r in rows:
        if not int(r["diverged"]):
            checks.check(math.isfinite(float(r["final_eval_loss"])),
                         f"sweep run r={r['value']} seed={r['seed']} has loss {r['final_eval_loss']}")
    checks.same(seen, "sweep",
                tuple((r["value"], r["seed"], r["diverged"], r["steps"], r["final_eval_loss"])
                      for r in rows), "sweep results")
    return wall, rows


def _sweep_here(argv) -> tuple[int, str]:
    previous = os.environ.get("HZFO_THREADS")
    os.environ["HZFO_THREADS"] = "1"
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv), ""
    except NumericOverflowError as e:
        # escapes train() when the last update overflows the eval forward
        return 1, f"NumericOverflowError: {e}"
    finally:
        if previous is None:
            del os.environ["HZFO_THREADS"]
        else:
            os.environ["HZFO_THREADS"] = previous


def _sweep_process(argv, threads: int) -> tuple[int | None, str]:
    """Run the CLI in a new session; on timeout kill the session's processes
    (the CLI and its pool workers) and wait until they are gone."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, HZFO_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-c", "import sys; from hizfo.cli import main; sys.exit(main(sys.argv[1:]))",
         *argv],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        _, err = proc.communicate(timeout=SWEEP_TIMEOUT_SECONDS)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        _, err = proc.communicate()
        code = None
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.05)
    lines = [line for line in err.splitlines() if line.strip()]
    return code, lines[-1] if lines else ""


def sweep_loss(rows) -> float:
    """Median final eval loss of the r=0.1 runs, the sweep's stable end."""
    losses = [float(r["final_eval_loss"]) for r in rows if float(r["value"]) == 0.1]
    return statistics.median(losses) if losses else math.nan


def step_ms(times: dict) -> dict:
    """(p50, p90) step time in ms per algorithm."""
    return {alg: (percentile(ts, 50) / 1e6, percentile(ts, 90) / 1e6) for alg, ts in times.items()}


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


# --- per-layer metrics from spans ------------------------------------------

def _median(xs) -> float:
    return statistics.median(xs) if xs else 0.0


def step_layers(spans) -> tuple[dict, dict]:
    """Per-algorithm layer metrics, medians over the traced steps, and the
    per-step call pattern of each algorithm (which must not change)."""
    kids = tracing.children(spans)
    per_alg = {a: [] for a in ALGS}
    patterns = {a: set() for a in ALGS}
    phases = {p: [] for _, p in PHASES}
    for i, s in enumerate(spans):
        if not s[0].startswith("optimizer.step.") or s[3] != -1:
            continue
        alg = s[0][len("optimizer.step."):]
        direct = kids.get(i, [])
        leaf = []  # forward_with_cache sits under forward in mezo's step
        for c in direct:
            leaf.extend(kids.get(c, []) if spans[c][0] == "models.forward" else [c])
        dur = {k: 0 for k in ("models.forward_with_cache", "models.backward_from_cache",
                              "rng.add_scaled_noise", "optimizer.fo_update")}
        calls = dict.fromkeys(dur, 0)
        elems = 0
        for c in leaf:
            name = spans[c][0]
            if name in dur:
                dur[name] += spans[c][2] - spans[c][1]
                calls[name] += 1
                if name == "rng.add_scaled_noise":
                    elems += spans[c][4]
        patterns[alg].add(tuple(spans[c][0] for c in leaf))
        per_alg[alg].append((dur, calls, elems, tracing.self_ns(spans, kids, i)))
        if alg == "hizfo" and tuple(spans[c][0] for c in leaf) == tuple(k for k, _ in PHASES):
            for c, (_, p) in zip(leaf, PHASES):
                phases[p].append(spans[c][2] - spans[c][1])
    out = {}
    for alg, rows in per_alg.items():
        ms = lambda key: _median([r[0][key] for r in rows]) / 1e6
        cnt = lambda key: rows[0][1][key] if rows else 0
        out[f"{alg}.models.forward_ms"] = ms("models.forward_with_cache")
        out[f"{alg}.models.forward_calls"] = cnt("models.forward_with_cache")
        out[f"{alg}.models.backward_ms"] = ms("models.backward_from_cache")
        out[f"{alg}.models.backward_calls"] = cnt("models.backward_from_cache")
        out[f"{alg}.rng.noise_ms"] = ms("rng.add_scaled_noise")
        out[f"{alg}.rng.noise_calls"] = cnt("rng.add_scaled_noise")
        out[f"{alg}.rng.noise_elems"] = rows[0][2] if rows else 0
        out[f"{alg}.optimizer.fo_update_ms"] = ms("optimizer.fo_update")
        out[f"{alg}.optimizer.self_ms"] = _median([r[3] for r in rows]) / 1e6
    for p, xs in phases.items():
        out[f"hizfo.phase.{p}"] = _median(xs) / 1e6
    return out, patterns


def layer_medians(spans) -> dict:
    """Set-up and sweep layer metrics: median duration of each kind of call."""
    by = {}
    for s in spans:
        by.setdefault(s[0], []).append(s[2] - s[1])
    med = lambda k: _median(by.get(k, [])) / 1e6
    plans = len(by.get("partition.solve_dp", []))
    return {
        "importance.warmup_ms": med("importance.estimate"),
        "partition.solve_dp_ms": med("partition.solve_dp"),
        "datasets.build_ms": med("datasets.build"),
        "models.cost_profile_ms": med("models.flops_profile"),
        "config.parse_ms": med("config.parse"),
        "datasets.corpus_build_ms": med("datasets.corpus"),
        # every set-up and every sweep run solves exactly one plan
        "datasets.corpus_builds_per_run": len(by.get("datasets.corpus", [])) / plans if plans else 0,
        "optimizer.train_ms": med("optimizer.train"),
    }


# --- one run ----------------------------------------------------------------

def nproc() -> int:
    return len(os.sched_getaffinity(0))


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: Path,
                 steps: int | None = None, reference: dict | None = None):
    """One benchmark run; returns (checks, metrics, tracer or None).

    `steps` and `reference` replace the workload's run length and reference
    losses, for the benchmark's own tests.
    """
    w = WORKLOADS[name]
    steps = w.steps if steps is None else steps
    reference = w.reference if reference is None else reference
    checks = Checks()
    text = make_inputs(w, seed, work, steps)
    tracer = tracing.Tracer() if trace else None
    plans = {}
    with _installed(tracer):
        setup, setup_times = set_up_repeatedly(text, checks, plans)
    trainer = Trainer(setup, steps, reference, checks)
    train_seconds = seconds * (BURST_SHARE if w.sweep else 1.0)
    sweep, seen = None, {}
    if w.sweep:
        sweep = lambda threads: run_sweep(text, seed, work, threads, checks, seen)

    if trace:
        metrics, rows = _per_layer(trainer, tracer, train_seconds, sweep)
    else:
        set_up_again = lambda: set_up_repeatedly(text, checks, plans, 1, SETUP_BLOCK_SECONDS)[1]
        metrics, rows = _end_to_end(trainer, train_seconds, sweep, set_up_again, setup_times)
    if sweep:
        loss = sweep_loss(rows)
        checks.check(near_reference(loss, reference, "sweep"),
                     f"sweep r=0.1 median loss {loss} too far from {reference['sweep']}")
        if not trace:
            metrics["hizfo.final_loss"] = loss
    units = PER_LAYER if trace else END_TO_END
    return checks, {k: metrics[k] for k in units}, tracer


def _end_to_end(trainer: Trainer, train_seconds: float, sweep, set_up_again,
                setup_times: list):
    """End-to-end metrics, untraced; returns them with the sweep's rows."""
    trained = 0.0
    while True:
        t0 = time.perf_counter()
        trainer.run_for(min(SETUP_EVERY_SECONDS, train_seconds - trained))
        trained += time.perf_counter() - t0
        setup_times.extend(set_up_again())
        for a in trainer.algs:  # a round to warm caches the set-up evicted
            trainer.step(a, keep_time=False)
        if trained >= train_seconds:
            break
    m = {"setup_s": percentile(setup_times, 90)}
    for alg, (_, p90) in step_ms(trainer.take_times()).items():
        m[f"{alg}.step_ms_p90"] = p90
    losses = trainer.algs[ALGS.index("hizfo")].losses
    m["hizfo.final_loss"] = losses[0] if losses else math.nan
    # the sweep's rows are checked and give its loss; it runs in this
    # process, where a failing run cannot hang a worker pool
    rows = sweep(1)[1] if sweep else []
    m["peak_rss_mb"] = peak_rss_mb()
    return m, rows


def _per_layer(trainer: Trainer, tracer, train_seconds: float, sweep):
    """Per-layer metrics from a traced run; returns them with the sweep's rows."""
    times = ({a: [] for a in ALGS}, {a: [] for a in ALGS})  # untraced, traced
    t0 = time.perf_counter()
    on = False
    while time.perf_counter() - t0 < train_seconds or not times[1]["hizfo"]:
        with _installed(tracer if on else None):
            trainer.run_for(TRACE_BLOCK_SECONDS)
        for alg, ts in trainer.take_times().items():
            times[on][alg].extend(ts)
        on = not on
    untraced = step_ms(times[0])
    memory = trainer.memory_kb()
    rows, efficiency, runs_per_s = [], 0.0, 0.0
    if sweep:
        parallel, rows = sweep(nproc())
        runs_per_s = len(rows) / parallel
        with _installed(tracer):
            serial, rows = sweep(1)
        efficiency = serial / (nproc() * parallel)

    m, patterns = step_layers(tracer.spans)
    for alg, shapes in patterns.items():
        trainer.checks.check(len(shapes) == 1, f"{alg} calls per step changed: {sorted(shapes)}")
    m.update(layer_medians(tracer.spans))
    flops = trainer.flops
    for alg in ALGS:
        fwd_recorded, bwd_recorded, fwd, bwd = flops[alg]
        m[f"{alg}.models.fwd_flops"] = fwd
        m[f"{alg}.models.bwd_flops_executed"] = bwd
        m[f"{alg}.optimizer.bwd_flops_recorded"] = bwd_recorded
        m[f"{alg}.memory.step_peak_kb"] = memory[alg]
    setup = trainer.setup
    m["partition.dp_cells"] = dp_cells(setup)
    m["partition.fo_tensors"] = len(setup.plan.fo_set)
    m["partition.zo_tensors"] = len(setup.plan.zo_set)
    m["sweep.diverged_runs"] = sum(int(r["diverged"]) for r in rows)
    m["sweep.steps_total"] = sum(int(r["steps"]) for r in rows)
    m["cli.sweep_parallel_efficiency"] = efficiency
    m["sweep.runs_per_s"] = runs_per_s
    m["hizfo.bwd_flops_share"] = flops["hizfo"][3] / flops["full_fo"][3]
    for alg, (p50, _) in untraced.items():
        m[f"{alg}.step_ms_p50"] = p50
    m["hizfo.wall_share"] = untraced["hizfo"][0] / untraced["full_fo"][0]
    # means, not medians: a median can land in a different host-noise mode
    # in the traced and the untraced blocks
    mean_round = [sum(statistics.fmean(ts) for ts in t.values()) for t in times]
    m["trace.overhead_pct"] = 100.0 * (mean_round[1] - mean_round[0]) / mean_round[0]
    return m, rows


@contextlib.contextmanager
def _installed(tracer):
    if tracer is None:
        yield
        return
    tracer.install()
    try:
        yield
    finally:
        tracer.uninstall()
