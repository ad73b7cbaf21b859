"""Run the hizfo CLI from two checkouts on the benchmark's configs and diff
every artifact they write, apart from the wall-clock fields.

    python3 tools/compare_outputs.py BASE HEAD [--seeds 3,7] [--work DIR]

BASE and HEAD are checkout roots, each with ``src/hizfo``. The inputs (the
seeded corpus file and the experiment config of each workload) come from
BASE's ``perfbench/harness.py``, so both checkouts read the same files. For
every workload and seed, each checkout runs ``hizfo profile``,
``hizfo partition``, ``hizfo train`` once per algorithm, and
``hizfo sweep --axis r`` over the benchmark's sweep values. The tool then
compares the two output trees file by file:

* JSON files are compared as parsed objects without ``wall_ns`` and
  ``wall_total_ns`` keys;
* CSV files are compared row by row without those columns;
* every other file is compared byte for byte;
* each command's exit code must match too.

It prints one line per file and exits 0 when every file matches, 1 when
any differs. Sweeps size their worker pool from ``HZFO_THREADS`` as
``hizfo sweep`` does; their rows do not depend on it.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("lm_d4_train", "mlp_moons_train", "lm_r_sweep")
ALGORITHMS = ("hizfo", "full_fo", "frozen_subset", "mezo")
WALL = {"wall_ns", "wall_total_ns"}

# writes each workload's inputs with BASE's harness: argv is perfbench dir,
# workload, seed, work dir; prints the config text
_INPUTS = """\
import sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import harness
w = harness.WORKLOADS[sys.argv[2]]
sys.stdout.write(harness.make_inputs(w, int(sys.argv[3]), Path(sys.argv[4])))
print("\\n#sweep_values=" + ",".join(map(str, harness.SWEEP_VALUES)))
"""


def _env(checkout: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(checkout / "src"))


def write_inputs(base: Path, workload: str, seed: int, work: Path) -> tuple[dict, str]:
    """Config path per algorithm, and the sweep values, for one workload and seed."""
    work.mkdir(parents=True, exist_ok=True)
    out = subprocess.run([sys.executable, "-c", _INPUTS, str(base / "perfbench"), workload, str(seed), str(work)],
                         env=_env(base), check=True, capture_output=True, text=True).stdout
    text, _, values = out.rpartition("\n#sweep_values=")
    if text.count("algorithm = hizfo") != 1:
        raise SystemExit(f"{workload}: the config has no single 'algorithm = hizfo' line")
    configs = {}
    for alg in ALGORITHMS:
        configs[alg] = work / f"{alg}.ini"
        configs[alg].write_text(text.replace("algorithm = hizfo", f"algorithm = {alg}"))
    return configs, values.strip()


def run_checkout(checkout: Path, configs: dict, values: str, out: Path) -> dict:
    """Run every command of one checkout into `out`; returns exit codes by command."""
    hizfo = [sys.executable, "-m", "hizfo.cli"]
    commands = {
        "profile": ["profile", "--config", configs["hizfo"], "--out", out / "profile"],
        "partition": ["partition", "--config", configs["hizfo"], "--out", out / "partition"],
        **{f"train_{a}": ["train", "--config", configs[a], "--out", out / f"train_{a}"] for a in ALGORITHMS},
        "sweep_r": ["sweep", "--config", configs["hizfo"], "--out", out / "sweep_r", "--axis", "r", "--values", values],
    }
    codes = {}
    for name, args in commands.items():
        done = subprocess.run(hizfo + [str(a) for a in args], env=_env(checkout), capture_output=True, text=True)
        codes[name] = done.returncode
        if done.returncode not in (0, 2):  # 2: a diverged run, which still writes its artifacts
            print(f"  {checkout} {name} exited {done.returncode}: {done.stderr.strip()[-300:]}")
    return codes


def _strip(obj):
    if isinstance(obj, dict):
        return {k: _strip(v) for k, v in obj.items() if k not in WALL}
    if isinstance(obj, list):
        return [_strip(v) for v in obj]
    return obj


def _csv_rows(path: Path) -> list:
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    keep = [i for i, name in enumerate(rows[0] if rows else []) if name not in WALL]
    return [[row[i] for i in keep] for row in rows]


def same_file(a: Path, b: Path) -> str | None:
    """None when the two files match outside the wall-clock fields, else why not."""
    if a.suffix == ".json":
        x, y = _strip(json.loads(a.read_text())), _strip(json.loads(b.read_text()))
        return None if x == y else "JSON differs"
    if a.suffix == ".csv":
        x, y = _csv_rows(a), _csv_rows(b)
        if len(x) != len(y):
            return f"{len(x)} rows against {len(y)}"
        bad = next((i for i, (r, s) in enumerate(zip(x, y)) if r != s), None)
        return None if bad is None else f"row {bad} differs: {x[bad]} against {y[bad]}"
    return None if a.read_bytes() == b.read_bytes() else "bytes differ"


def compare_trees(a: Path, b: Path) -> int:
    """Print one line per file; returns the number of files that differ."""
    files_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    bad = 0
    for rel in sorted(files_a | files_b):
        if rel not in files_a or rel not in files_b:
            why = f"only in {'base' if rel in files_a else 'head'}"
        else:
            why = same_file(a / rel, b / rel)
        bad += why is not None
        print(f"  {'same' if why is None else 'DIFF'} {rel}" + ("" if why is None else f": {why}"))
    return bad


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("base", type=Path, help="checkout root whose harness writes the inputs")
    p.add_argument("head", type=Path, help="checkout root to compare against it")
    p.add_argument("--seeds", default="3,7", help="comma-separated seeds (default 3,7)")
    p.add_argument("--work", type=Path, default=None, help="output directory (default: a fresh temporary one)")
    args = p.parse_args(argv)
    base, head = args.base.resolve(), args.head.resolve()
    work = (args.work or Path(tempfile.mkdtemp(prefix="compare_outputs_"))).resolve()
    bad = 0
    for workload in WORKLOADS:
        for seed in (int(s) for s in args.seeds.split(",")):
            case = work / workload / str(seed)
            configs, values = write_inputs(base, workload, seed, case / "inputs")
            codes = {tag: run_checkout(root, configs, values, case / tag)
                     for tag, root in (("base", base), ("head", head))}
            print(f"{workload} seed {seed}:")
            if codes["base"] != codes["head"]:
                bad += 1
                print(f"  DIFF exit codes: {codes['base']} against {codes['head']}")
            bad += compare_trees(case / "base", case / "head")
    print(f"{'identical' if bad == 0 else f'{bad} differences'}; outputs under {work}")
    return 0 if bad == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
