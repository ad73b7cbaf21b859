"""hizfo benchmark entry point.

    python3 perfbench/run.py --workload lm_d4_train --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``). The line before it records the seed and the environment.
A traced run also writes its spans to ``perfbench/out/``.
"""

from __future__ import annotations

import os

# BLAS must see its thread count before numpy is first imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
os.environ["MKL_NUM_THREADS"] = "1"

import argparse
import json
import math
import platform
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def git_sha(root: Path) -> str | None:
    """The checked-out commit, read from .git without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = root / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(harness, seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "seed": seed,
        "git_sha": git_sha(ROOT),
        "nproc": harness.nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "loadavg_at_start": os.getloadavg(),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="hizfo benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "hizfo" / "__init__.py").is_file():
        print(f"no hizfo sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import harness

    if args.workload not in harness.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(harness.WORKLOADS)}",
              file=sys.stderr)
        return 2
    env = environment(harness, args.seed)
    print(json.dumps({"workload": args.workload, "trace": args.trace, "env": env}), flush=True)

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as tmp:
        checks, metrics, tracer = harness.run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), Path(tmp))
    if tracer is not None:
        tracer.write(out / f"spans-{args.workload}-seed{args.seed}.csv")
    for note in checks.notes:
        print(f"check failed: {note}", file=sys.stderr)
    units = harness.PER_LAYER if args.trace else harness.END_TO_END
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        # a failed run can leave a metric without a value (a sweep that never
        # finished has no loss); JSON has no NaN, so it reads null
        "metrics": {k: {"value": v if math.isfinite(v) else None, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
