"""Span recording for the traced benchmark run.

The tracer wraps the public entry points of the hizfo modules from the
outside, by replacing module and class attributes for the length of a
traced phase. Nothing in the program is edited. Spans are kept in memory
as ``[name, start_ns, end_ns, parent_index, attr]`` and written out when
the run ends.
"""

from __future__ import annotations

import functools
import sys
import time

# (kind, module, owner, attribute): ``owner`` None means a module-level
# function, which is replaced in every hizfo module that imported it.
WRAPPED = (
    ("models.forward_with_cache", "hizfo.models", "LayeredModel", "forward_with_cache"),
    ("models.backward_from_cache", "hizfo.models", "LayeredModel", "backward_from_cache"),
    ("models.forward", "hizfo.models", "LayeredModel", "forward"),
    ("models.flops_profile", "hizfo.models", None, "flops_profile"),
    ("rng.add_scaled_noise", "hizfo.rng", None, "add_scaled_noise"),
    ("optimizer.fo_update", "hizfo.optimizer", "FoUpdater", "apply"),
    ("optimizer.train", "hizfo.optimizer", None, "train"),
    ("optimizer.step.hizfo", "hizfo.optimizer", None, "hizfo_step"),
    ("optimizer.step.full_fo", "hizfo.optimizer", None, "baseline_step_full_fo"),
    ("optimizer.step.frozen_subset", "hizfo.optimizer", None, "baseline_step_frozen_subset"),
    ("optimizer.step.mezo", "hizfo.optimizer", None, "baseline_step_mezo"),
    ("importance.estimate", "hizfo.importance", None, "estimate_importance"),
    ("partition.solve_dp", "hizfo.partition", None, "solve_dp"),
    ("config.parse", "hizfo.config", None, "parse_config"),
    ("datasets.build", "hizfo.config", None, "build_data"),
    ("datasets.corpus", "hizfo.datasets", "CharCorpus", "__init__"),
    ("cli.main", "hizfo.cli", None, "main"),
)


def _noise_elems(args, kwargs):
    arrays = args[0] if args else kwargs["arrays"]
    return sum(a.size for a in arrays)


# per-span attribute recorded at call time, for counts the span alone lacks
ATTRS = {"rng.add_scaled_noise": _noise_elems}


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, kind, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        attr_fn = ATTRS.get(kind)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            attr = attr_fn(args, kwargs) if attr_fn else 0
            spans.append([kind, clock(), 0, stack[-1] if stack else -1, attr])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sys.modules.items() if n == "hizfo" or n.startswith("hizfo.")]
        for kind, module, owner, attr in WRAPPED:
            home = sys.modules[module]
            if owner is not None:
                cls = getattr(home, owner)
                original = cls.__dict__[attr]
                self._patch(cls, attr, original, self._wrap(kind, original))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(kind, original)
            for m in modules:
                if getattr(m, attr, None) is original:
                    self._patch(m, attr, original, wrapper)

    def _patch(self, obj, attr, original, wrapper) -> None:
        self._saved.append((obj, attr, original))
        setattr(obj, attr, wrapper)

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._saved):
            setattr(obj, attr, original)
        self._saved.clear()

    def write(self, path) -> None:
        with open(path, "w") as f:
            f.write("index,name,start_ns,end_ns,parent,attr\n")
            for i, (name, start, end, parent, attr) in enumerate(self.spans):
                f.write(f"{i},{name},{start},{end},{parent},{attr}\n")


def children(spans) -> dict[int, list[int]]:
    """Direct child indices of every span, in call order."""
    out: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s[3] >= 0:
            out.setdefault(s[3], []).append(i)
    return out


def self_ns(spans, kids, i) -> int:
    """Span duration minus the time its direct children cover.

    Children of one span run one after another in this single-threaded
    program, so their durations do not overlap and simply add up.
    """
    s = spans[i]
    return (s[2] - s[1]) - sum(spans[c][2] - spans[c][1] for c in kids.get(i, ()))
