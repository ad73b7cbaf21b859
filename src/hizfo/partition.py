"""Budgeted tensor selection: exact solver, brute-force oracle, plan application.

The selection problem: pick the tensor subset with the largest total
importance whose truncated-backward cost fits in ``rho * T_full`` FLOPs,
where the cost of a subset charges each selected tensor's weight-gradient
FLOPs plus activation propagation through every layer down to and
including the deepest selected one.

With the deepest selected tensor fixed, the propagation cost is fixed too,
and the rest is a 0/1 knapsack over the gradient costs of the tensors
before it. The solver walks the tensors output-first and keeps the Pareto
frontier of (gradient cost, importance) over the sets seen so far
(Nemhauser and Ullmann 1969), so each deepest tensor takes the best
frontier set that fits beside it. No cost is rounded and there is no
budget axis: the plan is the exact optimum, in O(N * frontier) time. At
equal importance the cheaper plan wins. Tensors with importance <= 0 are
never selected: they can only hurt a maximization.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .importance import ImportanceProfile
from .models import CostModel, LayeredModel
from .tensors import ConfigurationError

_TIE = 1e-15  # importance sums closer than this count as equal
_MAX_FRONT = 1 << 16  # frontier entries; the benchmark's models peak at 50, 66-tensor MLPs near 1,500


@dataclass
class PartitionPlan:
    fo_set: list[str]
    zo_set: list[str]
    budget_ratio: float
    budget_flops: float
    consumed_flops: int
    achieved_importance: float
    warning: str | None = None

    def to_dict(self) -> dict:
        d = {
            "rho": self.budget_ratio,
            "budget_flops": self.budget_flops,
            "consumed_flops": self.consumed_flops,
            "fo": list(self.fo_set),
            "zo": list(self.zo_set),
            "achieved_importance": self.achieved_importance,
        }
        if self.warning:
            d["warning"] = self.warning
        return d


def _check_keys(profile: ImportanceProfile, cost: CostModel):
    names = cost.names()
    if set(names) != set(profile.scores):
        raise ConfigurationError("importance profile and cost model cover different tensors")
    return names


def solve_dp(profile: ImportanceProfile, cost: CostModel, rho: float, buckets: int = 10_000) -> PartitionPlan:
    """Importance-maximizing selection under the FLOPs budget, exactly; ``buckets`` no longer moves the plan."""
    if not (0.0 < rho <= 1.0):
        raise ConfigurationError(f"rho must be in (0, 1], got {rho}")
    if buckets < 10:
        raise ConfigurationError(f"buckets must be >= 10, got {buckets}")
    names = _check_keys(profile, cost)
    scores = [profile.scores[name] for name in names]

    if rho >= 1.0:
        # the budget equals the full backward cost, which no subset exceeds
        fo = [name for name, s in zip(names, scores) if s > 0.0]
        return _finish(profile, cost, rho, fo, warning=None)

    budget = rho * cost.total_backward_flops
    # front: (grad cost, importance, members bitmask) of the sets of positive
    # entries before k that no cheaper set matches, so importance rises with cost
    front = [(0, 0.0, 0)]
    found = []  # (cost, k, members, importance): the best set whose deepest entry is k
    for k, (g, p, s) in enumerate(zip(cost.grad, cost.cumprop, scores)):
        if s <= 0.0:
            continue
        best = bisect_right(front, budget - p - g, key=itemgetter(0)) - 1
        if best >= 0:
            c, v, m = front[best]
            found.append((c + g + p, k, m | 1 << k, v + s))
        grown = sorted(front + [(c + g, v + s, m | 1 << k) for c, v, m in front], key=lambda e: (e[0], -e[1]))
        front = []
        for e in grown:  # later entries cannot afford more than budget - p
            if e[0] <= budget - p and (not front or e[1] > front[-1][1] + _TIE):
                front.append(e)
        if len(front) > _MAX_FRONT:
            raise ConfigurationError(
                f"planner frontier passed {_MAX_FRONT} entries at {names[k]!r}: too many distinct costs")

    top = max((f[3] for f in found), default=0.0)
    members = min((f for f in found if f[3] >= top - _TIE), default=(0, 0, 0))[2]  # equal importance: cheapest
    fo = [name for j, name in enumerate(names) if members >> j & 1]
    low = not fo and not any(g + p <= budget for g, p in zip(cost.grad, cost.cumprop))
    return _finish(profile, cost, rho, fo, "budget_below_min_cost" if low else None)


def _finish(profile, cost, rho, fo, warning) -> PartitionPlan:
    names, fo = cost.names(), set(fo)
    fo_ordered = [name for name in names if name in fo]
    zo = [name for name in names if name not in fo]
    return PartitionPlan(
        fo_set=fo_ordered,
        zo_set=zo,
        budget_ratio=rho,
        budget_flops=rho * cost.total_backward_flops,
        consumed_flops=cost.subset_backward_flops(fo_ordered),
        achieved_importance=float(sum(profile.scores[name] for name in fo_ordered)),
        warning=warning,
    )


def brute_force_select(profile: ImportanceProfile, cost: CostModel, rho: float) -> PartitionPlan:
    """Exact optimum by enumerating all subsets; the solver's test oracle.

    Uses the same cost accounting as solve_dp. Ties on importance go to the
    cheaper subset, then to the smaller one, so the empty set wins when
    every score is zero.
    """
    if not (0.0 < rho <= 1.0):
        raise ConfigurationError(f"rho must be in (0, 1], got {rho}")
    names = _check_keys(profile, cost)
    n = len(names)
    if n > 20:
        raise ConfigurationError(f"brute force refuses {n} tensors (limit 20)")
    budget = rho * cost.total_backward_flops
    grad = np.array(cost.grad, dtype=np.float64)
    cumprop = np.array(cost.cumprop, dtype=np.float64)
    scores = np.array([profile.scores[name] for name in names])

    best = (0.0, 0.0, 0, ())  # (importance, -cost, -popcount) maximized
    for mask in range(1, 1 << n):
        idx = [k for k in range(n) if mask >> k & 1]
        c = grad[idx].sum() + cumprop[max(idx)]
        if c > budget:
            continue
        imp = float(scores[idx].sum())
        key = (imp, -c, -len(idx))
        if key > (best[0], best[1], best[2]):
            best = (imp, -c, -len(idx), tuple(idx))
    fo = [names[k] for k in best[3]]
    return _finish(profile, cost, rho, fo, warning=None)


def apply_plan(model: LayeredModel, plan: PartitionPlan) -> None:
    """Assign the plan's FO set to the model, checking the whole plan first; idempotent."""
    names = {t.name for t in model.tensors()}
    fo, zo = set(plan.fo_set), set(plan.zo_set)
    for name in list(plan.fo_set) + list(plan.zo_set):
        if name not in names:
            raise ConfigurationError(f"plan names unknown tensor {name!r}")
    if fo & zo:
        raise ConfigurationError(f"plan puts tensors in both fo_set and zo_set: {sorted(fo & zo)}")
    missing = names - fo - zo
    if missing:
        raise ConfigurationError(f"plan does not cover tensors: {sorted(missing)}")
    model.assign(fo)


def full_fo_plan(profile: ImportanceProfile, cost: CostModel) -> PartitionPlan:
    """Everything first-order; the trivial plan used by the full-FO baseline."""
    return _finish(profile, cost, 1.0, list(cost.names()), warning=None)
