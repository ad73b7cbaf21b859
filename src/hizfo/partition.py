"""Budgeted tensor selection: DP solver, brute-force oracle, plan application.

The selection problem: pick the tensor subset with the largest total
importance whose truncated-backward cost fits in ``rho * T_full`` FLOPs,
where the cost of a subset charges each selected tensor's weight-gradient
FLOPs plus activation propagation through every layer down to and
including the deepest selected one.

With the deepest selected tensor fixed, the propagation cost is fixed too,
and the rest is a 0/1 knapsack over the gradient costs of the tensors
before it. The DP keeps one running knapsack while it walks the tensors
output-first, a knapsack over gradient costs per deepest tensor, in
O(N * buckets) time on a budget axis of ``buckets`` cells. A tensor's
gradient cost and the prefix propagation cost down to the deepest tensor
are rounded up to whole cells separately, so a reported plan never exceeds
the budget. At equal importance the cheaper plan wins. Tensors with
importance <= 0 are never selected: they can only hurt a maximization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .importance import ImportanceProfile
from .models import CostModel, LayeredModel
from .tensors import ConfigurationError

_TOL = 1e-9  # forgives float noise when costs are exact bucket multiples
_TIE = 1e-15  # importance sums closer than this count as equal


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
    """Importance-maximizing selection under a quantized FLOPs budget."""
    if not (0.0 < rho <= 1.0):
        raise ConfigurationError(f"rho must be in (0, 1], got {rho}")
    if buckets < 10:
        raise ConfigurationError(f"buckets must be >= 10, got {buckets}")
    names = _check_keys(profile, cost)
    n = len(names)
    total = cost.total_backward_flops
    scores = np.array([profile.scores[name] for name in names])

    if rho >= 1.0:
        # the budget equals the full backward cost, which no subset exceeds,
        # so the constraint is vacuous and quantization plays no part
        fo = [names[k] for k in range(n) if scores[k] > 0.0]
        return _finish(profile, cost, rho, fo, warning=None)

    grad = np.array(cost.grad, dtype=np.float64)
    cumprop = np.array(cost.cumprop, dtype=np.float64)
    if np.all(grad == np.round(grad)) and np.all(cumprop == np.round(cumprop)) and total <= buckets:
        # integer FLOPs that already fit on the budget axis: run the DP on
        # unit-cost cells, which is exact (rounding up is a no-op)
        bucket = 1.0
        qbudget = int(np.floor(rho * total + _TOL))
    else:
        bucket = total / buckets
        qbudget = int(np.floor(rho * buckets + _TOL))

    def cells(flops):  # round costs up, so a reported plan never exceeds the budget
        return np.ceil(flops / bucket - _TOL).astype(np.int64)

    qgrad, qprop = cells(grad), cells(cumprop)
    # knap[c]: best importance of a set of selectable entries before k whose
    # grad costs fill exactly c cells; take[j, c]: entry j is in that set
    knap = np.full(qbudget + 1, -np.inf)
    knap[0] = 0.0
    take = np.zeros((n, qbudget + 1), dtype=bool)
    found = []  # (cells, k, c, importance): best set whose deepest entry is k
    for k in np.flatnonzero(scores > 0.0):
        room = qbudget - qprop[k] - qgrad[k]
        if room >= 0:
            values = knap[: room + 1] + scores[k]
            top = values.max()
            c = int(np.argmax(values >= top - _TIE))  # the cheapest best set
            found.append((c + qprop[k] + qgrad[k], k, c, top))
        w = qgrad[k]
        if w <= qbudget:
            added = knap[: qbudget + 1 - w] + scores[k]
            take[k, w:] = added > knap[w:]
            knap[w:] = np.where(take[k, w:], added, knap[w:])

    fo: list[str] = []
    if found:
        top = max(f[3] for f in found)
        _, k, c, _ = min(f for f in found if f[3] >= top - _TIE)  # equal importance: cheapest
        fo.append(names[k])
        for j in range(k - 1, -1, -1):
            if take[j, c]:
                fo.append(names[j])
                c -= qgrad[j]

    warning = None
    if not fo and not np.any(cells(grad + cumprop) <= qbudget):
        warning = "budget_below_min_cost"
    return _finish(profile, cost, rho, fo, warning)


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

    Uses the same cost accounting as solve_dp but no quantization. Ties on
    importance go to the cheaper subset, then to the smaller one, so the
    empty set wins when every score is zero.
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
