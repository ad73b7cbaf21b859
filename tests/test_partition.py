import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hizfo.cli import _write_json
from hizfo.datasets import CharCorpus, two_moons_batches
from hizfo.importance import ImportanceProfile, estimate_importance
from hizfo.models import CostEntry, CostModel, MLPModel, TinyAttentionLM, backward_truncated, flops_profile
from hizfo.partition import (
    PartitionPlan,
    apply_plan,
    brute_force_select,
    full_fo_plan,
    solve_dp,
)
from hizfo.tensors import ConfigurationError


def profile_of(scores):
    return ImportanceProfile(dict(scores), dict(scores))


def random_instance(rng, n, integer_costs=True):
    """Random selection instance; FLOPs counts are integers like real cost
    models, where the DP's unit-cost cells make it exact."""
    if integer_costs:
        grads = rng.integers(1, 51, n)
        props = rng.integers(0, 21, n)
    else:
        grads = rng.uniform(1, 50, n)
        props = rng.uniform(0, 20, n)
    entries = [CostEntry(f"t{i}", i, float(grads[i]), float(props[i]), 0) for i in range(n)]
    return profile_of({f"t{i}": float(rng.uniform(0, 1)) for i in range(n)}), CostModel(entries)


FIXTURE = (
    profile_of({"t0": 0.9, "t1": 0.5, "t2": 0.8, "t3": 0.3}),
    CostModel([CostEntry(f"t{i}", i, 10, 5, 0) for i in range(4)]),
)


class TestSolveDp:
    def test_fixture_matches_enumeration(self):
        prof, cost = FIXTURE
        dp = solve_dp(prof, cost, 0.5, buckets=10**6)  # budget 30 of T_full 60
        bf = brute_force_select(prof, cost, 0.5)
        assert dp.achieved_importance == pytest.approx(bf.achieved_importance, abs=1e-12)
        assert dp.fo_set == bf.fo_set == ["t0", "t1"]
        assert dp.consumed_flops == 30

    def test_rho_one_selects_every_positive_tensor(self):
        prof, cost = FIXTURE
        plan = solve_dp(prof, cost, 1.0, buckets=100)
        assert plan.fo_set == ["t0", "t1", "t2", "t3"]
        assert plan.consumed_flops == cost.total_backward_flops

    def test_budget_below_min_cost_gives_all_zo_with_warning(self):
        prof, cost = FIXTURE
        plan = solve_dp(prof, cost, 0.1, buckets=100)  # budget 6 < min single cost 15
        assert plan.fo_set == [] and plan.warning == "budget_below_min_cost"
        assert plan.achieved_importance == 0.0
        assert set(plan.zo_set) == {"t0", "t1", "t2", "t3"}

    def test_oracle_equivalence_random_instances(self):
        rng = np.random.default_rng(42)
        for _ in range(40):
            n = int(rng.integers(2, 13))
            prof, cost = random_instance(rng, n)
            rho = float(rng.uniform(0.1, 0.95))
            dp = solve_dp(prof, cost, rho, buckets=100_000)
            bf = brute_force_select(prof, cost, rho)
            assert bf.achieved_importance - 1e-9 <= dp.achieved_importance
            assert dp.achieved_importance <= bf.achieved_importance + 1e-12

    def test_float_costs_never_beat_oracle(self):
        # with non-integral costs the bucketed DP may lose a boundary set to
        # round-up, but must never report more than the true optimum
        rng = np.random.default_rng(7)
        for _ in range(40):
            n = int(rng.integers(2, 13))
            prof, cost = random_instance(rng, n, integer_costs=False)
            rho = float(rng.uniform(0.1, 0.95))
            dp = solve_dp(prof, cost, rho, buckets=50_000)
            bf = brute_force_select(prof, cost, rho)
            assert dp.achieved_importance <= bf.achieved_importance + 1e-12

    def test_consumed_within_one_bucket_of_budget(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            prof, cost = random_instance(rng, 10)
            rho = float(rng.uniform(0.2, 0.99))
            buckets = int(rng.choice([100, 1000, 10_000]))
            plan = solve_dp(prof, cost, rho, buckets=buckets)
            assert plan.consumed_flops <= plan.budget_flops + cost.total_backward_flops / buckets + 1e-9

    def test_equal_importance_cheaper_set_wins(self):
        # {t0} and {t1, t2} tie across deepest tensors; {t0, t3} and
        # {t1, t2, t3} tie under the same deepest tensor t3
        prof = profile_of({"t0": 0.5, "t1": 0.25, "t2": 0.25})
        cost = CostModel([CostEntry("t0", 0, 10, 0, 0), CostEntry("t1", 1, 2, 0, 0), CostEntry("t2", 2, 2, 0, 0)])
        plan = solve_dp(prof, cost, 0.75, buckets=100)
        assert plan.fo_set == brute_force_select(prof, cost, 0.75).fo_set == ["t1", "t2"]
        prof = profile_of({"t0": 0.5, "t1": 0.25, "t2": 0.25, "t3": 0.125})
        cost = CostModel([CostEntry("t0", 0, 10, 0, 0), CostEntry("t1", 1, 4, 0, 0),
                          CostEntry("t2", 2, 4, 0, 0), CostEntry("t3", 3, 1, 0, 0)])
        plan = solve_dp(prof, cost, 12 / 19, buckets=100)
        assert plan.fo_set == brute_force_select(prof, cost, 12 / 19).fo_set == ["t1", "t2", "t3"]
        assert plan.consumed_flops == 9

    def test_only_affordable_tensor_unimportant_gives_no_warning(self):
        # the budget fits t0, so it is not below the minimum cost; t0 is
        # simply not worth selecting
        prof = profile_of({"t0": -0.5, "t1": 0.9})
        cost = CostModel([CostEntry("t0", 0, 1, 0, 0), CostEntry("t1", 1, 50, 0, 0)])
        plan = solve_dp(prof, cost, 0.1, buckets=100)
        assert plan.fo_set == [] and plan.warning is None

    def test_negative_importance_never_selected(self):
        prof = profile_of({"t0": 0.5, "t1": -0.2, "t2": 0.3})
        cost = CostModel([CostEntry(f"t{i}", i, 1, 0, 0) for i in range(3)])
        plan = solve_dp(prof, cost, 1.0, buckets=100)
        assert "t1" not in plan.fo_set and plan.fo_set == ["t0", "t2"]

    def test_monotone_in_rho(self):
        rng = np.random.default_rng(9)
        prof, cost = random_instance(rng, 10)
        achieved = [
            solve_dp(prof, cost, rho, buckets=10_000).achieved_importance
            for rho in (0.1, 0.3, 0.5, 0.7, 0.9, 1.0)
        ]
        assert all(a <= b + 1e-12 for a, b in zip(achieved, achieved[1:]))

    def test_invalid_arguments(self):
        prof, cost = FIXTURE
        with pytest.raises(ConfigurationError):
            solve_dp(prof, cost, 0.0, buckets=100)
        with pytest.raises(ConfigurationError):
            solve_dp(prof, cost, 1.5, buckets=100)
        with pytest.raises(ConfigurationError):
            solve_dp(prof, cost, 0.5, buckets=5)

    def test_mismatched_keys_rejected(self):
        prof, _ = FIXTURE
        cost = CostModel([CostEntry("other", 0, 1, 0, 0)])
        with pytest.raises(ConfigurationError):
            solve_dp(prof, cost, 0.5, buckets=100)


# integer instances of up to 10 tensors: (grad_flops, prop_flops, importance)
INSTANCES = st.lists(st.tuples(st.integers(1, 50), st.integers(0, 20), st.integers(-5, 20)),
                     min_size=1, max_size=10)
PROPERTY = settings(derandomize=True, database=None, max_examples=150, deadline=None)


def instance(rows):
    prof = profile_of({f"t{i}": float(s) for i, (_, _, s) in enumerate(rows)})
    return prof, CostModel([CostEntry(f"t{i}", i, g, p, 0) for i, (g, p, _) in enumerate(rows)])


class TestProperties:
    @PROPERTY
    @given(INSTANCES, st.integers(1, 64))
    def test_dp_equals_brute_force(self, rows, k):
        # rho = k/64 keeps rho * T_full exact, so both see the same budget
        prof, cost = instance(rows)
        dp = solve_dp(prof, cost, k / 64, buckets=10_000)
        bf = brute_force_select(prof, cost, k / 64)
        assert (dp.achieved_importance, dp.consumed_flops) == (bf.achieved_importance, bf.consumed_flops)
        assert dp.consumed_flops <= dp.budget_flops

    @PROPERTY
    @given(INSTANCES, st.data())
    def test_subset_cost_is_grads_plus_propagation_to_deepest(self, rows, data):
        _, cost = instance(rows)
        subset = data.draw(st.sets(st.integers(0, len(rows) - 1)))
        want = sum(rows[k][0] for k in subset)
        if subset:
            want += sum(p for _, p, _ in rows[: max(subset) + 1])
        assert cost.subset_backward_flops([f"t{k}" for k in subset]) == want


class TestGoldenPlans:
    """Plans of real cost models. The values come from an independent DP that
    scans every nearest selected predecessor (O(N^2 * buckets)), so any
    change to the planner that moves a real plan fails here."""

    def test_attention_lm_depth4(self):
        rng = np.random.default_rng(5)
        words = ("the", "cat", "sat", "on", "a", "mat", "dog", "ran")
        corpus = CharCorpus(" ".join(rng.choice(words, size=400)).encode(), 16)
        model = TinyAttentionLM(vocab_size=corpus.vocab.size, d_model=16, depth=4, context=16, seed=3)
        batches = corpus.batches(2, 16, seed=4)
        prof = estimate_importance(model, batches, warmup_steps=3, warmup_lr=1e-3)
        plan = solve_dp(prof, flops_profile(model, 16), 0.3, buckets=100_000)
        assert plan.fo_set == ["head.weight", "block3.b1", "block3.b2", "block2.b1", "block2.b2"]
        assert plan.consumed_flops == 4464640 and plan.warning is None

    def test_mlp_two_moons(self):
        model = MLPModel(dims=(2, 16, 2), seed=1)
        batches = two_moons_batches(2, 64, noise=0.2, seed=2)
        prof = estimate_importance(model, batches, warmup_steps=5, warmup_lr=1e-3)
        plan = solve_dp(prof, flops_profile(model, 64), 0.6, buckets=10_000)
        assert plan.fo_set == ["layer0.weight", "layer0.bias"]
        assert plan.consumed_flops == 8320 and plan.warning is None


class TestBruteForce:
    def test_single_affordable_tensor_selected(self):
        prof = profile_of({"t0": 0.4})
        cost = CostModel([CostEntry("t0", 0, 5, 1, 0)])
        assert brute_force_select(prof, cost, 1.0).fo_set == ["t0"]

    def test_all_zero_importance_prefers_empty(self):
        prof = profile_of({"t0": 0.0, "t1": 0.0})
        cost = CostModel([CostEntry(f"t{i}", i, 1, 1, 0) for i in range(2)])
        plan = brute_force_select(prof, cost, 1.0)
        assert plan.fo_set == [] and plan.achieved_importance == 0.0

    def test_refuses_large_instances(self):
        names = {f"t{i}": 0.1 for i in range(21)}
        prof = profile_of(names)
        cost = CostModel([CostEntry(f"t{i}", i, 1, 0, 0) for i in range(21)])
        with pytest.raises(ConfigurationError):
            brute_force_select(prof, cost, 0.5)


class TestCostAudit:
    def test_consumed_equals_measured_backward_flops(self):
        model = MLPModel(dims=(2, 16, 8, 2), seed=0)
        batches = two_moons_batches(2, 16, seed=1)
        prof = estimate_importance(model, batches, warmup_steps=2, warmup_lr=1e-3)
        cost = flops_profile(model, 16)
        for rho in (0.3, 0.6, 0.9, 1.0):
            plan = solve_dp(prof, cost, rho, buckets=10_000)
            if not plan.fo_set:
                continue
            before = model.tally.backward
            backward_truncated(model, batches[0], plan.fo_set)
            assert model.tally.backward - before == plan.consumed_flops


class TestApplyPlan:
    def plan(self, fo, zo):
        return PartitionPlan(fo, zo, 0.5, 0.0, 0, 0.0)

    @staticmethod
    def layout(m):
        """The tensor names in buffer order, and the size of the ZO head."""
        assert m.zo.ctypes.data == m.flat.ctypes.data
        return [t.name for t in sorted(m.tensors(), key=lambda t: t.data.ctypes.data)], m.zo.size

    def test_roles_assigned(self):
        m = MLPModel(dims=(2, 16, 2), seed=0)
        names = [t.name for t in m.tensors()]
        apply_plan(m, self.plan(names[:1], names[1:]))
        assert m.fo == m.tensors()[:1] and m.fo_names == names[:1]
        assert self.layout(m) == (names[1:] + names[:1], m.flat.size - m.tensors()[0].size)

    def test_empty_fo_all_zo(self):
        m = MLPModel(dims=(2, 16, 2), seed=0)
        names = [t.name for t in m.tensors()]
        apply_plan(m, self.plan([], names))
        assert m.fo == [] and m.fo_names == [] and self.layout(m) == (names, m.flat.size)

    def test_full_fo(self):
        m = MLPModel(dims=(2, 16, 2), seed=0)
        names = [t.name for t in m.tensors()]
        apply_plan(m, self.plan([], names))
        apply_plan(m, self.plan(names, []))
        assert m.fo == m.tensors() and m.fo_names == names and self.layout(m) == (names, 0)

    def test_idempotent(self):
        m = MLPModel(dims=(2, 16, 2), seed=0)
        names = [t.name for t in m.tensors()]
        plan = self.plan(names[:2], names[2:])
        apply_plan(m, plan)
        fo, fo_names, layout = list(m.fo), list(m.fo_names), self.layout(m)
        apply_plan(m, plan)
        assert (m.fo, m.fo_names, self.layout(m)) == (fo, fo_names, layout)

    def rejected(self, m, plan, match=None):
        """The plan is rejected and the model's split is left as it was."""
        names = [t.name for t in m.tensors()]
        apply_plan(m, self.plan(names[1:2], names[:1] + names[2:]))
        split = (m.fo, m.fo_names, m.zo, m.flat)
        with pytest.raises(ConfigurationError, match=match):
            apply_plan(m, plan)
        assert all(a is b for a, b in zip((m.fo, m.fo_names, m.zo, m.flat), split))

    def test_unknown_tensor_rejected(self):
        m = MLPModel(dims=(2, 16, 2), seed=0)
        self.rejected(m, self.plan(["ghost"], [t.name for t in m.tensors()]))

    def test_tensor_in_both_sets_rejected(self):
        # applied, FO would win silently: FO, ZO, ZO, ZO
        m = MLPModel(dims=(2, 3, 2), seed=0)
        names = [t.name for t in m.tensors()]
        self.rejected(m, self.plan(["layer1.weight"], names), r"both fo_set and zo_set: \['layer1.weight'\]")

    def test_uncovered_tensor_rejected(self):
        m = MLPModel(dims=(2, 16, 2), seed=0)
        names = [t.name for t in m.tensors()]
        self.rejected(m, self.plan(names[:1], names[2:]))


class TestSerialization:
    def test_plan_json_roundtrip(self, tmp_path):
        prof, cost = FIXTURE
        plan = solve_dp(prof, cost, 0.5, buckets=1000)
        path = tmp_path / "plan.json"
        _write_json(path, plan.to_dict())
        with open(path) as f:
            d = json.load(f)
        assert set(d) == {"rho", "budget_flops", "consumed_flops", "fo", "zo", "achieved_importance"}
        assert d["fo"] == plan.fo_set and d["zo"] == plan.zo_set
        assert d["consumed_flops"] == plan.consumed_flops

    def test_full_fo_plan_covers_everything(self):
        prof, cost = FIXTURE
        plan = full_fo_plan(prof, cost)
        assert plan.fo_set == cost.names() and plan.zo_set == []
