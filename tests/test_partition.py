import json
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hizfo.cli import _write_json
from hizfo.datasets import CharCorpus, two_moons_batches
from hizfo.importance import ImportanceProfile, estimate_importance
from hizfo.models import CostEntry, CostModel, MLPModel, TinyAttentionLM, flops_profile
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
    models, unless `integer_costs` is false."""
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
        dp = solve_dp(prof, cost, 0.5)  # budget 30 of T_full 60
        bf = brute_force_select(prof, cost, 0.5)
        assert dp.achieved_importance == pytest.approx(bf.achieved_importance, abs=1e-12)
        assert dp.fo_set == bf.fo_set == ["t0", "t1"]
        assert dp.consumed_flops == 30

    def test_rho_one_selects_every_positive_tensor(self):
        prof, cost = FIXTURE
        plan = solve_dp(prof, cost, 1.0)
        assert plan.fo_set == ["t0", "t1", "t2", "t3"]
        assert plan.consumed_flops == cost.total_backward_flops

    def test_budget_below_min_cost_gives_all_zo_with_warning(self):
        prof, cost = FIXTURE
        plan = solve_dp(prof, cost, 0.1)  # budget 6 < min single cost 15
        assert plan.fo_set == [] and plan.warning == "budget_below_min_cost"
        assert plan.achieved_importance == 0.0
        assert set(plan.zo_set) == {"t0", "t1", "t2", "t3"}

    def test_float_costs_never_beat_oracle(self):
        # non-integral costs are summed in another order than the oracle's,
        # which may move a set on the budget's boundary by one rounding, but
        # the solver neither beats nor misses the true optimum here
        rng = np.random.default_rng(7)
        for _ in range(40):
            n = int(rng.integers(2, 13))
            prof, cost = random_instance(rng, n, integer_costs=False)
            rho = float(rng.uniform(0.1, 0.95))
            dp = solve_dp(prof, cost, rho)
            bf = brute_force_select(prof, cost, rho)
            assert bf.achieved_importance - 1e-12 <= dp.achieved_importance <= bf.achieved_importance + 1e-12

    def test_consumed_within_budget(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            prof, cost = random_instance(rng, 10)
            rho = float(rng.uniform(0.2, 0.99))
            buckets = int(rng.choice([100, 1000, 10_000]))
            plan = solve_dp(prof, cost, rho, buckets=buckets)
            assert plan == solve_dp(prof, cost, rho)  # buckets does not move the plan
            assert plan.consumed_flops <= plan.budget_flops

    def test_equal_importance_cheaper_set_wins(self):
        # {t0} and {t1, t2} tie across deepest tensors; {t0, t3} and
        # {t1, t2, t3} tie under the same deepest tensor t3
        prof = profile_of({"t0": 0.5, "t1": 0.25, "t2": 0.25})
        cost = CostModel([CostEntry("t0", 0, 10, 0, 0), CostEntry("t1", 1, 2, 0, 0), CostEntry("t2", 2, 2, 0, 0)])
        plan = solve_dp(prof, cost, 0.75)
        assert plan.fo_set == brute_force_select(prof, cost, 0.75).fo_set == ["t1", "t2"]
        prof = profile_of({"t0": 0.5, "t1": 0.25, "t2": 0.25, "t3": 0.125})
        cost = CostModel([CostEntry("t0", 0, 10, 0, 0), CostEntry("t1", 1, 4, 0, 0),
                          CostEntry("t2", 2, 4, 0, 0), CostEntry("t3", 3, 1, 0, 0)])
        plan = solve_dp(prof, cost, 12 / 19)
        assert plan.fo_set == brute_force_select(prof, cost, 12 / 19).fo_set == ["t1", "t2", "t3"]
        assert plan.consumed_flops == 9

    def test_only_affordable_tensor_unimportant_gives_no_warning(self):
        # the budget fits t0, so it is not below the minimum cost; t0 is
        # simply not worth selecting
        prof = profile_of({"t0": -0.5, "t1": 0.9})
        cost = CostModel([CostEntry("t0", 0, 1, 0, 0), CostEntry("t1", 1, 50, 0, 0)])
        plan = solve_dp(prof, cost, 0.1)
        assert plan.fo_set == [] and plan.warning is None

    def test_negative_importance_never_selected(self):
        prof = profile_of({"t0": 0.5, "t1": -0.2, "t2": 0.3})
        cost = CostModel([CostEntry(f"t{i}", i, 1, 0, 0) for i in range(3)])
        plan = solve_dp(prof, cost, 1.0)
        assert "t1" not in plan.fo_set and plan.fo_set == ["t0", "t2"]

    def test_monotone_in_rho(self):
        rng = np.random.default_rng(9)
        prof, cost = random_instance(rng, 10)
        achieved = [
            solve_dp(prof, cost, rho).achieved_importance
            for rho in (0.1, 0.3, 0.5, 0.7, 0.9, 1.0)
        ]
        assert all(a <= b + 1e-12 for a, b in zip(achieved, achieved[1:]))

    def test_invalid_arguments(self):
        prof, cost = FIXTURE
        with pytest.raises(ConfigurationError):
            solve_dp(prof, cost, 0.0)
        with pytest.raises(ConfigurationError):
            solve_dp(prof, cost, 1.5)
        with pytest.raises(ConfigurationError):
            solve_dp(prof, cost, 0.5, buckets=5)

    def test_mismatched_keys_rejected(self):
        prof, _ = FIXTURE
        cost = CostModel([CostEntry("other", 0, 1, 0, 0)])
        with pytest.raises(ConfigurationError):
            solve_dp(prof, cost, 0.5)

    def test_frontier_cap_raises(self):
        # distinct powers of two with importance rising with cost: every subset
        # is on the frontier, which doubles per tensor until it passes the cap
        n = 35
        prof = profile_of({f"t{i}": float(2**i) for i in range(n)})
        cost = CostModel([CostEntry(f"t{i}", i, 2**i, 0, 0) for i in range(n)])
        t0 = time.perf_counter()
        with pytest.raises(ConfigurationError, match="frontier passed 65536 entries"):
            solve_dp(prof, cost, 0.99)
        assert time.perf_counter() - t0 < 1.0


# integer instances of up to 10 tensors: (grad_flops, prop_flops, importance)
INSTANCES = st.lists(st.tuples(st.integers(1, 50), st.integers(0, 20), st.integers(-5, 20)),
                     min_size=1, max_size=10)
PROPERTY = settings(derandomize=True, database=None, max_examples=150, deadline=None)


def instance(rows):
    prof = profile_of({f"t{i}": float(s) for i, (_, _, s) in enumerate(rows)})
    return prof, CostModel([CostEntry(f"t{i}", i, g, p, 0) for i, (g, p, _) in enumerate(rows)])


class TestProperties:
    @PROPERTY
    @given(INSTANCES, st.integers(1, 64), st.data())
    def test_dp_equals_brute_force(self, rows, k, data):
        # rho = k/64 keeps rho * T_full exact, so both see the same budget;
        # half the instances set the budget to the exact cost of a drawn subset
        prof, cost = instance(rows)
        rho = k / 64
        if data.draw(st.booleans()):
            subset = data.draw(st.sets(st.integers(0, len(rows) - 1), min_size=1))
            c = cost.subset_backward_flops([f"t{j}" for j in subset])
            rho = c / cost.total_backward_flops
            assume(rho * cost.total_backward_flops == c)
        dp = solve_dp(prof, cost, rho)
        bf = brute_force_select(prof, cost, rho)
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
    """Plans of real cost models. Each expected plan was checked against an
    independent exact solver that fixes the deepest tensor and keeps the best
    importance at every reachable gradient cost before it, with no frontier
    pruning, so any change to the planner that moves a real plan fails here."""

    @staticmethod
    def lm_depth4(words):
        rng = np.random.default_rng(5)
        corpus = CharCorpus(" ".join(rng.choice(words, size=400)).encode(), 16)
        model = TinyAttentionLM(vocab_size=corpus.vocab.size, d_model=16, depth=4, context=16, seed=3)
        batches = corpus.batches(2, 16, seed=4)
        return estimate_importance(model, batches, warmup_steps=3, warmup_lr=1e-3), flops_profile(model, 16)

    def test_attention_lm_depth4(self):
        prof, cost = self.lm_depth4(("the", "cat", "sat", "on", "a", "mat", "dog", "ran"))
        plan = solve_dp(prof, cost, 0.3)
        assert plan.fo_set == ["head.weight", "block3.b1", "block3.b2", "block2.b1", "block2.b2"]
        assert plan.consumed_flops == 4464640 and plan.warning is None

    def test_attention_lm_depth4_rho08_fills_the_budget(self):
        # the twelve-word alphabet of the benchmark's LM workloads; at rho 0.8
        # a DP that rounded each cost up to cells of T_full / 100,000 FLOPs
        # left out block2.wk: 11,919,360 FLOPs, importance 6.438870457134251
        prof, cost = self.lm_depth4(("the", "cat", "sat", "on", "a", "mat", "dog", "ran",
                                     "far", "big", "red", "sun"))
        plan = solve_dp(prof, cost, 0.8)
        assert plan.fo_set == [
            "head.weight", "block3.wv", "block3.wo", "block3.b1", "block3.w2", "block3.b2",
            "block2.wk", "block2.wv", "block2.wo", "block2.b1", "block2.w2", "block2.b2",
            "block1.wv", "block1.wo", "block1.b1", "block1.w2", "block1.b2",
            "block0.wv", "block0.wo", "block0.b1", "block0.w2", "block0.b2",
            "embed.token", "embed.position",
        ]
        assert plan.consumed_flops == 12050432 <= plan.budget_flops == 0.8 * 15065088
        assert plan.achieved_importance > 6.438870457134251 and plan.warning is None

    def test_mlp_two_moons(self):
        model = MLPModel(dims=(2, 16, 2), seed=1)
        batches = two_moons_batches(2, 64, noise=0.2, seed=2)
        prof = estimate_importance(model, batches, warmup_steps=5, warmup_lr=1e-3)
        plan = solve_dp(prof, flops_profile(model, 64), 0.6)
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
        plan = solve_dp(prof, cost, 0.5)
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
