"""Tests for the budgeted search strategies, the racer, and hypervolume.

The contracts under test:

- **Budget accounting**: a query is one *distinct* design point through
  the surrogate; memo revisits are free; no strategy — and no race —
  can ever spend past the shared :class:`QueryBudget`.
- **Seed determinism**: the same seed replays every strategy's query
  sequence, the RL explorer's edit trajectory, and the racer's budget
  ledger bit-for-bit.
- **Hypervolume**: the exact WFG recursion against hand-computable
  fronts, plus the scale-free normalised comparison.
- **Wiring**: ``--strategy``/``budget`` through the service layer and
  the ``race`` field of the result payload.
"""

import math
import random

import numpy as np
import pytest

from repro.designspace import build_design_space, point_key
from repro.dse import (
    PARETO_KEYS,
    BudgetedEvaluator,
    EvaluationPipeline,
    QueryBudget,
    StrategyRacer,
    build_strategy,
    hypervolume,
    normalized_hypervolume,
    reference_point,
    run_race,
)
from repro.dse.rl import (
    RLExplorer,
    action_count,
    action_mask,
    apply_action,
    feature_dim,
    point_features,
)
from repro.errors import NNError, ReproError
from repro.kernels import get_kernel
from repro.nn.distributions import MaskedCategorical
from repro.nn.tensor import Tensor
from tests.test_pipeline import make_predictor

KERNEL = "fir"
STRATEGIES = ("random", "greedy", "sa", "rl")


@pytest.fixture(scope="module")
def predictor():
    return make_predictor()


@pytest.fixture()
def harness(predictor):
    spec = get_kernel(KERNEL)
    space = build_design_space(spec)

    def build(budget: int):
        pipeline = EvaluationPipeline(predictor)
        return BudgetedEvaluator(pipeline, spec, space, QueryBudget(budget))

    return build


class TestQueryBudget:
    def test_charge_and_remaining(self):
        budget = QueryBudget(10)
        budget.charge(4)
        assert (budget.spent, budget.remaining, budget.exhausted) == (4, 6, False)
        budget.charge(6)
        assert budget.exhausted

    def test_overrun_raises(self):
        budget = QueryBudget(3)
        budget.charge(3)
        with pytest.raises(ReproError, match="overrun"):
            budget.charge(1)

    def test_invalid_limit(self):
        with pytest.raises(ReproError):
            QueryBudget(0)


class TestBudgetedEvaluator:
    def test_memo_revisits_are_free(self, harness):
        evaluator = harness(50)
        points = evaluator.space.sample(random.Random(0), 5)
        evaluator.evaluate(points)
        assert evaluator.queries == 5
        again, novel = evaluator.evaluate(points)
        assert evaluator.queries == 5  # all memo hits, no charge
        assert all(c is not None for c in again)
        assert not any(novel)  # nothing re-enters the front

    def test_duplicate_points_in_one_batch_charge_once(self, harness):
        evaluator = harness(50)
        point = evaluator.space.default_point()
        candidates, novel = evaluator.evaluate([point, dict(point), dict(point)])
        assert evaluator.queries == 1
        assert sum(novel) <= 1  # novelty flagged at most on first occurrence
        assert all(c is not None for c in candidates)

    def test_truncates_to_remaining_budget(self, harness):
        evaluator = harness(3)
        points = evaluator.space.sample(random.Random(1), 8)
        candidates, _ = evaluator.evaluate(points)
        assert evaluator.queries == 3
        assert evaluator.budget.exhausted
        scored = [c for c in candidates if c is not None]
        assert len(scored) == 3  # dropped tail comes back as None


class TestStrategies:
    @pytest.mark.parametrize("name", STRATEGIES)
    def test_step_respects_grant_and_budget(self, harness, name):
        evaluator = harness(25)
        strategy = build_strategy(name, evaluator, seed=3)
        outcome = strategy.step(10)
        assert 0 < outcome.queries <= 25
        assert evaluator.budget.spent <= 25
        # A second grant keeps accumulating but can never overrun.
        strategy.step(100)
        assert evaluator.budget.spent <= 25

    @pytest.mark.parametrize("name", STRATEGIES)
    def test_exhausting_a_tiny_space_stalls_cleanly(self, predictor, name):
        spec = get_kernel("spmv-crs")  # 27-point space
        space = build_design_space(spec)
        evaluator = BudgetedEvaluator(
            EvaluationPipeline(predictor), spec, space, QueryBudget(100)
        )
        strategy = build_strategy(name, evaluator, seed=0)
        for _ in range(20):
            outcome = strategy.step(50)
            if outcome.stalled:
                break
        assert evaluator.budget.spent <= space.size()

    @pytest.mark.parametrize("name", STRATEGIES)
    def test_same_seed_replays_same_search(self, harness, name):
        def run(seed):
            evaluator = harness(40)
            build_strategy(name, evaluator, seed=seed).step(40)
            return (
                list(evaluator.memo),  # every point scored, in query order
                evaluator.budget.spent,
                [point_key(c.point) for c in evaluator.frontier.top],
                [point_key(c.point) for c in evaluator.frontier.pareto],
            )

        first = run(7)
        assert first[1] > 0
        assert run(7) == first

    def test_unknown_strategy(self, harness):
        with pytest.raises(ReproError, match="unknown search strategy"):
            build_strategy("gradient-descent", harness(10), seed=0)


class TestRLExplorer:
    def test_feature_and_action_shapes(self):
        space = build_design_space(get_kernel(KERNEL))
        point = space.default_point()
        assert point_features(space, point).shape == (feature_dim(space),)
        mask = action_mask(space, point)
        assert mask.shape == (action_count(space),)
        assert mask.any()

    def test_apply_action_steps_one_knob(self):
        space = build_design_space(get_kernel(KERNEL))
        point = space.default_point()
        mask = action_mask(space, point)
        action = int(np.nonzero(mask)[0][0])
        edited = apply_action(space, point, action)
        assert point_key(edited) != point_key(point)

    def test_seed_determinism_trajectory_identical(self, harness):
        def run(seed):
            evaluator = harness(40)
            explorer = build_strategy("rl", evaluator, seed=seed)
            explorer.step(40)
            return explorer.trajectory, evaluator.budget.spent

        # Same seed: identical edit trajectory and identical ledger.
        t1, q1 = run(7)
        t2, q2 = run(7)
        assert t1 == t2
        assert q1 == q2
        assert len(t1) > 0
        # Different seed: the trajectory actually depends on the seed.
        t3, _ = run(8)
        assert t1 != t3

    def test_policy_updates_happen(self, harness):
        evaluator = harness(60)
        explorer = RLExplorer(evaluator, seed=1, episodes=4, horizon=3)
        explorer.step(60)
        assert explorer.updates >= 1


class TestRacer:
    def test_never_exceeds_shared_budget(self, harness):
        evaluator = harness(30)
        racer = StrategyRacer(evaluator, STRATEGIES, round_budget=8, seed=0)
        result = racer.run()
        assert result.queries <= 30
        assert evaluator.budget.spent == result.queries
        # The ledger accounts for every spent query.
        assert sum(r.queries for r in result.rounds) == result.queries
        assert sum(o.queries for o in result.totals.values()) == result.queries

    def test_ledger_bit_reproducible(self, predictor):
        spec = get_kernel(KERNEL)
        space = build_design_space(spec)

        def run():
            result = run_race(
                EvaluationPipeline(predictor), spec, space, budget=35, seed=11
            )
            return (
                result.ledger(),
                [point_key(c.point) for c in result.top],
                [point_key(c.point) for c in result.pareto],
            )

        assert run() == run()

    def test_duplicate_arms_rejected(self, harness):
        with pytest.raises(ReproError, match="duplicate"):
            StrategyRacer(harness(10), ("sa", "sa"), seed=0)

    def test_as_dse_result_payload(self, harness):
        from repro.serve.schemas import dse_result_payload

        evaluator = harness(20)
        result = StrategyRacer(evaluator, ("sa", "random"), seed=0).run()
        payload = dse_result_payload(result.as_dse_result())
        assert payload["strategy"] == "race"
        assert payload["race"]["queries"] == result.queries
        assert payload["race"]["rounds"] == result.ledger()
        assert set(payload["race"]["strategies"]) == {"sa", "random"}

    def test_beam_payload_defaults(self, predictor):
        from repro.dse import ModelDSE
        from repro.serve.schemas import dse_result_payload

        spec = get_kernel(KERNEL)
        space = build_design_space(spec)
        result = ModelDSE(predictor, spec, space, top_m=3).run()
        payload = dse_result_payload(result)
        assert payload["strategy"] == "beam"
        assert payload["race"] is None


class TestServiceStrategies:
    def test_dse_top_race(self, predictor):
        from repro.serve import PredictorService

        with PredictorService(predictor, batch_size=8) as service:
            payload = service.dse_top(
                KERNEL, top=3, strategy="race", budget=25, seed=4
            )
        assert payload["strategy"] == "race"
        assert payload["race"]["queries"] <= 25
        assert len(payload["top"]) <= 3
        assert payload["race"]["rounds"]

    def test_dse_top_rejects_bad_strategy_and_budget(self, predictor):
        from repro.errors import ServeError
        from repro.serve import PredictorService

        with PredictorService(predictor, batch_size=8) as service:
            with pytest.raises(ServeError, match="unknown strategy"):
                service.dse_top(KERNEL, strategy="bogus")
            with pytest.raises(ServeError, match="budget"):
                service.dse_top(KERNEL, strategy="race", budget=0)
            with pytest.raises(ServeError, match="serially"):
                service.dse_top(KERNEL, strategy="race", budget=10, workers=2)


class TestMaskedCategorical:
    def test_masked_actions_have_zero_probability(self):
        logits = Tensor(np.zeros((2, 4)))
        mask = np.array([[True, False, True, False], [False, True, True, True]])
        dist = MaskedCategorical(logits, mask)
        probs = dist.probs
        assert np.allclose(probs.sum(axis=1), 1.0)
        assert np.all(probs[~mask] == 0.0)

    def test_sample_is_deterministic_and_feasible(self):
        rng_logits = np.random.default_rng(0).normal(size=(6, 5))
        mask = np.ones((6, 5), dtype=bool)
        mask[:, 0] = False
        dist = MaskedCategorical(Tensor(rng_logits), mask)
        a1 = dist.sample(random.Random(42))
        a2 = dist.sample(random.Random(42))
        assert np.array_equal(a1, a2)
        assert np.all(mask[np.arange(6), a1])

    def test_log_prob_matches_probs_and_backward_runs(self):
        logits = Tensor(
            np.random.default_rng(1).normal(size=(3, 4)), requires_grad=True
        )
        dist = MaskedCategorical(logits)
        actions = np.array([0, 2, 3])
        log_probs = dist.log_prob(actions)
        expected = np.log(dist.probs[np.arange(3), actions])
        assert np.allclose(log_probs.data, expected)
        log_probs.sum().backward()
        assert logits.grad is not None

    def test_entropy_of_uniform(self):
        dist = MaskedCategorical(Tensor(np.zeros((1, 8))))
        assert np.allclose(dist.entropy().data, math.log(8))

    def test_row_without_feasible_action_rejected(self):
        with pytest.raises(NNError, match="no feasible action"):
            MaskedCategorical(
                Tensor(np.zeros((1, 3))), np.zeros((1, 3), dtype=bool)
            )


class TestHypervolume:
    def test_single_point_rectangle(self):
        assert hypervolume([[0.25, 0.5]], [1.0, 1.0]) == pytest.approx(0.375)

    def test_two_point_staircase(self):
        # Union of [0.2,1]x[0.6,1] and [0.6,1]x[0.2,1] minus the overlap.
        hv = hypervolume([[0.2, 0.6], [0.6, 0.2]], [1.0, 1.0])
        assert hv == pytest.approx(0.8 * 0.4 + 0.4 * 0.8 - 0.4 * 0.4)

    def test_dominated_points_do_not_change_volume(self):
        base = hypervolume([[0.2, 0.6], [0.6, 0.2]], [1.0, 1.0])
        with_dominated = hypervolume(
            [[0.2, 0.6], [0.6, 0.2], [0.7, 0.7], [0.2, 0.6]], [1.0, 1.0]
        )
        assert with_dominated == pytest.approx(base)

    def test_points_beyond_reference_are_clipped(self):
        assert hypervolume([[2.0, 2.0]], [1.0, 1.0]) == 0.0

    def test_three_objectives(self):
        assert hypervolume([[0.5, 0.5, 0.5]], [1.0, 1.0, 1.0]) == pytest.approx(0.125)

    def test_objective_count_mismatch_rejected(self):
        # Regression: a point with more objectives than the reference
        # was truncated to the reference's length instead of rejected.
        with pytest.raises(ValueError, match="3 objectives, reference has 2"):
            hypervolume([(1.0, 2.0, 3.0)], (4.0, 4.0))
        with pytest.raises(ValueError, match="1 objectives, reference has 2"):
            hypervolume([(1.0,)], (4.0, 4.0))

    def test_normalised_comparison_prefers_superset_front(self):
        front_a = [{"latency": 10.0, "DSP": 0.5}, {"latency": 30.0, "DSP": 0.1}]
        front_b = front_a + [{"latency": 20.0, "DSP": 0.2}]
        bounds = reference_point([front_a, front_b], ("latency", "DSP"))
        keys = ("latency", "DSP")
        hv_a = normalized_hypervolume(front_a, bounds, keys)
        hv_b = normalized_hypervolume(front_b, bounds, keys)
        assert 0.0 < hv_a < hv_b <= 1.0

    def test_empty_front_scores_zero(self):
        bounds = reference_point([[]], PARETO_KEYS)
        assert normalized_hypervolume([], bounds, PARETO_KEYS) == 0.0
