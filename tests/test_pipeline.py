"""Tests for the batched, cached DSE evaluation pipeline.

The pipeline's contract is exact equivalence: for every kernel, the
compiled batched engine and the caching reference engine must return
``Prediction`` objects **bit-identical** to the point-by-point
``GNNDSEPredictor.predict`` path — same validity flags, same
probabilities, same objective floats.  The equivalence tests run under
the suite's float64 fixture and once more on the float32 production
path, which is the one sensitive to BLAS accumulation order.
"""

import json
import os
import random

import numpy as np
import pytest

from repro.designspace import build_design_space, point_key
from repro.dse import (
    EvaluationPipeline,
    ModelDSE,
    PipelineStats,
    UnsupportedModelError,
)
from repro.explorer.database import Database
from repro.graph.encoding import EDGE_DIM, NODE_DIM
from repro.kernels import get_kernel, list_kernels
from repro.model.config import BRAM_OBJECTIVE, MODEL_CONFIGS, REGRESSION_OBJECTIVES
from repro.model.dataset import GraphDatasetBuilder
from repro.model.models import build_model
from repro.model.predictor import (
    DEFAULT_VALID_THRESHOLD,
    GNNDSEPredictor,
    Prediction,
    predictions_from_outputs,
)
from repro.nn.tensor import set_default_dtype


def make_predictor(seed: int = 0) -> GNNDSEPredictor:
    """Untrained-but-deterministic predictor stack (cheap to build)."""
    builder = GraphDatasetBuilder(Database())
    config = MODEL_CONFIGS["M7"]
    classifier = build_model(
        config.for_task("classification"), NODE_DIM, EDGE_DIM, seed=seed
    )
    regressor = build_model(
        config.for_task("regression", REGRESSION_OBJECTIVES),
        NODE_DIM, EDGE_DIM, seed=seed + 1,
    )
    bram = build_model(
        config.for_task("regression", BRAM_OBJECTIVE), NODE_DIM, EDGE_DIM, seed=seed + 2
    )
    return GNNDSEPredictor(classifier, regressor, bram, builder.normalizer, builder)


def sample_points(kernel: str, count: int, seed: int = 0):
    space = build_design_space(get_kernel(kernel))
    return space.sample(random.Random(seed), count)


@pytest.fixture(scope="module")
def predictor():
    # Module-scoped models are float64 (built under the suite fixture);
    # per-test dtype flips don't affect them.
    return make_predictor()


class TestEquivalence:
    """Satellite (a): batched+cached == point-by-point, bit-identical."""

    @pytest.mark.parametrize("kernel", list_kernels())
    def test_compiled_matches_per_point(self, predictor, kernel):
        points = sample_points(kernel, 5, seed=11)
        expected = [predictor.predict(kernel, p) for p in points]
        pipeline = EvaluationPipeline(predictor, batch_size=3, engine="compiled")
        got = pipeline.predict_batch(kernel, points)
        assert got == expected
        assert pipeline.stats.engine == "compiled"
        # batch_size 3 over 5 points exercises a mixed-capacity sweep:
        # one full chunk plus a right-sized 2-point template — and the
        # right-sizing pays no padded slots.
        assert pipeline.stats.padded_slots == 0
        # Each unique point runs the classifier pass and the regression
        # pass exactly once (duplicates are deduped into cache hits).
        assert pipeline.stats.model_points == 2 * pipeline.stats.cache_misses

    @pytest.mark.parametrize("kernel", ["spmv-ellpack", "gemm-ncubed"])
    def test_reference_engine_matches_per_point(self, predictor, kernel):
        points = sample_points(kernel, 5, seed=11)
        expected = [predictor.predict(kernel, p) for p in points]
        pipeline = EvaluationPipeline(predictor, batch_size=3, engine="reference")
        assert pipeline.predict_batch(kernel, points) == expected
        assert pipeline.stats.engine == "reference"

    def test_single_predict_matches_batch(self, predictor):
        point = sample_points("fir", 1, seed=3)[0]
        pipeline = EvaluationPipeline(predictor, batch_size=4)
        assert pipeline.predict("fir", point) == predictor.predict("fir", point)

    def test_order_preserved_with_duplicates(self, predictor):
        points = sample_points("fir", 4, seed=5)
        workload = [points[0], points[2], points[0], points[3], points[2]]
        expected = [predictor.predict("fir", p) for p in workload]
        pipeline = EvaluationPipeline(predictor, batch_size=8)
        assert pipeline.predict_batch("fir", workload) == expected

    def test_loaded_weights_keep_model_dtype(self):
        """A float32 model must predict the same values after a
        state-dict save/load round-trip: loaded parameters take the
        model's own dtype instead of silently upcasting every op."""
        set_default_dtype(np.float32)  # module fixture restores float64
        predictor = make_predictor(seed=5)
        state = predictor.classifier.state_dict()
        config = MODEL_CONFIGS["M7"].for_task("classification")
        clone = build_model(config, NODE_DIM, EDGE_DIM, seed=99)
        clone.load_state_dict(state)
        assert all(p.data.dtype == np.float32 for p in clone.parameters())
        reloaded = GNNDSEPredictor(
            clone,
            predictor.regressor,
            predictor.bram_regressor,
            predictor.normalizer,
            predictor.builder,
        )
        point = sample_points("fir", 1, seed=8)[0]
        assert reloaded.predict("fir", point) == predictor.predict("fir", point)
        pipeline = EvaluationPipeline(reloaded, batch_size=4, engine="compiled")
        assert pipeline.predict("fir", point) == predictor.predict("fir", point)

    @pytest.mark.slow
    def test_float32_production_path(self):
        """The float32 default path is the BLAS-order-sensitive one."""
        set_default_dtype(np.float32)  # module fixture restores float64
        predictor = make_predictor(seed=7)
        for kernel in ("spmv-ellpack", "gemm-ncubed"):
            points = sample_points(kernel, 6, seed=13)
            expected = [predictor.predict(kernel, p) for p in points]
            pipeline = EvaluationPipeline(predictor, batch_size=4, engine="compiled")
            assert pipeline.predict_batch(kernel, points) == expected


class TestCache:
    def test_second_call_hits_cache(self, predictor):
        pipeline = EvaluationPipeline(predictor, batch_size=4)
        points = sample_points("fir", 6, seed=2)
        first = pipeline.predict_batch("fir", points)
        misses = pipeline.stats.cache_misses
        second = pipeline.predict_batch("fir", points)
        assert second == first
        assert pipeline.stats.cache_misses == misses
        assert pipeline.stats.cache_hits >= len(points)

    def test_in_call_deduplication(self, predictor):
        pipeline = EvaluationPipeline(predictor, batch_size=8)
        point = sample_points("fir", 1, seed=4)[0]
        out = pipeline.predict_batch("fir", [point] * 5)
        assert out == [out[0]] * 5
        # One unique point: one classifier row plus one regression row.
        assert pipeline.stats.model_points == 2
        assert pipeline.stats.cache_misses == 1
        assert pipeline.stats.cache_hits == 4

    def test_cache_disabled_reevaluates(self, predictor):
        pipeline = EvaluationPipeline(predictor, batch_size=4, cache=False)
        points = sample_points("fir", 3, seed=2)
        first = pipeline.predict_batch("fir", points)
        assert pipeline.predict_batch("fir", points) == first
        assert pipeline.stats.cache_hits == 0

    def test_clear_cache(self, predictor):
        pipeline = EvaluationPipeline(predictor, batch_size=4)
        points = sample_points("fir", 3, seed=2)
        pipeline.predict_batch("fir", points)
        misses = pipeline.stats.cache_misses
        pipeline.clear_cache()
        pipeline.predict_batch("fir", points)
        assert pipeline.stats.cache_misses == 2 * misses


class TestCascade:
    def test_valid_only_objectives_consistent(self, predictor):
        pipeline = EvaluationPipeline(predictor, batch_size=8, cache=False)
        points = sample_points("fir", 10, seed=6)
        full = pipeline.predict_batch("fir", points, objectives_for="all")
        cascade = pipeline.predict_batch("fir", points, objectives_for="valid")
        for f, c in zip(full, cascade):
            assert c.valid == f.valid
            assert c.valid_prob == f.valid_prob
            if c.valid:
                assert c == f
            else:
                assert c.objectives is None
                assert c.latency == float("inf")
                assert not c.fits()

    def test_cascade_skip_counted(self, predictor):
        pipeline = EvaluationPipeline(predictor, batch_size=8, cache=False)
        points = sample_points("fir", 10, seed=6)
        predictions = pipeline.predict_batch("fir", points, objectives_for="valid")
        invalid = sum(1 for p in predictions if not p.valid)
        assert pipeline.stats.cascade_skipped == invalid

    def test_bad_objectives_for_rejected(self, predictor):
        pipeline = EvaluationPipeline(predictor)
        with pytest.raises(ValueError):
            pipeline.predict_batch("fir", sample_points("fir", 1), objectives_for="no")


class TestEngineSelection:
    def test_stub_predictor_falls_back_to_reference(self, predictor):
        class Stub:
            def predict_batch(self, kernel, points, valid_threshold=0.5):
                return predictor.predict_batch(kernel, points, valid_threshold)

        pipeline = EvaluationPipeline(Stub(), batch_size=4)
        points = sample_points("fir", 3, seed=2)
        expected = [predictor.predict("fir", p) for p in points]
        assert pipeline.predict_batch("fir", points) == expected
        assert pipeline.stats.engine == "reference"

    def test_compiled_on_unsupported_model_raises(self):
        class Stub:
            def predict_batch(self, kernel, points, valid_threshold=0.5):
                raise AssertionError("should not be reached")

        pipeline = EvaluationPipeline(Stub(), engine="compiled")
        with pytest.raises(UnsupportedModelError):
            pipeline.predict_batch("fir", sample_points("fir", 1))


class TestThresholdTieBreak:
    """Satellite (d): behaviour exactly at the classification threshold."""

    def test_probability_at_threshold_is_valid(self, predictor):
        # Equal logits put the softmax probability exactly at 0.5: the
        # inclusive tie-break must call the point valid.
        logits = np.zeros((1, 2))
        reg = np.zeros((1, len(REGRESSION_OBJECTIVES)))
        bram = np.zeros((1, 1))
        (prediction,) = predictions_from_outputs(
            logits, reg, bram, predictor.normalizer, DEFAULT_VALID_THRESHOLD
        )
        assert prediction.valid_prob == DEFAULT_VALID_THRESHOLD
        assert prediction.valid is True

    def test_repr_consistent_with_flag(self):
        at = Prediction(valid=True, valid_prob=0.5, objectives=None)
        below = Prediction(valid=False, valid_prob=0.49996, objectives=None)
        assert "valid=True p=0.5000" in repr(at)
        # A probability just under the threshold must not round across
        # it while printing valid=False: full precision kicks in.
        assert "p=0.5000" not in repr(below)
        assert "p=0.49996" in repr(below)
        assert "latency=inf" in repr(at)

    def test_candidate_latency_mirrors_prediction(self):
        from repro.dse.search import DSECandidate

        skipped = DSECandidate({"K": 1}, Prediction(False, 0.2, None))
        assert skipped.predicted_latency == float("inf")
        scored = DSECandidate(
            {"K": 1},
            Prediction(True, 0.9, {"latency": 42.0, "DSP": 0, "BRAM": 0, "LUT": 0, "FF": 0}),
        )
        assert scored.predicted_latency == 42.0

    def test_prediction_value_equality(self):
        objectives = {"latency": 1.0, "DSP": 0.1, "BRAM": 0.1, "LUT": 0.1, "FF": 0.1}
        a = Prediction(True, 0.75, dict(objectives))
        b = Prediction(True, 0.75, dict(objectives))
        assert a == b and hash(a) == hash(b)
        assert a != Prediction(True, 0.75, None)
        assert a != Prediction(False, 0.75, dict(objectives))
        assert Prediction(False, 0.1, None) == Prediction(False, 0.1, None)


class TestStats:
    def test_subtract_and_copy(self):
        total = PipelineStats(points=10, wall_seconds=2.0, cache_hits=4)
        before = PipelineStats(points=4, wall_seconds=0.5, cache_hits=1)
        delta = total - before
        assert delta.points == 6
        assert delta.wall_seconds == 1.5
        assert delta.cache_hits == 3
        snap = total.copy()
        total.points = 99
        assert snap.points == 10

    def test_rates(self):
        stats = PipelineStats(points=30, wall_seconds=2.0, cache_hits=3, cache_misses=7)
        assert stats.points_per_second() == pytest.approx(15.0)
        assert stats.cache_hit_rate() == pytest.approx(0.3)
        assert PipelineStats().points_per_second() == 0.0
        assert PipelineStats().cache_hit_rate() == 0.0

    def test_summary_mentions_engine(self):
        stats = PipelineStats(points=2, wall_seconds=1.0, engine="compiled")
        assert "compiled" in stats.summary()


class TestSearchIntegration:
    def test_model_dse_same_results_with_pipeline(self, predictor):
        spec = get_kernel("fir")
        space = build_design_space(spec)
        plain = ModelDSE(predictor, spec, space, top_m=5, use_pipeline=False).run(
            time_limit_seconds=120
        )
        piped = ModelDSE(
            predictor, spec, space, top_m=5,
            pipeline=EvaluationPipeline(predictor, batch_size=32),
        ).run(time_limit_seconds=120)
        assert [c.point for c in plain.top] == [c.point for c in piped.top]
        assert [c.predicted_latency for c in plain.top] == [
            c.predicted_latency for c in piped.top
        ]
        assert piped.stats is not None
        assert piped.stats.points > 0
        assert plain.stats is None


GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden", "dse_top_points.json")


class TestGoldenTopPoints:
    """Satellite (c): DSEResult top-points ordering, pinned by a golden file.

    Uses the HLS simulator as a perfect oracle (fully deterministic,
    no model weights) so the golden file is stable across BLAS builds.
    Regenerate with REPRO_REGEN_GOLDEN=1 after an intentional change.
    """

    def _run(self):
        from repro.hls import MerlinHLSTool

        spec = get_kernel("spmv-ellpack")
        space = build_design_space(spec)
        tool = MerlinHLSTool()

        class Oracle:
            def predict_batch(self, kernel, points, valid_threshold=0.5):
                out = []
                for point in points:
                    result = tool.synthesize(spec, point)
                    out.append(
                        Prediction(
                            valid=result.valid,
                            valid_prob=1.0 if result.valid else 0.0,
                            objectives=result.objectives,
                        )
                    )
                return out

        dse = ModelDSE(Oracle(), spec, space, top_m=5)
        result = dse.run(time_limit_seconds=300)
        return [point_key(c.point) for c in result.top]

    def test_top_ordering_matches_golden(self):
        keys = self._run()
        if os.environ.get("REPRO_REGEN_GOLDEN"):
            os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
            with open(GOLDEN_PATH, "w") as handle:
                json.dump({"kernel": "spmv-ellpack", "top": keys}, handle, indent=1)
        with open(GOLDEN_PATH) as handle:
            golden = json.load(handle)
        assert keys == golden["top"]


class TestFusedEngine:
    """Golden end-to-end equivalence for ``engine="fused"``.

    The fused lazy engine is tolerance-equivalent (not bit-identical):
    what must be *identical* to eager is everything downstream of the
    floats — the top-K ordering and the Pareto front the DSE would act
    on (ISSUE acceptance), plus cascade semantics and the verification
    gate that guards the first batch per kernel.
    """

    @staticmethod
    def _orders_match(order_a, order_b, predictions, rel=1e-5):
        """Orderings may differ only by swaps of tolerance-tied latencies."""
        if order_a == order_b:
            return True
        for a, b in zip(order_a, order_b):
            if a == b:
                continue
            la, lb = predictions[a].latency, predictions[b].latency
            if not np.isclose(la, lb, rtol=rel, atol=0.0):
                return False
        return True

    @pytest.mark.parametrize("kernel", list_kernels())
    def test_topk_and_pareto_match_eager(self, predictor, kernel):
        from repro.dse import pareto_front
        from repro.nn.lazy import predictions_equivalent

        points = sample_points(kernel, 8, seed=21)
        eager = [predictor.predict(kernel, p) for p in points]
        pipeline = EvaluationPipeline(predictor, batch_size=4, engine="fused")
        fused = pipeline.predict_batch(kernel, points)
        assert pipeline.stats.engine == "fused"

        problem = predictions_equivalent(fused, eager, dtype=np.float64)
        assert problem is None, f"{kernel}: {problem}"

        def order(predictions):
            return sorted(
                range(len(points)), key=lambda i: (predictions[i].latency, i)
            )[:5]

        assert self._orders_match(order(fused), order(eager), eager), (
            f"{kernel}: fused top-K ordering diverged beyond latency ties"
        )

        def front(predictions):
            ranked = [
                i for i in range(len(points)) if predictions[i].objectives is not None
            ]
            return set(
                pareto_front(ranked, lambda i: predictions[i].objectives)
            )

        assert front(fused) == front(eager), f"{kernel}: Pareto front diverged"

    def test_fused_verification_gate_runs_once_per_kernel(self, predictor):
        pipeline = EvaluationPipeline(predictor, batch_size=4, engine="fused")
        points = sample_points("fir", 6, seed=2)
        pipeline.predict_batch("fir", points)
        assert "fir" in pipeline._fused_verified
        # Cached results stay identical on a second call (bit-consistency
        # within one engine version).
        first = pipeline.predict_batch("fir", points)
        assert pipeline.predict_batch("fir", points) == first

    def test_fused_uncached_is_deterministic(self, predictor):
        """Same batch twice with no cache: bit-identical predictions."""
        pipeline = EvaluationPipeline(
            predictor, batch_size=4, engine="fused", cache=False
        )
        points = sample_points("gemm-ncubed", 5, seed=3)
        assert pipeline.predict_batch("gemm-ncubed", points) == pipeline.predict_batch(
            "gemm-ncubed", points
        )

    def test_fused_cascade_consistent(self, predictor):
        pipeline = EvaluationPipeline(predictor, batch_size=8, engine="fused", cache=False)
        points = sample_points("fir", 10, seed=6)
        full = pipeline.predict_batch("fir", points, objectives_for="all")
        cascade = pipeline.predict_batch("fir", points, objectives_for="valid")
        for f, c in zip(full, cascade):
            assert c.valid == f.valid
            assert c.valid_prob == f.valid_prob
            if c.valid:
                assert c == f
            else:
                assert c.objectives is None

    def test_fused_on_mlp_predictor_raises(self):
        config = MODEL_CONFIGS["M1"]
        builder = GraphDatasetBuilder(Database())
        classifier = build_model(
            config.for_task("classification"), NODE_DIM, EDGE_DIM, seed=0
        )
        regressor = build_model(
            config.for_task("regression", REGRESSION_OBJECTIVES),
            NODE_DIM, EDGE_DIM, seed=1,
        )
        bram = build_model(
            config.for_task("regression", BRAM_OBJECTIVE), NODE_DIM, EDGE_DIM, seed=2
        )
        mlp_predictor = GNNDSEPredictor(
            classifier, regressor, bram, builder.normalizer, builder
        )
        pipeline = EvaluationPipeline(mlp_predictor, engine="fused")
        with pytest.raises(UnsupportedModelError):
            pipeline.predict_batch("fir", sample_points("fir", 2))

    def test_verification_gate_catches_divergence(self, predictor):
        """A predictor whose reference path disagrees with its own models
        must trip the first-batch equivalence gate."""
        from repro.nn.lazy import EngineEquivalenceError

        class LyingPredictor(GNNDSEPredictor):
            def predict_batch(self, kernel, points, valid_threshold=0.5, engine="eager"):
                out = super().predict_batch(kernel, points, valid_threshold, engine)
                return [
                    Prediction(p.valid, min(1.0, p.valid_prob * 0.5 + 0.49), p.objectives)
                    for p in out
                ]

        liar = LyingPredictor(
            predictor.classifier,
            predictor.regressor,
            predictor.bram_regressor,
            predictor.normalizer,
            predictor.builder,
        )
        pipeline = EvaluationPipeline(liar, batch_size=4, engine="fused")
        with pytest.raises(EngineEquivalenceError):
            pipeline.predict_batch("fir", sample_points("fir", 4, seed=9))

    @pytest.mark.slow
    def test_fused_float32_production_path(self):
        """Float32 is the production dtype and the tolerance-critical one."""
        from repro.nn.lazy import predictions_equivalent

        set_default_dtype(np.float32)  # module fixture restores float64
        predictor = make_predictor(seed=7)
        for kernel in ("spmv-ellpack", "gemm-ncubed"):
            points = sample_points(kernel, 6, seed=13)
            eager = [predictor.predict(kernel, p) for p in points]
            pipeline = EvaluationPipeline(predictor, batch_size=4, engine="fused")
            fused = pipeline.predict_batch(kernel, points)
            problem = predictions_equivalent(fused, eager, dtype=np.float32)
            assert problem is None, f"{kernel}: {problem}"
