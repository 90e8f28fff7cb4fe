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
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import repro.dse.pipeline as pipeline_module
from repro.designspace import build_design_space, point_key
from repro.dse import (
    EvaluationPipeline,
    ModelDSE,
    PipelineStats,
    UnsupportedModelError,
)
from repro.explorer.database import Database
from repro.graph.encoding import EDGE_DIM, NODE_DIM
from repro.kernels import KERNELS, KernelSpec, get_kernel, list_kernels
from repro.model.config import BRAM_OBJECTIVE, MODEL_CONFIGS, REGRESSION_OBJECTIVES
from repro.model.dataset import GraphDatasetBuilder
from repro.model.models import build_model
from repro.model.predictor import (
    DEFAULT_VALID_THRESHOLD,
    GNNDSEPredictor,
    Prediction,
    predictions_from_outputs,
)
from repro.nn.tensor import Segments, Tensor, get_default_dtype, set_default_dtype


def make_predictor(seed: int = 0, config_name: str = "M7") -> GNNDSEPredictor:
    """Untrained-but-deterministic predictor stack (cheap to build)."""
    builder = GraphDatasetBuilder(Database())
    config = MODEL_CONFIGS[config_name]
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


@pytest.fixture(scope="module")
def f32_predictor():
    """The float32 production stack (tests using it switch the default
    dtype to float32 too, so the pipeline compiles at float32)."""
    previous = get_default_dtype()
    set_default_dtype(np.float32)
    try:
        return make_predictor(seed=7)
    finally:
        set_default_dtype(previous)


# One loop, one pragma: the pipeline recomputes a single pragma row.
ONE_PRAGMA = KernelSpec(
    name="one-pragma",
    suite="toy",
    source="""
#define N 64
void one(int a[64]) {
#pragma ACCEL parallel factor=auto{_PARA_L1}
  for (int i = 0; i < N; i++) {
    a[i] += 1;
  }
}
""",
    description="one loop with a single parallel pragma",
)


@pytest.fixture(scope="module")
def one_pragma():
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(KERNELS, ONE_PRAGMA.name, ONE_PRAGMA)
        yield ONE_PRAGMA.name


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
        # Each unique point runs the classifier pass and the regression
        # pass exactly once (duplicates are deduped into cache hits).
        assert pipeline.stats.model_points == 2 * pipeline.stats.cache_misses

    @pytest.mark.parametrize("config_name", ["M5", "M6"])
    def test_compiled_matches_per_point_without_attention_pool(self, config_name):
        """Sum pooling, with (M6) and without (M5) max jumping knowledge:
        the pruned rows must be merged into the pooled input either way."""
        predictor = make_predictor(seed=3, config_name=config_name)
        points = sample_points("mvt", 5, seed=11)
        expected = [predictor.predict("mvt", p) for p in points]
        pipeline = EvaluationPipeline(predictor, batch_size=3, engine="compiled", cache=False)
        assert pipeline.predict_batch("mvt", points) == expected
        # Again from a warm row memo: every row is reused.
        computed = pipeline.stats.rows_computed
        assert pipeline.predict_batch("mvt", points[::-1]) == expected[::-1]
        assert pipeline.stats.rows_computed == computed

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
    def test_float32_production_path(self, f32_predictor):
        """The float32 default path is the BLAS-order-sensitive one."""
        set_default_dtype(np.float32)  # module fixture restores float64
        for kernel in list_kernels():
            points = sample_points(kernel, 6, seed=13)
            expected = [f32_predictor.predict(kernel, p) for p in points]
            pipeline = EvaluationPipeline(f32_predictor, batch_size=4, engine="compiled")
            assert pipeline.predict_batch(kernel, points) == expected, kernel

    @pytest.mark.parametrize("batch_size", [1, 2, 4])
    def test_single_pragma_kernel_float32(self, f32_predictor, one_pragma, batch_size):
        """One pragma row per copy: a one-point chunk projects a single
        input row at layer 0, which must still run as a padded row block,
        because a one-row product takes BLAS's gemv path and drifts from
        the reference's full-graph gemm by ulps at float32."""
        set_default_dtype(np.float32)
        points = list(build_design_space(get_kernel(one_pragma)).enumerate())
        expected = [f32_predictor.predict(one_pragma, p) for p in points]
        pipeline = EvaluationPipeline(f32_predictor, batch_size=batch_size, engine="compiled")
        assert pipeline.predict_batch(one_pragma, points) == expected


class TestBatchCompositionInvariance:
    """A point's prediction is bit-identical whether it is evaluated
    alone (in the pipeline or eagerly) or in any batch, at any slot, at
    any ``batch_size`` (float32).  Parallel DSE == serial and serving ==
    offline both rest on this."""

    SAMPLED_KERNELS = ("fir", "gesummv", "spmv-ellpack", ONE_PRAGMA.name)

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_prediction_independent_of_batch(self, f32_predictor, one_pragma, data):
        set_default_dtype(np.float32)
        kernel = data.draw(st.sampled_from(self.SAMPLED_KERNELS))
        pool = sample_points(kernel, 8, seed=17)
        index = st.integers(0, len(pool) - 1)
        target = pool[data.draw(index)]
        batch = [pool[i] for i in data.draw(st.lists(index, max_size=7))]
        slot = data.draw(st.integers(0, len(batch)))
        batch.insert(slot, target)
        batch_size = data.draw(st.integers(1, 8))
        alone = EvaluationPipeline(f32_predictor, batch_size=1, cache=False)
        pipeline = EvaluationPipeline(f32_predictor, batch_size=batch_size, cache=False)
        got = pipeline.predict_batch(kernel, batch)
        assert got[slot] == alone.predict(kernel, target) == f32_predictor.predict(kernel, target)

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_warm_row_memo_matches_cold(self, f32_predictor, one_pragma, data):
        """A batch predicts the same after any history of earlier points
        (other kernels included) as from a fresh pipeline and eagerly:
        what the row memo holds never changes a result."""
        set_default_dtype(np.float32)
        # mvt's wide receptive fields take the byte-string keys.
        kernels = st.sampled_from(self.SAMPLED_KERNELS + ("stencil", "mvt"))
        pools = {}

        def draw_batch(kernel, min_size):
            pool = pools.setdefault(kernel, sample_points(kernel, 8, seed=17))
            picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=min_size, max_size=8))
            return [pool[i] for i in picks]

        warm = EvaluationPipeline(
            f32_predictor, batch_size=data.draw(st.integers(1, 8)), cache=False
        )
        for kernel in data.draw(st.lists(kernels, max_size=3)):
            warm.predict_batch(kernel, draw_batch(kernel, 0))
        kernel = data.draw(kernels)
        batch = draw_batch(kernel, 1)
        cold = EvaluationPipeline(f32_predictor, batch_size=8, cache=False)
        got = warm.predict_batch(kernel, batch)
        assert got == cold.predict_batch(kernel, batch)
        assert got == [f32_predictor.predict(kernel, p) for p in batch]


class TestChunkSizes:
    """One compiled engine per (kernel, device, model) serves every chunk
    size, and what a larger chunk left in its grown buffers never reaches
    a later, smaller chunk (float32)."""

    def test_one_engine_per_model(self, f32_predictor, monkeypatch):
        set_default_dtype(np.float32)
        built = []
        init = pipeline_module.CompiledGNNEngine.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(pipeline_module.CompiledGNNEngine, "__init__", counting_init)
        points = sample_points("mvt", 8, seed=5)
        pipeline = EvaluationPipeline(f32_predictor, batch_size=8, cache=False)
        for size in range(1, 9):
            got = pipeline.predict_batch("mvt", points[:size])
        assert len(built) == 3
        assert got == [f32_predictor.predict("mvt", p) for p in points]

    @pytest.mark.parametrize("kernel", ["mvt", "gesummv", ONE_PRAGMA.name])
    def test_shrinking_chunks_stay_exact(self, f32_predictor, one_pragma, kernel):
        set_default_dtype(np.float32)
        points = sample_points(kernel, 22, seed=23)
        pipeline = EvaluationPipeline(f32_predictor, batch_size=8, cache=False)
        start = 0
        for size in (8, 1, 5, 8):
            chunk = points[start:start + size]
            start += size
            fresh = EvaluationPipeline(f32_predictor, batch_size=8, cache=False)
            got = pipeline.predict_batch(kernel, chunk)
            assert got == fresh.predict_batch(kernel, chunk)
            assert got == [f32_predictor.predict(kernel, p) for p in chunk]


class TestRowMemo:
    """The conv-row memo: exact under eviction, emptied by
    ``clear_cache``, and keyed exactly at any pragma-code width."""

    @pytest.fixture(scope="class")
    def sweep(self, f32_predictor):
        """gesummv's exhaustive space and its eager float32 predictions."""
        set_default_dtype(np.float32)
        points = list(build_design_space(get_kernel("gesummv")).enumerate())
        return points, [f32_predictor.predict("gesummv", p) for p in points]

    @pytest.mark.parametrize("budget", [0, 4096])
    def test_eviction_is_exact(self, f32_predictor, sweep, monkeypatch, budget):
        set_default_dtype(np.float32)
        points, expected = sweep
        default = EvaluationPipeline(f32_predictor, batch_size=24, cache=False)
        assert default.predict_batch("gesummv", points) == expected
        monkeypatch.setattr(pipeline_module, "ROW_MEMO_BYTES", budget)
        small = EvaluationPipeline(f32_predictor, batch_size=24, cache=False)
        got = []
        for start in range(0, len(points), 24):
            got += small.predict_batch("gesummv", points[start:start + 24])
            assert small._memo.slab.nbytes <= budget
            assert small._memo.nbytes <= budget
        assert got == expected
        assert small.stats.rows_computed > default.stats.rows_computed

    def test_clear_cache_empties_the_memo(self, predictor):
        pipeline = EvaluationPipeline(predictor, batch_size=4, cache=False)
        points = sample_points("gesummv", 6, seed=2)
        pipeline.predict_batch("gesummv", points)
        assert pipeline._memo.nbytes > 0
        pipeline.clear_cache()
        assert pipeline._memo.nbytes == 0
        before = pipeline.stats_snapshot()
        pipeline.predict_batch("gesummv", points[:1])
        delta = pipeline.stats_snapshot() - before
        assert delta.rows_reused == 0 and delta.rows_computed > 0

    def test_many_pragma_values_widen_the_codes(self, predictor, one_pragma):
        """A pragma with more encodings than one byte can code switches to
        two-byte codes mid-run and keeps every prediction exact."""
        knob = build_design_space(get_kernel(one_pragma)).knobs[0].name
        points = [{knob: factor} for factor in range(1, 301)]
        expected = [predictor.predict(one_pragma, p) for p in points]
        pipeline = EvaluationPipeline(predictor, batch_size=64, cache=False)
        assert pipeline.predict_batch(one_pragma, points) == expected
        assert pipeline.predict_batch(one_pragma, points[::-1]) == expected[::-1]


class TestFusedForward:
    """An ``objectives_for="all"`` chunk runs the classifier and both
    regressors as one forward, and every model's values of a row key
    share one memo slot (float32)."""

    KERNELS = TestBatchCompositionInvariance.SAMPLED_KERNELS + ("mvt",)  # mvt: byte-string keys

    @staticmethod
    def _check_head_ranges(predictor, kernel):
        """All three models as one head range give each model the bytes
        the classifier and regressor ranges give it, and eager's
        predictions."""
        points = sample_points(kernel, 8, seed=29)
        fused = EvaluationPipeline(predictor, batch_size=5, cache=False)
        staged = EvaluationPipeline(predictor, batch_size=5, cache=False)
        got = fused._forward_chunks(kernel, points, pipeline_module._HEADS)
        want = staged._forward_chunks(kernel, points, pipeline_module._CLASSIFIER)
        want.update(staged._forward_chunks(kernel, points, pipeline_module._REGRESSORS))
        for name in pipeline_module._HEADS:
            assert got[name].dtype == want[name].dtype == get_default_dtype()
            assert got[name].tobytes() == want[name].tobytes()
        assert fused.predict_batch(kernel, points) == [
            predictor.predict(kernel, p) for p in points
        ]

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_fused_equals_staged_and_eager(self, f32_predictor, one_pragma, kernel):
        set_default_dtype(np.float32)
        self._check_head_ranges(f32_predictor, kernel)

    @pytest.mark.parametrize("kernel", ["mvt", "gesummv"])
    def test_head_ranges_agree_at_float64(self, predictor, kernel):
        self._check_head_ranges(predictor, kernel)

    @staticmethod
    def _median_threshold(predictor, kernel, points) -> float:
        """A threshold the cascade rejects about half of ``points`` at."""
        probs = sorted(predictor.predict(kernel, p).valid_prob for p in points)
        return probs[len(probs) // 2]

    @pytest.mark.parametrize(
        "budget, cache", [(None, False), (None, True), (0, False), (4096, False)]
    )
    def test_valid_and_all_calls_interleave(self, f32_predictor, monkeypatch, budget, cache):
        """Cascade and fused calls on overlapping points fill one another's
        memo slots and equal a fresh pipeline and eager, at the default
        budget and under eviction."""
        set_default_dtype(np.float32)
        if budget is not None:
            monkeypatch.setattr(pipeline_module, "ROW_MEMO_BYTES", budget)
        kernel = "mvt"
        pool = sample_points(kernel, 24, seed=31)
        threshold = self._median_threshold(f32_predictor, kernel, pool)
        pipeline = EvaluationPipeline(f32_predictor, batch_size=6, cache=cache)
        calls = [(0, 10, "valid"), (5, 15, "all"), (12, 24, "valid"), (0, 24, "all")]
        skipped = 0
        for start, stop, mode in calls:
            points = pool[start:stop]
            got = pipeline.predict_batch(kernel, points, threshold, objectives_for=mode)
            fresh = EvaluationPipeline(f32_predictor, batch_size=6, cache=False)
            assert got == fresh.predict_batch(kernel, points, threshold, objectives_for=mode)
            for pred, point in zip(got, points):
                eager = f32_predictor.predict_batch(kernel, [point], threshold)[0]
                if mode == "all" or eager.valid:
                    assert pred == eager
                else:
                    skipped += 1
                    assert pred.objectives is None and pred.valid_prob == eager.valid_prob
            if budget is not None:
                assert pipeline._memo.slab.nbytes <= budget
                assert pipeline._memo.nbytes <= budget
        assert skipped > 0

    def test_staged_calls_leave_one_slot_per_key(self, f32_predictor):
        """A cascade call and then a fused call on the same points hold
        as many memo slots as one fused call: the regression stages fill
        the classifier's slots."""
        set_default_dtype(np.float32)
        kernel = "gesummv"
        points = sample_points(kernel, 12, seed=37)
        threshold = self._median_threshold(f32_predictor, kernel, points)
        staged = EvaluationPipeline(f32_predictor, batch_size=4, cache=False)
        staged.predict_batch(kernel, points, threshold, objectives_for="valid")
        staged.predict_batch(kernel, points, threshold, objectives_for="all")
        fused = EvaluationPipeline(f32_predictor, batch_size=4, cache=False)
        fused.predict_batch(kernel, points, threshold)
        memo = staged._memo
        assert memo.nbytes == fused._memo.nbytes > 0
        for entry in memo._index.values():
            refs = entry.refs
            live = refs >> pipeline_module._SLOT_BITS == memo.gen[refs & pipeline_module._SLOT_MASK]
            assert np.unique(entry.keys[live]).size == entry.live == np.count_nonzero(live)
        assert np.all(memo.filled[memo.stamp >= 0] == 0b111)


class TestMemoSlots:
    """:class:`_RowMemo` slot claims and index upkeep, on a 4-slot memo."""

    @staticmethod
    def _memo():
        memo = pipeline_module._RowMemo(4 * 3 * 4, [1, 1, 1], np.float32)
        assert memo.slab.shape[0] == 4
        return memo

    def test_claim_under_eviction_gives_each_slot_one_key(self):
        memo, key = self._memo(), ("k", 0)
        keys = np.arange(4, dtype=np.int64)
        memo.tick += 1
        found, _ = memo.lookup(key, keys, 0b001)
        memo.claim(key, keys, found, 0b001)  # the classifier's values only
        memo.tick += 1
        keys = np.array([0, 5, 6, 7, 8], dtype=np.int64)
        found, hit = memo.lookup(key, keys, 0b111)
        assert found[0] >= 0 and not hit.any()  # key 0 is held, partly filled
        # Four new keys evict every slot, key 0's too.
        slots = memo.claim(key, keys, found, 0b111)
        taken = slots[slots >= 0]
        assert np.unique(taken).size == taken.size == 4
        memo.tick += 1
        found, hit = memo.lookup(key, keys, 0b111)
        assert np.array_equal(found, slots) and np.array_equal(hit, slots >= 0)

    def test_index_sheds_stale_entries(self):
        memo, key = self._memo(), ("k", 0)
        for start in range(0, 400, 3):
            keys = np.arange(start, start + 3, dtype=np.int64)
            memo.tick += 1
            found, _ = memo.lookup(key, keys, 0b111)
            memo.claim(key, keys, found, 0b111)
            entry = memo._index[key]
            assert entry.live == np.count_nonzero(memo.stamp >= 0) <= 4
            assert entry.keys.size <= 2 * 4 + 3


class TestJaggedReductions:
    """The compiled engine's segment reductions over a jagged-diagonal
    edge layout, and its pooling sum, equal the eager :class:`Segments`
    reductions bit for bit, signed zeros, subnormals and overflow
    included."""

    @staticmethod
    def draw_values(data, dtype, shape):
        info = np.finfo(dtype)
        special = st.sampled_from([0.0, -0.0, float(info.tiny), -float(info.tiny),
                                   float(info.smallest_subnormal), float(info.max) / 2,
                                   -float(info.max) / 2, 1.0, -1.0])
        finite = st.floats(width=info.bits, allow_nan=False, allow_infinity=False)
        return data.draw(hnp.arrays(dtype, shape, elements=st.one_of(special, finite)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_segment_max_and_sum_match_eager(self, dtype, data):
        """A conv layer's reductions: each row's in-edges in order, then
        its self-loop, as the eager segment of that row holds them.  Rows
        are at least 2 columns wide, as the attention heads' are: numpy
        maxes a lone contiguous column across SIMD lanes, where a tie of
        -0.0 and +0.0 may come out either way (harmless where the engine
        uses the max, in ``exp(score - max)``)."""
        degree = np.array(data.draw(st.lists(st.integers(0, 16), min_size=1, max_size=10)))
        width = data.draw(st.integers(2, 4))
        S, E = degree.size, int(degree.sum())
        edges = self.draw_values(data, dtype, (E, width))
        own = self.draw_values(data, dtype, (S, width))
        # Eager: one segment per row, its edges followed by its self-loop.
        starts = np.cumsum(degree) - degree
        rows = np.concatenate(
            [np.concatenate([edges[a:a + d], own[i:i + 1]]) for i, (a, d) in
             enumerate(zip(starts, degree))]
        )
        segments = Segments(np.repeat(np.arange(S), degree + 1), S)
        order, seg, nth, diagonals = pipeline_module._jagged(degree)
        assert sum(diagonals) == E and list(diagonals) == sorted(diagonals, reverse=True)
        jagged = edges[starts[order][seg] + nth]
        fold = pipeline_module._fold_diagonals
        for ufunc, start, eager in ((np.maximum, -np.inf, segments.max),
                                    (np.add, 0.0, segments.sum)):
            out = np.full((S, width), start, dtype=dtype)
            with np.errstate(over="ignore", invalid="ignore"):  # large values overflow
                fold(ufunc, jagged, diagonals, out)
                ufunc(out, own[order], out=out)
                want = eager(rows)
            got = np.empty_like(out)
            got[order] = out
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_pooling_sum_matches_eager(self, dtype, data):
        copies, nodes = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 16))
        x = self.draw_values(data, dtype, (copies, nodes, data.draw(st.integers(1, 3))))
        with np.errstate(over="ignore", invalid="ignore"):  # large values overflow
            got = pipeline_module._sum_rows(x, axis=1)
            want = Segments(np.repeat(np.arange(copies), nodes), copies).sum(
                x.reshape(copies * nodes, -1)
            )
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


class TestHeldOnce:
    """Every compiled array is held once: the weights once per pipeline,
    and per kernel layer only the base rows its planned rows read."""

    KERNELS = ("stencil", "atax", "gemm-blocked")

    @pytest.fixture(scope="class")
    def stacks(self, f32_predictor):
        set_default_dtype(np.float32)
        pipeline = EvaluationPipeline(f32_predictor, batch_size=4, cache=False)
        for kernel in self.KERNELS:
            pipeline.predict_batch(kernel, sample_points(kernel, 2, seed=3))
        return [pipeline._compiled[(kernel, None)][1] for kernel in self.KERNELS]

    def test_kernels_share_the_weight_arrays(self, stacks):
        first, second = stacks[:2]
        for L, L0 in zip(second.weights.layers, first.weights.layers):
            assert all(L[key] is value for key, value in L0.items()
                       if isinstance(value, np.ndarray))
        for mlp, mlp0 in zip(second.weights.pool, first.weights.pool):
            assert all(W is W0 and b is b0 for (W, b), (W0, b0) in zip(mlp, mlp0))
        for (mlps, _), (mlps0, _) in zip(second.weights.out_mlps, first.weights.out_mlps):
            assert all(W is W0 for mlp, mlp0 in zip(mlps, mlps0)
                       for (W, _), (W0, _) in zip(mlp, mlp0))

    def test_base_tables_hold_the_rows_the_plan_reads(self, stacks):
        for stack in stacks:
            plan = stack.graph.plan
            for li, tab in enumerate(stack.tabs):
                lp = plan.layer(li)
                R = lp.base_rows.size
                assert 0 < R < stack.graph.num_nodes
                assert all(tab[k].shape[0] == R for k in "qkvr")
                assert tab["e"].shape[0] == lp.edges.size
                rag = lp.ragged(np.zeros(lp.n_out, dtype=np.int64), np.arange(lp.n_out),
                                np.arange(lp.n_in)[None], range(stack.models), stack.models)
                read = np.concatenate([rag.self_t.ravel(), rag.src_t.ravel()])
                assert np.array_equal(np.unique(read[read < R]), np.arange(R))


class TestEluAndWorkspace:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_elu_matches_tensor_elu(self, dtype):
        """The compiled ELU is bit for bit the eager one, edge values included."""
        info = np.finfo(dtype)
        edges = [-0.0, 0.0, 1e-8, -1e-8, -60.0, -61.0, np.inf, -np.inf, 1e30, -1e30,
                 info.max, -info.max, info.tiny, -info.tiny, info.eps, -info.eps]
        rng = np.random.default_rng(0)
        values = np.concatenate([edges, rng.normal(0.0, 10.0, 256)]).astype(dtype)
        previous = get_default_dtype()
        set_default_dtype(dtype)
        try:
            want = Tensor(values).elu().data
        finally:
            set_default_dtype(previous)
        got = pipeline_module._elu(values.copy(), np.empty_like(values))
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    def test_kernel_alternation_stops_allocating(self, f32_predictor, monkeypatch):
        """serve-cold's stencil/atax/gemm-blocked cycle allocates each
        scratch buffer in its first round only: kernels with different
        node counts keep a gate buffer each."""
        set_default_dtype(np.float32)
        monkeypatch.setattr(pipeline_module, "ROW_MEMO_BYTES", 0)  # every chunk computes
        kernels = ("stencil", "atax", "gemm-blocked")
        requests = {kernel: sample_points(kernel, 4, seed=41) for kernel in kernels}
        pipeline = EvaluationPipeline(f32_predictor, batch_size=16, cache=False)
        for kernel in kernels:
            pipeline.predict_batch(kernel, requests[kernel])
        buffers = dict(pipeline._ws._bufs)
        assert sum(1 for key in buffers if key[0] == ("gi",)) == len(kernels)
        for _ in range(2):
            for kernel in kernels:
                pipeline.predict_batch(kernel, requests[kernel])
                assert pipeline._ws._bufs.keys() == buffers.keys()
                assert all(pipeline._ws._bufs[key] is buf for key, buf in buffers.items())

    def test_chunk_size_cycle_stops_allocating(self, f32_predictor, monkeypatch):
        """Cascade and fused calls at every chunk size up to the batch
        allocate each scratch buffer in their first cycle only: no
        buffer is keyed by a size that varies with the chunk or the
        head range."""
        set_default_dtype(np.float32)
        monkeypatch.setattr(pipeline_module, "ROW_MEMO_BYTES", 0)  # every chunk computes
        points = sample_points("mvt", 8, seed=43)
        pipeline = EvaluationPipeline(f32_predictor, batch_size=8, cache=False)

        def cycle():
            for size in range(1, len(points) + 1):
                for mode in ("valid", "all"):
                    pipeline.predict_batch("mvt", points[:size], objectives_for=mode)

        cycle()
        buffers = dict(pipeline._ws._bufs)
        cycle()
        assert pipeline._ws._bufs.keys() == buffers.keys()
        assert all(pipeline._ws._bufs[key] is buf for key, buf in buffers.items())
        # No key depends on the chunk size: full chunks alone make the same keys.
        full = EvaluationPipeline(f32_predictor, batch_size=8, cache=False)
        for mode in ("valid", "all"):
            full.predict_batch("mvt", points, objectives_for=mode)
        assert full._ws._bufs.keys() == buffers.keys()


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

    def test_models_that_cannot_stack_run_on_reference(self, predictor):
        """The compiled engine runs a predictor's three models on one
        model axis, so they must agree in shape: a regressor of another
        width sends the predictor to the reference engine under "auto"
        and is refused under "compiled"."""
        config = replace(MODEL_CONFIGS["M7"], hidden=32)
        narrow = build_model(
            config.for_task("regression", REGRESSION_OBJECTIVES), NODE_DIM, EDGE_DIM, seed=1
        )
        mixed = GNNDSEPredictor(
            predictor.classifier, narrow, predictor.bram_regressor,
            predictor.normalizer, predictor.builder,
        )
        points = sample_points("fir", 3, seed=2)
        pipeline = EvaluationPipeline(mixed, batch_size=4)
        assert pipeline.predict_batch("fir", points) == [mixed.predict("fir", p) for p in points]
        assert pipeline.stats.engine == "reference"
        with pytest.raises(UnsupportedModelError):
            EvaluationPipeline(mixed, engine="compiled").predict_batch("fir", points)

    @pytest.mark.parametrize("missing", ["lin_edge", "lin_beta"])
    def test_convs_without_edge_features_or_gate_run_on_reference(self, predictor, missing):
        """A transformer conv without edge features (``use_edge_attr=False``)
        or without its gate is not lowered: "auto" answers on the reference
        engine, "compiled" refuses."""
        config = replace(MODEL_CONFIGS["M7"], use_edge_attr=missing != "lin_edge")
        tasks = [
            config.for_task("classification"),
            config.for_task("regression", REGRESSION_OBJECTIVES),
            config.for_task("regression", BRAM_OBJECTIVE),
        ]
        models = [build_model(task, NODE_DIM, EDGE_DIM, seed=s) for s, task in enumerate(tasks)]
        for model in models:
            for conv in model.convs:
                setattr(conv, missing, None)
        stack = GNNDSEPredictor(*models, predictor.normalizer, predictor.builder)
        points = sample_points("fir", 2, seed=2)
        pipeline = EvaluationPipeline(stack, batch_size=4)
        assert pipeline.predict_batch("fir", points) == [stack.predict("fir", p) for p in points]
        assert pipeline.stats.engine == "reference"
        with pytest.raises(UnsupportedModelError):
            EvaluationPipeline(stack, engine="compiled").predict_batch("fir", points)

    @pytest.mark.parametrize("mode", ["fused", "bogus"])
    def test_unknown_engine_rejected(self, predictor, mode):
        with pytest.raises(ValueError):
            EvaluationPipeline(predictor, engine=mode)


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
        stats = PipelineStats(points=30, wall_seconds=2.0, cache_hits=3, cache_misses=7,
                              rows_computed=11, rows_reused=9)
        assert stats.points_per_second() == pytest.approx(15.0)
        assert stats.cache_hit_rate() == pytest.approx(0.3)
        assert stats.row_reuse_rate() == pytest.approx(0.45)
        assert stats.to_dict()["row_reuse_rate"] == pytest.approx(0.45)
        assert "45% reused" in stats.summary()
        assert PipelineStats().points_per_second() == 0.0
        assert PipelineStats().cache_hit_rate() == 0.0
        assert PipelineStats().row_reuse_rate() == 0.0

    def test_summary_mentions_engine(self):
        stats = PipelineStats(points=2, wall_seconds=1.0, engine="compiled")
        assert "compiled" in stats.summary()


class TestSearchIntegration:
    def test_model_dse_same_results_with_pipeline(self, predictor):
        spec = get_kernel("fir")
        space = build_design_space(spec)
        plain = ModelDSE(
            predictor, spec, space, top_m=5,
            pipeline=EvaluationPipeline(predictor, engine="reference"),
        ).run(time_limit_seconds=120)
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
