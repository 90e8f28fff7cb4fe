"""Tests for pragma ordering, Pareto utilities, and the model-driven DSE."""

import json
import os
import time

import pytest

from repro.designspace import build_design_space, point_key
from repro.dse import (
    PARETO_KEYS,
    EvaluationPipeline,
    ModelDSE,
    order_pragmas,
    pareto_front,
)
from repro.frontend.pragmas import PragmaKind
from repro.kernels import get_kernel
from repro.model.predictor import Prediction
from tests import pareto_oracle
from tests.pareto_oracle import dominates
from tests.test_pipeline import make_predictor

GOLDEN_BEAM = os.path.join(os.path.dirname(__file__), "golden", "beam_mvt.json")


class TestOrdering:
    def test_innermost_first_before_promotion(self):
        space = build_design_space(get_kernel("gemm-ncubed"))
        # Without dependency promotion the BFS order is innermost-first.
        ordered = order_pragmas(space, promote_dependencies=False)
        depths = [space.rules.loop_of(k).depth for k in ordered]
        assert depths[0] == max(depths)
        assert depths == sorted(depths, reverse=True)

    def test_dependencies_precede_dependents(self):
        space = build_design_space(get_kernel("gemm-ncubed"))
        ordered = order_pragmas(space)
        position = {k.name: i for i, k in enumerate(ordered)}
        for knob in ordered:
            for dep in space.rules.dependency_of(knob):
                if dep.name in position:
                    assert position[dep.name] < position[knob.name], (
                        f"{dep.name} must precede {knob.name}"
                    )

    def test_kind_priority_within_level(self):
        space = build_design_space(get_kernel("mvt"))
        ordered = order_pragmas(space)
        rules = space.rules
        by_level = {}
        for i, knob in enumerate(ordered):
            by_level.setdefault(rules.loop_of(knob).depth, []).append(knob)
        # Dependency promotion may pull a parent pipeline forward, but
        # within the innermost level parallel precedes tile.
        deepest = by_level[max(by_level)]
        kinds = [k.kind for k in deepest]
        if PragmaKind.PARALLEL in kinds and PragmaKind.TILE in kinds:
            assert kinds.index(PragmaKind.PARALLEL) < kinds.index(PragmaKind.TILE)

    def test_all_knobs_present_once(self):
        space = build_design_space(get_kernel("2mm"))
        ordered = order_pragmas(space)
        assert sorted(k.name for k in ordered) == sorted(k.name for k in space.knobs)


class TestPareto:
    def test_dominates(self):
        a = {"latency": 1.0, "DSP": 0.1}
        b = {"latency": 2.0, "DSP": 0.1}
        assert dominates(a, b, ("latency", "DSP"))
        assert not dominates(b, a, ("latency", "DSP"))
        assert not dominates(a, a, ("latency", "DSP"))

    def test_front_excludes_dominated(self):
        items = [
            {"latency": 1.0, "DSP": 0.9},
            {"latency": 5.0, "DSP": 0.1},
            {"latency": 5.0, "DSP": 0.9},  # dominated by both
        ]
        front = pareto_front(items, lambda x: x, keys=("latency", "DSP"))
        assert items[0] in front and items[1] in front
        assert items[2] not in front

    def test_front_of_identical_points_keeps_all(self):
        items = [{"latency": 1.0}, {"latency": 1.0}]
        assert len(pareto_front(items, lambda x: x, keys=("latency",))) == 2


class _OracleStub:
    """Predictor stub backed by the HLS tool itself (perfect oracle)."""

    def __init__(self, spec, tool):
        self.spec = spec
        self.tool = tool

    def predict_batch(self, kernel, points, valid_threshold=0.5):
        out = []
        for point in points:
            result = self.tool.synthesize(self.spec, point)
            out.append(
                Prediction(
                    valid=result.valid,
                    valid_prob=1.0 if result.valid else 0.0,
                    objectives=result.objectives,
                )
            )
        return out


@pytest.fixture(scope="module")
def oracle_dse():
    from repro.hls import MerlinHLSTool

    spec = get_kernel("spmv-ellpack")
    tool = MerlinHLSTool()
    space = build_design_space(spec)
    predictor = _OracleStub(spec, tool)
    return spec, tool, space, predictor


class TestModelDSE:
    def test_exhaustive_finds_true_optimum(self, oracle_dse):
        spec, tool, space, predictor = oracle_dse
        dse = ModelDSE(predictor, spec, space, top_m=5)
        result = dse.run(time_limit_seconds=120)
        assert result.exhaustive
        # Against a perfect oracle, the top-1 must be the true best
        # valid+fitting design of the whole space.
        truths = [
            tool.synthesize(spec, p)
            for p in space.enumerate()
        ]
        best_true = min(
            r.latency for r in truths if r.valid and r.fits(0.8)
        )
        top_true = tool.synthesize(spec, result.top[0].point)
        assert top_true.latency == best_true

    def test_top_sorted_and_unique(self, oracle_dse):
        spec, tool, space, predictor = oracle_dse
        result = ModelDSE(predictor, spec, space, top_m=5).run()
        latencies = [c.predicted_latency for c in result.top]
        assert latencies == sorted(latencies)
        keys = {str(sorted(c.point.items())) for c in result.top}
        assert len(keys) == len(result.top)

    def test_heuristic_mode_on_big_space(self):
        from repro.hls import MerlinHLSTool

        spec = get_kernel("mvt")
        tool = MerlinHLSTool()
        space = build_design_space(spec)
        predictor = _OracleStub(spec, tool)
        dse = ModelDSE(
            predictor, spec, space, top_m=5, exhaustive_limit=1000, beam_width=3
        )
        result = dse.run(time_limit_seconds=60)
        assert not result.exhaustive
        assert result.top  # finds usable designs in the huge space
        assert result.explored < space.product_size()

    def test_heuristic_improves_over_default(self):
        from repro.hls import MerlinHLSTool

        spec = get_kernel("mvt")
        tool = MerlinHLSTool()
        space = build_design_space(spec)
        predictor = _OracleStub(spec, tool)
        dse = ModelDSE(
            predictor, spec, space, top_m=3, exhaustive_limit=1000, beam_width=3
        )
        result = dse.run(time_limit_seconds=60)
        default = tool.synthesize(spec, space.default_point())
        best = tool.synthesize(spec, result.top[0].point)
        assert best.latency < default.latency


class TestModelDSEFront:
    def test_front_is_non_dominated_and_led_by_top(self, oracle_dse):
        spec, tool, space, predictor = oracle_dse
        result = ModelDSE(predictor, spec, space, top_m=5).run(time_limit_seconds=60)
        front = result.pareto
        assert front
        # Front members are mutually non-dominated on the objectives.
        keys = ("latency", "DSP", "BRAM", "LUT", "FF")
        for a in front:
            for b in front:
                if a is not b:
                    assert not dominates(
                        a.prediction.objectives, b.prediction.objectives, keys
                    )
        # The front's latency champion is the top-1 design.
        champion = min(front, key=lambda c: c.predicted_latency)
        assert champion.predicted_latency == result.top[0].predicted_latency


class _RecordingOracle(_OracleStub):
    """Oracle stub that remembers every prediction it hands out."""

    def __init__(self, spec, tool):
        super().__init__(spec, tool)
        self.scored = []

    def predict_batch(self, kernel, points, valid_threshold=0.5):
        out = super().predict_batch(kernel, points, valid_threshold)
        self.scored.extend(zip(points, out))
        return out


def _mvt_beam(predictor, **kwargs):
    spec = get_kernel("mvt")
    space = build_design_space(spec)
    return ModelDSE(predictor, spec, space, **kwargs).run(time_limit_seconds=3600)


def _beam_record(result):
    return {
        "top": [point_key(c.point) for c in result.top],
        "latency": [c.predicted_latency for c in result.top],
        "explored": result.explored,
    }


class TestBeamGolden:
    """The ordered-pragma beam on mvt, pinned by a golden file.

    Two runs: the HLS simulator as a perfect oracle with a narrow beam,
    and the untrained-but-seeded M7 stack under the default settings.
    Regenerate with REPRO_REGEN_GOLDEN=1 only after an intentional
    change to search behaviour.
    """

    def _runs(self):
        from repro.hls import MerlinHLSTool

        oracle = _OracleStub(get_kernel("mvt"), MerlinHLSTool())
        return {
            "oracle": _beam_record(
                _mvt_beam(oracle, exhaustive_limit=1000, beam_width=3)
            ),
            "model": _beam_record(_mvt_beam(make_predictor())),
        }

    def test_beam_matches_golden(self):
        got = self._runs()
        if os.environ.get("REPRO_REGEN_GOLDEN"):
            with open(GOLDEN_BEAM, "w") as handle:
                json.dump(got, handle, indent=1)
                handle.write("\n")
        with open(GOLDEN_BEAM) as handle:
            golden = json.load(handle)
        assert got == golden


class TestBeamFront:
    def test_front_is_front_of_every_scored_point(self):
        """``pareto`` is the front of every usable point scored, not of the top-M."""
        from repro.hls import MerlinHLSTool

        oracle = _RecordingOracle(get_kernel("mvt"), MerlinHLSTool())
        result = _mvt_beam(oracle, exhaustive_limit=1000, beam_width=3)
        assert not result.exhaustive
        usable = [
            (point, p) for point, p in oracle.scored if p.valid and p.fits(0.8)
        ]
        assert len(oracle.scored) == result.explored
        expected = pareto_oracle.pareto_front(
            usable, lambda item: item[1].objectives, PARETO_KEYS
        )
        assert [point_key(c.point) for c in result.pareto] == [
            point_key(point) for point, _ in expected
        ]
        # The front reaches past the top-M list (cheaper, slower designs).
        top_keys = {point_key(c.point) for c in result.top}
        assert any(point_key(c.point) not in top_keys for c in result.pareto)


class _SlowPipeline(EvaluationPipeline):
    """A pipeline whose every call sleeps first: a loaded host, on purpose."""

    def __init__(self, predictor, delay):
        super().__init__(predictor)
        self.delay = delay

    def predict_batch(self, *args, **kwargs):
        time.sleep(self.delay)
        return super().predict_batch(*args, **kwargs)


def _signature(result):
    return (
        [(point_key(c.point), c.predicted_latency) for c in result.top],
        [(point_key(c.point), c.prediction.objectives) for c in result.pareto],
        result.explored,
    )


class TestTimeLimit:
    def test_clock_cut_beam_says_so(self):
        from repro.serve.schemas import dse_result_payload

        predictor = make_predictor()
        spec = get_kernel("mvt")
        space = build_design_space(spec)
        dse = ModelDSE(predictor, spec, space, pipeline=_SlowPipeline(predictor, 0.05))
        result = dse.run(time_limit_seconds=0.5)
        assert not result.exhaustive
        assert result.time_limited
        assert dse_result_payload(result)["time_limited"] is True

    def test_slowed_beam_is_identical_under_a_loose_limit(self):
        """Where the beam stops depends on the search, not on machine load."""
        predictor = make_predictor()
        spec = get_kernel("mvt")
        space = build_design_space(spec)
        fast = ModelDSE(predictor, spec, space).run(time_limit_seconds=3600)
        slow = ModelDSE(
            predictor, spec, space, pipeline=_SlowPipeline(predictor, 0.01)
        ).run(time_limit_seconds=3600)
        assert not fast.time_limited and not slow.time_limited
        assert _signature(slow) == _signature(fast)

    def test_clock_cut_sweep_says_so(self, oracle_dse):
        spec, _, space, predictor = oracle_dse
        whole = ModelDSE(predictor, spec, space, batch_size=4).run()
        assert whole.exhaustive and not whole.time_limited
        cut = ModelDSE(
            predictor, spec, space, batch_size=4,
            pipeline=_SlowPipeline(predictor, 0.05),
        ).run(time_limit_seconds=0.2)
        assert cut.time_limited
        assert cut.explored < whole.explored

    def test_clock_cut_race_says_so(self):
        from repro.dse import run_dse

        predictor = make_predictor()
        spec = get_kernel("mvt")
        result = run_dse(
            spec, build_design_space(spec), _SlowPipeline(predictor, 0.05),
            strategy="race", budget=600, seed=0, time_limit_seconds=0.3,
        )
        assert result.strategy == "race"
        assert result.time_limited
        assert result.explored < 600
        assert result.race["queries"] == result.explored

    def test_served_race_payload_says_cut(self):
        from repro.serve import PredictorService

        with PredictorService(make_predictor(), batch_size=8) as service:
            payload = service.dse_top(
                "mvt", strategy="race", budget=600, seed=0, time_limit_seconds=0.001
            )
        assert payload["time_limited"] is True
        assert payload["explored"] < 600

    def test_sweep_finished_by_its_only_batch_is_not_cut(self, oracle_dse):
        spec, _, space, predictor = oracle_dse
        size = space.size()
        result = ModelDSE(
            predictor, spec, space, batch_size=size,
            pipeline=_SlowPipeline(predictor, 0.3),
        ).run(time_limit_seconds=0.1)
        assert result.seconds > 0.1
        assert result.explored == size
        assert not result.time_limited
