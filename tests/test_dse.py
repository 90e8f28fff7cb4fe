"""Tests for pragma ordering, Pareto utilities, and the model-driven DSE."""

import pytest

from repro.designspace import build_design_space
from repro.dse import ModelDSE, order_pragmas, pareto_front
from repro.frontend.pragmas import PragmaKind
from repro.kernels import get_kernel
from repro.model.predictor import Prediction
from tests.pareto_oracle import dominates


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
