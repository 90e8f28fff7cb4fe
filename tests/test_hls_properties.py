"""Property-based tests of the HLS simulator over sampled design points,
and of the graph-encoding cache the evaluation pipeline is built on."""

import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.designspace import build_design_space
from repro.frontend.pragmas import PipelineOption, PragmaKind
from repro.graph import encode_kernel
from repro.graph.encoding import PRAGMA_FEATURE_SLICE
from repro.hls import MerlinHLSTool
from repro.kernels import get_kernel

_TOOL = MerlinHLSTool()
_SPEC = get_kernel("gemm-ncubed")
_SPACE = build_design_space(_SPEC)
_ENC = encode_kernel(_SPEC)


def sampled_points():
    """Strategy: random canonical design points of gemm-ncubed."""
    return st.integers(0, 10_000).map(
        lambda seed: _SPACE.sample(random.Random(seed), 1)[0]
    )


class TestSimulatorProperties:
    @given(sampled_points())
    @settings(max_examples=40, deadline=None)
    def test_outputs_well_formed(self, point):
        result = _TOOL.synthesize(_SPEC, point)
        assert result.latency > 0
        assert set(result.utilization) == {"DSP", "BRAM", "LUT", "FF"}
        assert all(u >= 0.0 for u in result.utilization.values())
        assert result.synth_seconds > 0
        if not result.valid:
            assert result.invalid_reason

    @given(sampled_points())
    @settings(max_examples=25, deadline=None)
    def test_deterministic(self, point):
        a = MerlinHLSTool(cache=False).synthesize(_SPEC, point)
        b = MerlinHLSTool(cache=False).synthesize(_SPEC, point)
        assert a.latency == b.latency
        assert a.usage == b.usage
        assert a.valid == b.valid

    @given(sampled_points())
    @settings(max_examples=25, deadline=None)
    def test_fg_absorbs_inner_knobs(self, point):
        """A point with fg pipelining on L0 is equivalent to the same
        point with every inner knob neutralised — the Merlin semantics
        the pruning rules rely on."""
        fg_point = dict(point)
        inner_neutral = dict(point)
        for knob in _SPACE.knobs:
            if knob.kind is PragmaKind.PIPELINE and knob.loop_label == "L0":
                fg_point[knob.name] = PipelineOption.FINE
                inner_neutral[knob.name] = PipelineOption.FINE
            elif knob.kind is PragmaKind.PARALLEL and knob.loop_label == "L0":
                # A full unroll of L0 would moot its pipeline knob (the
                # full-unroll rule) and defeat the fg semantics under test.
                fg_point[knob.name] = 1
                inner_neutral[knob.name] = 1
            elif knob.loop_label != "L0":
                inner_neutral[knob.name] = knob.neutral
        a = _TOOL.synthesize(_SPEC, fg_point)
        b = _TOOL.synthesize(_SPEC, inner_neutral)
        assert a.latency == b.latency
        assert a.usage == b.usage

    @given(sampled_points())
    @settings(max_examples=25, deadline=None)
    def test_latency_in_database_range(self, point):
        """Every design's latency lies between the theoretical extremes:
        above the fully-parallel bound and below ~2x the sequential
        baseline (tiling overheads can exceed the plain baseline)."""
        baseline = _TOOL.baseline(_SPEC).latency
        result = _TOOL.synthesize(_SPEC, point)
        assert result.latency <= 2 * baseline
        assert result.latency >= 10  # cannot be faster than the interface

    @given(st.integers(1, 64).filter(lambda f: 64 % f == 0))
    @settings(max_examples=10, deadline=None)
    def test_more_unroll_never_slower_inner_pipelined(self, factor):
        """With the inner loop pipelined, raising its unroll factor never
        increases latency for this regular kernel (ports scale with
        partitioning)."""
        def lat(f):
            point = _SPACE.default_point()
            for knob in _SPACE.knobs:
                if knob.loop_label == "L2" and knob.kind is PragmaKind.PIPELINE:
                    point[knob.name] = PipelineOption.COARSE
                if knob.loop_label == "L2" and knob.kind is PragmaKind.PARALLEL:
                    point[knob.name] = f if f in [int(c) for c in knob.candidates] else 1
            return _TOOL.synthesize(_SPEC, point).latency

        assert lat(factor) <= lat(1)


class TestEncodingCacheProperties:
    """The pipeline patches pragma cells into one shared encoding; the
    result must be indistinguishable from building the graph fresh."""

    @given(sampled_points())
    @settings(max_examples=40, deadline=None)
    def test_patched_equals_freshly_built(self, point):
        fresh = encode_kernel(_SPEC)
        assert fresh.num_nodes == _ENC.num_nodes
        assert np.array_equal(fresh.edge_index, _ENC.edge_index)
        assert np.array_equal(fresh.edge_attr, _ENC.edge_attr)
        assert np.array_equal(_ENC.fill(point), fresh.fill(point))

    @given(sampled_points())
    @settings(max_examples=40, deadline=None)
    def test_patch_touches_only_pragma_cells(self, point):
        filled = _ENC.fill(point)
        rows, values = _ENC.pragma_patch(point)
        mask = np.ones(_ENC.num_nodes, dtype=bool)
        mask[rows] = False
        # Non-pragma rows are untouched ...
        assert np.array_equal(filled[mask], _ENC.x_base[mask])
        # ... and pragma rows change only inside the pragma feature block.
        non_pragma = np.ones(filled.shape[1], dtype=bool)
        non_pragma[PRAGMA_FEATURE_SLICE] = False
        assert np.array_equal(filled[:, non_pragma], _ENC.x_base[:, non_pragma])
        assert np.array_equal(filled[rows][:, PRAGMA_FEATURE_SLICE], values)

    @given(sampled_points())
    @settings(max_examples=25, deadline=None)
    def test_template_slot_equals_fresh_graph(self, point):
        """A pragma-block slot holds exactly the pragma rows' features a
        freshly built per-point graph would."""
        from repro.dse.pipeline import _KernelGraph

        graph = _KernelGraph(_ENC, dtype=np.float64)
        block = graph.fill([{}, point, {}])
        rows = _ENC.pragma_row_order
        assert np.array_equal(block[1], _ENC.fill(point)[rows].astype(np.float64))
        assert np.array_equal(block[0], _ENC.x_base[rows].astype(np.float64))

    @given(sampled_points(), sampled_points())
    @settings(max_examples=25, deadline=None)
    def test_slot_rewrites_are_independent(self, first, second):
        """Rewriting a slot leaves other slots' features intact, and a
        slot overwritten with a new point forgets the previous one."""
        from repro.dse.pipeline import _KernelGraph

        graph = _KernelGraph(_ENC, dtype=np.float64)
        block = graph.fill([first, second])
        graph.set_point(1, first)
        expected = _ENC.fill(first)[_ENC.pragma_row_order].astype(np.float64)
        assert np.array_equal(block[0], expected)
        assert np.array_equal(block[1], expected)
