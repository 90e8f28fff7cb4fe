"""Tests for design-space generation, pruning rules, and iteration."""

import random

import pytest

from repro.designspace import (
    PruningRules,
    build_design_space,
    divisors,
    factor_candidates,
    point_key,
)
from repro.errors import DesignSpaceError
from repro.frontend.pragmas import PipelineOption, PragmaKind
from repro.kernels import get_kernel


@pytest.fixture(scope="module")
def gemm_space():
    return build_design_space(get_kernel("gemm-ncubed"))


@pytest.fixture(scope="module")
def stencil_space():
    return build_design_space(get_kernel("stencil"))


class TestFactorCandidates:
    def test_divisors(self):
        assert divisors(12) == [1, 2, 3, 4, 6, 12]
        assert divisors(1) == [1]
        assert divisors(7) == [1, 7]

    def test_candidates_are_divisors(self):
        for trip in (8, 30, 64, 100):
            for cand in factor_candidates(trip):
                assert trip % cand == 0

    def test_candidates_bounded(self):
        assert len(factor_candidates(720, max_candidates=8)) <= 8

    def test_extremes_kept(self):
        cands = factor_candidates(100)
        assert 1 in cands
        assert 100 in cands


class TestSpaceBasics:
    def test_default_point_neutral(self, gemm_space):
        point = gemm_space.default_point()
        for knob in gemm_space.knobs:
            if knob.kind is PragmaKind.PIPELINE:
                assert point[knob.name] is PipelineOption.OFF
            else:
                assert point[knob.name] == 1

    def test_validate_accepts_default(self, gemm_space):
        gemm_space.validate(gemm_space.default_point())

    def test_validate_rejects_missing_knob(self, gemm_space):
        point = gemm_space.default_point()
        point.popitem()
        with pytest.raises(DesignSpaceError):
            gemm_space.validate(point)

    def test_validate_rejects_bad_candidate(self, gemm_space):
        point = gemm_space.default_point()
        for knob in gemm_space.knobs:
            if knob.kind is PragmaKind.PARALLEL:
                point[knob.name] = 7  # 7 does not divide 64
                break
        with pytest.raises(DesignSpaceError):
            gemm_space.validate(point)

    def test_point_key_canonical(self):
        a = {"B": 2, "A": PipelineOption.COARSE}
        b = {"A": PipelineOption.COARSE, "B": 2}
        assert point_key(a) == point_key(b)

    def test_sample_canonical(self, gemm_space):
        rng = random.Random(0)
        for point in gemm_space.sample(rng, 50):
            gemm_space.validate(point)
            assert point_key(gemm_space.rules.canonicalize(point)) == point_key(point)

    def test_enumerate_unique(self, stencil_space):
        keys = [point_key(p) for p in stencil_space.enumerate(limit=500)]
        assert len(keys) == len(set(keys))

    def test_size_pruned_below_product(self, gemm_space):
        assert gemm_space.size() < gemm_space.product_size()

    def test_neighbors_differ_by_steps(self, gemm_space):
        point = gemm_space.default_point()
        neighbors = gemm_space.neighbors(point)
        assert neighbors
        for neighbor in neighbors:
            gemm_space.validate(neighbor)
            assert point_key(neighbor) != point_key(point)

    def test_mutations_cover_knob(self, gemm_space):
        point = gemm_space.default_point()
        knob = gemm_space.knobs[0]
        muts = gemm_space.mutations(point, knob.name)
        assert 1 <= len(muts) <= len(knob.candidates)


class TestPruningRules:
    def test_fg_pipeline_clears_inner_knobs(self, gemm_space):
        rules: PruningRules = gemm_space.rules
        point = gemm_space.default_point()
        # fg on the outermost loop (L0) must neutralise everything inside.
        pipe_l0 = next(
            k for k in gemm_space.knobs
            if k.kind is PragmaKind.PIPELINE and k.loop_label == "L0"
        )
        para_l1 = next(
            k for k in gemm_space.knobs
            if k.kind is PragmaKind.PARALLEL and k.loop_label == "L1"
        )
        point[pipe_l0.name] = PipelineOption.FINE
        point[para_l1.name] = 8
        canonical = rules.canonicalize(point)
        assert canonical[para_l1.name] == 1

    def test_full_unroll_turns_pipeline_off(self, gemm_space):
        rules = gemm_space.rules
        point = gemm_space.default_point()
        para_l2 = next(
            k for k in gemm_space.knobs
            if k.kind is PragmaKind.PARALLEL and k.loop_label == "L2"
        )
        pipe_l2 = next(
            k for k in gemm_space.knobs
            if k.kind is PragmaKind.PIPELINE and k.loop_label == "L2"
        )
        point[para_l2.name] = 64  # trip count of L2
        point[pipe_l2.name] = PipelineOption.COARSE
        canonical = rules.canonicalize(point)
        assert canonical[pipe_l2.name] is PipelineOption.OFF

    def test_tile_clamped_to_fit(self, gemm_space):
        rules = gemm_space.rules
        point = gemm_space.default_point()
        tile = next(k for k in gemm_space.knobs if k.kind is PragmaKind.TILE)
        para = next(
            k for k in gemm_space.knobs
            if k.kind is PragmaKind.PARALLEL and k.loop_label == tile.loop_label
        )
        point[tile.name] = max(int(c) for c in tile.candidates)
        point[para.name] = max(int(c) for c in para.candidates)
        canonical = rules.canonicalize(point)
        loop = rules.loop_of(tile)
        assert canonical[tile.name] * 1 <= loop.trip_count

    def test_canonicalize_idempotent(self, stencil_space):
        rng = random.Random(1)
        rules = stencil_space.rules
        for point in stencil_space.sample(rng, 30):
            once = rules.canonicalize(point)
            assert rules.canonicalize(once) == once

    def test_dependency_of_parallel_includes_parent_pipeline(self, gemm_space):
        rules = gemm_space.rules
        para_l1 = next(
            k for k in gemm_space.knobs
            if k.kind is PragmaKind.PARALLEL and k.loop_label == "L1"
        )
        deps = rules.dependency_of(para_l1)
        assert any(
            d.kind is PragmaKind.PIPELINE and d.loop_label == "L0" for d in deps
        )


class TestAllKernels:
    def test_spaces_build_for_every_kernel(self):
        from repro.kernels import KERNELS

        for name, spec in KERNELS.items():
            space = build_design_space(spec)
            assert len(space) == len(spec.pragmas), name
            assert space.product_size() >= 1

    def test_2mm_space_is_enormous(self):
        space = build_design_space(get_kernel("2mm"))
        assert space.product_size() > 10**8  # paper: 492M configs


class TestSizeLimit:
    """``size(exact_limit)`` answers the same whatever was asked before."""

    @pytest.mark.parametrize("warm", [False, True])
    def test_limit_honoured_after_exact_count(self, warm):
        from repro.dse import ModelDSE

        from tests.test_pipeline import make_predictor

        space = build_design_space(get_kernel("gemm-ncubed"))
        if warm:
            assert space.size() == 9_886  # exact count, now cached
        assert space.size(exact_limit=20_000) == 37_044  # product bound
        result = ModelDSE(make_predictor(), get_kernel("gemm-ncubed"), space).run(
            time_limit_seconds=0.0
        )
        assert not result.exhaustive
        assert space.size() == 9_886
