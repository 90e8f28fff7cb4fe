"""Tests for the per-knob database coverage metrics."""

import pytest

from repro.designspace import build_design_space
from repro.explorer import Database, Evaluator, RandomExplorer, measure_coverage
from repro.hls import MerlinHLSTool
from repro.kernels import get_kernel


@pytest.fixture(scope="module")
def tool():
    return MerlinHLSTool()


@pytest.fixture(scope="module")
def atax():
    return get_kernel("atax")


@pytest.fixture(scope="module")
def atax_space(atax):
    return build_design_space(atax)


class TestCoverage:
    def test_empty_database(self, atax_space):
        report = measure_coverage(Database(), atax_space)
        assert report.records == 0
        assert report.min_knob_fraction == 0.0

    def test_coverage_grows_with_sampling(self, tool, atax, atax_space):
        db = Database()
        evaluator = Evaluator(tool, db)
        explorer = RandomExplorer(atax, atax_space, evaluator, seed=0)
        explorer.run(max_evals=10)
        small = measure_coverage(db, atax_space)
        explorer2 = RandomExplorer(atax, atax_space, evaluator, seed=99)
        explorer2.run(max_evals=60)
        large = measure_coverage(db, atax_space)
        assert large.records > small.records
        assert large.mean_knob_fraction >= small.mean_knob_fraction

    def test_full_coverage_on_small_kernel(self, tool):
        spec = get_kernel("spmv-crs")
        space = build_design_space(spec)
        db = Database()
        evaluator = Evaluator(tool, db)
        for point in space.enumerate():
            evaluator.evaluate(spec, point)
        report = measure_coverage(db, space)
        assert report.min_knob_fraction == 1.0
        assert report.latency_decades >= 1

    def test_pretty_renders(self, tool, atax, atax_space):
        db = Database()
        Evaluator(tool, db).evaluate(atax, atax_space.default_point())
        text = measure_coverage(db, atax_space).pretty()
        assert "coverage of atax" in text
