"""Tests for predictor calibration analysis."""

import numpy as np
import pytest

from repro.model import calibrate_classifier, profile_regression, spearman


class TestSpearman:
    def test_perfect_rank_agreement(self):
        a = np.array([1.0, 2.0, 3.0, 4.0])
        assert spearman(a, a * 10 + 5) == pytest.approx(1.0)

    def test_perfect_inversion(self):
        a = np.array([1.0, 2.0, 3.0])
        assert spearman(a, -a) == pytest.approx(-1.0)

    def test_independent_near_zero(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=400), rng.normal(size=400)
        assert abs(spearman(a, b)) < 0.15

    def test_degenerate(self):
        assert spearman(np.array([1.0]), np.array([2.0])) == 0.0


@pytest.fixture(scope="module")
def trained():
    from repro.explorer import generate_database
    from repro.model import GraphDatasetBuilder, TrainConfig, train_predictor

    db = generate_database(kernels=["spmv-ellpack", "atax"], scale=0.15, seed=0)
    predictor = train_predictor(db, "M5", train_config=TrainConfig(epochs=5, seed=0))
    builder = GraphDatasetBuilder(db, normalizer=predictor.normalizer)
    samples = builder.build()
    return predictor, samples


class TestClassifierCalibration:
    def test_structure(self, trained):
        predictor, samples = trained
        cal = calibrate_classifier(predictor.classifier, samples, bins=5)
        assert cal.bin_counts.sum() == len(samples)
        assert 0.0 <= cal.ece <= 1.0
        assert len(cal.bin_confidence) == 5

    def test_pretty(self, trained):
        predictor, samples = trained
        text = calibrate_classifier(predictor.classifier, samples).pretty()
        assert "ECE" in text

    def test_confidences_within_bins(self, trained):
        predictor, samples = trained
        cal = calibrate_classifier(predictor.classifier, samples, bins=10)
        for i in range(10):
            if cal.bin_counts[i]:
                assert cal.bin_edges[i] - 1e-9 <= cal.bin_confidence[i] <= cal.bin_edges[i + 1] + 1e-9


class TestRegressionProfile:
    def test_per_kernel_rows(self, trained):
        predictor, samples = trained
        valid = [s for s in samples if s.label == 1]
        profile = profile_regression(predictor.regressor, valid)
        assert set(profile.per_kernel) == {"atax", "spmv-ellpack"}
        for row in profile.per_kernel.values():
            assert row["mae"] >= 0
            assert row["p90"] >= row["mae"] * 0.5  # sane quantile ordering
            assert -1.0 <= row["spearman"] <= 1.0

    def test_pretty(self, trained):
        predictor, samples = trained
        valid = [s for s in samples if s.label == 1]
        text = profile_regression(predictor.regressor, valid).pretty()
        assert "spearman" in text
        assert "atax" in text
