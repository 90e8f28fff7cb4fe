"""Integration tests: the full GNN-DSE pipeline end to end (scaled down).

One shared module-scope flow: generate a small database with the three
explorers, train the M7 predictor stack, run the model-driven DSE, and
check the cross-module contracts that the paper's headline results rest
on.
"""

import numpy as np
import pytest

from repro.designspace import build_design_space
from repro.dse import ModelDSE
from repro.explorer import generate_database
from repro.hls import MerlinHLSTool
from repro.kernels import get_kernel
from repro.model import TrainConfig, train_predictor

KERNELS = ["atax", "spmv-ellpack", "stencil"]


@pytest.fixture(scope="module")
def tool():
    return MerlinHLSTool()


@pytest.fixture(scope="module")
def database(tool):
    return generate_database(kernels=KERNELS, scale=0.25, seed=0, tool=tool)


@pytest.fixture(scope="module")
def predictor(database):
    return train_predictor(
        database, config_name="M7", train_config=TrainConfig(epochs=12, seed=0)
    )


class TestEndToEnd:
    def test_database_has_both_classes(self, database):
        stats = database.stats()
        assert 0 < stats["valid"] < stats["total"]

    def test_predictor_beats_chance_on_validity(self, database, predictor):
        from repro.model import GraphDatasetBuilder
        from repro.model.trainer import evaluate_classification

        builder = GraphDatasetBuilder(database, normalizer=predictor.normalizer)
        samples = builder.build()
        metrics = evaluate_classification(predictor.classifier, samples)
        labels = [s.label for s in samples]
        majority = max(np.mean(labels), 1 - np.mean(labels))
        assert metrics["accuracy"] >= majority - 0.05

    def test_predictor_latency_correlates_with_truth(self, database, predictor):
        records = database.valid_records("atax")[:60]
        points = [r.design_point for r in records]
        predictions = predictor.predict_batch("atax", points)
        predicted = np.log2([max(p.latency, 1.0) for p in predictions])
        truth = np.log2([r.latency for r in records])
        corr = np.corrcoef(predicted, truth)[0, 1]
        assert corr > 0.5

    def test_dse_finds_design_better_than_median(self, database, predictor, tool):
        spec = get_kernel("atax")
        space = build_design_space(spec)
        # top-10, as in the paper's flow (Section 5.3).
        dse = ModelDSE(predictor, spec, space, top_m=10)
        result = dse.run(time_limit_seconds=60)
        assert result.top
        true_results = [tool.synthesize(spec, c.point) for c in result.top]
        usable = [r.latency for r in true_results if r.valid and r.fits(0.8)]
        assert usable, "top-10 contained no valid design"
        valid_latencies = sorted(r.latency for r in database.valid_records("atax"))
        median = valid_latencies[len(valid_latencies) // 2]
        assert min(usable) < median

    def test_dse_round_adds_records(self, database, predictor, tool, tmp_path):
        from repro.explorer import Database
        from repro.loop import ActiveLoop, LoopConfig
        from repro.serve import ModelRegistry

        # The round labels into a copy: the module's database is shared.
        path = tmp_path / "database.json"
        database.save(path)
        loop = ActiveLoop(
            predictor,
            Database.load(path),
            ModelRegistry(tmp_path / "registry"),
            LoopConfig(kernels=("spmv-ellpack",), rounds=1, label_budget=3,
                       scan=40, eval_points=20, epochs=1, gate_on_holdout=False),
            path,
            tmp_path / "state.json",
            tool=tool,
        )
        result = loop.run()
        report = result.rounds[0]
        assert report["labeled"] > 0
        # Every label is a new record: the scan skips points labelled in
        # an earlier round, the initial database (round 0) included.
        assert report["added"] == report["labeled"]
        assert len(loop.database) == len(database) + report["added"]

    def test_unseen_kernel_prediction_runs(self, predictor):
        # gesummv is NOT in the 3-kernel database: transfer inference.
        spec = get_kernel("gesummv")
        space = build_design_space(spec)
        prediction = predictor.predict("gesummv", space.default_point())
        assert prediction.latency > 0
        assert all(np.isfinite(list(prediction.objectives.values())))


class TestExperimentContext:
    def test_cache_roundtrip(self, tmp_path):
        from repro.experiments import ExperimentContext

        ctx = ExperimentContext(cache_dir=tmp_path, scale=0.05, epochs=2, seed=0)
        db1 = ctx.database()
        # Second context with the same cache dir loads the same DB.
        ctx2 = ExperimentContext(cache_dir=tmp_path, scale=0.05, epochs=2, seed=0)
        db2 = ctx2.database()
        assert len(db1) == len(db2)

    def test_predictor_save_load(self, tmp_path):
        from repro.experiments import ExperimentContext

        ctx = ExperimentContext(cache_dir=tmp_path, scale=0.05, epochs=2, seed=0)
        p1 = ctx.predictor("M5")
        ctx2 = ExperimentContext(cache_dir=tmp_path, scale=0.05, epochs=2, seed=0)
        p2 = ctx2.predictor("M5")
        spec = get_kernel("atax")
        space = build_design_space(spec)
        point = space.default_point()
        a = p1.predict("atax", point)
        b = p2.predict("atax", point)
        # Artifacts keep dtype, so a cache reload is bit-identical.
        assert a == b
