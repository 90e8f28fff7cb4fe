"""Tests for the experiments layer: formatting, paper constants, context."""

import pytest

from repro.experiments import (
    FIG7_PAPER_AVERAGES,
    TABLE2_PAPER,
    TABLE3_PAPER,
    format_fig7,
    format_table1,
    format_table2,
    format_table3,
)
from repro.explorer import Database
from repro.experiments.table1 import Table1Row
from repro.experiments.table2 import Table2Row
from repro.experiments.table3 import Table3Row


class TestPaperConstants:
    def test_table2_paper_totals_consistent(self):
        # "All" equals the sum of the five per-objective RMSEs.
        for model, row in TABLE2_PAPER.items():
            total = sum(row[k] for k in ("latency", "DSP", "LUT", "FF", "BRAM"))
            assert total == pytest.approx(row["all"], abs=2e-4), model

    def test_table2_paper_monotone_improvement(self):
        totals = [TABLE2_PAPER[f"M{i}"]["all"] for i in range(1, 8)]
        assert totals == sorted(totals, reverse=True)

    def test_fig7_paper_trend(self):
        assert list(FIG7_PAPER_AVERAGES) == sorted(FIG7_PAPER_AVERAGES)
        assert FIG7_PAPER_AVERAGES[-1] > 1.0 > FIG7_PAPER_AVERAGES[0]

    def test_table3_paper_speedup_range(self):
        speedups = [row[4] for row in TABLE3_PAPER.values()]
        assert min(speedups) == 11 and max(speedups) == 79


class TestFormatting:
    def test_format_table1(self):
        rows = [
            Table1Row("atax", 5, 4501, 121, 38, 140, 50),
            Table1Row("aes", 3, 27, 4, 4, 4, 4),
        ]
        text = format_table1(rows)
        assert "atax" in text and "4,501" in text
        assert "Total" in text

    def test_format_table2(self):
        metrics = {
            "latency": 1.0, "DSP": 0.1, "LUT": 0.1, "FF": 0.1, "BRAM": 0.1,
            "all": 1.4, "accuracy": 0.9, "f1": 0.8,
        }
        rows = [Table2Row("M7", "full model", metrics, TABLE2_PAPER["M7"])]
        text = format_table2(rows)
        assert "M7" in text and "(paper)" in text

    def test_format_table3(self):
        rows = [
            Table3Row(
                kernel="bicg", num_pragmas=5, design_configs=3536,
                dse_hls_minutes=12.0, explored=3536, runtime_speedup=40.0,
                gnn_dse_latency=1000, autodse_latency=990,
                autodse_hours=8.0, latency_ratio=1.01,
            )
        ]
        text = format_table3(rows)
        assert "bicg" in text and "40.0x" in text
        assert "average runtime speedup" in text

    def test_format_fig7(self):
        from repro.experiments.fig7 import Fig7Result, Fig7Round

        result = Fig7Result(
            rounds=[
                Fig7Round(round=1, speedup={"atax": 0.7, "nw": 0.9}),
                Fig7Round(round=2, speedup={"atax": 1.1, "nw": 1.2}),
            ]
        )
        text = format_fig7(result)
        assert "atax" in text and "Average" in text and "(paper avg)" in text


class TestContextPaths:
    def test_cache_paths_encode_settings(self, tmp_path):
        from repro.experiments import ExperimentContext

        ctx = ExperimentContext(cache_dir=tmp_path, scale=0.25, epochs=7, seed=3)
        assert "s0.25" in ctx.database_path.name
        assert "r3" in ctx.database_path.name
        path = ctx._predictor_path("M7")
        assert "M7" in path.name and "e7" in path.name

    def test_result_roundtrip(self, tmp_path):
        from repro.experiments import ExperimentContext

        ctx = ExperimentContext(cache_dir=tmp_path, scale=0.25, epochs=7, seed=3)
        assert ctx.load_result("foo") is None
        ctx.save_result("foo", {"a": [1, 2]})
        assert ctx.load_result("foo") == {"a": [1, 2]}

    def test_env_overrides(self, tmp_path, monkeypatch):
        from repro.experiments import ExperimentContext

        monkeypatch.setenv("REPRO_SCALE", "0.11")
        monkeypatch.setenv("REPRO_EPOCHS", "9")
        ctx = ExperimentContext(cache_dir=tmp_path)
        assert ctx.scale == 0.11
        assert ctx.epochs == 9

    def test_bad_env_falls_back(self, tmp_path, monkeypatch):
        from repro.experiments import ExperimentContext

        monkeypatch.setenv("REPRO_SCALE", "not-a-number")
        ctx = ExperimentContext(cache_dir=tmp_path)
        assert ctx.scale == 0.3


class TestFig7:
    def test_run_fig7_leaves_context_database_unchanged(self, tmp_path):
        from repro.experiments import ExperimentContext, run_fig7

        ctx = ExperimentContext(cache_dir=tmp_path, scale=0.05, epochs=1, seed=0)
        before = len(ctx.database())
        result = run_fig7(ctx, kernels=("spmv-ellpack",), rounds=1, fine_tune_epochs=1)
        assert [r.round for r in result.rounds] == [1]
        assert "spmv-ellpack" in result.rounds[0].speedup
        # The loop labels into a copy: neither the context's database nor
        # its cache file gains (or relabels) a record.
        for database in (ctx.database(), Database.load(ctx.database_path)):
            assert len(database) == before
            assert all(record.round == 0 for record in database)
