"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main


class TestKernelsCommand:
    def test_lists_all_kernels(self, capsys):
        assert main(["kernels"]) == 0
        out = capsys.readouterr().out
        for name in ("atax", "gemm-ncubed", "2mm", "fir"):
            assert name in out

    def test_split_column(self, capsys):
        main(["kernels"])
        out = capsys.readouterr().out
        assert "unseen" in out and "train" in out


class TestSynthesizeCommand:
    def test_default_point(self, capsys):
        assert main(["synthesize", "-k", "spmv-ellpack"]) == 0
        out = capsys.readouterr().out
        assert "latency" in out
        assert "valid" in out

    def test_with_settings(self, capsys):
        code = main(
            ["synthesize", "-k", "spmv-ellpack",
             "-s", "__PARA__L0=8", "-s", "__PIPE__L0=cg"]
        )
        assert code == 0

    def test_json_output(self, capsys):
        main(["synthesize", "-k", "spmv-ellpack", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["kernel"] == "spmv_ellpack" or payload["latency"] > 0

    def test_unknown_kernel_fails(self, capsys):
        assert main(["synthesize", "-k", "nope"]) == 1
        assert "error" in capsys.readouterr().err

    def test_invalid_setting_rejected(self):
        with pytest.raises(SystemExit):
            main(["synthesize", "-k", "atax", "-s", "not-a-setting"])


class TestDatabaseAndAutoDSE:
    def test_database_roundtrip(self, tmp_path, capsys):
        out_path = tmp_path / "db.json"
        code = main(
            ["database", "-o", str(out_path), "--scale", "0.05",
             "--kernels", "spmv-ellpack"]
        )
        assert code == 0
        assert out_path.exists()
        from repro.explorer import Database

        db = Database.load(out_path)
        assert len(db) > 0

    def test_autodse(self, capsys):
        code = main(["autodse", "-k", "spmv-ellpack", "--max-evals", "10"])
        assert code == 0
        out = capsys.readouterr().out
        assert "tool-hours" in out

    def test_coverage_command(self, tmp_path, capsys):
        db_path = tmp_path / "db.json"
        main(["database", "-o", str(db_path), "--scale", "0.05",
              "--kernels", "spmv-ellpack"])
        capsys.readouterr()
        assert main(["coverage", "-k", "spmv-ellpack", "-d", str(db_path)]) == 0
        out = capsys.readouterr().out
        assert "coverage of spmv-ellpack" in out


class TestParserStructure:
    def test_all_commands_registered(self):
        from repro.cli import build_parser

        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["definitely-not-a-command"])

    def test_npz_predictor_paths_are_gone(self):
        from repro.cli import build_parser

        parser = build_parser()
        for argv in (
            ["save-model", "-d", "db.json", "-p", "w.npz", "-o", "out"],
            ["load-model", "out"],
            ["dse", "-k", "fir", "-d", "db.json", "-p", "w.npz"],
            ["loop", "-d", "db.json", "--registry", "r", "--kernels", "fir",
             "--model", "M5"],
        ):
            with pytest.raises(SystemExit):
                parser.parse_args(argv)

    def test_experiment_choices_limited(self):
        from repro.cli import build_parser

        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["experiment", "table99"])


class TestModelArtifactCommands:
    """`train -o`, `dse --model <artifact>`, `loop -p`, `artifacts`."""

    @pytest.fixture()
    def artifact_dir(self, tmp_path):
        from tests.test_pipeline import make_predictor

        path = tmp_path / "artifact"
        make_predictor().save(path)
        return path

    def test_save_and_load_model_chain(self, tmp_path, capsys):
        db_path = tmp_path / "db.json"
        assert main(
            ["database", "-o", str(db_path), "--scale", "0.05",
             "--kernels", "spmv-ellpack"]
        ) == 0
        out_dir = tmp_path / "artifact"
        capsys.readouterr()
        assert main(
            ["train", "-d", str(db_path), "-o", str(out_dir), "--model", "M5",
             "--epochs", "1"]
        ) == 0
        assert "wrote artifact" in capsys.readouterr().out
        assert (out_dir / "manifest.json").is_file()
        assert main(
            ["dse", "-k", "spmv-ellpack", "--model", str(out_dir), "--top", "3",
             "--time-limit", "3"]
        ) == 0
        assert "top-01" in capsys.readouterr().out
        assert main(
            ["loop", "-d", str(db_path), "-p", str(out_dir),
             "--registry", str(tmp_path / "registry"), "--kernels", "spmv-ellpack",
             "--rounds", "1", "--label-budget", "3", "--scan", "20",
             "--eval-points", "20", "--epochs", "1"]
        ) == 0
        assert "held-out RMSE:" in capsys.readouterr().out
        assert main(["artifacts", str(out_dir)]) == 0
        out = capsys.readouterr().out
        assert "single artifact" in out
        for role in ("classifier", "regressor", "bram_regressor"):
            assert f"{role} " in out
        assert "M5/classification" in out

    def test_artifacts_rejects_non_artifact(self, tmp_path, capsys):
        assert main(["artifacts", str(tmp_path)]) == 1
        assert "error" in capsys.readouterr().err

    def test_dse_from_artifact_with_output(self, artifact_dir, tmp_path, capsys):
        from repro.serve.schemas import point_from_payload, prediction_from_payload

        out_json = tmp_path / "top.json"
        code = main(
            ["dse", "-k", "fir", "--model", str(artifact_dir), "--top", "3",
             "--time-limit", "3", "--batch-size", "4",
             "--output", str(out_json)]
        )
        assert code == 0
        assert "top-01" in capsys.readouterr().out
        payload = json.loads(out_json.read_text())
        assert payload["schema_version"] == 2
        assert payload["kernel"] == "fir"
        assert 1 <= len(payload["top"]) <= 3
        assert payload["top"][0]["rank"] == 1
        assert payload["pipeline_stats"]["points"] > 0
        # Both halves of each entry deserialize back into domain objects.
        for entry in payload["top"]:
            point_from_payload(entry["point"])
            prediction = prediction_from_payload(entry["prediction"])
            assert prediction.valid in (True, False)

    def test_dse_without_model_or_database_fails(self, capsys):
        assert main(["dse", "-k", "fir", "--time-limit", "1"]) == 1
        assert "error" in capsys.readouterr().err

    def test_dse_race_strategy_with_output(self, artifact_dir, tmp_path, capsys):
        out_json = tmp_path / "race.json"
        code = main(
            ["dse", "-k", "fir", "--model", str(artifact_dir),
             "--strategy", "race", "--budget", "25", "--seed", "3",
             "--top", "3", "--output", str(out_json)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "race:" in out
        assert "budget" in out
        payload = json.loads(out_json.read_text())
        assert payload["strategy"] == "race"
        assert payload["race"]["queries"] <= 25
        assert payload["race"]["rounds"]
        assert 1 <= len(payload["top"]) <= 3

    def test_dse_strategy_rejects_workers(self, artifact_dir, capsys):
        code = main(
            ["dse", "-k", "fir", "--model", str(artifact_dir),
             "--strategy", "sa", "--budget", "10", "--workers", "2"]
        )
        assert code == 1
        assert "serially" in capsys.readouterr().err
