"""One DSE request path: ``repro dse`` and ``/v1/dse/top`` agree.

Contracts under test:

* ``repro dse --device`` runs the serial beam on the device's evaluator:
  the trained surrogate re-bound to an FPGA target, the analytic
  evaluator on a CGRA target (no model needed);
* ``repro dse --all-devices --output`` writes one front per registered
  device plus the merged cross-device front;
* ``--batch-size``, ``--engine`` and ``--no-cache`` configure the
  evaluation pipeline under ``--all-devices`` exactly as they do under
  ``--device``;
* the CLI's ``--output`` payload and ``PredictorService.dse_top`` give
  the same search result for the beam, a seeded race and a device-bound
  search on the same weights;
* :func:`repro.dse.run_dse`'s rules: with a model the reference device
  is not device-bound, without one every device is analytic, and
  :func:`repro.dse.run.check_request` rejects combinations that name no
  searcher.
"""

import json

import pytest

from repro.cli import main
from repro.hls import list_devices

KERNEL = "fir"

#: The payload fields that describe the search result (timing and
#: pipeline counters aside).
RESULT_FIELDS = ("top", "pareto", "explored", "strategy", "race", "device")


@pytest.fixture(scope="module")
def artifact_dir(tmp_path_factory):
    from tests.test_pipeline import make_predictor

    path = tmp_path_factory.mktemp("dse_run") / "artifact"
    make_predictor().save(path)
    return path


def _run_cli(argv, tmp_path, name="out.json"):
    out_json = tmp_path / name
    code = main(argv + ["--output", str(out_json)])
    assert code == 0
    return json.loads(out_json.read_text())


class TestCLIDevice:
    def test_fpga_device_with_model(self, artifact_dir, tmp_path, capsys):
        payload = _run_cli(
            ["dse", "-k", KERNEL, "--model", str(artifact_dir), "--top", "3",
             "--time-limit", "60", "--device", "xczu9eg"],
            tmp_path,
        )
        assert "on xczu9eg" in capsys.readouterr().out
        assert payload["schema_version"] == 2
        assert payload["device"] == "xczu9eg"
        assert payload["strategy"] == "beam"
        assert 1 <= len(payload["top"]) <= 3
        assert payload["pareto"]

    def test_cgra_device_without_model(self, tmp_path, capsys):
        payload = _run_cli(
            ["dse", "-k", KERNEL, "--top", "3", "--time-limit", "60",
             "--device", "cgra4x4"],
            tmp_path,
        )
        assert "on cgra4x4" in capsys.readouterr().out
        assert payload["device"] == "cgra4x4"
        assert payload["top"]
        best = payload["top"][0]["prediction"]
        assert best["objectives"] is None or "PE" in best["objectives"]

    def test_device_rejects_budgeted_strategy(self, artifact_dir, capsys):
        code = main(
            ["dse", "-k", KERNEL, "--model", str(artifact_dir),
             "--device", "xczu9eg", "--strategy", "sa", "--budget", "10"]
        )
        assert code == 1
        assert "serial beam" in capsys.readouterr().err

    def test_all_devices_with_output(self, tmp_path, capsys):
        payload = _run_cli(
            ["dse", "-k", KERNEL, "--top", "3", "--time-limit", "60",
             "--all-devices"],
            tmp_path,
        )
        out = capsys.readouterr().out
        assert "merged cross-device front" in out
        assert payload["schema_version"] == 2
        assert payload["kernel"] == KERNEL
        assert payload["devices"] == list_devices()
        assert sorted(payload["per_device"]) == list_devices()
        for name, per in payload["per_device"].items():
            assert per["device"] == name
            assert per["pareto"], name
        assert payload["merged"]
        assert {entry["device"] for entry in payload["merged"]} <= set(list_devices())

    def test_all_devices_rejects_workers(self, capsys):
        code = main(["dse", "-k", KERNEL, "--all-devices", "--workers", "2"])
        assert code == 1
        assert "serial beam" in capsys.readouterr().err


class TestAllDevicesPipelineFlags:
    def test_engine_batch_and_cache_reach_every_fpga_pipeline(
        self, artifact_dir, tmp_path, monkeypatch
    ):
        import repro.dse.crossdevice as crossdevice
        from repro.model.predictor import GNNDSEPredictor

        built = []

        class SpyPipeline(crossdevice.EvaluationPipeline):
            def __init__(self, predictor, *args, **kwargs):
                super().__init__(predictor, *args, **kwargs)
                built.append(self)

        monkeypatch.setattr(crossdevice, "EvaluationPipeline", SpyPipeline)
        _run_cli(
            ["dse", "-k", KERNEL, "--model", str(artifact_dir), "--top", "3",
             "--time-limit", "60", "--all-devices", "--engine", "reference",
             "--batch-size", "5", "--no-cache"],
            tmp_path,
        )
        fpga = [p for p in built if isinstance(p.predictor, GNNDSEPredictor)]
        devices = sorted(p.predictor.device.name for p in fpga)
        assert devices == sorted(n for n in list_devices() if n != "cgra4x4")
        for pipeline in fpga:
            assert pipeline.engine_mode == "reference"
            assert pipeline.stats.engine == "reference"
            assert pipeline.batch_size == 5
            assert pipeline.cache_enabled is False


class TestCLIServiceAgree:
    CASES = {
        "beam": ([], {}),
        "race": (
            ["--strategy", "race", "--budget", "25", "--seed", "3"],
            {"strategy": "race", "budget": 25, "seed": 3},
        ),
        "device": (["--device", "xczu9eg"], {"device": "xczu9eg"}),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_same_search_result(self, case, artifact_dir, tmp_path):
        from repro.model.predictor import GNNDSEPredictor
        from repro.serve import PredictorService

        flags, kwargs = self.CASES[case]
        cli = _run_cli(
            ["dse", "-k", KERNEL, "--model", str(artifact_dir), "--top", "3",
             "--time-limit", "60", *flags],
            tmp_path,
        )
        predictor = GNNDSEPredictor.load(artifact_dir)
        with PredictorService(predictor, batch_size=4) as service:
            served = service.dse_top(KERNEL, top=3, time_limit_seconds=60.0, **kwargs)
        for field in RESULT_FIELDS:
            assert served[field] == cli[field], field
        assert cli["top"] and cli["pareto"]


class TestRunDseRules:
    @pytest.fixture(scope="class")
    def pipeline(self, artifact_dir):
        from repro.dse import EvaluationPipeline
        from repro.model.predictor import GNNDSEPredictor

        return EvaluationPipeline(GNNDSEPredictor.load(artifact_dir))

    @staticmethod
    def _search():
        from repro.designspace import build_design_space
        from repro.kernels import get_kernel

        spec = get_kernel(KERNEL)
        return spec, build_design_space(spec)

    def test_reference_device_with_model_is_not_device_bound(self, pipeline):
        from repro.dse import run_dse
        from repro.hls.device import DEFAULT_DEVICE

        spec, space = self._search()
        # A device-bound search would reject a budgeted strategy.
        result = run_dse(
            spec, space, pipeline, device=DEFAULT_DEVICE, strategy="sa", budget=10
        )
        assert result.strategy == "sa" and result.explored <= 10

    def test_without_model_every_device_is_analytic(self):
        from repro.dse import run_dse
        from repro.errors import DSEError
        from repro.hls.device import DEFAULT_DEVICE

        spec, space = self._search()
        result = run_dse(spec, space, None, device=DEFAULT_DEVICE, top_m=3)
        assert result.device == DEFAULT_DEVICE.name
        assert result.stats.engine == "reference"
        with pytest.raises(DSEError, match="serial beam"):
            run_dse(spec, space, None, device=DEFAULT_DEVICE, strategy="race")

    @pytest.mark.parametrize(
        "kwargs, phrase",
        [
            ({"strategy": "bogus"}, "unknown strategy"),
            ({"strategy": "race", "workers": 2}, "serially"),
            ({"strategy": "rl", "checkpoint_path": "run.ckpt"}, "serially"),
            ({"workers": 2, "device_bound": True}, "serial beam"),
        ],
    )
    def test_rejected_combinations(self, kwargs, phrase):
        from repro.dse.run import check_request
        from repro.errors import DSEError

        kwargs = {"strategy": "beam", **kwargs}
        with pytest.raises(DSEError, match=phrase):
            check_request(**kwargs)
