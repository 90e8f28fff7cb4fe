"""Tests for the device registry and the cross-device DSE path.

Contracts under test:

* the registry resolves every built-in device and fails loudly (naming
  the known devices) on anything else;
* ``ResourcePool.utilization`` derives from the declared axes and
  **raises** on usage keys the pool does not account (regression: they
  used to read as silent 0.0 utilization);
* ``MerlinHLSTool`` keys its memo cache by device, so the same point
  synthesized against two pools cannot alias (regression);
* the reference device keeps every path **bit-identical** to the old
  device-less code: encoding, prediction scaling, Pareto keys;
* ``run_cross_device_dse`` yields non-empty, genuinely distinct fronts
  per device and a bit-reproducible device-annotated merged front;
* artifacts record the device set they were saved under and refuse to
  load against a different one.
"""

import json

import numpy as np
import pytest

from repro.designspace import build_design_space
from repro.dse import (
    CROSS_DEVICE_KEYS,
    DEFAULT_OBJECTIVE_KEYS,
    AnalyticPredictor,
    EvaluationPipeline,
    ModelDSE,
    cross_device_objectives,
    run_cross_device_dse,
)
from repro.errors import ArtifactError, HLSError
from repro.explorer.database import Database, DesignRecord
from repro.graph import GraphEncoder, kernel_graph
from repro.graph.encoding import DEVICE_FEATURE_SLICE, device_features
from repro.hls import MerlinHLSTool
from repro.hls.cgra import CGRA4X4, CGRADevice
from repro.hls.device import (
    DEFAULT_DEVICE,
    U50,
    VCU1525,
    ZCU102,
    get_device,
    list_devices,
    register_device,
)
from repro.kernels import get_kernel
from repro.model.predictor import Prediction, scale_objectives_for_device
from repro.serve import save_artifact
from repro.serve.registry import device_set_fingerprint, load_artifact, read_manifest

from tests.test_pipeline import make_predictor, sample_points


@pytest.fixture(scope="module")
def predictor():
    return make_predictor()


# ---------------------------------------------------------------------------
# registry


class TestRegistry:
    def test_builtin_devices_resolve(self):
        for name, device in [
            ("xcvu9p", VCU1525), ("xcu50", U50),
            ("xczu9eg", ZCU102), ("cgra4x4", CGRA4X4),
        ]:
            assert get_device(name) is device

    def test_names_are_sorted_and_complete(self):
        names = list_devices()
        assert names == sorted(names)
        assert {"xcvu9p", "xcu50", "xczu9eg", "cgra4x4"} <= set(names)

    def test_unknown_device_names_the_registry(self):
        with pytest.raises(HLSError, match=r"unknown device 'xc7z020'"):
            get_device("xc7z020")
        with pytest.raises(HLSError, match=r"known devices: \["):
            get_device("xc7z020")

    def test_duplicate_registration_rejected(self):
        clone = CGRADevice(name="cgra4x4", rows=8)
        with pytest.raises(HLSError, match="already registered"):
            register_device(clone)

    def test_default_device_is_the_papers_board(self):
        assert DEFAULT_DEVICE is VCU1525
        assert DEFAULT_DEVICE.kind == "fpga"


# ---------------------------------------------------------------------------
# satellite bugfix: utilization derives from declared axes


class TestUtilization:
    def test_normalises_by_declared_axes(self):
        util = VCU1525.utilization({"DSP": 684.0, "LUT": 118_224.0})
        assert util["DSP"] == pytest.approx(0.1)
        assert util["LUT"] == pytest.approx(0.1)
        assert util["BRAM"] == 0.0 and util["FF"] == 0.0
        assert tuple(util) == VCU1525.axes

    def test_unknown_usage_key_raises(self):
        # Regression: a typo'd axis used to read as 0.0 utilization and
        # mask an invalid design; now it names the offender and the axes.
        with pytest.raises(HLSError, match=r"\['URAM'\]"):
            VCU1525.utilization({"DSP": 1.0, "URAM": 5.0})

    def test_cgra_rejects_fpga_axes(self):
        with pytest.raises(HLSError, match=r"\['DSP'\]"):
            CGRA4X4.utilization({"DSP": 10.0})
        util = CGRA4X4.utilization({"PE": 8.0, "ISLOT": 64.0})
        assert util == {"PE": 0.5, "ISLOT": 0.25}

    def test_fit_axes_follow_device_kind(self):
        assert VCU1525.fit_axes == VCU1525.axes
        # PE occupancy is time-multiplexed compute, not a budget; only
        # the instruction memory bounds what the CGRA DSE may keep.
        assert CGRA4X4.fit_axes == ("ISLOT",)


# ---------------------------------------------------------------------------
# satellite bugfix: tool cache is device-keyed


class TestToolCacheByDevice:
    def test_device_swap_does_not_reuse_cache(self):
        # Regression: the memo key used to omit the device, so swapping
        # the pool on a live tool replayed the old device's report.
        spec = get_kernel("fir")
        point = {}
        tool = MerlinHLSTool(device=VCU1525)
        on_vu9p = tool.synthesize(spec, point)
        tool.device = ZCU102
        on_zu9eg = tool.synthesize(spec, point)
        assert on_zu9eg is not on_vu9p
        assert on_zu9eg.utilization != on_vu9p.utilization
        fresh = MerlinHLSTool(device=ZCU102).synthesize(spec, point)
        assert on_zu9eg.utilization == fresh.utilization
        assert on_zu9eg.latency == fresh.latency

    def test_same_device_still_caches(self):
        spec = get_kernel("fir")
        tool = MerlinHLSTool(device=ZCU102)
        first = tool.synthesize(spec, {})
        assert tool.synthesize(spec, {}) is first
        assert tool.invocations == 1


# ---------------------------------------------------------------------------
# CGRA target


class TestCGRA:
    def test_baseline_is_valid(self):
        result = MerlinHLSTool(device=CGRA4X4).baseline(get_kernel("fir"))
        assert result.valid
        assert set(result.utilization) == {"PE", "ISLOT"}
        assert result.device == "cgra4x4"

    def test_instruction_memory_overflow_invalidates(self):
        tiny = CGRADevice(name="cgra-tiny-test", instruction_slots=10)
        result = MerlinHLSTool(device=tiny).baseline(get_kernel("gesummv"))
        assert not result.valid
        assert result.utilization["ISLOT"] > 1.0

    def test_front_kept_over_cgra_axes(self):
        spec = get_kernel("fir")
        space = build_design_space(spec)
        dse = ModelDSE(
            AnalyticPredictor(CGRA4X4), spec, space,
            pipeline=None, use_pipeline=False, device=CGRA4X4,
        )
        result = dse.run(time_limit_seconds=30.0)
        assert result.device == "cgra4x4"
        assert result.top
        assert tuple(dse.pareto_keys) == ("latency", "PE", "ISLOT")


# ---------------------------------------------------------------------------
# prediction plumbing


class TestPredictionDevicePlumbing:
    def test_fits_axes_filter(self):
        p = Prediction(
            valid=True, valid_prob=0.9,
            objectives={"latency": 100.0, "PE": 1.0, "ISLOT": 0.1},
        )
        assert not p.fits(0.8)  # PE == 1.0 trips the unfiltered check
        assert p.fits(0.8, axes=("ISLOT",))
        assert not p.fits(0.8, axes=("PE",))

    def test_scaling_onto_smaller_pool(self):
        p = Prediction(
            valid=True, valid_prob=0.9,
            objectives={"latency": 50.0, "DSP": 0.1, "BRAM": 0.1,
                        "LUT": 0.1, "FF": 0.1},
        )
        (scaled,) = scale_objectives_for_device([p], ZCU102)
        assert scaled.objectives["latency"] == 50.0
        ratio = VCU1525.capacities()["DSP"] / ZCU102.capacities()["DSP"]
        assert scaled.objectives["DSP"] == pytest.approx(0.1 * ratio)
        assert scaled.objectives["DSP"] > 0.1  # smaller pool, higher util

    def test_reference_and_cgra_pass_through_unchanged(self):
        p = Prediction(
            valid=True, valid_prob=0.9,
            objectives={"latency": 50.0, "DSP": 0.1, "BRAM": 0.1,
                        "LUT": 0.1, "FF": 0.1},
        )
        assert scale_objectives_for_device([p], None) == [p]
        assert scale_objectives_for_device([p], VCU1525)[0] == p
        assert scale_objectives_for_device([p], CGRA4X4) == [p]

    def test_default_objective_keys_hoisted(self):
        assert DEFAULT_OBJECTIVE_KEYS == ("latency", "DSP", "BRAM", "LUT", "FF")
        assert VCU1525.pareto_keys == DEFAULT_OBJECTIVE_KEYS


# ---------------------------------------------------------------------------
# graph encoding conditioning


class TestDeviceEncoding:
    def test_reference_block_is_all_zero(self):
        assert not device_features(None).any()
        assert not device_features(VCU1525).any()

    def test_non_reference_blocks_are_nonzero_and_distinct(self):
        blocks = [device_features(d) for d in (U50, ZCU102, CGRA4X4)]
        for block in blocks:
            assert block.any()
        assert len({block.tobytes() for block in blocks}) == 3
        assert device_features(CGRA4X4)[0] == 1.0  # kind one-hot

    def test_default_encoding_bit_identical(self):
        graph = kernel_graph(get_kernel("fir"))
        encoder = GraphEncoder()
        plain = encoder.encode(graph)
        with_ref = encoder.encode(graph, device=VCU1525)
        assert plain.x_base.tobytes() == with_ref.x_base.tobytes()
        conditioned = encoder.encode(graph, device=U50)
        assert conditioned.x_base.tobytes() != plain.x_base.tobytes()
        # Only the device block differs; structural features untouched.
        mask = np.ones(plain.x_base.shape[1], dtype=bool)
        mask[DEVICE_FEATURE_SLICE] = False
        assert np.array_equal(conditioned.x_base[:, mask], plain.x_base[:, mask])


# ---------------------------------------------------------------------------
# cross-device DSE


class TestCrossDeviceDSE:
    DEVICES = ("xcvu9p", "xczu9eg", "cgra4x4")

    @pytest.fixture(scope="class")
    def result(self):
        spec = get_kernel("fir")
        space = build_design_space(spec)
        return run_cross_device_dse(
            spec, space, self.DEVICES, time_limit_seconds=60.0
        )

    def test_every_device_has_a_front(self, result):
        assert sorted(result.devices) == sorted(self.DEVICES)
        for name in self.DEVICES:
            front = result.per_device[name].pareto
            assert front, name
            assert result.per_device[name].device == name

    def test_fronts_are_genuinely_distinct(self, result):
        latencies = {
            name: tuple(
                sorted(c.prediction.objectives["latency"]
                       for c in result.per_device[name].pareto)
            )
            for name in self.DEVICES
        }
        assert len(set(latencies.values())) == len(self.DEVICES)

    def test_merged_front_is_device_annotated_subset(self, result):
        assert result.merged
        for entry in result.merged:
            assert entry.device in self.DEVICES
            assert entry.candidate in result.per_device[entry.device].pareto
        objectives = [cross_device_objectives(e) for e in result.merged]
        assert all(tuple(o) == CROSS_DEVICE_KEYS for o in objectives)

    def test_merged_front_is_bit_reproducible(self, result):
        spec = get_kernel("fir")
        space = build_design_space(spec)
        rerun = run_cross_device_dse(
            spec, space, self.DEVICES, time_limit_seconds=60.0
        )
        assert json.dumps(rerun.payload(), sort_keys=True) == json.dumps(
            result.payload(), sort_keys=True
        )

    def test_device_order_does_not_matter(self, result):
        spec = get_kernel("fir")
        space = build_design_space(spec)
        shuffled = run_cross_device_dse(
            spec, space, tuple(reversed(self.DEVICES)), time_limit_seconds=60.0
        )
        assert json.dumps(shuffled.payload(), sort_keys=True) == json.dumps(
            result.payload(), sort_keys=True
        )

    def test_surrogate_front_differs_per_fpga(self, predictor):
        spec = get_kernel("fir")
        space = build_design_space(spec)
        result = run_cross_device_dse(
            spec, space, ("xcvu9p", "xcu50"), predictor=predictor,
            time_limit_seconds=60.0,
        )
        ref = result.per_device["xcvu9p"]
        other = result.per_device["xcu50"]
        assert ref.top and other.top
        assert ref.device == "xcvu9p" and other.device == "xcu50"


# ---------------------------------------------------------------------------
# database provenance


class TestDatabaseDeviceProvenance:
    def test_records_are_keyed_by_device(self):
        db = Database()
        spec = get_kernel("fir")
        ref = DesignRecord.from_result(MerlinHLSTool(device=VCU1525).synthesize(spec, {}), {})
        assert ref.device == DEFAULT_DEVICE.name
        assert db.add(ref)
        zu = DesignRecord.from_result(
            MerlinHLSTool(device=ZCU102).synthesize(spec, {}), {}
        )
        assert zu.device == "xczu9eg"
        # Same kernel, same point, different device: a distinct record.
        assert db.add(zu)
        assert len(db) == 2
        assert db.get("fir", ref.point_key) is ref
        assert db.get("fir", zu.point_key, device="xczu9eg") is zu
        assert db.has("fir", {}, device="xczu9eg")

    def test_legacy_two_tuple_contains_means_reference_device(self):
        db = Database()
        spec = get_kernel("fir")
        record = DesignRecord.from_result(MerlinHLSTool().synthesize(spec, {}), {})
        db.add(record)
        assert ("fir", record.point_key) in db
        assert ("fir", DEFAULT_DEVICE.name, record.point_key) in db
        assert ("fir", "xczu9eg", record.point_key) not in db


# ---------------------------------------------------------------------------
# artifact device-set versioning


class TestArtifactDeviceSet:
    def test_manifest_records_device_set(self, predictor, tmp_path):
        path = tmp_path / "artifact"
        manifest = save_artifact(predictor, path)
        assert manifest["devices"]["names"] == list_devices()
        assert manifest["devices"]["sha256"] == device_set_fingerprint()
        load_artifact(path)  # same registry => loads fine

    def test_mismatched_device_set_is_rejected(self, predictor, tmp_path):
        path = tmp_path / "artifact"
        save_artifact(predictor, path)
        manifest = read_manifest(path)
        manifest["devices"]["sha256"] = "0" * 64
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ArtifactError, match="device set"):
            load_artifact(path)

    def test_verify_artifact_also_checks_device_set(self, predictor, tmp_path):
        # Offline verification must catch everything load would refuse.
        from repro.serve import verify_artifact

        path = tmp_path / "artifact"
        save_artifact(predictor, path)
        manifest = read_manifest(path)
        manifest["devices"]["sha256"] = "0" * 64
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ArtifactError, match="device set"):
            verify_artifact(path)

    def test_fingerprint_tracks_registry_contents(self):
        first = device_set_fingerprint()
        assert first == device_set_fingerprint()
        assert len(first) == 64


# ---------------------------------------------------------------------------
# pipeline conditioning (surrogate path)


class TestPipelineDeviceConditioning:
    def test_for_device_pipeline_scales_utilization(self, predictor):
        points = sample_points("fir", 3, seed=7)
        base = EvaluationPipeline(predictor, batch_size=4, engine="compiled")
        ref = base.predict_batch("fir", points)
        bound = predictor.for_device(ZCU102)
        conditioned = EvaluationPipeline(bound, batch_size=4, engine="compiled")
        got = conditioned.predict_batch("fir", points)
        assert len(got) == len(ref)
        assert bound.device is ZCU102
        # Conditioning (device feature block + capacity rescaling) must
        # actually reach the forward pass: same points, different answers.
        assert got != ref

    def test_default_pipeline_unchanged_by_device_plumbing(self, predictor):
        points = sample_points("fir", 3, seed=7)
        expected = [predictor.predict("fir", p) for p in points]
        pipeline = EvaluationPipeline(predictor, batch_size=4, engine="compiled")
        assert pipeline.predict_batch("fir", points) == expected
