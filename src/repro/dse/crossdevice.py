"""Cross-device design-space exploration over the device registry.

One search per registered target, each kept Pareto-optimal over its own
device axes, plus a *merged* front answering "which (device, design)
pairs are jointly non-dominated?".  Because different targets expose
different resource axes (DSP/BRAM/LUT/FF on an FPGA, PE/ISLOT on a
CGRA), the merged front is taken over the device-agnostic objectives
``("latency", "util_max")`` — latency in cycles and the worst-axis
utilization, both well-defined on every registry entry.

:func:`device_pipeline` is the one rule binding a search to a target:
FPGA targets are searched with a trained surrogate (the predictor is
re-bound per device via :meth:`GNNDSEPredictor.for_device`, which
conditions the encoding and rescales utilizations onto the target's
capacities); CGRA-style targets — and predictor-less runs — fall back
to :class:`AnalyticPredictor`, a thin predictor facade over the modeled
HLS/CGRA evaluator itself.  :func:`device_dse` runs the serial beam on
that pipeline: it is the device branch of :func:`repro.dse.run.run_dse`
(the CLI's and the server's one request path), and
:func:`run_cross_device_dse` runs it once per device.

Everything here is deterministic: devices are visited in sorted-name
order and each per-device search is the (batch-boundary invariant)
:class:`~repro.dse.search.ModelDSE`, so repeated runs produce
bit-identical merged fronts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..hls.device import get_device
from ..model.predictor import DEFAULT_VALID_THRESHOLD, Prediction
from .pareto import pareto_front
from .pipeline import EvaluationPipeline
from .search import DSECandidate, DSEResult, ModelDSE

__all__ = [
    "CROSS_DEVICE_KEYS",
    "AnalyticPredictor",
    "DeviceFrontEntry",
    "CrossDeviceResult",
    "cross_device_objectives",
    "device_dse",
    "device_pipeline",
    "run_cross_device_dse",
]

#: Device-agnostic objective keys the merged cross-device front is kept
#: over.  Per-device axes are incomparable across targets; latency and
#: the worst-axis utilization exist for every registry entry.
CROSS_DEVICE_KEYS: Tuple[str, ...] = ("latency", "util_max")


class AnalyticPredictor:
    """Predictor facade over the modeled HLS/CGRA evaluator.

    Quacks like :class:`~repro.model.GNNDSEPredictor` as far as the DSE
    needs (``device`` attribute + ``predict_batch``), so it runs on the
    :class:`~repro.dse.pipeline.EvaluationPipeline`'s reference engine,
    but answers with the analytic estimator itself — exact by
    construction, no trained artifact required.  This is how CGRA-style
    targets (no surrogate training data) and predictor-less
    cross-device sweeps are searched.
    """

    def __init__(self, device):
        self.device = device
        from ..hls.tool import MerlinHLSTool  # local import: dse ← hls only here

        self.tool = MerlinHLSTool(device=device)

    def predict_batch(
        self,
        kernel: str,
        points: Sequence,
        valid_threshold: float = DEFAULT_VALID_THRESHOLD,
    ) -> List[Prediction]:
        """Synthesize each point; validity is exact, so no threshold applies."""
        from ..kernels import get_kernel

        spec = get_kernel(kernel)
        out: List[Prediction] = []
        for point in points:
            result = self.tool.synthesize(spec, point)
            out.append(
                Prediction(
                    valid=result.valid,
                    valid_prob=1.0 if result.valid else 0.0,
                    objectives=result.objectives,
                )
            )
        return out

    def predict(self, kernel: str, point) -> Prediction:
        return self.predict_batch(kernel, [point])[0]


@dataclass
class DeviceFrontEntry:
    """One (device, design) pair on the merged cross-device front."""

    device: str
    candidate: DSECandidate

    def payload(self) -> Dict[str, object]:
        from ..designspace.space import point_key

        objectives = self.candidate.prediction.objectives or {}
        return {
            "device": self.device,
            "point": point_key(self.candidate.point),
            "objectives": {k: float(v) for k, v in sorted(objectives.items())},
            **{k: float(v) for k, v in sorted(cross_device_objectives(self).items())},
        }


def cross_device_objectives(entry: DeviceFrontEntry) -> Dict[str, float]:
    """Project a device-front entry onto :data:`CROSS_DEVICE_KEYS`."""
    objectives = entry.candidate.prediction.objectives or {}
    utils = [v for k, v in objectives.items() if k != "latency"]
    return {
        "latency": float(objectives.get("latency", float("inf"))),
        "util_max": float(max(utils)) if utils else float("inf"),
    }


@dataclass
class CrossDeviceResult:
    """Outcome of one cross-device DSE run.

    ``per_device`` maps device name → that device's own
    :class:`~repro.dse.search.DSEResult` (front over the device's own
    axes); ``merged`` is the jointly non-dominated set of
    device-annotated designs over :data:`CROSS_DEVICE_KEYS`.
    """

    kernel: str
    per_device: Dict[str, DSEResult]
    merged: List[DeviceFrontEntry] = field(default_factory=list)

    @property
    def devices(self) -> List[str]:
        return sorted(self.per_device)

    def payload(self) -> Dict[str, object]:
        """JSON-ready, deterministic summary of the run."""
        from ..designspace.space import point_key

        return {
            "kernel": self.kernel,
            "devices": self.devices,
            "merged": [entry.payload() for entry in self.merged],
            "per_device": {
                name: {
                    "device": result.device,
                    "explored": result.explored,
                    "exhaustive": result.exhaustive,
                    "pareto": [
                        {
                            "point": point_key(c.point),
                            "objectives": {
                                k: float(v)
                                for k, v in sorted(
                                    (c.prediction.objectives or {}).items()
                                )
                            },
                        }
                        for c in result.pareto
                    ],
                }
                for name, result in sorted(self.per_device.items())
            },
        }


def _resolve(device):
    return get_device(device) if isinstance(device, str) else device


def device_pipeline(pipeline, device, pipeline_for=None) -> EvaluationPipeline:
    """The evaluation pipeline a search bound to ``device`` runs on.

    ``pipeline`` is the caller's pipeline around the trained model, or
    ``None`` for a run without one.  An FPGA target with a re-bindable
    surrogate (``for_device``) gets the model re-bound to it:
    ``pipeline_for(device.name)`` when the caller keeps per-device
    pipelines, else a new pipeline with ``pipeline``'s batch size,
    engine and cache setting.  Any other target (a CGRA, or a run with
    no model) gets :class:`AnalyticPredictor` on the reference engine.
    """
    predictor = getattr(pipeline, "predictor", None)
    if (
        predictor is not None
        and getattr(device, "kind", "fpga") == "fpga"
        and hasattr(predictor, "for_device")
    ):
        if pipeline_for is not None:
            return pipeline_for(device.name)
        return EvaluationPipeline(
            predictor.for_device(device),
            batch_size=pipeline.batch_size,
            engine=pipeline.engine_mode,
            cache=pipeline.cache_enabled,
        )
    # Runs on the reference engine; the estimator keeps its own cache.
    return EvaluationPipeline(AnalyticPredictor(device), cache=False)


def device_dse(spec, space, device, pipeline=None, pipeline_for=None,
               time_limit_seconds: float = 3600.0, **search) -> DSEResult:
    """The serial beam bound to ``device``, on :func:`device_pipeline`.

    :func:`~repro.dse.run.run_dse`'s device branch, and the search
    :func:`run_cross_device_dse` runs per device.  ``search`` goes to
    :class:`~repro.dse.search.ModelDSE`.
    """
    bound = device_pipeline(pipeline, device, pipeline_for)
    dse = ModelDSE(bound.predictor, spec, space, pipeline=bound, device=device, **search)
    return dse.run(time_limit_seconds)


def run_cross_device_dse(
    spec,
    space,
    devices: Sequence,
    predictor=None,
    fit_threshold: float = 0.8,
    top_m: int = 10,
    batch_size: int = 256,
    exhaustive_limit: int = 20_000,
    time_limit_seconds: float = 3600.0,
    pipeline: Optional[EvaluationPipeline] = None,
) -> CrossDeviceResult:
    """Run one DSE per device and merge the fronts.

    ``devices`` holds registry names or device objects, each searched
    by :func:`device_dse`.  The model comes as ``pipeline``, whose batch
    size, engine and cache setting every FPGA pipeline copies, or as
    ``predictor`` on default settings; without either, every device
    runs :class:`AnalyticPredictor`.  ``batch_size`` is the points each
    search scores per call.  The time budget is per device.
    """
    if pipeline is None and predictor is not None:
        pipeline = EvaluationPipeline(predictor)
    resolved = sorted((_resolve(d) for d in devices), key=lambda d: d.name)
    per_device: Dict[str, DSEResult] = {}
    for device in resolved:
        per_device[device.name] = device_dse(
            spec, space, device, pipeline,
            time_limit_seconds=time_limit_seconds,
            fit_threshold=fit_threshold,
            top_m=top_m,
            batch_size=batch_size,
            exhaustive_limit=exhaustive_limit,
        )

    entries = [
        DeviceFrontEntry(device=name, candidate=candidate)
        for name in sorted(per_device)
        for candidate in per_device[name].pareto
    ]
    merged = pareto_front(entries, cross_device_objectives, CROSS_DEVICE_KEYS)
    return CrossDeviceResult(kernel=spec.name, per_device=per_device, merged=merged)
