"""The trained GNN-DSE predictor: HLS-tool surrogate used by the DSE.

Bundles the three trained networks of Section 4.3.2 — the validity
classifier, the main regression model (latency/DSP/LUT/FF), and the
separate BRAM regressor — behind one ``predict`` call that returns
denormalised objectives in milliseconds.
"""

from __future__ import annotations

import numpy as np

from typing import Dict, List, Optional, Sequence

from ..designspace.space import DesignPoint
from ..errors import ModelError
from ..explorer.database import Database
from ..graph import EncodedGraph
from ..nn.data import Batch, GraphData
from ..nn.tensor import no_grad
from .config import BRAM_OBJECTIVE, MODEL_CONFIGS, REGRESSION_OBJECTIVES, ModelConfig
from .dataset import GraphDatasetBuilder, pragma_vector, train_test_split
from .models import build_model
from .normalizer import TargetNormalizer
from .trainer import TrainConfig, Trainer, evaluate_classification, evaluate_regression

__all__ = [
    "DEFAULT_VALID_THRESHOLD",
    "Prediction",
    "GNNDSEPredictor",
    "predictions_from_outputs",
    "scale_objectives_for_device",
    "train_predictor",
]

#: Classification cut-off for calling a design point valid.  The
#: tie-break at the threshold is inclusive: ``valid_prob >=
#: DEFAULT_VALID_THRESHOLD`` means valid, so a point sitting exactly at
#: the boundary is treated as synthesizable.
DEFAULT_VALID_THRESHOLD = 0.5


def _canon(value) -> float:
    """Canonicalize a predicted scalar to float32 precision.

    Every evaluation path (point-by-point, reference batched, compiled
    batched) rounds through float32 before building a
    :class:`Prediction`, so results compare bit-identical across
    engines regardless of the accumulation dtype they ran with.
    """
    return float(np.float32(value))


class Prediction:
    """One design point's predicted quality.

    ``objectives`` is ``None`` when only the validity classifier ran
    (the DSE cascade skips regression for predicted-invalid points); in
    that case :attr:`latency` is ``inf`` and :meth:`fits` is ``False``,
    consistent with how the search ranks such points.
    """

    __slots__ = ("valid", "valid_prob", "objectives")

    def __init__(
        self, valid: bool, valid_prob: float, objectives: Optional[Dict[str, float]]
    ):
        self.valid = valid
        self.valid_prob = valid_prob
        self.objectives = objectives

    @property
    def latency(self) -> float:
        if self.objectives is None:
            return float("inf")
        return self.objectives["latency"]

    def fits(self, threshold: float = 0.8, axes=None) -> bool:
        """True when every non-latency objective (the device's resource
        utilizations, whatever its axes) is below ``threshold``.

        ``axes`` restricts the check to a device's declared fit axes
        (e.g. a CGRA budgets instruction memory but not PE occupancy);
        ``None`` checks every non-latency objective.
        """
        if self.objectives is None:
            return False
        return all(
            value < threshold
            for name, value in self.objectives.items()
            if name != "latency" and (axes is None or name in axes)
        )

    def payload(self) -> Dict[str, object]:
        """JSON form; floats round-trip exactly (shortest repr)."""
        return {
            "valid": self.valid,
            "valid_prob": self.valid_prob,
            "objectives": self.objectives,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "Prediction":
        """Inverse of :meth:`payload`.

        Malformed input raises ``KeyError``, ``TypeError`` or
        ``ValueError``; callers translate it into their own error.
        """
        objectives = payload["objectives"]
        return cls(
            valid=bool(payload["valid"]),
            valid_prob=float(payload["valid_prob"]),
            objectives=None
            if objectives is None
            else {str(k): float(v) for k, v in objectives.items()},
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, Prediction):
            return NotImplemented
        return (
            self.valid == other.valid
            and self.valid_prob == other.valid_prob
            and self.objectives == other.objectives
        )

    def __hash__(self) -> int:
        objectives = (
            None if self.objectives is None else tuple(sorted(self.objectives.items()))
        )
        return hash((self.valid, self.valid_prob, objectives))

    def __repr__(self) -> str:
        # The printed probability must never contradict the flag: when
        # rounding to four decimals would carry the probability across
        # the default threshold (e.g. 0.49996 -> "0.5000" with
        # valid=False), fall back to the full-precision repr.
        prob = f"{self.valid_prob:.4f}"
        if (float(prob) >= DEFAULT_VALID_THRESHOLD) != (
            self.valid_prob >= DEFAULT_VALID_THRESHOLD
        ):
            prob = repr(self.valid_prob)
        latency = self.latency
        return f"Prediction(valid={self.valid} p={prob} latency={latency:.0f})"


def predictions_from_outputs(
    logits: np.ndarray,
    reg: Optional[np.ndarray],
    bram: Optional[np.ndarray],
    normalizer: TargetNormalizer,
    valid_threshold: float = DEFAULT_VALID_THRESHOLD,
    objectives_mask: Optional[Sequence[bool]] = None,
) -> List[Prediction]:
    """Materialize :class:`Prediction` objects from raw model outputs.

    Shared by the reference predictor and the compiled pipeline engine
    so both paths produce bit-identical results.  ``objectives_mask``
    marks rows whose regression outputs are present; masked-out rows
    (or all rows, when ``reg`` is ``None``) get ``objectives=None``.
    """
    exp = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs = exp[:, 1] / exp.sum(axis=1)
    out: List[Prediction] = []
    for i in range(logits.shape[0]):
        have_objectives = reg is not None and (
            objectives_mask is None or objectives_mask[i]
        )
        objectives: Optional[Dict[str, float]] = None
        if have_objectives:
            objectives = {
                name: float(reg[i, j]) for j, name in enumerate(REGRESSION_OBJECTIVES)
            }
            objectives["BRAM"] = float(bram[i, 0])
            objectives = normalizer.inverse(objectives)
            objectives = {name: _canon(value) for name, value in objectives.items()}
        out.append(
            Prediction(
                valid=bool(probs[i] >= valid_threshold),
                valid_prob=_canon(probs[i]),
                objectives=objectives,
            )
        )
    return out


def scale_objectives_for_device(predictions: List[Prediction], device) -> List[Prediction]:
    """Rescale reference-device utilization predictions onto ``device``.

    The regression heads are trained against the reference FPGA's
    capacities, so a predicted utilization ``u_ref`` corresponds to an
    absolute usage of ``u_ref * cap_ref``; on a different FPGA pool the
    same design occupies ``u_ref * cap_ref / cap_dev`` of each axis.
    Latency passes through unchanged.  ``None`` / the reference device /
    non-FPGA targets return the input list unmodified, keeping the
    default path bit-identical.
    """
    if device is None or getattr(device, "kind", "fpga") != "fpga":
        return predictions
    from ..hls.device import DEFAULT_DEVICE

    ref = DEFAULT_DEVICE.capacities()
    caps = device.capacities()
    ratios = {axis: ref[axis] / caps[axis] for axis in caps if axis in ref}
    if all(ratio == 1.0 for ratio in ratios.values()):
        return predictions
    out: List[Prediction] = []
    for p in predictions:
        if p.objectives is None:
            out.append(p)
            continue
        objectives = {
            name: _canon(value * ratios[name]) if name in ratios else value
            for name, value in p.objectives.items()
        }
        out.append(Prediction(p.valid, p.valid_prob, objectives))
    return out


class GNNDSEPredictor:
    """Classifier + regressors + normalizer, over shared encoded graphs.

    ``device`` optionally binds the predictor to a registered device:
    samples are encoded with that device's conditioning features and
    predicted utilizations are rescaled to its capacities
    (:func:`scale_objectives_for_device`).  Unbound (``device=None``)
    predictors target the reference device and behave exactly as
    before.
    """

    def __init__(
        self,
        classifier,
        regressor,
        bram_regressor,
        normalizer: TargetNormalizer,
        builder: GraphDatasetBuilder,
        device=None,
    ):
        self.classifier = classifier
        self.regressor = regressor
        self.bram_regressor = bram_regressor
        self.normalizer = normalizer
        self.builder = builder
        self.device = device

    def for_device(self, device) -> "GNNDSEPredictor":
        """A shallow copy bound to ``device``, sharing models/builder."""
        return GNNDSEPredictor(
            self.classifier,
            self.regressor,
            self.bram_regressor,
            self.normalizer,
            self.builder,
            device=device,
        )

    # -- sample construction -------------------------------------------------------

    def _sample(self, kernel: str, point: DesignPoint) -> GraphData:
        enc: EncodedGraph = self.builder.encoded_graph(kernel, device=self.device)
        return GraphData(
            x=enc.fill(point),
            edge_index=enc.edge_index,
            edge_attr=enc.edge_attr,
            kernel=kernel,
            extras={"pragma_vec": pragma_vector(point, list(enc.pragma_rows))},
        )

    # -- inference ---------------------------------------------------------------

    def predict_batch(
        self,
        kernel: str,
        points: Sequence[DesignPoint],
        valid_threshold: float = DEFAULT_VALID_THRESHOLD,
    ) -> List[Prediction]:
        """Predict validity and objectives for many points at once."""
        if not points:
            return []
        samples = [self._sample(kernel, p) for p in points]
        batch = Batch.from_graphs(samples)
        self.classifier.eval()
        self.regressor.eval()
        self.bram_regressor.eval()
        with no_grad():
            logits = self.classifier(batch).data
            reg = self.regressor(batch).data
            bram = self.bram_regressor(batch).data
        return scale_objectives_for_device(
            predictions_from_outputs(logits, reg, bram, self.normalizer, valid_threshold),
            self.device,
        )

    def predict(self, kernel: str, point: DesignPoint) -> Prediction:
        """Predict one design point (see :meth:`predict_batch`)."""
        return self.predict_batch(kernel, [point])[0]

    # -- persistence -------------------------------------------------------------

    def save(self, path) -> Dict[str, object]:
        """Write this stack as a versioned artifact directory (see
        :mod:`repro.serve.registry`); returns the manifest."""
        from ..serve.registry import save_artifact

        return save_artifact(self, path)

    @staticmethod
    def load(path, database: Optional[Database] = None) -> "GNNDSEPredictor":
        """Load a stack saved by :meth:`save`.  Loaded predictors are
        bit-identical to the saved ones (weights keep their saved dtype);
        manifest schema/vocabulary mismatches raise
        :class:`~repro.errors.ArtifactError`."""
        from ..serve.registry import load_artifact

        return load_artifact(path, database=database)


def train_predictor(
    database: Database,
    config_name: str = "M7",
    train_config: Optional[TrainConfig] = None,
    test_fraction: float = 0.2,
    seed: int = 0,
    return_metrics: bool = False,
):
    """Train the full GNN-DSE predictor stack on a design database.

    Trains three networks with the configuration ``config_name`` (M1–M7):
    classification on all records, regression on valid records for
    (latency, DSP, LUT, FF), and a separate BRAM regressor (Section
    5.2.1).  Returns the :class:`GNNDSEPredictor`; with
    ``return_metrics=True`` also returns the Table 2-style test metrics.
    """
    if config_name not in MODEL_CONFIGS:
        raise ModelError(f"unknown model config {config_name!r}")
    base_config: ModelConfig = MODEL_CONFIGS[config_name]
    train_config = train_config or TrainConfig()
    builder = GraphDatasetBuilder(database)
    node_dim = 0
    edge_dim = 0
    all_samples = builder.build()
    if all_samples:
        node_dim = all_samples[0].x.shape[1]
        edge_dim = all_samples[0].edge_attr.shape[1]
    train_all, test_all = train_test_split(all_samples, test_fraction, seed)
    train_valid = [s for s in train_all if s.label == 1]
    test_valid = [s for s in test_all if s.label == 1]

    trainer = Trainer(train_config)

    def make(config):
        def factory(fold_seed):
            return build_model(config, node_dim, edge_dim, seed=fold_seed)

        return factory

    cls_config = base_config.for_task("classification")
    reg_config = base_config.for_task("regression", REGRESSION_OBJECTIVES)
    bram_config = base_config.for_task("regression", BRAM_OBJECTIVE)

    classifier = trainer.fit_cv(make(cls_config), train_all)
    regressor = trainer.fit_cv(make(reg_config), train_valid)
    bram = trainer.fit_cv(make(bram_config), train_valid)

    predictor = GNNDSEPredictor(classifier, regressor, bram, builder.normalizer, builder)
    if not return_metrics:
        return predictor
    metrics: Dict[str, float] = {}
    metrics.update(evaluate_regression(regressor, test_valid))
    metrics.update(evaluate_regression(bram, test_valid))
    metrics["all"] = sum(metrics[k] for k in ("latency", "DSP", "LUT", "FF", "BRAM"))
    metrics.update(evaluate_classification(classifier, test_all))
    return predictor, metrics
