"""JSON payload builders shared by the HTTP API and the CLI.

``repro dse --output top.json`` and ``POST /v1/dse/top`` emit the same
schema, so offline runs and server responses are interchangeable
inputs for downstream tooling.  Floats pass through Python's ``json``
round-trip unchanged (shortest-repr), so payload → object → payload is
lossless and server-side predictions stay bit-identical on the client.
"""

from __future__ import annotations

from typing import Dict

from ..designspace.space import DesignPoint
from ..errors import ServeError
from ..explorer.database import deserialize_point, serialize_point
from ..hls.device import DEFAULT_DEVICE
from ..model.predictor import Prediction

__all__ = [
    "DSE_RESULT_SCHEMA_VERSION",
    "prediction_payload",
    "prediction_from_payload",
    "point_payload",
    "point_from_payload",
    "dse_result_payload",
]

#: Version of the ``dse --output`` / ``/v1/dse/top`` result schema.
#: v2 added the ``device`` field (the registered device the search
#: targeted; results predating device provenance stamp the reference).
DSE_RESULT_SCHEMA_VERSION = 2


def prediction_payload(prediction: Prediction) -> Dict[str, object]:
    return prediction.payload()


def prediction_from_payload(payload: Dict[str, object]) -> Prediction:
    try:
        return Prediction.from_payload(payload)
    except (KeyError, TypeError, ValueError) as exc:
        raise ServeError(f"malformed prediction payload: {exc}") from None


def point_payload(point: DesignPoint) -> Dict[str, object]:
    return serialize_point(point)


def point_from_payload(payload: Dict[str, object]) -> DesignPoint:
    if not isinstance(payload, dict):
        raise ServeError(f"design point must be an object, got {type(payload).__name__}")
    try:
        return deserialize_point(payload)
    except (TypeError, ValueError) as exc:
        raise ServeError(f"malformed design point: {exc}") from None


def dse_result_payload(result, stats=None) -> Dict[str, object]:
    """JSON form of a :class:`~repro.dse.search.DSEResult`.

    ``stats`` defaults to the stats the search recorded; pass an
    explicit :class:`~repro.dse.pipeline.PipelineStats` to override.
    """
    stats = stats if stats is not None else result.stats
    return {
        "schema_version": DSE_RESULT_SCHEMA_VERSION,
        "kernel": result.kernel,
        "device": getattr(result, "device", "") or DEFAULT_DEVICE.name,
        "explored": result.explored,
        "seconds": result.seconds,
        "exhaustive": result.exhaustive,
        "time_limited": getattr(result, "time_limited", False),
        "predictions_per_second": result.predictions_per_second,
        "workers": getattr(result, "workers", 1),
        "shards": getattr(result, "shards", 0),
        "shards_resumed": getattr(result, "shards_resumed", 0),
        "retries": getattr(result, "retries", 0),
        "strategy": getattr(result, "strategy", "beam"),
        "race": getattr(result, "race", None),
        "top": [
            {
                "rank": rank + 1,
                "point": point_payload(candidate.point),
                "prediction": prediction_payload(candidate.prediction),
            }
            for rank, candidate in enumerate(result.top)
        ],
        "pareto": [
            {
                "point": point_payload(candidate.point),
                "prediction": prediction_payload(candidate.prediction),
            }
            for candidate in getattr(result, "pareto", [])
        ],
        "pipeline_stats": None if stats is None else stats.to_dict(),
    }
