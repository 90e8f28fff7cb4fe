"""Target pre-processing (Section 5.2.1).

Latency is transformed as ``T = log2(NormalizationFactor / latency)``
(Eq. 11) so that low-latency (high-performance) designs get the largest
target values and therefore dominate the squared loss.  Resource
utilizations are already normalised by device capacity (values around
[0, ~4]) and pass through unchanged.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Optional

from ..errors import ModelError

__all__ = ["TargetNormalizer"]


class TargetNormalizer:
    """Fit/apply/invert the latency transform of Eq. 11."""

    def __init__(self, normalization_factor: Optional[float] = None):
        self.normalization_factor = normalization_factor

    def fit(self, latencies: Iterable[float]) -> "TargetNormalizer":
        """Set the normalisation factor to the largest observed latency.

        With this choice the slowest design maps to T = 0 and every
        faster design to a positive value, matching the paper's target
        range (0 .. ~12.7).
        """
        latencies = [float(lat) for lat in latencies if lat > 0]
        if not latencies:
            raise ModelError("cannot fit normalizer on empty latency list")
        self.normalization_factor = max(latencies)
        return self

    def _require_fit(self) -> float:
        if self.normalization_factor is None:
            raise ModelError("TargetNormalizer used before fit()")
        return self.normalization_factor

    def transform_latency(self, latency: float) -> float:
        factor = self._require_fit()
        return math.log2(factor / max(float(latency), 1.0))

    def inverse_latency(self, transformed: float) -> float:
        factor = self._require_fit()
        return factor / (2.0 ** float(transformed))

    def transform(self, objectives: Dict[str, float]) -> Dict[str, float]:
        """Normalise a full objective dict (latency + utilizations)."""
        out = dict(objectives)
        if "latency" in out:
            out["latency"] = self.transform_latency(out["latency"])
        return out

    def inverse(self, objectives: Dict[str, float]) -> Dict[str, float]:
        out = dict(objectives)
        if "latency" in out:
            out["latency"] = self.inverse_latency(out["latency"])
        return out
