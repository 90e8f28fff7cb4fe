"""Result records produced by the HLS simulator."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = ["LoopReport", "HLSResult", "INVALID_TIMEOUT", "INVALID_PARTITION", "INVALID_RESOURCE"]

#: Invalidity reasons (Section 4.3.2 enumerates these failure sources).
INVALID_TIMEOUT = "synthesis timeout (> 4h)"
INVALID_PARTITION = "array partitioning refused (too many banks)"
INVALID_RESOURCE = "design far exceeds device resources"


@dataclass
class LoopReport:
    """Per-loop scheduling outcome (drives the bottleneck search)."""

    function: str
    label: str
    cycles: int
    trip_count: int
    ii: int = 0  # 0 when the loop is not pipelined
    depth: int = 0
    bottleneck: str = ""  # "memory" | "dependence" | "trip" | "compute"
    children: List["LoopReport"] = field(default_factory=list)

    def flat(self) -> List["LoopReport"]:
        out = [self]
        for child in self.children:
            out.extend(child.flat())
        return out


@dataclass
class HLSResult:
    """One synthesis outcome: QoR + validity + modeled tool runtime.

    ``latency`` is in cycles; ``usage`` holds absolute resource counts
    and ``utilization`` the same normalised by device capacity.
    ``synth_seconds`` models the wall-clock the real HLS run would take
    (used for the Table 3 runtime-speedup arithmetic).
    """

    kernel: str
    point_key: str
    valid: bool
    latency: int
    usage: Dict[str, float]
    utilization: Dict[str, float]
    synth_seconds: float
    invalid_reason: Optional[str] = None
    loops: List[LoopReport] = field(default_factory=list)
    transfer_cycles: int = 0
    #: Registered device the result was synthesized for ("" = the
    #: reference device, for records predating device provenance).
    device: str = ""

    @property
    def objectives(self) -> Dict[str, float]:
        """Predicted objectives: latency + the device's utilizations."""
        return {"latency": float(self.latency), **self.utilization}

    def fits(self, threshold: float = 0.8, axes=None) -> bool:
        """True when every utilization is below ``threshold`` (Eq. 7).

        ``axes`` (None = all) restricts the check to those resources, as
        :meth:`~repro.model.predictor.Prediction.fits` does.
        """
        return all(
            u < threshold
            for name, u in self.utilization.items()
            if axes is None or name in axes
        )

    def all_loops(self) -> List[LoopReport]:
        out: List[LoopReport] = []
        for loop in self.loops:
            out.extend(loop.flat())
        return out

    def pretty(self) -> str:
        """Human-readable synthesis report (Vitis-log flavoured)."""
        status = "PASS" if self.valid else f"FAIL ({self.invalid_reason})"
        lines = [
            f"== {self.kernel} :: {status}",
            f"   latency {self.latency:,} cycles "
            f"(incl. {self.transfer_cycles:,} transfer), "
            f"modeled synthesis {self.synth_seconds / 60.0:.1f} min",
            "   utilization: "
            + "  ".join(f"{k}={v:.3f}" for k, v in sorted(self.utilization.items())),
        ]
        if self.loops:
            lines.append("   loop schedule:")

            def emit(report: LoopReport, indent: int) -> None:
                pad = "     " + "  " * indent
                ii = f"II={report.ii}" if report.ii else "no pipeline"
                lines.append(
                    f"{pad}{report.function}/{report.label}: "
                    f"{report.cycles:,} cycles, trips={report.trip_count}, "
                    f"{ii}, bottleneck={report.bottleneck or '-'}"
                )
                for child in report.children:
                    emit(child, indent + 1)

            for top in self.loops:
                emit(top, 0)
        return "\n".join(lines)
