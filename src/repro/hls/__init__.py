"""Simulated Merlin-compiler + HLS evaluator (the paper's tool H).

The original flow calls Xilinx's Merlin compiler and Vitis HLS, which
take minutes to hours per design point.  This package substitutes an
analytical-but-heuristic model that preserves the qualitative structure
of HLS QoR (see DESIGN.md for the substitution argument):

- :class:`MerlinHLSTool` — synthesize (kernel, design point) pairs;
- :class:`HLSResult` — latency, resources, validity, modeled runtime;
- :mod:`repro.hls.estimator` — the scheduling/area model itself.
"""

from .config import MAX_PARTITION, ConfiguredKernel, ConfiguredLoop, configure
from .device import (
    DEFAULT_DEVICE,
    OP_COSTS,
    U50,
    VCU1525,
    ZCU102,
    OpCost,
    ResourcePool,
    get_device,
    list_devices,
    register_device,
)
from .cgra import CGRA4X4, CGRADevice, estimate_cgra
from .estimator import Estimate, Estimator
from .report import (
    INVALID_PARTITION,
    INVALID_RESOURCE,
    INVALID_TIMEOUT,
    HLSResult,
    LoopReport,
)
from .tool import SYNTH_TIMEOUT_SECONDS, MerlinHLSTool

__all__ = [
    "MAX_PARTITION",
    "ConfiguredKernel",
    "ConfiguredLoop",
    "configure",
    "OP_COSTS",
    "VCU1525",
    "U50",
    "ZCU102",
    "DEFAULT_DEVICE",
    "OpCost",
    "ResourcePool",
    "register_device",
    "get_device",
    "list_devices",
    "CGRADevice",
    "CGRA4X4",
    "estimate_cgra",
    "Estimate",
    "Estimator",
    "INVALID_PARTITION",
    "INVALID_RESOURCE",
    "INVALID_TIMEOUT",
    "HLSResult",
    "LoopReport",
    "SYNTH_TIMEOUT_SECONDS",
    "MerlinHLSTool",
]
