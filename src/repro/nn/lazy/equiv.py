"""Per-dtype tolerance policy for comparing predictions.

The benchmark checks served and searched predictions against the eager
reference with :func:`predictions_equivalent`, under the per-dtype
``(rtol, atol)`` bounds in :data:`TOLERANCES`.  The bounds are tight
enough to catch a real numerics bug (a wrong clip, a missing epsilon,
corrupted buffers — all errors many orders of magnitude larger) and
loose enough to absorb BLAS re-association noise accumulated across a
6-layer GNN.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

__all__ = ["TOLERANCES", "predictions_equivalent", "tolerance_for"]


#: Per-dtype (rtol, atol).  float32 accumulates re-association noise
#: fast across deep graphs; float64 keeps ~8 spare digits.
TOLERANCES: Dict[str, Tuple[float, float]] = {
    "float32": (1e-3, 1e-4),
    "float64": (1e-8, 1e-9),
}


def tolerance_for(dtype) -> Tuple[float, float]:
    """(rtol, atol) for ``dtype``; unknown dtypes get float32's bounds."""
    return TOLERANCES.get(np.dtype(dtype).name, TOLERANCES["float32"])


def predictions_equivalent(
    candidate,
    eager,
    valid_threshold: float = 0.5,
    dtype=np.float32,
) -> Optional[str]:
    """Compare ``candidate`` against the ``eager`` reference predictions.

    Returns ``None`` when equivalent, else a description of the first
    divergence.  The valid flag may legitimately flip when the eager
    probability sits within tolerance of the threshold; objectives are
    compared only when both sides produced them (an invalid-flagged
    point skips regression in the cascade).
    """
    if len(candidate) != len(eager):
        return f"prediction count mismatch: {len(candidate)} vs {len(eager)}"
    rtol, atol = tolerance_for(dtype)
    for i, (f, e) in enumerate(zip(candidate, eager)):
        if not np.isclose(f.valid_prob, e.valid_prob, rtol=rtol, atol=atol):
            return (
                f"point {i}: valid_prob {f.valid_prob:.6f} vs {e.valid_prob:.6f}"
            )
        if f.valid != e.valid:
            margin = abs(e.valid_prob - valid_threshold)
            if margin > atol + rtol * abs(valid_threshold):
                return (
                    f"point {i}: valid flag {f.valid} vs {e.valid} "
                    f"(prob {e.valid_prob:.6f} not near threshold)"
                )
            continue  # borderline flip: objectives may differ in presence
        if f.objectives and e.objectives:
            for key in e.objectives:
                if key not in f.objectives:
                    return f"point {i}: objective {key!r} missing from candidate"
                if not np.isclose(
                    f.objectives[key], e.objectives[key], rtol=rtol, atol=atol
                ):
                    return (
                        f"point {i}: objective {key!r} "
                        f"{f.objectives[key]:.6f} vs {e.objectives[key]:.6f}"
                    )
        elif f.objectives and not e.objectives:
            return f"point {i}: candidate produced objectives the reference skipped"
        # A candidate missing objectives the reference has is legal: the
        # cascade (objectives_for="valid") skips regression for points
        # the classifier rejects, while a direct reference call always
        # regresses.
    return None
