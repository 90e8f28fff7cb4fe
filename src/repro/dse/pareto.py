"""Pareto-frontier utilities over design objectives.

All objectives are minimised: latency directly; resource utilizations
as reported.  Used to pick the Pareto-optimal designs the paper's DSE
returns and to sanity-check DSE output in tests.

Dominance is decided over a float64 ``(N, K)`` objective matrix (one
row per design, one column per key) in vectorised numpy passes; this
module's :func:`pareto_front` and :func:`pareto_merge` share that one
filter.  Row ``a`` dominates row ``b`` when it is no worse on every
column and strictly better on one, so equal rows never dominate each
other (duplicates are all kept) and a row with a NaN neither dominates
nor is dominated.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple, TypeVar

import numpy as np

T = TypeVar("T")

__all__ = [
    "DEFAULT_OBJECTIVE_KEYS",
    "objective_keys_for",
    "objective_matrix",
    "pareto_front",
    "pareto_merge",
]

#: Objective keys (all minimised) of the reference FPGA device — the
#: single source of truth the DSE searchers and this module's defaults
#: share.  Device-specific axes come from :func:`objective_keys_for`.
DEFAULT_OBJECTIVE_KEYS: Tuple[str, ...] = ("latency", "DSP", "BRAM", "LUT", "FF")

#: Upper bound on the cells of one ``(rows, by, K)`` comparison
#: temporary; larger inputs are compared in row blocks.
_BLOCK_CELLS = 1 << 20


def objective_keys_for(device) -> Tuple[str, ...]:
    """Objective keys for Pareto dominance on ``device``.

    ``None`` (or a device without declared axes) means the reference
    FPGA's latency + DSP/BRAM/LUT/FF; registered devices report
    latency + their own resource axes (e.g. PE/ISLOT for a CGRA).
    """
    if device is None:
        return DEFAULT_OBJECTIVE_KEYS
    return tuple(getattr(device, "pareto_keys", DEFAULT_OBJECTIVE_KEYS))


def objective_matrix(
    items: Sequence[T],
    objectives: Callable[[T], Dict[str, float]],
    keys: Sequence[str],
) -> np.ndarray:
    """Float64 ``(len(items), len(keys))`` matrix of ``objectives(item)[key]``.

    Comparisons on it match Python's on the original values for floats
    and for integers of magnitude below ``2**53``.
    """
    rows = [[values[k] for k in keys] for values in map(objectives, items)]
    return np.array(rows, dtype=np.float64).reshape(len(items), len(keys))


def _dominated(targets: np.ndarray, by: np.ndarray) -> np.ndarray:
    """Mask over the rows of ``targets``: True where a row of ``by`` dominates it."""
    out = np.zeros(len(targets), dtype=bool)
    if len(targets) == 0 or len(by) == 0:
        return out
    step = max(1, _BLOCK_CELLS // (len(by) * max(1, by.shape[1])))
    for start in range(0, len(targets), step):
        block = targets[start : start + step, None, :]
        no_worse = (by <= block).all(axis=2)
        better = (by < block).any(axis=2)
        out[start : start + step] = (no_worse & better).any(axis=1)
    return out


def pareto_front(
    items: Sequence[T],
    objectives: Callable[[T], Dict[str, float]],
    keys: Sequence[str] = DEFAULT_OBJECTIVE_KEYS,
) -> List[T]:
    """Non-dominated subset of ``items`` (order preserved).

    ``objectives(item)`` must return a dict containing every key in
    ``keys``; all are minimised.
    """
    matrix = objective_matrix(items, objectives, keys)
    keep = ~_dominated(matrix, matrix)
    return [item for item, kept in zip(items, keep.tolist()) if kept]


def pareto_merge(front: np.ndarray, additions: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Keep-masks ``(keep_front, keep_additions)`` for merging into a front.

    ``front`` is the objective matrix of a Pareto front (no row
    dominates another); ``additions`` holds new rows.  The kept front
    rows followed by the kept additions are exactly ``pareto_front``
    of ``front + additions``, members and first-seen order: an
    addition survives unless the front or another addition dominates
    it, and a front row survives unless a surviving addition does (by
    transitivity, whatever dominates it is dominated by, or is, a
    survivor, and no front row dominates another).  Chaining merges
    therefore equals filtering the whole stream at once, which is what
    lets shard-local fronts combine into the global front without
    revisiting evaluated points.
    """
    keep_additions = ~(_dominated(additions, front) | _dominated(additions, additions))
    keep_front = ~_dominated(front, additions[keep_additions])
    return keep_front, keep_additions
