"""Pareto-frontier utilities over design objectives.

All objectives are minimised: latency directly; resource utilizations
as reported.  Used to pick the Pareto-optimal designs the paper's DSE
returns and to sanity-check DSE output in tests.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple, TypeVar

T = TypeVar("T")

__all__ = [
    "DEFAULT_OBJECTIVE_KEYS",
    "objective_keys_for",
    "dominates",
    "pareto_front",
    "pareto_merge",
]

#: Objective keys (all minimised) of the reference FPGA device — the
#: single source of truth the DSE searchers and this module's defaults
#: share.  Device-specific axes come from :func:`objective_keys_for`.
DEFAULT_OBJECTIVE_KEYS: Tuple[str, ...] = ("latency", "DSP", "BRAM", "LUT", "FF")


def objective_keys_for(device) -> Tuple[str, ...]:
    """Objective keys for Pareto dominance on ``device``.

    ``None`` (or a device without declared axes) means the reference
    FPGA's latency + DSP/BRAM/LUT/FF; registered devices report
    latency + their own resource axes (e.g. PE/ISLOT for a CGRA).
    """
    if device is None:
        return DEFAULT_OBJECTIVE_KEYS
    return tuple(getattr(device, "pareto_keys", DEFAULT_OBJECTIVE_KEYS))


def dominates(a: Dict[str, float], b: Dict[str, float], keys: Sequence[str]) -> bool:
    """True when ``a`` is no worse than ``b`` on every key and better on one."""
    no_worse = all(a[k] <= b[k] for k in keys)
    better = any(a[k] < b[k] for k in keys)
    return no_worse and better


def pareto_front(
    items: Sequence[T],
    objectives: Callable[[T], Dict[str, float]],
    keys: Sequence[str] = DEFAULT_OBJECTIVE_KEYS,
) -> List[T]:
    """Non-dominated subset of ``items`` (order preserved).

    ``objectives(item)`` must return a dict containing every key in
    ``keys``; all are minimised.
    """
    values = [objectives(item) for item in items]
    front: List[T] = []
    for i, item in enumerate(items):
        dominated = False
        for j, other in enumerate(values):
            if j != i and dominates(other, values[i], keys):
                dominated = True
                break
        if not dominated:
            front.append(item)
    return front


def pareto_merge(
    front: Sequence[T],
    additions: Sequence[T],
    objectives: Callable[[T], Dict[str, float]],
    keys: Sequence[str] = DEFAULT_OBJECTIVE_KEYS,
) -> List[T]:
    """Merge ``additions`` into an existing Pareto ``front``.

    Incremental merging is exact: dominance is transitive, so filtering
    ``front + additions`` yields the same set (in the same first-seen
    order) as filtering the full underlying stream at once.  This is
    what lets shard-local fronts combine into the global front without
    revisiting evaluated points.
    """
    if not additions:
        return list(front)
    return pareto_front(list(front) + list(additions), objectives, keys)
