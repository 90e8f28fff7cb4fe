"""Exact Pareto hypervolume for minimised objectives.

Search quality is gated on *hypervolume per query budget*: the volume
of objective space dominated by a front, measured against a reference
(nadir) point.  Bigger is better — a front that is both lower-latency
and better-spread dominates more volume at the same budget.

The implementation is the WFG exclusive-hypervolume recursion
(While et al., "A fast way of calculating exact hypervolumes", 2012):

``hv(S) = Σ_i  vol(p_i) − hv({ max(q, p_i) | q ∈ S_{i+1:} })``

which is exact in any dimension and fast for the front sizes the DSE
produces (tens of points, five objectives).  All helpers are pure and
deterministic, so benchmark comparisons are bit-reproducible.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

__all__ = ["hypervolume", "normalized_hypervolume", "reference_point"]

_EPS = 1e-12


def _vol(point: Tuple[float, ...], ref: Tuple[float, ...]) -> float:
    v = 1.0
    for p, r in zip(point, ref):
        v *= r - p
    return v


def _limit(point: Tuple[float, ...], bound: Tuple[float, ...]) -> Tuple[float, ...]:
    """Worsen ``point`` to the region dominated by ``bound`` (minimisation)."""
    return tuple(max(p, b) for p, b in zip(point, bound))


def _dominates_le(a: Tuple[float, ...], b: Tuple[float, ...]) -> bool:
    """Weak dominance: ``a`` no worse than ``b`` on every objective."""
    return all(x <= y for x, y in zip(a, b))


def _nondominated(points: List[Tuple[float, ...]]) -> List[Tuple[float, ...]]:
    out: List[Tuple[float, ...]] = []
    for i, p in enumerate(points):
        if any(q != p and _dominates_le(q, p) for j, q in enumerate(points) if j != i):
            continue
        if p not in out:
            out.append(p)
    return out


def _hv(points: List[Tuple[float, ...]], ref: Tuple[float, ...]) -> float:
    if not points:
        return 0.0
    # Sorting by the first objective (descending volume) keeps the
    # recursion shallow: later points are limited by earlier ones.
    points = sorted(points)
    total = 0.0
    for i, p in enumerate(points):
        rest = [_limit(q, p) for q in points[i + 1 :]]
        total += _vol(p, ref) - _hv(_nondominated(rest), ref)
    return total


def hypervolume(
    front: Sequence[Sequence[float]], reference: Sequence[float]
) -> float:
    """Exact hypervolume of ``front`` w.r.t. ``reference`` (all minimised).

    Points at or beyond the reference on any objective are clipped to
    it (contributing zero volume along that axis); dominated and
    duplicate points are filtered first, so the result depends only on
    the non-dominated set.
    """
    ref = tuple(float(r) for r in reference)
    pts = []
    for point in front:
        if len(point) != len(ref):
            raise ValueError(
                f"point has {len(point)} objectives, reference has {len(ref)}"
            )
        pts.append(tuple(min(float(v), r) for v, r in zip(point, ref)))
    return _hv(_nondominated(pts), ref)


def reference_point(
    fronts: Sequence[Sequence[Dict[str, float]]],
    keys: Sequence[str],
    margin: float = 0.1,
) -> Dict[str, Tuple[float, float]]:
    """Shared normalisation bounds from the union of ``fronts``.

    Returns per-key ``(ideal, ref)`` where ``ideal`` is the best value
    seen anywhere and ``ref`` the worst, padded by ``margin`` of the
    span so extreme points still dominate non-zero volume.  Comparing
    two searches under bounds derived from *their union* is the
    standard way to keep the metric common and scale-free.
    """
    bounds: Dict[str, Tuple[float, float]] = {}
    for key in keys:
        values = [o[key] for front in fronts for o in front]
        if not values:
            bounds[key] = (0.0, 1.0)
            continue
        lo, hi = min(values), max(values)
        span = (hi - lo) or max(abs(hi), 1.0) * _EPS
        bounds[key] = (lo, hi + margin * span)
    return bounds


def normalized_hypervolume(
    front: Sequence[Dict[str, float]],
    bounds: Dict[str, Tuple[float, float]],
    keys: Sequence[str],
) -> float:
    """Hypervolume after normalising each objective to ``[0, 1]``.

    ``bounds`` maps each key to ``(ideal, ref)`` — usually from
    :func:`reference_point` over every front being compared.  The
    result lies in ``[0, 1]``; an empty front scores 0.
    """
    if not front:
        return 0.0
    normalised = []
    for objectives in front:
        row = []
        for key in keys:
            lo, hi = bounds[key]
            span = hi - lo
            row.append((objectives[key] - lo) / span if span > 0 else 0.0)
        normalised.append(row)
    return hypervolume(normalised, [1.0] * len(keys))
