"""Pure-Python quadratic Pareto filter: the test oracle for ``repro.dse.pareto``.

This is the dict-based filter the library used before it moved to one
vectorised numpy pass.  It is kept here only to check the library
against: two nested loops over Python comparisons, so its semantics
(ties, duplicates, infinities, NaN) are easy to read off.
"""

from typing import Callable, Dict, List, Sequence, TypeVar

T = TypeVar("T")


def dominates(a: Dict[str, float], b: Dict[str, float], keys: Sequence[str]) -> bool:
    """True when ``a`` is no worse than ``b`` on every key and better on one."""
    no_worse = all(a[k] <= b[k] for k in keys)
    better = any(a[k] < b[k] for k in keys)
    return no_worse and better


def pareto_front(
    items: Sequence[T],
    objectives: Callable[[T], Dict[str, float]],
    keys: Sequence[str],
) -> List[T]:
    """Non-dominated subset of ``items`` in first-seen order (all keys minimised)."""
    values = [objectives(item) for item in items]
    return [
        item
        for i, item in enumerate(items)
        if not any(j != i and dominates(other, values[i], keys) for j, other in enumerate(values))
    ]
