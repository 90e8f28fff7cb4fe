"""Design points, knobs, and the design space of a kernel.

A *design point* assigns one concrete option to every tunable pragma
knob: ``{"__PARA__L1": 8, "__PIPE__L1": PipelineOption.COARSE, ...}``.
The :class:`DesignSpace` owns the knob list with per-knob candidate
options and implements enumeration, sampling, sizing, and neighbour
generation under AutoDSE's pruning rules (:mod:`repro.designspace.rules`).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Union

from ..errors import DesignSpaceError
from ..frontend.pragmas import Pragma, PragmaKind, PipelineOption

__all__ = ["PragmaValue", "DesignPoint", "Knob", "DesignSpace", "point_key"]

PragmaValue = Union[PipelineOption, int]
DesignPoint = Dict[str, PragmaValue]


def point_key(point: DesignPoint) -> str:
    """Canonical, hashable string key of a design point."""
    parts = []
    for name in sorted(point):
        value = point[name]
        text = value.value if isinstance(value, PipelineOption) else str(int(value))
        parts.append(f"{name}={text}")
    return ";".join(parts)


@dataclass
class Knob:
    """One tunable pragma with its candidate options.

    Candidates are ordered from least to most aggressive, which the
    explorers exploit (bottleneck optimisation walks candidates upward).
    """

    pragma: Pragma
    candidates: List[PragmaValue]

    @property
    def name(self) -> str:
        return self.pragma.name

    @property
    def kind(self) -> PragmaKind:
        return self.pragma.kind

    @property
    def loop_label(self) -> str:
        return self.pragma.loop_label

    @property
    def function(self) -> str:
        return self.pragma.function

    @property
    def neutral(self) -> PragmaValue:
        """The no-op option (pipeline off / factor 1)."""
        return PipelineOption.OFF if self.kind is PragmaKind.PIPELINE else 1

    def index_of(self, value: PragmaValue) -> int:
        try:
            return self.candidates.index(value)
        except ValueError:
            raise DesignSpaceError(
                f"knob {self.name}: {value!r} is not among candidates {self.candidates}"
            ) from None


class DesignSpace:
    """The pragma design space of one kernel.

    Parameters
    ----------
    kernel_name:
        For diagnostics.
    knobs:
        Tunable knobs in source order.
    rules:
        A :class:`~repro.designspace.rules.PruningRules` instance (or
        None to disable pruning).
    """

    def __init__(self, kernel_name: str, knobs: Sequence[Knob], rules=None):
        self.kernel_name = kernel_name
        self.knobs: List[Knob] = list(knobs)
        self.rules = rules
        self._by_name: Dict[str, Knob] = {k.name: k for k in self.knobs}
        if len(self._by_name) != len(self.knobs):
            raise DesignSpaceError(f"{kernel_name}: duplicate knob names")
        self._neutral: DesignPoint = {k.name: k.neutral for k in self.knobs}
        self._exact_size: Optional[int] = None

    # -- basic accessors --------------------------------------------------------

    def __len__(self) -> int:
        return len(self.knobs)

    def knob(self, name: str) -> Knob:
        try:
            return self._by_name[name]
        except KeyError:
            raise DesignSpaceError(f"{self.kernel_name}: unknown knob {name!r}") from None

    def default_point(self) -> DesignPoint:
        """The all-neutral design point (no optimisation applied): a fresh
        copy of a template built once per space."""
        return dict(self._neutral)

    def validate(self, point: DesignPoint) -> None:
        """Check that a point covers exactly the knob set with candidates."""
        missing = set(self._by_name) - set(point)
        extra = set(point) - set(self._by_name)
        if missing or extra:
            raise DesignSpaceError(
                f"{self.kernel_name}: bad design point (missing={sorted(missing)}, "
                f"extra={sorted(extra)})"
            )
        for name, value in point.items():
            self._by_name[name].index_of(value)

    # -- sizing ------------------------------------------------------------------

    def product_size(self) -> int:
        """Upper bound: product of per-knob candidate counts."""
        total = 1
        for knob in self.knobs:
            total *= len(knob.candidates)
        return total

    def size(self, exact_limit: int = 200_000) -> int:
        """Pruned design-space size.

        Counts exactly (by enumeration) when the unpruned product is at
        most ``exact_limit``; otherwise returns the product upper bound,
        mirroring how enormous spaces (e.g. 2mm's 492M) are reported.
        """
        product = self.product_size()
        if product > exact_limit:
            return product
        if self._exact_size is not None:
            return self._exact_size
        count = sum(1 for _ in self.enumerate())
        self._exact_size = count
        return count

    # -- iteration ---------------------------------------------------------------

    def enumerate(self, limit: Optional[int] = None) -> Iterator[DesignPoint]:
        """Yield pruned, canonical design points (deduplicated).

        Enumerates the raw candidate product, canonicalises each point
        under the pruning rules, and yields each canonical point once.
        """
        seen = set()
        names = [k.name for k in self.knobs]
        spaces = [k.candidates for k in self.knobs]
        emitted = 0
        for combo in itertools.product(*spaces):
            point = dict(zip(names, combo))
            if self.rules is not None:
                point = self.rules.canonicalize(point)
            key = point_key(point)
            if key in seen:
                continue
            seen.add(key)
            yield point
            emitted += 1
            if limit is not None and emitted >= limit:
                return

    def sample(self, rng: random.Random, count: int = 1) -> List[DesignPoint]:
        """Draw ``count`` random canonical points (with replacement)."""
        out = []
        for _ in range(count):
            point = {k.name: rng.choice(k.candidates) for k in self.knobs}
            if self.rules is not None:
                point = self.rules.canonicalize(point)
            out.append(point)
        return out

    def neighbors(self, point: DesignPoint) -> List[DesignPoint]:
        """All canonical points reachable by moving one knob one step."""
        out: List[DesignPoint] = []
        seen = {point_key(point)}
        for knob in self.knobs:
            index = knob.index_of(point[knob.name])
            for delta in (-1, 1):
                other = index + delta
                if not 0 <= other < len(knob.candidates):
                    continue
                neighbor = dict(point)
                neighbor[knob.name] = knob.candidates[other]
                if self.rules is not None:
                    neighbor = self.rules.canonicalize(neighbor)
                key = point_key(neighbor)
                if key not in seen:
                    seen.add(key)
                    out.append(neighbor)
        return out

    def mutations(self, point: DesignPoint, knob_name: str) -> List[DesignPoint]:
        """All canonical points obtained by re-assigning one named knob."""
        knob = self.knob(knob_name)
        out = []
        seen = {point_key(point)}
        for candidate in knob.candidates:
            mutated = dict(point)
            mutated[knob_name] = candidate
            if self.rules is not None:
                mutated = self.rules.canonicalize(mutated)
            key = point_key(mutated)
            if key not in seen:
                seen.add(key)
                out.append(mutated)
        return out

    def __repr__(self) -> str:
        return (
            f"DesignSpace({self.kernel_name!r}, {len(self.knobs)} knobs, "
            f"product={self.product_size()})"
        )
