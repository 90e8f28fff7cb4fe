"""IR type system, modelled on (a small corner of) LLVM's.

Only what the kernels require: void, integers of various widths, IEEE
floats, pointers, and statically-sized arrays.  Types are value objects:
equality is structural and instances are hashable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

__all__ = [
    "IRType",
    "VoidType",
    "IntType",
    "FloatType",
    "PointerType",
    "ArrayType",
    "VOID",
    "I1",
    "I8",
    "I32",
    "I64",
    "F32",
    "F64",
    "from_ctype",
]


class IRType:
    """Base class for IR types."""

    @property
    def is_float(self) -> bool:
        return isinstance(self, FloatType)

    @property
    def is_int(self) -> bool:
        return isinstance(self, IntType)

    @property
    def bits(self) -> int:
        """Bit width of a value of this type (pointers count as 64)."""
        return 0


@dataclass(frozen=True)
class VoidType(IRType):
    def __str__(self) -> str:
        return "void"


@dataclass(frozen=True)
class IntType(IRType):
    width: int

    @property
    def bits(self) -> int:
        return self.width

    def __str__(self) -> str:
        return f"i{self.width}"


@dataclass(frozen=True)
class FloatType(IRType):
    width: int  # 32 or 64

    @property
    def bits(self) -> int:
        return self.width

    def __str__(self) -> str:
        return "float" if self.width == 32 else "double"


@dataclass(frozen=True)
class PointerType(IRType):
    pointee: IRType

    @property
    def bits(self) -> int:
        return 64

    def __str__(self) -> str:
        return f"{self.pointee}*"


@dataclass(frozen=True)
class ArrayType(IRType):
    element: IRType
    dims: Tuple[int, ...]

    @property
    def bits(self) -> int:
        total = self.element.bits
        for dim in self.dims:
            total *= max(dim, 1)
        return total

    def num_elements(self) -> int:
        total = 1
        for dim in self.dims:
            total *= max(dim, 1)
        return total

    def __str__(self) -> str:
        inner = str(self.element)
        for dim in reversed(self.dims):
            inner = f"[{dim} x {inner}]"
        return inner


VOID = VoidType()
I1 = IntType(1)
I8 = IntType(8)
I16 = IntType(16)
I32 = IntType(32)
I64 = IntType(64)
F32 = FloatType(32)
F64 = FloatType(64)

_BASE_MAP = {
    "void": VOID,
    "char": I8,
    "short": I16,
    "int": I32,
    "long": I64,
    "float": F32,
    "double": F64,
}


def from_ctype(ctype) -> IRType:
    """Map a front-end :class:`~repro.frontend.ast_nodes.CType` to an IR type.

    Arrays map to :class:`ArrayType`; unsized leading dimensions (pointer
    parameters) keep extent 0 and are refined by kernel metadata before
    HLS analysis.
    """
    base = _BASE_MAP[ctype.base]
    if ctype.dims:
        return ArrayType(base, tuple(ctype.dims))
    return base
