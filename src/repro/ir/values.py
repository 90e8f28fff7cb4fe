"""IR value model: constants, arguments, and instructions.

The design follows LLVM loosely: every :class:`Value` has a type and an
optional name; :class:`Instruction` is a value produced by an opcode over
operand values.  Instead of one subclass per opcode we use a single
class with an ``opcode`` string — the program-graph builder keys nodes by
opcode text exactly like ProGraML does, so this keeps the pipeline flat.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Optional, Sequence

from ..errors import IRError
from .types import IRType, VOID

__all__ = [
    "Value",
    "Constant",
    "Argument",
    "Instruction",
    "OPCODES",
    "TERMINATORS",
    "MEMORY_OPCODES",
    "BINARY_OPCODES",
    "CAST_OPCODES",
]

#: Opcodes producing control-flow transfer (always end a basic block).
TERMINATORS = frozenset({"br", "condbr", "ret"})

#: Opcodes touching memory.
MEMORY_OPCODES = frozenset({"load", "store", "alloca", "getelementptr"})

#: Two-operand arithmetic/logic opcodes (typed, LLVM style).
BINARY_OPCODES = frozenset(
    {
        "add",
        "sub",
        "mul",
        "sdiv",
        "srem",
        "fadd",
        "fsub",
        "fmul",
        "fdiv",
        "and",
        "or",
        "xor",
        "shl",
        "lshr",
        "ashr",
        "icmp",
        "fcmp",
    }
)

CAST_OPCODES = frozenset({"sext", "zext", "trunc", "sitofp", "fptosi", "fpext", "fptrunc", "bitcast"})

#: Every opcode the IR accepts.
OPCODES = (
    TERMINATORS
    | MEMORY_OPCODES
    | BINARY_OPCODES
    | CAST_OPCODES
    | frozenset({"phi", "call", "select"})
)

_id_counter = itertools.count()


class Value:
    """Base class: anything that can be an operand.

    Attributes
    ----------
    type:
        The :class:`~repro.ir.types.IRType` of the value.
    name:
        SSA-style name (``%3``, ``%i.addr``); empty for void values.
    uid:
        Process-unique integer identity, used as a stable dict key.
    """

    def __init__(self, type_: IRType, name: str = ""):
        self.type = type_
        self.name = name
        self.uid = next(_id_counter)
        self.uses: List["Instruction"] = []

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name or self.uid})"


class Constant(Value):
    """An immediate constant (int or float)."""

    def __init__(self, type_: IRType, value: Any):
        super().__init__(type_, name=str(value))
        self.value = value

    @property
    def key_text(self) -> str:
        """ProGraML-style node text: the constant's type string."""
        return str(self.type)

    def __repr__(self) -> str:
        return f"Constant({self.type} {self.value})"


class Argument(Value):
    """A formal function parameter."""

    def __init__(self, type_: IRType, name: str, index: int):
        super().__init__(type_, name)
        self.index = index


class Instruction(Value):
    """One IR instruction.

    Attributes
    ----------
    opcode:
        Lower-case opcode string from :data:`OPCODES`.
    operands:
        Ordered operand values.
    attrs:
        Free-form metadata: comparison predicate for icmp/fcmp, callee
        name for call, loop label for loop-backedge branches, the source
        array name for alloca/getelementptr, etc.
    block:
        The owning :class:`~repro.ir.function.BasicBlock` (set on insert).
    """

    def __init__(
        self,
        opcode: str,
        type_: IRType,
        operands: Sequence[Value] = (),
        name: str = "",
        attrs: Optional[Dict[str, Any]] = None,
    ):
        if opcode not in OPCODES:
            raise IRError(f"unknown opcode {opcode!r}")
        super().__init__(type_, name)
        self.opcode = opcode
        self.operands: List[Value] = list(operands)
        self.attrs: Dict[str, Any] = dict(attrs or {})
        self.block = None  # set by BasicBlock.append
        for operand in self.operands:
            operand.uses.append(self)

    @property
    def is_terminator(self) -> bool:
        return self.opcode in TERMINATORS

    @property
    def produces_value(self) -> bool:
        return self.type is not VOID and not isinstance(self.type, type(VOID))

    @property
    def key_text(self) -> str:
        """ProGraML-style node text (opcode, plus predicate for compares)."""
        if self.opcode in ("icmp", "fcmp"):
            return f"{self.opcode}.{self.attrs.get('predicate', 'eq')}"
        return self.opcode

    def __repr__(self) -> str:
        ops = ", ".join(o.name or str(o.uid) for o in self.operands)
        lhs = f"%{self.name} = " if self.produces_value and self.name else ""
        return f"{lhs}{self.opcode} {ops}"
