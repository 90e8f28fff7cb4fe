"""LLVM-like intermediate representation and analyses.

Substitutes for LLVM in the GNN-DSE pipeline: the front-end AST lowers
into this IR (:func:`lower_unit`), the ProGraML-style graph is built from
it (:mod:`repro.graph`), and the loop-nest analysis
(:func:`analyze_kernel`) feeds the design-space generator and the HLS
simulator.
"""

from .analysis import (
    DEFAULT_TRIP,
    ArrayAccess,
    ArrayInfo,
    FunctionAnalysis,
    KernelAnalysis,
    LoopInfo,
    OpCensus,
    Reduction,
    analyze_kernel,
)
from .builder import IRBuilder
from .cfg import DominatorTree, NaturalLoop, compute_dominators, find_natural_loops
from .function import BasicBlock, Function, Module
from .lowering import Lowering, lower_unit
from .printer import print_function, print_instruction, print_module
from .types import (
    F32,
    F64,
    I1,
    I8,
    I32,
    I64,
    VOID,
    ArrayType,
    FloatType,
    IntType,
    IRType,
    PointerType,
    VoidType,
    from_ctype,
)
from .values import (
    BINARY_OPCODES,
    CAST_OPCODES,
    MEMORY_OPCODES,
    OPCODES,
    TERMINATORS,
    Argument,
    Constant,
    Instruction,
    Value,
)

__all__ = [
    "DEFAULT_TRIP",
    "ArrayAccess",
    "ArrayInfo",
    "FunctionAnalysis",
    "KernelAnalysis",
    "LoopInfo",
    "OpCensus",
    "Reduction",
    "analyze_kernel",
    "IRBuilder",
    "DominatorTree",
    "NaturalLoop",
    "compute_dominators",
    "find_natural_loops",
    "BasicBlock",
    "Function",
    "Module",
    "Lowering",
    "lower_unit",
    "print_function",
    "print_instruction",
    "print_module",
    "F32",
    "F64",
    "I1",
    "I8",
    "I32",
    "I64",
    "VOID",
    "ArrayType",
    "FloatType",
    "IntType",
    "IRType",
    "PointerType",
    "VoidType",
    "from_ctype",
    "BINARY_OPCODES",
    "CAST_OPCODES",
    "MEMORY_OPCODES",
    "OPCODES",
    "TERMINATORS",
    "Argument",
    "Constant",
    "Instruction",
    "Value",
]
