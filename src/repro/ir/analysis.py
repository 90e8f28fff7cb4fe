"""Loop-nest analysis over the kernel AST.

This is the "mid-end" of the reproduction: it extracts everything the
design-space generator and the HLS simulator need to reason about a
kernel —

* the loop tree per function, with trip counts (static bounds evaluated
  through scalar bindings, dynamic bounds resolved via per-loop hints);
* an operation census per loop body (float/int adds, multiplies,
  divides, special-function calls);
* array accesses with affine index analysis (which loop indexes which
  dimension and with what stride, or *irregular* for indirect accesses
  such as ``val[col[j]]`` in SpMV);
* loop-carried dependences (reductions like ``acc += ...``), which
  determine the achievable initiation interval of a pipelined loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import SemanticError
from ..frontend import ast_nodes as ast
from ..frontend.pragmas import Pragma, collect_pragmas
from ..frontend.semantic import SymbolTable, analyze, infer_expr_type

__all__ = [
    "OpCensus",
    "ArrayAccess",
    "Reduction",
    "LoopInfo",
    "ArrayInfo",
    "FunctionAnalysis",
    "KernelAnalysis",
    "analyze_kernel",
    "DEFAULT_TRIP",
]

#: Assumed trip count for loops whose bounds cannot be resolved and that
#: carry no hint.  MachSuite's irregular kernels average small rows.
DEFAULT_TRIP = 16


@dataclass
class OpCensus:
    """Counts of operations appearing once per loop-body iteration."""

    fadd: int = 0
    fmul: int = 0
    fdiv: int = 0
    iadd: int = 0
    imul: int = 0
    idiv: int = 0
    cmp: int = 0
    bitop: int = 0
    shift: int = 0
    select: int = 0
    special: int = 0  # sqrt/exp/log/... intrinsic calls
    calls: int = 0  # calls to user functions
    callees: List[str] = field(default_factory=list)

    def total(self) -> int:
        return (
            self.fadd + self.fmul + self.fdiv + self.iadd + self.imul + self.idiv
            + self.cmp + self.bitop + self.shift + self.select + self.special + self.calls
        )

    def merge(self, other: "OpCensus") -> None:
        self.fadd += other.fadd
        self.fmul += other.fmul
        self.fdiv += other.fdiv
        self.iadd += other.iadd
        self.imul += other.imul
        self.idiv += other.idiv
        self.cmp += other.cmp
        self.bitop += other.bitop
        self.shift += other.shift
        self.select += other.select
        self.special += other.special
        self.calls += other.calls
        self.callees.extend(other.callees)


@dataclass
class ArrayAccess:
    """One static array reference inside a loop body.

    Attributes
    ----------
    array:
        Array name.
    is_write:
        True for stores.
    dim_loops:
        Per subscript dimension, the affine coefficients
        ``{loop_var: stride}``, or None when the subscript is not affine
        in the induction variables (irregular/indirect access).
    dim_consts:
        Per subscript dimension, the constant term of the affine form
        (None for irregular subscripts).  Two accesses with identical
        coefficients but different constants touch *shifted* elements —
        the signature of a cross-iteration recurrence.
    """

    array: str
    is_write: bool
    dim_loops: Tuple[Optional[Dict[str, int]], ...]
    dim_consts: Tuple[Optional[int], ...] = ()

    @property
    def is_irregular(self) -> bool:
        return any(d is None for d in self.dim_loops)

    def loops_used(self) -> frozenset:
        used = set()
        for dim in self.dim_loops:
            if dim:
                used.update(k for k, v in dim.items() if v != 0)
        return frozenset(used)

    def depends_on(self, induction_var: str) -> bool:
        """True when the accessed address varies with ``induction_var``."""
        if self.is_irregular:
            return True  # conservatively assume it does
        return induction_var in self.loops_used()


@dataclass
class Reduction:
    """A loop-carried read-modify-write (e.g. ``acc += x``).

    ``target`` is the scalar/array name; ``is_float`` selects the
    floating adder latency in the dependence-II model; ``free_vars`` are
    the induction variables indexing the target (loops *not* in this set
    carry the dependence).
    """

    target: str
    is_float: bool
    free_vars: frozenset


@dataclass
class ArrayInfo:
    """Static facts about one array (parameter or local)."""

    name: str
    element_bits: int
    dims: Tuple[int, ...]
    is_param: bool
    is_float: bool

    def num_elements(self) -> int:
        total = 1
        for dim in self.dims:
            total *= max(dim, 1)
        return total

    def total_bits(self) -> int:
        return self.num_elements() * self.element_bits


@dataclass
class LoopInfo:
    """One ``for`` loop of the kernel with its analysis results."""

    label: str
    function: str
    induction_var: str
    trip_count: int
    is_static: bool
    depth: int  # 0 for outermost
    line: int
    parent: Optional[str] = None
    children: List["LoopInfo"] = field(default_factory=list)
    pragmas: List[Pragma] = field(default_factory=list)
    body_ops: OpCensus = field(default_factory=OpCensus)
    accesses: List[ArrayAccess] = field(default_factory=list)
    reductions: List[Reduction] = field(default_factory=list)

    @property
    def is_innermost(self) -> bool:
        return not self.children

    def carried_reductions(self) -> List[Reduction]:
        """Reductions whose dependence is carried by *this* loop."""
        return [r for r in self.reductions if self.induction_var not in r.free_vars]

    def subtree(self) -> List["LoopInfo"]:
        out: List[LoopInfo] = [self]
        for child in self.children:
            out.extend(child.subtree())
        return out

    def total_iterations(self) -> int:
        """Product of trip counts from this loop down the (max) nest."""
        if not self.children:
            return self.trip_count
        return self.trip_count * max(c.total_iterations() for c in self.children)


@dataclass
class FunctionAnalysis:
    """Analysis results for one function."""

    name: str
    top_loops: List[LoopInfo] = field(default_factory=list)
    loops: Dict[str, LoopInfo] = field(default_factory=dict)
    arrays: Dict[str, ArrayInfo] = field(default_factory=dict)
    preamble_ops: OpCensus = field(default_factory=OpCensus)

    def all_loops(self) -> List[LoopInfo]:
        out: List[LoopInfo] = []
        for loop in self.top_loops:
            out.extend(loop.subtree())
        return out


@dataclass
class KernelAnalysis:
    """Whole-kernel analysis: one entry per function, plus pragma list."""

    functions: Dict[str, FunctionAnalysis] = field(default_factory=dict)
    top_function: str = ""
    pragmas: List[Pragma] = field(default_factory=list)

    @property
    def top(self) -> FunctionAnalysis:
        return self.functions[self.top_function]

    def loop(self, function: str, label: str) -> LoopInfo:
        return self.functions[function].loops[label]

# -- constant folding ----------------------------------------------------------


def _try_eval(expr: ast.Expr, bindings: Dict[str, int]) -> Optional[int]:
    """Evaluate an integer expression over constant bindings, or None."""
    if isinstance(expr, ast.IntLiteral):
        return expr.value
    if isinstance(expr, ast.VarRef):
        return bindings.get(expr.name)
    if isinstance(expr, ast.UnaryOp):
        value = _try_eval(expr.operand, bindings)
        if value is None:
            return None
        return {"-": -value, "~": ~value, "!": int(not value)}.get(expr.op)
    if isinstance(expr, ast.BinaryOp):
        lhs = _try_eval(expr.lhs, bindings)
        rhs = _try_eval(expr.rhs, bindings)
        if lhs is None or rhs is None:
            return None
        try:
            return {
                "+": lambda: lhs + rhs,
                "-": lambda: lhs - rhs,
                "*": lambda: lhs * rhs,
                "/": lambda: lhs // rhs if rhs else None,
                "%": lambda: lhs % rhs if rhs else None,
                "<<": lambda: lhs << rhs,
                ">>": lambda: lhs >> rhs,
            }[expr.op]()
        except KeyError:
            return None
    if isinstance(expr, ast.Cast):
        return _try_eval(expr.operand, bindings)
    return None


def _affine_coeffs(expr: ast.Expr, loop_vars: frozenset, bindings: Dict[str, int]):
    """Return ``({loop_var: coeff}, const)`` for an affine index, else None."""
    if isinstance(expr, ast.IntLiteral):
        return {}, expr.value
    if isinstance(expr, ast.VarRef):
        if expr.name in loop_vars:
            return {expr.name: 1}, 0
        value = bindings.get(expr.name)
        if value is not None:
            return {}, value
        # A scalar that is neither an induction variable nor a bound
        # constant (e.g. a loaded row pointer) makes the index irregular.
        return None
    if isinstance(expr, ast.UnaryOp) and expr.op == "-":
        inner = _affine_coeffs(expr.operand, loop_vars, bindings)
        if inner is None:
            return None
        coeffs, const = inner
        return {k: -v for k, v in coeffs.items()}, -const
    if isinstance(expr, ast.BinaryOp):
        if expr.op in ("+", "-"):
            lhs = _affine_coeffs(expr.lhs, loop_vars, bindings)
            rhs = _affine_coeffs(expr.rhs, loop_vars, bindings)
            if lhs is None or rhs is None:
                return None
            sign = 1 if expr.op == "+" else -1
            coeffs = dict(lhs[0])
            for key, val in rhs[0].items():
                coeffs[key] = coeffs.get(key, 0) + sign * val
            return coeffs, lhs[1] + sign * rhs[1]
        if expr.op == "*":
            lhs_const = _try_eval(expr.lhs, bindings)
            rhs_const = _try_eval(expr.rhs, bindings)
            if lhs_const is not None:
                rhs = _affine_coeffs(expr.rhs, loop_vars, bindings)
                if rhs is None:
                    return None
                return {k: v * lhs_const for k, v in rhs[0].items()}, rhs[1] * lhs_const
            if rhs_const is not None:
                lhs = _affine_coeffs(expr.lhs, loop_vars, bindings)
                if lhs is None:
                    return None
                return {k: v * rhs_const for k, v in lhs[0].items()}, lhs[1] * rhs_const
            return None
    if isinstance(expr, ast.Cast):
        return _affine_coeffs(expr.operand, loop_vars, bindings)
    return None  # ArrayRef / Call / anything else: irregular


# -- the analyzer ----------------------------------------------------------------


class _FunctionAnalyzer:
    def __init__(
        self,
        fn: ast.FunctionDef,
        table: SymbolTable,
        bindings: Dict[str, int],
        trip_hints: Dict[str, int],
    ):
        self._fn = fn
        self._table = table
        self._bindings = dict(bindings)
        self._trip_hints = trip_hints
        self._result = FunctionAnalysis(fn.name)
        self._loop_var_stack: List[str] = []

    def run(self) -> FunctionAnalysis:
        for name, symbol in self._table.symbols.items():
            if symbol.is_array:
                self._result.arrays[name] = ArrayInfo(
                    name=name,
                    element_bits=symbol.ctype.element_bits,
                    dims=symbol.ctype.dims,
                    is_param=symbol.is_param,
                    is_float=symbol.ctype.is_float,
                )
        self._visit_block(self._fn.body, None, self._result.preamble_ops)
        return self._result

    # The visitor threads (current LoopInfo or None, census-to-charge).

    def _visit_block(self, block: ast.Block, loop: Optional[LoopInfo], census: OpCensus) -> None:
        for stmt in block.stmts:
            self._visit_stmt(stmt, loop, census)

    def _visit_stmt(self, stmt: ast.Stmt, loop: Optional[LoopInfo], census: OpCensus) -> None:
        if isinstance(stmt, ast.ForStmt):
            self._visit_for(stmt, loop)
        elif isinstance(stmt, ast.Block):
            self._visit_block(stmt, loop, census)
        elif isinstance(stmt, ast.IfStmt):
            self._count_expr(stmt.cond, loop, census)
            self._visit_block(stmt.then, loop, census)
            if stmt.otherwise is not None:
                self._visit_block(stmt.otherwise, loop, census)
        elif isinstance(stmt, ast.WhileStmt):
            self._count_expr(stmt.cond, loop, census)
            self._visit_block(stmt.body, loop, census)
        elif isinstance(stmt, ast.DeclStmt):
            if stmt.init is not None:
                self._count_expr(stmt.init, loop, census)
        elif isinstance(stmt, ast.AssignStmt):
            self._visit_assign(stmt, loop, census)
        elif isinstance(stmt, ast.ExprStmt):
            self._count_expr(stmt.expr, loop, census)
        elif isinstance(stmt, ast.ReturnStmt):
            if stmt.value is not None:
                self._count_expr(stmt.value, loop, census)

    def _visit_for(self, stmt: ast.ForStmt, parent: Optional[LoopInfo]) -> None:
        induction = self._induction_var(stmt)
        trip, static = self._trip_count(stmt, induction)
        info = LoopInfo(
            label=stmt.label,
            function=self._fn.name,
            induction_var=induction,
            trip_count=trip,
            is_static=static,
            depth=(parent.depth + 1) if parent else 0,
            line=stmt.line,
            parent=parent.label if parent else None,
        )
        for directive in stmt.pragmas:
            from ..frontend.pragmas import parse_pragma

            pragma = parse_pragma(directive.text)
            if pragma is not None:
                pragma.loop_label = stmt.label
                pragma.function = self._fn.name
                info.pragmas.append(pragma)
        self._result.loops[stmt.label] = info
        if parent is None:
            self._result.top_loops.append(info)
        else:
            parent.children.append(info)
        self._loop_var_stack.append(induction)
        self._visit_block(stmt.body, info, info.body_ops)
        self._detect_recurrences(info)
        self._loop_var_stack.pop()

    @staticmethod
    def _first_init(stmt: ast.ForStmt):
        """The loop-init statement (first declarator of a multi-decl)."""
        init = stmt.init
        if isinstance(init, ast.Block) and init.stmts:
            return init.stmts[0]
        return init

    def _induction_var(self, stmt: ast.ForStmt) -> str:
        init = self._first_init(stmt)
        if isinstance(init, ast.DeclStmt):
            return init.name
        if isinstance(init, ast.AssignStmt) and isinstance(init.target, ast.VarRef):
            return init.target.name
        if isinstance(stmt.step, ast.AssignStmt) and isinstance(stmt.step.target, ast.VarRef):
            return stmt.step.target.name
        raise SemanticError(f"{self._fn.name}/{stmt.label}: cannot identify induction variable")

    def _trip_count(self, stmt: ast.ForStmt, induction: str) -> Tuple[int, bool]:
        hint = self._trip_hints.get(f"{self._fn.name}/{stmt.label}") or self._trip_hints.get(
            stmt.label
        )
        start = stop = step = None
        init = self._first_init(stmt)
        if isinstance(init, ast.DeclStmt) and init.init is not None:
            start = _try_eval(init.init, self._bindings)
        elif isinstance(init, ast.AssignStmt):
            start = _try_eval(init.value, self._bindings)
        inclusive = False
        if isinstance(stmt.cond, ast.BinaryOp) and isinstance(stmt.cond.lhs, ast.VarRef):
            if stmt.cond.lhs.name == induction and stmt.cond.op in ("<", "<=", ">", ">="):
                stop = _try_eval(stmt.cond.rhs, self._bindings)
                inclusive = stmt.cond.op in ("<=", ">=")
        if isinstance(stmt.step, ast.AssignStmt) and stmt.step.op in ("+", "-"):
            step = _try_eval(stmt.step.value, self._bindings)
        if start is not None and stop is not None and step:
            span = abs(stop - start) + (1 if inclusive else 0)
            trips = max((span + abs(step) - 1) // abs(step), 0)
            return trips, True
        if hint is not None:
            return int(hint), False
        return DEFAULT_TRIP, False

    def _visit_assign(self, stmt: ast.AssignStmt, loop: Optional[LoopInfo], census: OpCensus) -> None:
        self._count_expr(stmt.value, loop, census)
        self._record_access(stmt.target, loop, is_write=True)
        target_type = infer_expr_type(stmt.target, self._table)
        if stmt.op:
            self._charge_op(stmt.op, target_type.is_float, census)
            self._record_reduction(stmt.target, target_type.is_float, loop)
        elif self._reads_target(stmt.value, stmt.target):
            reads = self._collect_reads(stmt.value, stmt.target)
            self._record_reduction(stmt.target, target_type.is_float, loop, reads=reads)

    @staticmethod
    def _collect_reads(value: ast.Expr, target: ast.Expr) -> List[ast.ArrayRef]:
        """Collect RHS references to the array named by ``target``."""
        name = target.name if isinstance(target, ast.VarRef) else getattr(target, "base", None)
        reads: List[ast.ArrayRef] = []
        if name is None:
            return reads
        stack: List[ast.Expr] = [value]
        while stack:
            node = stack.pop()
            if isinstance(node, ast.ArrayRef):
                if node.base == name:
                    reads.append(node)
                stack.extend(node.indices)
            elif isinstance(node, ast.UnaryOp):
                stack.append(node.operand)
            elif isinstance(node, ast.BinaryOp):
                stack.extend((node.lhs, node.rhs))
            elif isinstance(node, ast.TernaryOp):
                stack.extend((node.cond, node.then, node.otherwise))
            elif isinstance(node, ast.Call):
                stack.extend(node.args)
            elif isinstance(node, ast.Cast):
                stack.append(node.operand)
        return reads

    @staticmethod
    def _reads_target(value: ast.Expr, target: ast.Expr) -> bool:
        """True when ``value`` references the same variable/array as ``target``."""
        name = target.name if isinstance(target, ast.VarRef) else getattr(target, "base", None)
        if name is None:
            return False
        stack = [value]
        while stack:
            node = stack.pop()
            if isinstance(node, ast.VarRef) and node.name == name:
                return True
            if isinstance(node, ast.ArrayRef):
                if node.base == name:
                    return True
                stack.extend(node.indices)
            elif isinstance(node, ast.UnaryOp):
                stack.append(node.operand)
            elif isinstance(node, ast.BinaryOp):
                stack.extend((node.lhs, node.rhs))
            elif isinstance(node, ast.TernaryOp):
                stack.extend((node.cond, node.then, node.otherwise))
            elif isinstance(node, (ast.Call,)):
                stack.extend(node.args)
            elif isinstance(node, ast.Cast):
                stack.append(node.operand)
        return False

    def _record_reduction(
        self,
        target: ast.Expr,
        is_float: bool,
        loop: Optional[LoopInfo],
        reads: Optional[List[ast.ArrayRef]] = None,
    ) -> None:
        """Record a loop-carried dependence created by ``target <- f(target)``.

        ``reads`` holds the references to the target array appearing on
        the right-hand side (None for compound assignments, which always
        read the same element they write).  When a read addresses a
        *different* element than the write (e.g. nw's ``M[(i-1)*W + j]``
        feeding ``M[i*W + j]``), the dependence is a cross-iteration flow
        dependence carried by every enclosing loop (``free_vars = {}``),
        which serialises pipelining — matching real HLS behaviour on
        wavefront recurrences.
        """
        if loop is None:
            return
        if isinstance(target, ast.VarRef):
            free: frozenset = frozenset()
            name = target.name
        elif isinstance(target, ast.ArrayRef):
            name = target.base
            loop_vars = frozenset(self._loop_var_stack)
            write_affine = [
                _affine_coeffs(index, loop_vars, self._bindings) for index in target.indices
            ]
            if reads is not None and self._reads_other_element(reads, write_affine, loop_vars):
                free = frozenset()
            else:
                used = set()
                for affine in write_affine:
                    if affine is None:
                        used.update(loop_vars)  # conservative: no loop carries it
                    else:
                        used.update(k for k, v in affine[0].items() if v != 0)
                free = frozenset(used)
        else:
            return
        loop.reductions.append(Reduction(target=name, is_float=is_float, free_vars=free))

    def _detect_recurrences(self, loop: LoopInfo) -> None:
        """Detect cross-iteration array recurrences within one loop body.

        When the body both writes ``A[f(ivs)]`` and reads ``A[g(ivs)]``
        with ``f != g`` (shifted constants or different coefficients, as
        in nw's wavefront or an in-place stencil), a later iteration
        consumes an earlier iteration's store.  Such a dependence is
        carried by every enclosing loop, so we record a reduction with an
        empty free-variable set.  Statement-level RMW detection cannot
        see these because the value flows through scalar temporaries.
        """
        writes = [a for a in loop.accesses if a.is_write]
        reads = [a for a in loop.accesses if not a.is_write]
        flagged = set()
        for write in writes:
            if write.array in flagged:
                continue
            for read in reads:
                if read.array != write.array:
                    continue
                if write.is_irregular or read.is_irregular:
                    continue
                if len(read.dim_loops) != len(write.dim_loops):
                    continue
                same = read.dim_loops == write.dim_loops and read.dim_consts == write.dim_consts
                if not same:
                    array = self._result.arrays.get(write.array)
                    is_float = bool(array and array.is_float)
                    loop.reductions.append(
                        Reduction(target=write.array, is_float=is_float, free_vars=frozenset())
                    )
                    flagged.add(write.array)
                    break

    def _reads_other_element(
        self, reads: List[ast.ArrayRef], write_affine, loop_vars: frozenset
    ) -> bool:
        """True when any RHS read addresses a different element than the write."""
        for ref in reads:
            if len(ref.indices) != len(write_affine):
                return True
            for index, expected in zip(ref.indices, write_affine):
                actual = _affine_coeffs(index, loop_vars, self._bindings)
                if actual is None or expected is None:
                    if actual is not expected:
                        return True
                    continue
                if actual != expected:
                    return True
        return False

    def _record_access(self, expr: ast.Expr, loop: Optional[LoopInfo], is_write: bool) -> None:
        if loop is None or not isinstance(expr, ast.ArrayRef):
            return
        loop_vars = frozenset(self._loop_var_stack)
        dims = []
        consts = []
        for index in expr.indices:
            affine = _affine_coeffs(index, loop_vars, self._bindings)
            dims.append(affine[0] if affine is not None else None)
            consts.append(affine[1] if affine is not None else None)
        loop.accesses.append(
            ArrayAccess(
                array=expr.base,
                is_write=is_write,
                dim_loops=tuple(dims),
                dim_consts=tuple(consts),
            )
        )

    def _count_expr(self, expr: ast.Expr, loop: Optional[LoopInfo], census: OpCensus) -> None:
        if isinstance(expr, (ast.IntLiteral, ast.FloatLiteral)):
            return
        if isinstance(expr, ast.VarRef):
            return
        if isinstance(expr, ast.ArrayRef):
            self._record_access(expr, loop, is_write=False)
            for index in expr.indices:
                self._count_expr(index, loop, census)
            return
        if isinstance(expr, ast.UnaryOp):
            if expr.op == "-":
                is_float = infer_expr_type(expr.operand, self._table).is_float
                self._charge_op("-", is_float, census)
            elif expr.op in ("!", "~"):
                census.bitop += 1
            self._count_expr(expr.operand, loop, census)
            return
        if isinstance(expr, ast.BinaryOp):
            is_float = infer_expr_type(expr, self._table).is_float or (
                infer_expr_type(expr.lhs, self._table).is_float
                or infer_expr_type(expr.rhs, self._table).is_float
            )
            self._charge_op(expr.op, is_float, census)
            self._count_expr(expr.lhs, loop, census)
            self._count_expr(expr.rhs, loop, census)
            return
        if isinstance(expr, ast.TernaryOp):
            census.select += 1
            self._count_expr(expr.cond, loop, census)
            self._count_expr(expr.then, loop, census)
            self._count_expr(expr.otherwise, loop, census)
            return
        if isinstance(expr, ast.Cast):
            self._count_expr(expr.operand, loop, census)
            return
        if isinstance(expr, ast.Call):
            from ..frontend.semantic import INTRINSICS

            if expr.name in INTRINSICS:
                census.special += 1
            else:
                census.calls += 1
                census.callees.append(expr.name)
            for arg in expr.args:
                self._count_expr(arg, loop, census)
            return

    def _charge_op(self, op: str, is_float: bool, census: OpCensus) -> None:
        if op in ("+", "-"):
            if is_float:
                census.fadd += 1
            else:
                census.iadd += 1
        elif op == "*":
            if is_float:
                census.fmul += 1
            else:
                census.imul += 1
        elif op in ("/", "%"):
            if is_float:
                census.fdiv += 1
            else:
                census.idiv += 1
        elif op in ("<", ">", "<=", ">=", "==", "!=", "&&", "||"):
            census.cmp += 1
        elif op in ("<<", ">>"):
            census.shift += 1
        else:
            census.bitop += 1


def analyze_kernel(
    unit: ast.TranslationUnit,
    bindings: Optional[Dict[str, int]] = None,
    trip_hints: Optional[Dict[str, int]] = None,
) -> KernelAnalysis:
    """Analyse every function of a kernel translation unit.

    Parameters
    ----------
    unit:
        Parsed kernel.
    bindings:
        Known integer values for scalar parameters (problem sizes),
        used to resolve loop bounds such as ``for (i = 0; i < n; ...)``.
    trip_hints:
        Assumed trip counts for data-dependent loops, keyed by
        ``"function/Llabel"`` or bare ``"Llabel"``.
    """
    tables = analyze(unit)
    result = KernelAnalysis(top_function=unit.top.name)
    for fn in unit.functions:
        analyzer = _FunctionAnalyzer(fn, tables[fn.name], bindings or {}, trip_hints or {})
        result.functions[fn.name] = analyzer.run()
    result.pragmas = collect_pragmas(unit)
    return result
