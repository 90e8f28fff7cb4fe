"""ProGraML-style program graphs extended with pragma nodes.

Implements the representation of Section 4.2: three original node kinds
(instruction, variable, constant) plus pragma nodes; four edge flows
(control, data, call, pragma) with position attributes.  Pragma nodes
attach to the ``icmp`` instruction of their loop; when several pragma
edges share that ``icmp``, their ``position`` numbers them (tile=0,
pipeline=1, parallel=2), exactly as the paper describes.

Graphs are built once per kernel: across the design points of one kernel
only pragma-node *attributes* change, which the feature encoder exploits
(:mod:`repro.graph.encoding`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..errors import GraphError
from ..frontend.pragmas import Pragma
from ..ir.function import Module
from ..ir.values import Constant, Instruction, Value

__all__ = ["GraphNode", "GraphEdge", "ProgramGraph", "build_program_graph"]

#: Node type codes (Section 4.2).
NTYPE_INSTRUCTION = 0
NTYPE_VARIABLE = 1
NTYPE_CONSTANT = 2
NTYPE_PRAGMA = 3

#: Edge flow codes (Section 4.2).
FLOW_CONTROL = 0
FLOW_DATA = 1
FLOW_CALL = 2
FLOW_PRAGMA = 3


@dataclass
class GraphNode:
    """One graph node with the attribute schema of Section 4.2."""

    id: int
    ntype: int
    key_text: str
    block: int = 0
    function: int = 0
    #: For pragma nodes: the originating Pragma knob.
    pragma: Optional[Pragma] = None
    #: For constant nodes: the literal value (trip counts live here).
    const_value: Optional[float] = None
    #: For icmp nodes guarding a loop: the loop's trip count.
    trip_count: Optional[int] = None

@dataclass
class GraphEdge:
    """One directed edge: (src, dst, flow, position)."""

    src: int
    dst: int
    flow: int
    position: int = 0


@dataclass
class ProgramGraph:
    """A whole-kernel program graph.

    Attributes
    ----------
    name:
        Kernel name.
    nodes, edges:
        The graph itself.
    pragma_nodes:
        Map from pragma knob name to its node id, used by the
        per-design-point feature fill.
    """

    name: str
    nodes: List[GraphNode] = field(default_factory=list)
    edges: List[GraphEdge] = field(default_factory=list)
    pragma_nodes: Dict[str, int] = field(default_factory=dict)

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def add_node(self, **kwargs) -> GraphNode:
        node = GraphNode(id=len(self.nodes), **kwargs)
        self.nodes.append(node)
        return node

    def add_edge(self, src: int, dst: int, flow: int, position: int = 0) -> GraphEdge:
        if not (0 <= src < len(self.nodes) and 0 <= dst < len(self.nodes)):
            raise GraphError(f"edge ({src}, {dst}) references missing nodes")
        edge = GraphEdge(src, dst, flow, position)
        self.edges.append(edge)
        return edge

    def to_networkx(self):
        """Export to a networkx MultiDiGraph (visualisation/debugging)."""
        import networkx as nx

        graph = nx.MultiDiGraph(name=self.name)
        for node in self.nodes:
            graph.add_node(
                node.id,
                type=node.ntype,
                key_text=node.key_text,
                block=node.block,
                function=node.function,
            )
        for edge in self.edges:
            graph.add_edge(edge.src, edge.dst, flow=edge.flow, position=edge.position)
        return graph

    def stats(self) -> Dict[str, int]:
        """Node/edge counts by kind (for tests and reports)."""
        out = {
            "nodes": self.num_nodes,
            "edges": self.num_edges,
            "instruction_nodes": sum(1 for n in self.nodes if n.ntype == NTYPE_INSTRUCTION),
            "variable_nodes": sum(1 for n in self.nodes if n.ntype == NTYPE_VARIABLE),
            "constant_nodes": sum(1 for n in self.nodes if n.ntype == NTYPE_CONSTANT),
            "pragma_nodes": sum(1 for n in self.nodes if n.ntype == NTYPE_PRAGMA),
        }
        for flow, label in ((FLOW_CONTROL, "control"), (FLOW_DATA, "data"), (FLOW_CALL, "call"), (FLOW_PRAGMA, "pragma")):
            out[f"{label}_edges"] = sum(1 for e in self.edges if e.flow == flow)
        return out


class _GraphBuilder:
    """Builds a ProgramGraph from an IR module plus the pragma list."""

    def __init__(self, module: Module, pragmas: List[Pragma], name: str, trip_counts=None):
        self._module = module
        self._pragmas = pragmas
        self._graph = ProgramGraph(name=name)
        self._value_node: Dict[int, int] = {}  # Value.uid -> variable/constant node id
        self._inst_node: Dict[int, int] = {}  # Instruction.uid -> instruction node id
        self._trip_counts = trip_counts or {}

    def build(self) -> ProgramGraph:
        function_entry: Dict[str, int] = {}
        function_rets: Dict[str, List[int]] = {}
        for fn_index, fn in enumerate(self._module.functions):
            self._build_function(fn, fn_index, function_entry, function_rets)
        self._wire_calls(function_entry, function_rets)
        self._attach_pragmas()
        return self._graph

    # -- per function -------------------------------------------------------

    def _build_function(self, fn, fn_index: int, entries: Dict[str, int], rets: Dict[str, List[int]]):
        graph = self._graph
        # Argument variable nodes.
        for arg in fn.args:
            node = graph.add_node(
                ntype=NTYPE_VARIABLE, key_text=str(arg.type), function=fn_index
            )
            self._value_node[arg.uid] = node.id

        # Instruction nodes, in block order.
        for block in fn.blocks:
            for inst in block.instructions:
                node = graph.add_node(
                    ntype=NTYPE_INSTRUCTION,
                    key_text=inst.key_text,
                    block=block.block_id,
                    function=fn_index,
                )
                self._inst_node[inst.uid] = node.id
                if inst.opcode == "icmp" and "loop" in inst.attrs:
                    key = f"{fn.name}/{inst.attrs['loop']}"
                    node.trip_count = self._trip_counts.get(key)

        entries[fn.name] = self._inst_node[fn.first_instruction().uid]
        rets[fn.name] = [
            self._inst_node[i.uid] for i in fn.instructions() if i.opcode == "ret"
        ]

        # Control edges: sequential within a block, then terminator->succ.
        for block in fn.blocks:
            insts = block.instructions
            for prev, nxt in zip(insts, insts[1:]):
                graph.add_edge(
                    self._inst_node[prev.uid], self._inst_node[nxt.uid], FLOW_CONTROL, 0
                )
            term = block.terminator
            if term is None:
                continue
            for position, succ in enumerate(block.successors()):
                if succ.instructions:
                    graph.add_edge(
                        self._inst_node[term.uid],
                        self._inst_node[succ.instructions[0].uid],
                        FLOW_CONTROL,
                        position,
                    )

        # Data edges through explicit value/constant nodes (ProGraML style):
        # producer instruction -> value node -> consumer instruction.
        for block in fn.blocks:
            for inst in block.instructions:
                self._wire_operands(inst, fn_index)

    def _value_node_id(self, value: Value, fn_index: int) -> int:
        node_id = self._value_node.get(value.uid)
        if node_id is not None:
            return node_id
        graph = self._graph
        if isinstance(value, Constant):
            node = graph.add_node(
                ntype=NTYPE_CONSTANT,
                key_text=value.key_text,
                function=fn_index,
                const_value=float(value.value),
            )
        elif isinstance(value, Instruction):
            # The SSA result of the instruction: a separate variable node
            # fed by the producing instruction.
            node = graph.add_node(
                ntype=NTYPE_VARIABLE,
                key_text=str(value.type),
                block=value.block.block_id if value.block else 0,
                function=fn_index,
            )
            graph.add_edge(self._inst_node[value.uid], node.id, FLOW_DATA, 0)
        else:
            node = graph.add_node(
                ntype=NTYPE_VARIABLE, key_text=str(value.type), function=fn_index
            )
        self._value_node[value.uid] = node.id
        return node.id

    def _wire_operands(self, inst: Instruction, fn_index: int) -> None:
        for position, operand in enumerate(inst.operands):
            src = self._value_node_id(operand, fn_index)
            self._graph.add_edge(src, self._inst_node[inst.uid], FLOW_DATA, position)

    # -- cross-function and pragma wiring ----------------------------------------

    def _wire_calls(self, entries: Dict[str, int], rets: Dict[str, List[int]]) -> None:
        for fn in self._module.functions:
            for inst in fn.instructions():
                if inst.opcode != "call":
                    continue
                callee = inst.attrs.get("callee", "")
                call_node = self._inst_node[inst.uid]
                if callee in entries:
                    self._graph.add_edge(call_node, entries[callee], FLOW_CALL, 0)
                    for position, ret_node in enumerate(rets.get(callee, ())):
                        self._graph.add_edge(ret_node, call_node, FLOW_CALL, position)

    def _attach_pragmas(self) -> None:
        for pragma in self._pragmas:
            fn = self._module.function(pragma.function)
            icmp = fn.loop_icmp.get(pragma.loop_label)
            if icmp is None:
                raise GraphError(
                    f"pragma {pragma.name} targets loop {pragma.loop_label} "
                    f"of {pragma.function}, but no loop compare was recorded"
                )
            fn_index = self._module.functions.index(fn)
            node = self._graph.add_node(
                ntype=NTYPE_PRAGMA,
                key_text=pragma.kind.keyword.upper(),
                block=icmp.block.block_id if icmp.block else 0,
                function=fn_index,
                pragma=pragma,
            )
            # position numbers same-type edges into the icmp: tile=0,
            # pipeline=1, parallel=2 (Section 4.2 table).
            position = pragma.kind.value
            self._graph.add_edge(node.id, self._inst_node[icmp.uid], FLOW_PRAGMA, position)
            self._graph.pragma_nodes[pragma.name] = node.id


def build_program_graph(
    module: Module,
    pragmas: List[Pragma],
    name: str = "",
    trip_counts: Optional[Dict[str, int]] = None,
) -> ProgramGraph:
    """Build the pragma-extended ProGraML graph of a lowered kernel.

    Parameters
    ----------
    module:
        Lowered IR (see :func:`repro.ir.lower_unit`).
    pragmas:
        Pragma knobs (see :func:`repro.frontend.collect_pragmas`); both
        tunable and fixed pragmas become nodes.
    name:
        Graph name (defaults to the module name).
    trip_counts:
        Optional ``{"fn/Llabel": trips}`` used to annotate loop ``icmp``
        nodes; the feature encoder exposes them to the model.
    """
    return _GraphBuilder(module, pragmas, name or module.name, trip_counts).build()
