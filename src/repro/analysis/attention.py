"""Node-attention inspection (Fig. 5).

Extracts the per-node readout attention of a trained M7 model for one
design point and summarises which node kinds dominate — the paper's
claim is that pragma nodes receive the highest attention, with loop
trip-count context (``icmp`` and its constant) also ranking high.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from ..designspace.space import DesignPoint
from ..graph.programl import NTYPE_CONSTANT, NTYPE_INSTRUCTION, NTYPE_PRAGMA, NTYPE_VARIABLE
from ..model.predictor import GNNDSEPredictor
from ..nn.data import Batch

__all__ = ["NodeAttention", "AttentionReport", "attention_report"]

_TYPE_NAMES = {
    NTYPE_INSTRUCTION: "instruction",
    NTYPE_VARIABLE: "variable",
    NTYPE_CONSTANT: "constant",
    NTYPE_PRAGMA: "pragma",
}


@dataclass
class NodeAttention:
    """Attention received by one node."""

    node_id: int
    score: float
    ntype: str
    key_text: str


@dataclass
class AttentionReport:
    """Fig. 5-style summary for one kernel design point."""

    kernel: str
    nodes: List[NodeAttention] = field(default_factory=list)

    def top(self, k: int = 10) -> List[NodeAttention]:
        return sorted(self.nodes, key=lambda n: n.score, reverse=True)[:k]

    def mean_score_by_type(self) -> Dict[str, float]:
        by_type: Dict[str, List[float]] = {}
        for node in self.nodes:
            by_type.setdefault(node.ntype, []).append(node.score)
        return {t: float(np.mean(v)) for t, v in by_type.items()}


def attention_report(
    predictor: GNNDSEPredictor, kernel: str, point: DesignPoint
) -> AttentionReport:
    """Compute readout attention of the regression model for one design.

    Requires the predictor's regression model to use attention pooling
    (model M7); sum-pooling models return uniform scores.
    """
    sample = predictor._sample(kernel, point)
    batch = Batch.from_graphs([sample])
    scores = predictor.regressor.attention_scores(batch)
    graph = predictor.builder.encoded_graph(kernel).graph
    report = AttentionReport(kernel=kernel)
    for node in graph.nodes:
        report.nodes.append(
            NodeAttention(
                node_id=node.id,
                score=float(scores[node.id]),
                ntype=_TYPE_NAMES.get(node.ntype, "?"),
                key_text=node.key_text,
            )
        )
    return report
