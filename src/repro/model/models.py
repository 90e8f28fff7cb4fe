"""Predictive models: the GNN-DSE encoder + heads, and the MLP baselines.

Architecture (Fig. 4): stacked graph-conv layers with ELU activations →
Jumping Knowledge aggregation → graph-level readout → one MLP prediction
head per objective (multi-task) or one classification head.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..errors import ModelError
from ..nn.conv import GATConv, GCNConv, TransformerConv
from ..nn.data import Batch
from ..nn.jkn import JumpingKnowledge
from ..nn.module import MLP, Linear, Module
from ..nn.pooling import NodeAttentionPool, SumPool
from ..nn.tensor import Tensor, concat
from .config import ModelConfig
from .dataset import MAX_KNOBS

__all__ = ["GNNDSEModel", "PragmaMLPModel", "ContextMLPModel", "build_model"]


def _head_dims(hidden: int, mlp_layers: int, out: int) -> List[int]:
    """Prediction-head widths: ``mlp_layers`` Linear layers tapering to out."""
    dims = [hidden]
    width = hidden
    for _ in range(mlp_layers - 1):
        width = max(width // 2, 8)
        dims.append(width)
    dims.append(out)
    return dims


class _Heads(Module):
    """One MLP per regression objective, or one 2-way classifier."""

    def __init__(self, config: ModelConfig, in_dim: int, rng):
        super().__init__()
        self.task = config.task
        self.objectives = config.objectives
        if config.task == "classification":
            self.classifier = MLP(_head_dims(in_dim, config.mlp_layers, 2), rng=rng)
        else:
            heads = [
                MLP(_head_dims(in_dim, config.mlp_layers, 1), rng=rng)
                for _ in config.objectives
            ]
            self.heads = self.register_modules("heads", heads)

    def forward(self, embedding: Tensor) -> Tensor:
        if self.task == "classification":
            return self.classifier(embedding)
        return concat([head(embedding) for head in self.heads], axis=1)


class GNNDSEModel(Module):
    """The paper's predictive model (M3–M7 depending on config)."""

    def __init__(
        self,
        config: ModelConfig,
        node_dim: int,
        edge_dim: int,
        seed: int = 0,
    ):
        super().__init__()
        if config.kind != "gnn":
            raise ModelError(f"GNNDSEModel requires a gnn config, got {config.kind!r}")
        rng = np.random.default_rng(seed)
        self.config = config
        convs: List[Module] = []
        in_dim = node_dim
        for _ in range(config.num_layers):
            convs.append(self._make_conv(config, in_dim, edge_dim, rng))
            in_dim = config.hidden
        self.convs = self.register_modules("convs", convs)
        self.jkn = JumpingKnowledge(config.jkn_mode) if config.use_jkn else None
        if config.pooling == "attention":
            self.pool = NodeAttentionPool(config.hidden, rng=rng)
        elif config.pooling == "sum":
            self.pool = SumPool()
        else:
            raise ModelError(f"unknown pooling {config.pooling!r}")
        self.heads = _Heads(config, config.hidden, rng)

    @staticmethod
    def _make_conv(config: ModelConfig, in_dim: int, edge_dim: int, rng) -> Module:
        if config.conv == "gcn":
            return GCNConv(in_dim, config.hidden, rng=rng)
        if config.conv == "gat":
            return GATConv(in_dim, config.hidden, heads=config.heads, rng=rng)
        if config.conv == "transformer":
            return TransformerConv(
                in_dim,
                config.hidden,
                heads=config.heads,
                edge_dim=edge_dim if config.use_edge_attr else None,
                rng=rng,
            )
        raise ModelError(f"unknown conv {config.conv!r}")

    # -- forward pieces -----------------------------------------------------------

    def node_embeddings(self, batch: Batch) -> Tensor:
        """Final per-node embeddings (after JKN when enabled)."""
        x = Tensor(batch.x)
        layer_outputs: List[Tensor] = []
        for conv in self.convs:
            x = conv(x, batch).elu()
            layer_outputs.append(x)
        if self.jkn is not None:
            return self.jkn(layer_outputs)
        return layer_outputs[-1]

    def embed(self, batch: Batch) -> Tensor:
        """Graph-level embeddings (G, hidden)."""
        return self.pool(self.node_embeddings(batch), batch)

    def forward(self, batch: Batch) -> Tensor:
        return self.heads(self.embed(batch))

    def attention_scores(self, batch: Batch) -> np.ndarray:
        """Per-node readout attention (Fig. 5); uniform for sum pooling."""
        nodes = self.node_embeddings(batch)
        return self.pool.attention_scores(nodes, batch)


class PragmaMLPModel(Module):
    """M1: MLP over pragma settings only (re-implementation of [7])."""

    def __init__(self, config: ModelConfig, seed: int = 0, hidden: Optional[int] = None):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.config = config
        hidden = hidden or config.hidden
        self.backbone = MLP([2 * MAX_KNOBS, hidden, hidden], activation="elu", rng=rng)
        self.heads = _Heads(config, hidden, rng)

    def embed(self, batch: Batch) -> Tensor:
        return self.backbone(Tensor(batch.extra_matrix("pragma_vec"))).elu()

    def forward(self, batch: Batch) -> Tensor:
        return self.heads(self.embed(batch))


class ContextMLPModel(Module):
    """M2: MLP over pragma settings + summed initial node embeddings.

    Captures *what* the program contains (bag of node features) but not
    *how* it is wired — no message passing.
    """

    def __init__(self, config: ModelConfig, node_dim: int, seed: int = 0):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.config = config
        hidden = config.hidden
        self.node_mlp = MLP([node_dim, hidden, hidden], activation="elu", rng=rng)
        self.pragma_mlp = MLP([2 * MAX_KNOBS, hidden], activation="elu", rng=rng)
        self.merge = Linear(2 * hidden, hidden, rng=rng)
        self.heads = _Heads(config, hidden, rng)

    def embed(self, batch: Batch) -> Tensor:
        x = Tensor(batch.x)
        nodes = self.node_mlp(x).elu()
        context = nodes.segment_sum(batch.node_segments)
        pragmas = self.pragma_mlp(Tensor(batch.extra_matrix("pragma_vec"))).elu()
        return self.merge(concat([context, pragmas], axis=1)).elu()

    def forward(self, batch: Batch) -> Tensor:
        return self.heads(self.embed(batch))


def build_model(
    config: ModelConfig, node_dim: int, edge_dim: int, seed: int = 0
) -> Module:
    """Instantiate the model family named by ``config.kind``."""
    if config.kind == "gnn":
        return GNNDSEModel(config, node_dim, edge_dim, seed=seed)
    if config.kind == "mlp-pragma":
        return PragmaMLPModel(config, seed=seed)
    if config.kind == "mlp-context":
        return ContextMLPModel(config, node_dim, seed=seed)
    raise ModelError(f"unknown model kind {config.kind!r}")
