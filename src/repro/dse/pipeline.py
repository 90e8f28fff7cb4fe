"""Batched, cached evaluation pipeline: the DSE surrogate hot path.

The searchers in this package probe the GNN surrogate thousands of
times per run, so evaluation throughput — not model quality — bounds
how much of a design space one wall-clock budget can cover.  This
module turns the point-by-point reference path into a pipeline:

1. **Keyed encoding cache** — each kernel is lowered and encoded once
   (:class:`EncodingCache`); per candidate only the pragma-node feature
   cells (``len(pragma_rows) * 6`` floats) are rewritten inside a tiled
   batch template, instead of rebuilding the ProGraML graph and copying
   the full feature matrix per point.
2. **Compiled batched inference** — :class:`CompiledGNNEngine` lowers
   the transformer-conv GNN stack to flat numpy kernels over a fixed
   batch template (fused projections, CSR segment reductions, a
   self-loop split that keeps the reference summation order), replacing
   thousands of small autograd ``Tensor`` ops per point with a handful
   of large array operations per batch.  Only pragma rows differ
   between candidates, and each conv layer spreads a change one hop, so
   the template's receptive-field plan lists, per layer, the rows (and
   their in-edges) a candidate can change; every other row reuses base
   activations computed once per engine.  On gesummv the plan keeps
   6/15/25/49/89/117 of 131 rows across the six layers.
3. **Classifier-first cascade** — searches only consume regression
   objectives of *valid* candidates, so ``objectives_for="valid"``
   skips the two regression forwards for points the classifier rejects.
4. **Pipeline statistics** — :class:`PipelineStats` tracks points/sec,
   cache hits, batch counts and per-stage wall time; searchers thread
   it through :class:`~repro.dse.search.DSEResult` and the CLI prints
   it.

Results are bit-identical to the reference path: both materialize
predictions through
:func:`~repro.model.predictor.predictions_from_outputs`, which
canonicalizes every scalar through float32, and the compiled engine
mirrors the reference operation order exactly, with every BLAS product
shaped so its rows match the reference (the three rules in
:class:`CompiledGNNEngine`; see ``tests/test_pipeline.py``).
Predictors without the compiled-engine contract (duck-typed stubs,
non-transformer configs) transparently fall back to their own
``predict_batch``.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, fields
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from ..designspace.space import DesignPoint, point_key
from ..graph import EncodedGraph, encode_kernel
from ..graph.encoding import PRAGMA_FEATURE_SLICE
from ..kernels import get_kernel
from ..model.predictor import (
    DEFAULT_VALID_THRESHOLD,
    Prediction,
    predictions_from_outputs,
    scale_objectives_for_device,
)
from ..nn.conv import TransformerConv
from ..nn.pooling import NodeAttentionPool, SumPool
from ..nn.tensor import get_default_dtype, no_grad
from ..obs import counter, histogram, span

__all__ = [
    "CompiledGNNEngine",
    "EncodingCache",
    "EvaluationPipeline",
    "PipelineStats",
    "UnsupportedModelError",
]


class UnsupportedModelError(RuntimeError):
    """The compiled engine cannot lower this model architecture."""


# Process-wide observability instruments (see ``repro.obs``).  Counters
# are always on (one integer add behind a lock, a handful per *batch*,
# never per point); spans compile to a shared no-op unless tracing is
# enabled, so the PR 1 hot-path speedups are preserved.
_OBS_POINTS = counter("pipeline.points")
_OBS_BATCHES = counter("pipeline.batches")
_OBS_CACHE_HITS = counter("pipeline.cache_hits")
_OBS_CACHE_MISSES = counter("pipeline.cache_misses")
_OBS_BATCH_FILL = histogram("pipeline.batch_fill")


# ---------------------------------------------------------------------------
# statistics


@dataclass
class PipelineStats:
    """Counters and per-stage wall time for one pipeline (cumulative)."""

    points: int = 0  #: predictions returned to callers
    batches: int = 0  #: model forward batches executed
    model_points: int = 0  #: points actually pushed through a model
    cache_hits: int = 0
    cache_misses: int = 0
    cascade_skipped: int = 0  #: points whose regression forwards were skipped
    padded_slots: int = 0  #: always 0 since right-sized chunk templates; kept for schema stability
    encode_seconds: float = 0.0  #: template fill + pragma patching
    inference_seconds: float = 0.0  #: model forward passes
    materialize_seconds: float = 0.0  #: Prediction construction
    wall_seconds: float = 0.0
    engine: str = ""

    def points_per_second(self) -> float:
        return self.points / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def cache_hit_rate(self) -> float:
        seen = self.cache_hits + self.cache_misses
        return self.cache_hits / seen if seen else 0.0

    def __sub__(self, other: "PipelineStats") -> "PipelineStats":
        out = PipelineStats(engine=self.engine)
        for f in fields(self):
            if f.name == "engine":
                continue
            setattr(out, f.name, getattr(self, f.name) - getattr(other, f.name))
        return out

    def __add__(self, other: "PipelineStats") -> "PipelineStats":
        """Merge counters from another pipeline (parallel-DSE workers)."""
        out = PipelineStats(engine=self.engine or other.engine)
        for f in fields(self):
            if f.name == "engine":
                continue
            setattr(out, f.name, getattr(self, f.name) + getattr(other, f.name))
        return out

    def copy(self) -> "PipelineStats":
        return PipelineStats(**{f.name: getattr(self, f.name) for f in fields(self)})

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form, plus the derived rates (``/metrics``, ``dse --output``)."""
        out: Dict[str, object] = {f.name: getattr(self, f.name) for f in fields(self)}
        out["points_per_second"] = self.points_per_second()
        out["cache_hit_rate"] = self.cache_hit_rate()
        return out

    def summary(self) -> str:
        return (
            f"{self.points:,} pts in {self.wall_seconds:.2f}s "
            f"({self.points_per_second():,.0f} pts/s, {self.engine}) | "
            f"{self.batches} batches, cache {self.cache_hits}/{self.cache_hits + self.cache_misses} hit, "
            f"{self.cascade_skipped} regression-skipped | "
            f"encode {self.encode_seconds:.2f}s infer {self.inference_seconds:.2f}s "
            f"materialize {self.materialize_seconds:.2f}s"
        )


# ---------------------------------------------------------------------------
# batch template and receptive-field plan


class _LayerPlan:
    """One conv layer's share of a :class:`_Plan`, tiled over the copies.

    The layer reads ``n_in`` changed input rows per copy and writes
    ``n_out`` changed output rows (``rows``: a prefix of the plan order).
    Its projection tables hold the ``capacity * n_in`` recomputed rows,
    copy by copy, followed by the ``num_nodes`` base rows shared by every
    copy; ``q_idx``/``kv_idx``/``self_idx`` index those tables for each
    planned edge's destination, each planned edge's source, and each
    planned row.  ``csr`` sums planned edges into planned rows.
    """

    def __init__(self, plan: "_Plan", n_in: int, n_out: int):
        B = plan.capacity
        self.n_in, self.n_out = n_in, n_out
        self.rows = plan.order[:n_out]
        # In-edges of the planned rows, grouped by row in plan order and
        # kept in the dst-sorted (reference) order within each row.
        starts = plan.indptr[self.rows]
        degree = plan.indptr[self.rows + 1] - starts
        first = np.concatenate([[0], np.cumsum(degree)[:-1]])
        self.edges = np.repeat(starts - first, degree) + np.arange(degree.sum())
        src, dst = plan.src[self.edges], plan.dst[self.edges]
        copies = np.arange(B, dtype=np.int64)[:, None]

        def table(nodes):
            pos = plan.pos[nodes]
            return np.where(pos < n_in, copies * n_in + pos, B * n_in + nodes).ravel()

        self.q_idx = table(dst)
        self.kv_idx = table(src)
        self.self_idx = table(self.rows)
        self.dst_loc = (copies * n_out + plan.pos[dst]).ravel()
        counts = np.tile(degree, B)
        indptr = np.concatenate([[0], np.cumsum(counts)])
        self.seg_nonempty = counts > 0
        self.seg_starts = indptr[:-1][self.seg_nonempty]
        self.csr = sp.csr_matrix(
            (np.ones(indptr[-1], dtype=np.float32), np.arange(indptr[-1]), indptr),
            shape=(B * n_out, indptr[-1]),
        )


class _Plan:
    """The rows each conv layer can change when only ``seeds`` change.

    Output row ``i`` of a conv layer reads input row ``i`` (root and
    self-loop) and its in-neighbours, so the changed set grows by one
    out-hop per layer; every other row keeps its base activation.  Rows
    are ordered seeds first, then the rows each later layer adds, so each
    layer's changed set is a prefix of :attr:`order`.  Layers are planned
    on first use (:meth:`layer`).
    """

    def __init__(self, src, dst, num_nodes: int, seeds, capacity: int):
        self.src, self.dst = src, dst  # one copy's edges, stably dst-sorted
        self.num_nodes, self.capacity = num_nodes, capacity
        self.indptr = np.concatenate(
            [[0], np.cumsum(np.bincount(dst, minlength=num_nodes))]
        )
        seeds = np.unique(np.asarray(seeds, dtype=np.int64))
        if seeds.size < 2 <= num_nodes:
            # Rule 1: a one-row product takes BLAS's gemv path and differs
            # from the reference's N-row gemm; widen to two rows.
            spare = np.setdiff1d(np.arange(num_nodes), seeds)[: 2 - seeds.size]
            seeds = np.union1d(seeds, spare)
        self.seeds = self.order = seeds
        self.pos = np.full(num_nodes, num_nodes, dtype=np.int64)
        self.pos[seeds] = np.arange(seeds.size)
        self._layers: List[_LayerPlan] = []

    def layer(self, li: int) -> _LayerPlan:
        while len(self._layers) <= li:
            n_in = self.order.size
            changed = self.pos < n_in
            reached = np.unique(self.dst[changed[self.src]])
            new = reached[~changed[reached]]
            self.pos[new] = n_in + np.arange(new.size)
            self.order = np.concatenate([self.order, new])
            self._layers.append(_LayerPlan(self, n_in, self.order.size))
        return self._layers[li]


class _BatchTemplate:
    """Fixed-capacity batch of one kernel's graph, with its pruning plan.

    ``x`` holds every copy's node features; a candidate rewrites only its
    copy's pragma rows (:meth:`set_point`).  Real edges are sorted
    (stably) by destination; self-loops are *split out* and handled on
    row-aligned arrays.  Because the reference batch appends each node's
    self-loop after its real in-edges (with exactly-zero edge features),
    reducing the real edges first and folding the self contribution in
    afterwards reproduces the reference segment sums
    association-for-association.  ``plan`` seeds the receptive-field
    :class:`_Plan` with the pragma rows.
    """

    def __init__(self, enc: EncodedGraph, capacity: int, dtype):
        self.enc = enc
        self.capacity = capacity
        self.dtype = np.dtype(dtype)
        N = enc.num_nodes
        src, dst = enc.edge_index
        order = np.argsort(dst, kind="stable")
        self.src = src[order].astype(np.int64)
        self.dst = dst[order].astype(np.int64)
        self.num_nodes = N
        self.total_nodes = N * capacity
        node_indptr = np.arange(capacity + 1, dtype=np.int64) * N
        self.node_csr = sp.csr_matrix(
            (np.ones(self.total_nodes, dtype=np.float32),
             np.arange(self.total_nodes), node_indptr),
            shape=(capacity, self.total_nodes),
        )
        self.node_starts = node_indptr[:-1]
        self.graph_ids = np.repeat(np.arange(capacity, dtype=np.int64), N)
        self.x = np.tile(enc.x_base.astype(self.dtype), (capacity, 1))
        self.plan = _Plan(self.src, self.dst, N, enc.pragma_row_order, capacity)
        self.seed_rows = (self.plan.seeds[None, :] + node_indptr[:-1, None]).ravel()

    def set_point(self, slot: int, point: DesignPoint) -> None:
        """Write one candidate's pragma features into a template slot."""
        rows, values = self.enc.pragma_patch(point)
        self.x[slot * self.num_nodes + rows, PRAGMA_FEATURE_SLICE] = values


# ---------------------------------------------------------------------------
# compiled engine


def _mlp_weights(mlp, dtype) -> List[Tuple[np.ndarray, Optional[np.ndarray]]]:
    weights = []
    for layer in mlp.net.layers:
        if hasattr(layer, "weight"):
            weights.append((
                layer.weight.data.astype(dtype),
                None if layer.bias is None else layer.bias.data.astype(dtype),
            ))
        elif type(layer).__name__ not in ("ELU", "Dropout", "Identity"):
            raise UnsupportedModelError(
                f"compiled engine only lowers ELU MLPs, found {type(layer).__name__}"
            )
    return weights


def _run_mlp(weights, x: np.ndarray) -> np.ndarray:
    for i, (W, b) in enumerate(weights):
        x = x @ W
        if b is not None:
            x += b
        if i < len(weights) - 1:
            neg = np.exp(np.clip(x, -60.0, 0.0)) - 1.0
            np.copyto(neg, x, where=x > 0)
            x = neg
    return x


class _Workspace:
    """Reusable zero-initialised scratch buffers keyed by (tag, layer)."""

    def __init__(self):
        self._bufs: Dict[tuple, np.ndarray] = {}

    def get(self, key, shape, dtype) -> np.ndarray:
        buf = self._bufs.get(key)
        if buf is None or buf.shape != shape or buf.dtype != dtype:
            buf = np.zeros(shape, dtype=dtype)
            self._bufs[key] = buf
        return buf


class CompiledGNNEngine:
    """One GNN model lowered onto a :class:`_BatchTemplate`.

    Supports the paper's architecture family: a stack of
    :class:`~repro.nn.conv.TransformerConv` layers with ELU, optional
    jumping knowledge (``max``/``last``), attention or sum pooling, and
    MLP heads.  Anything else raises :class:`UnsupportedModelError` so
    the pipeline can fall back to the reference path.

    A design point changes only its pragma rows, and each conv layer
    spreads a change by one hop, so the forward recomputes at layer
    ``l`` only the rows of the template's :class:`_Plan` (the ``l``-hop
    out-neighbourhood of the pragma rows) and their in-edges.  Every
    other row keeps its *base* activation, which is the same in every
    copy and for every point.  The base arrays come from one run of the
    same conv code at capacity 1 with every row planned, on the neutral
    features: its projections become the shared base rows of the
    projection tables, and its layer outputs the unplanned rows of the
    jumping-knowledge and pooling input.

    Bit-identity with the eager per-point path rests on three rules
    about BLAS (OpenBLAS, measured):

    1. A gemm output row does not depend on the row count when the
       per-copy product has at least 2 rows; a 1-row product takes the
       gemv path and differs, so the plan widens a 1-row seed set to 2.
    2. Products with a single output column (the beta gate, the last
       layer of the pooling and head MLPs) do depend on the row count and
       on the row's position, so they run at the full per-copy shape.
    3. The segment max and the CSR sums reduce the same segments in the
       same order, whatever other segments are present.
    """

    def __init__(self, model, template: _BatchTemplate):
        self.template = template
        self.dtype = template.dtype
        self._ws = _Workspace()
        self._compile(model)
        self._fill_base()

    @staticmethod
    def supports(model) -> bool:
        convs = getattr(model, "convs", None)
        if not convs or not all(isinstance(c, TransformerConv) for c in convs):
            return False
        jkn = getattr(model, "jkn", None)
        if jkn is not None and jkn.mode not in ("max", "last"):
            return False
        pool = getattr(model, "pool", None)
        if not isinstance(pool, (NodeAttentionPool, SumPool)):
            return False
        heads = getattr(model, "heads", None)
        return heads is not None and getattr(heads, "task", None) in (
            "classification",
            "regression",
        )

    def _compile(self, model) -> None:
        if not self.supports(model):
            raise UnsupportedModelError(
                f"compiled engine cannot lower {type(model).__name__}"
            )
        dtype = self.dtype
        # Edge features in the exact shape the reference Batch lowers them:
        # real edges plus zero-feature self-loops, stably sorted by dst.
        # Projecting THIS matrix (and then selecting the real-edge rows,
        # which stay in the engine's sorted order) keeps every row
        # bit-identical to the per-point path — BLAS results can depend on
        # the row count of the gemm, so the input shape must match too.
        enc = self.template.enc
        N = enc.num_nodes
        E_real = enc.edge_index.shape[1]
        ref_dst = np.concatenate([enc.edge_index[1], np.arange(N, dtype=np.int64)])
        ref_order = np.argsort(ref_dst, kind="stable")
        eattr_ref = np.vstack(
            [enc.edge_attr, np.zeros((N, enc.edge_attr.shape[1]), dtype=np.float32)]
        )[ref_order].astype(dtype)
        real_rows = np.nonzero(ref_order < E_real)[0]
        layers = []
        for conv in model.convs:
            od = conv.out_dim
            edge_proj = (eattr_ref @ conv.lin_edge.weight.data.astype(dtype))[real_rows]
            Wb = conv.lin_beta.weight.data.astype(dtype)
            layers.append(dict(
                Wq=np.ascontiguousarray(conv.lin_query.weight.data.astype(dtype)),
                bq=conv.lin_query.bias.data.astype(dtype),
                Wkv=np.ascontiguousarray(
                    np.hstack([conv.lin_key.weight.data, conv.lin_value.weight.data])
                ).astype(dtype),
                bkv=np.hstack(
                    [conv.lin_key.bias.data, conv.lin_value.bias.data]
                ).astype(dtype),
                Wr=np.ascontiguousarray(conv.lin_root.weight.data.astype(dtype)),
                br=conv.lin_root.bias.data.astype(dtype),
                # lin_beta acts on concat([agg, root, agg - root]); keep the
                # single gemm over the concatenated input so the gate is
                # bit-identical to the reference at any dtype (splitting the
                # matrix re-associates the dot products and drifts by ulps).
                Wb=np.ascontiguousarray(Wb),
                bb=conv.lin_beta.bias.data.astype(dtype),
                edge_kv=np.hstack([edge_proj, edge_proj]),
                heads=conv.heads, head_dim=conv.head_dim, out=od,
            ))
        self._layers = layers
        self._jkn_mode = model.jkn.mode if model.jkn is not None else "last"
        pool = model.pool
        if isinstance(pool, NodeAttentionPool):
            self._pool = dict(
                kind="attention",
                score=_mlp_weights(pool.score_mlp, dtype),
                value=_mlp_weights(pool.value_mlp, dtype),
            )
        else:
            self._pool = dict(kind="sum")
        heads = model.heads
        if heads.task == "classification":
            self._heads = [_mlp_weights(heads.classifier, dtype)]
        else:
            self._heads = [_mlp_weights(h, dtype) for h in heads.heads]
        self._task = heads.task

    def _tables(self, plan: _Plan, base=None) -> List[Dict[str, np.ndarray]]:
        """Per-layer projection tables (recomputed rows, then base rows)
        and the planned edges' edge-feature projections."""
        tables = []
        for li, L in enumerate(self._layers):
            lp = plan.layer(li)
            head = plan.capacity * lp.n_in
            tab = {"ekv": L["edge_kv"][lp.edges]}
            for name, width in (("pq", L["out"]), ("pkv", 2 * L["out"]), ("pr", L["out"])):
                tab[name] = np.zeros((head + plan.num_nodes, width), self.dtype)
                if base is not None:
                    tab[name][head:] = base[li][name]
            tables.append(tab)
        return tables

    def _fill_base(self) -> None:
        """Base arrays from one all-rows forward of one copy (see class doc)."""
        tpl, plan, dt = self.template, self.template.plan, self.dtype
        N = tpl.num_nodes
        full = _Plan(tpl.src, tpl.dst, N, np.arange(N), capacity=1)
        tables = self._tables(full)
        outs = self._convs(full, tpl.enc.x_base.astype(dt)[None], tables, _Workspace())
        # An all-rows plan keeps node order, so its recomputed rows are
        # the base rows themselves.
        base = [{k: tab[k][:N] for k in ("pq", "pkv", "pr")} for tab in tables]
        self._tabs = self._tables(plan, base)
        rows = plan.layer(len(self._layers) - 1).rows
        if self._jkn_mode == "max":
            base_jk = np.maximum.reduce(outs)
            # Per planned row, the max over the layers that leave it unchanged.
            fixed = np.full((rows.size, base_jk.shape[1]), -np.inf, dtype=dt)
            for li, o in enumerate(outs):
                n = plan.layer(li).n_out
                np.maximum(fixed[n:], o[rows[n:]], out=fixed[n:])
            self._jk_fixed = fixed
        else:
            base_jk = outs[-1]
        self._jk = np.tile(base_jk, (tpl.capacity, 1))

    # -- forward ----------------------------------------------------------------

    @staticmethod
    def _proj(h: np.ndarray, W: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``h @ W + b`` computed one graph copy at a time.

        ``h`` is ``(copies, rows, features)``; the batched 3-D matmul runs
        one product per copy, so each has the per-copy shape the rules in
        the class docstring are stated for: at least 2 planned rows for
        the projections (rule 1), all of a copy's rows for the gate
        (rule 2).
        """
        np.matmul(h, W, out=out.reshape(h.shape[0], h.shape[1], W.shape[1]))
        out += b
        return out

    def _convs(self, plan: _Plan, h: np.ndarray, tables, ws: _Workspace) -> List[np.ndarray]:
        """The conv stack on the plan's rows.

        ``h`` holds each copy's seed-row features, ``(copies, seeds,
        features)``.  Returns each layer's output on its planned rows,
        ``(copies * n_out, out_dim)`` in plan order.
        """
        dt = self.dtype
        B, N = plan.capacity, plan.num_nodes
        outs = []
        for li, (L, tab) in enumerate(zip(self._layers, tables)):
            lp = plan.layer(li)
            H, D, od = L["heads"], L["head_dim"], L["out"]
            S, E = B * lp.n_out, B * lp.edges.size
            head = B * lp.n_in
            pq, pkv, pr = tab["pq"], tab["pkv"], tab["pr"]
            self._proj(h, L["Wq"], L["bq"], pq[:head])
            self._proj(h, L["Wkv"], L["bkv"], pkv[:head])
            self._proj(h, L["Wr"], L["br"], pr[:head])
            q = np.take(pq, lp.q_idx, axis=0, out=ws.get(("q", li), (E, od), dt), mode="clip")
            kv = np.take(
                pkv, lp.kv_idx, axis=0, out=ws.get(("kv", li), (E, 2 * od), dt), mode="clip"
            )
            kv.reshape(B, -1, 2 * od).__iadd__(tab["ekv"])
            k = kv[:, :od]
            v = kv[:, od:]
            # (q · k) per head via multiply + pairwise sum, matching the
            # reference ``(q * k).sum(axis=2)`` bit-for-bit (einsum uses a
            # different accumulation order and drifts by ulps at float32).
            prod = np.multiply(
                q.reshape(E, H, D), k.reshape(E, H, D),
                out=ws.get(("prod", li), (E, H, D), dt),
            )
            scores = prod.sum(axis=2, out=ws.get(("scores", li), (E, H), dt))
            scores *= 1.0 / np.sqrt(D)
            # Self-loop contributions on row-aligned arrays (self-loop edge
            # features are exactly zero, so k/v are the projections themselves).
            q_s, kv_s, root = (
                np.take(proj, lp.self_idx, axis=0, out=ws.get((name, li), (S, proj.shape[1]), dt),
                        mode="clip")
                for name, proj in (("q_s", pq), ("kv_s", pkv), ("root", pr))
            )
            prod_s = np.multiply(
                q_s.reshape(S, H, D), kv_s[:, :od].reshape(S, H, D),
                out=ws.get(("prod_s", li), (S, H, D), dt),
            )
            s_self = prod_s.sum(axis=2, out=ws.get(("s_self", li), (S, H), dt))
            s_self *= 1.0 / np.sqrt(D)
            m = ws.get(("m", li), (S, H), dt)
            m[:] = -np.inf
            m[lp.seg_nonempty] = np.maximum.reduceat(scores, lp.seg_starts, axis=0)
            np.maximum(m, s_self, out=m)
            scores -= m[lp.dst_loc]
            np.clip(scores, -60.0, 60.0, out=scores)
            np.exp(scores, out=scores)
            s_self -= m
            np.clip(s_self, -60.0, 60.0, out=s_self)
            np.exp(s_self, out=s_self)
            denom = lp.csr @ scores
            denom += s_self
            denom += 1e-16
            np.power(denom, -1.0, out=denom)
            scores *= denom[lp.dst_loc]
            s_self *= denom
            v.reshape(E, H, D).__imul__(scores.reshape(E, H, 1))
            agg = lp.csr @ v
            agg.reshape(S, H, D).__iadd__(
                s_self.reshape(S, H, 1) * kv_s[:, od:].reshape(S, H, D)
            )
            # Rule 2: the gate's single-column product runs over every row
            # of each copy; only the planned rows' inputs and outputs are
            # used (a gemv row reads no other row).
            gi_s = ws.get(("gi_s", li), (B, lp.n_out, 3 * od), dt)
            gi_s[..., :od] = agg.reshape(B, -1, od)
            gi_s[..., od:2 * od] = root.reshape(B, -1, od)
            np.subtract(gi_s[..., :od], gi_s[..., od:2 * od], out=gi_s[..., 2 * od:])
            gi = ws.get(("gi",), (B, N, 3 * od), dt)
            gi[:, lp.rows] = gi_s
            gate_all = self._proj(gi, L["Wb"], L["bb"], ws.get(("gate",), (B, N, 1), dt))
            gate = gate_all[:, lp.rows].reshape(S, 1)
            np.clip(gate, -60.0, 60.0, out=gate)
            np.negative(gate, out=gate)
            np.exp(gate, out=gate)
            gate += 1.0
            np.divide(1.0, gate, out=gate)
            out = ws.get(("out", li), (S, od), dt)
            np.multiply(root, gate, out=out)
            np.subtract(1.0, gate, out=gate)
            agg *= gate
            out += agg
            neg = ws.get(("neg", li), (S, od), dt)
            np.clip(out, -60.0, 0.0, out=neg)
            np.exp(neg, out=neg)
            neg -= 1.0
            np.copyto(neg, out, where=out > 0)
            h = neg.reshape(B, lp.n_out, od)
            outs.append(neg)
        return outs

    def forward(self) -> np.ndarray:
        """Run the compiled forward over the template's current features."""
        tpl, ws, dt = self.template, self._ws, self.dtype
        plan = tpl.plan
        B, N, NT = tpl.capacity, tpl.num_nodes, tpl.total_nodes
        x = tpl.x[tpl.seed_rows].reshape(B, plan.seeds.size, tpl.x.shape[1])
        outs = self._convs(plan, x, self._tabs, ws)
        last = plan.layer(len(self._layers) - 1)
        if self._jkn_mode == "max":
            rows = ws.get(("jk_rows",), (B,) + self._jk_fixed.shape, dt)
            rows[:] = self._jk_fixed
            for li, o in enumerate(outs):
                n = plan.layer(li).n_out
                np.maximum(rows[:, :n], o.reshape(B, n, -1), out=rows[:, :n])
        else:
            rows = outs[-1].reshape(B, last.n_out, -1)
        jk3 = self._jk.reshape(B, N, -1)
        jk3[:, last.rows] = rows
        if self._pool["kind"] == "attention":
            s = _run_mlp(self._pool["score"], jk3).reshape(NT, -1)
            m = np.maximum.reduceat(s, tpl.node_starts, axis=0)
            s -= m[tpl.graph_ids]
            np.clip(s, -60.0, 60.0, out=s)
            np.exp(s, out=s)
            denom = tpl.node_csr @ s
            denom += 1e-16
            np.power(denom, -1.0, out=denom)
            s *= denom[tpl.graph_ids]
            vals = _run_mlp(self._pool["value"], jk3).reshape(NT, -1)
            vals *= s
            pooled = tpl.node_csr @ vals
        else:
            pooled = tpl.node_csr @ self._jk
        pooled3 = pooled.reshape(B, 1, pooled.shape[1])
        cols = [_run_mlp(w, pooled3).reshape(B, -1) for w in self._heads]
        return cols[0] if self._task == "classification" else np.concatenate(cols, axis=1)


# ---------------------------------------------------------------------------
# encoding cache


class EncodingCache:
    """Kernel name -> :class:`EncodedGraph`, lowered and encoded once.

    Resolution order: the predictor's dataset builder (which shares its
    cache with training) when available, otherwise a direct front-end
    -> IR -> graph -> features run, memoised here.
    """

    def __init__(self, builder=None):
        self._builder = builder
        self._encoded: Dict[tuple, EncodedGraph] = {}
        # Serving hits this cache from many request threads at once; the
        # lock makes the encode-once guarantee hold under concurrency.
        self._lock = threading.Lock()

    def get(self, kernel: str, device=None) -> EncodedGraph:
        key = (kernel, getattr(device, "name", None))
        with self._lock:
            enc = self._encoded.get(key)
            if enc is None:
                if self._builder is not None:
                    # Duck-typed stub builders may predate the device
                    # parameter; only pass it when it matters.
                    if device is None:
                        enc = self._builder.encoded_graph(kernel)
                    else:
                        enc = self._builder.encoded_graph(kernel, device=device)
                else:
                    enc = encode_kernel(get_kernel(kernel), device=device)
                self._encoded[key] = enc
            return enc


# ---------------------------------------------------------------------------
# the pipeline


class EvaluationPipeline:
    """Batched + cached surrogate evaluation with a reference fallback.

    Parameters
    ----------
    predictor:
        Anything exposing ``predict_batch(kernel, points,
        valid_threshold)``.  When it looks like a full
        :class:`~repro.model.predictor.GNNDSEPredictor` (classifier +
        regressors + normalizer) whose models the
        :class:`CompiledGNNEngine` can lower, inference runs compiled;
        otherwise every batch is delegated to the predictor itself.
    batch_size:
        Template capacity: candidates evaluated per compiled forward.
    engine:
        ``"auto"`` (default: compiled if the models can be lowered,
        else reference), ``"compiled"`` (raise if unsupported), or
        ``"reference"`` (never compile).
    cache:
        Memoise per-point raw model outputs keyed by
        :func:`~repro.designspace.space.point_key`, so re-probed points
        (annealer re-visits, multi-explorer sweeps) skip inference.
    """

    def __init__(
        self,
        predictor,
        batch_size: int = 24,
        engine: str = "auto",
        cache: bool = True,
    ):
        if engine not in ("auto", "compiled", "reference"):
            raise ValueError(f"unknown engine mode {engine!r}")
        self.predictor = predictor
        self.batch_size = max(int(batch_size), 1)
        self.engine_mode = engine
        self.cache_enabled = cache
        self.stats = PipelineStats()
        self.encodings = EncodingCache(getattr(predictor, "builder", None))
        # Device the predictor is bound to (None = reference device):
        # conditions the encoded graphs, keys the compiled templates,
        # and rescales predicted utilizations onto the target's
        # capacities — matching predictor.predict_batch exactly.
        self._device = getattr(predictor, "device", None)
        self._device_name = getattr(self._device, "name", None)
        self._point_cache: Dict[str, Dict] = {}
        self._compiled: Dict[tuple, Dict[str, object]] = {}
        self._compile_failed = False
        # One evaluation at a time: the compiled engines share workspace
        # buffers and batch templates, and the point caches are plain
        # dicts — neither survives concurrent mutation.  The serving
        # layer gets its
        # concurrency from micro-batching, not parallel forwards, so a
        # coarse reentrant lock keeps multi-threaded callers bit-exact.
        self._lock = threading.RLock()

    # -- engine management ------------------------------------------------------

    def _predictor_models(self) -> Optional[Dict[str, object]]:
        p = self.predictor
        for attr in ("classifier", "regressor", "bram_regressor", "normalizer"):
            if not hasattr(p, attr):
                return None
        return {
            "classifier": p.classifier,
            "regressor": p.regressor,
            "bram_regressor": p.bram_regressor,
        }

    def _supports_compiled(self) -> bool:
        """Can (and may) this predictor run on the compiled engine?"""
        if self.engine_mode == "reference" or self._compile_failed:
            return False
        models = self._predictor_models()
        if models is None or not all(
            CompiledGNNEngine.supports(m) for m in models.values()
        ):
            if self.engine_mode == "compiled":
                raise UnsupportedModelError(
                    "engine='compiled' but the predictor's models cannot be lowered"
                )
            self._compile_failed = True
            return False
        return True

    def _engines(self, kernel: str, capacity: int) -> Dict[str, object]:
        """Compiled engines + template for one kernel at one capacity.

        Templates are compiled per exact capacity (memoised), so partial
        batches — the final chunk of a sweep, or a micro-batcher flush
        under light load — run a right-sized forward instead of padding
        up to ``batch_size`` and paying for dead slots.  The engine is
        bit-identical at every capacity (per-copy gemms keep per-point
        shapes), so chunk sizing never changes results.
        """
        models = self._predictor_models()
        # Compile at the dtype the reference forward actually computes
        # in: float32 graph features promoted by the parameter dtype.
        # ``load_state_dict`` keeps each parameter's own dtype, so
        # float64 weights come only from a float64 artifact or a
        # float64 engine default; the promotion is exact, so matching
        # it keeps the compiled path bit-identical.
        dtype = np.dtype(get_default_dtype())
        for model in models.values():
            for param in model.parameters():
                dtype = np.promote_types(dtype, param.data.dtype)
        key = (kernel, self._device_name, dtype.str, capacity)
        entry = self._compiled.get(key)
        if entry is not None:
            return entry
        for model in models.values():
            model.eval()
        template = _BatchTemplate(self.encodings.get(kernel, self._device), capacity, dtype)
        entry = {
            "template": template,
            "engines": {
                name: CompiledGNNEngine(model, template)
                for name, model in models.items()
            },
        }
        self._compiled[key] = entry
        return entry

    # -- cache ------------------------------------------------------------------

    def _kernel_cache(self, kernel: str) -> Dict:
        cache = self._point_cache.get(kernel)
        if cache is None:
            cache = self._point_cache[kernel] = {}
        return cache

    def clear_cache(self) -> None:
        with self._lock:
            self._point_cache.clear()

    def reset_stats(self) -> PipelineStats:
        """Return the cumulative stats and start a fresh window."""
        with self._lock:
            stats, self.stats = self.stats, PipelineStats(engine=self.stats.engine)
            return stats

    def stats_snapshot(self) -> PipelineStats:
        """Point-in-time copy of the cumulative stats (thread-safe)."""
        with self._lock:
            return self.stats.copy()

    # -- evaluation -------------------------------------------------------------

    def predict(
        self,
        kernel: str,
        point: DesignPoint,
        valid_threshold: float = DEFAULT_VALID_THRESHOLD,
    ) -> Prediction:
        return self.predict_batch(kernel, [point], valid_threshold)[0]

    def predict_batch(
        self,
        kernel: str,
        points: Sequence[DesignPoint],
        valid_threshold: float = DEFAULT_VALID_THRESHOLD,
        objectives_for: str = "all",
    ) -> List[Prediction]:
        """Evaluate many candidates; order-preserving, bit-identical.

        ``objectives_for="valid"`` runs the validity classifier on every
        point but the regression models only on points at or above the
        threshold; rejected points come back with ``objectives=None``.
        """
        if objectives_for not in ("all", "valid"):
            raise ValueError(f"unknown objectives_for {objectives_for!r}")
        if not points:
            return []
        with self._lock:
            t_wall = time.perf_counter()
            hits0, misses0 = self.stats.cache_hits, self.stats.cache_misses
            batches0 = self.stats.batches
            with span(
                "pipeline.predict_batch", kernel=kernel, points=len(points)
            ) as sp:
                if self._supports_compiled():
                    out = self._compiled_batch(
                        kernel, points, valid_threshold, objectives_for
                    )
                else:
                    out = self._reference_batch(kernel, points, valid_threshold)
                sp.set(engine=self.stats.engine)
            self.stats.points += len(points)
            self.stats.wall_seconds += time.perf_counter() - t_wall
            _OBS_POINTS.inc(len(points))
            _OBS_BATCHES.inc(self.stats.batches - batches0)
            _OBS_CACHE_HITS.inc(self.stats.cache_hits - hits0)
            _OBS_CACHE_MISSES.inc(self.stats.cache_misses - misses0)
            return out

    def predict_cached(
        self,
        kernel: str,
        points: Sequence[DesignPoint],
        valid_threshold: float = DEFAULT_VALID_THRESHOLD,
        objectives_for: str = "all",
    ) -> Optional[List[Prediction]]:
        """:meth:`predict_batch` when no point needs a forward, else None.

        Answers only when every point already has a complete cache
        record (classifier logits and regression outputs), so the call
        never runs the model.  It never waits either: when another
        thread holds the pipeline it returns None at once, and the
        caller takes its usual (batched) path.
        """
        if not self.cache_enabled or not points:
            return None
        if not self._lock.acquire(blocking=False):
            return None
        try:
            cache = self._point_cache.get(kernel)
            if cache is None:
                return None
            for point in points:
                key = point_key(point)
                record = cache.get(key)
                complete = (
                    record is not None and "logits" in record and "reg" in record
                ) or (key, valid_threshold) in cache  # reference-engine entry
                if not complete:
                    return None
            return self.predict_batch(kernel, points, valid_threshold, objectives_for)
        finally:
            self._lock.release()

    # -- reference path ---------------------------------------------------------

    def _reference_batch(self, kernel, points, valid_threshold) -> List[Prediction]:
        self.stats.engine = "reference"
        cache = self._kernel_cache(kernel) if self.cache_enabled else {}
        keys = [point_key(p) for p in points]
        missing: List[int] = []
        seen_in_call: Dict[str, int] = {}
        for i, key in enumerate(keys):
            if (key, valid_threshold) in cache or key in seen_in_call:
                self.stats.cache_hits += 1
            else:
                seen_in_call[key] = i
                missing.append(i)
                self.stats.cache_misses += 1
        t0 = time.perf_counter()
        fresh: Dict[str, Prediction] = {}
        # Misses are evaluated one point per call: BLAS results can shift
        # by ulps with the gemm row count, so multi-graph reference
        # batches would not be bit-identical to the point-by-point path.
        # The reference engine is the correctness fallback — its speedup
        # comes from the cache, not from batching.
        for i in missing:
            fresh[keys[i]] = self.predictor.predict_batch(
                kernel, [points[i]], valid_threshold
            )[0]
            self.stats.batches += 1
            self.stats.model_points += 1
        self.stats.inference_seconds += time.perf_counter() - t0
        for key, pred in fresh.items():
            if self.cache_enabled:
                cache[(key, valid_threshold)] = pred
        if self.cache_enabled:
            return [cache[(key, valid_threshold)] for key in keys]
        return [fresh[key] for key in keys]

    # -- compiled path ----------------------------------------------------------

    def _forward_chunks(
        self,
        kernel: str,
        points: Sequence[DesignPoint],
        engine_names: Sequence[str],
    ) -> Dict[str, np.ndarray]:
        """Run selected engines over ``points`` in right-sized chunks.

        Chunks are at most ``batch_size`` points; a partial chunk (the
        tail of a sweep, or a lightly-filled micro-batch from the
        server) gets a template compiled at its exact size, so no
        forward pays for padded slots.
        """
        outputs: Dict[str, List[np.ndarray]] = {name: [] for name in engine_names}
        with no_grad():
            for start in range(0, len(points), self.batch_size):
                chunk = points[start:start + self.batch_size]
                entry = self._engines(kernel, len(chunk))
                template = entry["template"]
                engines = entry["engines"]
                with span(
                    "pipeline.forward", kernel=kernel, chunk=len(chunk),
                    engines=",".join(engine_names),
                ):
                    t0 = time.perf_counter()
                    for slot, point in enumerate(chunk):
                        template.set_point(slot, point)
                    self.stats.encode_seconds += time.perf_counter() - t0
                    t0 = time.perf_counter()
                    for name in engine_names:
                        result = engines[name].forward()
                        outputs[name].append(result[: len(chunk)].copy())
                    self.stats.inference_seconds += time.perf_counter() - t0
                self.stats.batches += 1
                self.stats.model_points += len(chunk)
                _OBS_BATCH_FILL.observe(len(chunk))
        return {name: np.concatenate(chunks, axis=0) for name, chunks in outputs.items()}

    def _compiled_batch(
        self, kernel, points, valid_threshold, objectives_for
    ) -> List[Prediction]:
        self.stats.engine = "compiled"
        cache = self._kernel_cache(kernel) if self.cache_enabled else {}
        keys = [point_key(p) for p in points]
        records: List[Dict] = []
        for key in keys:
            record = cache.get(key)
            if record is None:
                record = {}
                if self.cache_enabled:
                    cache[key] = record
            records.append(record)
        # Deduplicate within the call: identical keys share one record dict.
        by_key: Dict[str, Dict] = {}
        for key, record in zip(keys, records):
            by_key.setdefault(key, record)
        records = [by_key[key] for key in keys]

        # Stage 1: validity classifier for every point not yet classified.
        need_cls: List[int] = []
        fresh_cls = set()
        for i, record in enumerate(records):
            if "logits" in record:
                self.stats.cache_hits += 1
            elif id(record) in fresh_cls:
                self.stats.cache_hits += 1
            else:
                need_cls.append(i)
                fresh_cls.add(id(record))
                self.stats.cache_misses += 1
        if need_cls:
            cls_out = self._forward_chunks(
                kernel, [points[i] for i in need_cls], ["classifier"]
            )["classifier"]
            for row, i in enumerate(need_cls):
                records[i]["logits"] = cls_out[row]

        logits = np.stack([record["logits"] for record in records])
        exp = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs = exp[:, 1] / exp.sum(axis=1)

        # Stage 2: regression for points that need objectives.
        if objectives_for == "all":
            wants_reg = [True] * len(points)
        else:
            wants_reg = [bool(probs[i] >= valid_threshold) for i in range(len(points))]
            self.stats.cascade_skipped += sum(1 for w in wants_reg if not w)
        need_reg: List[int] = []
        fresh_reg = set()
        for i, record in enumerate(records):
            if wants_reg[i] and "reg" not in record and id(record) not in fresh_reg:
                need_reg.append(i)
                fresh_reg.add(id(record))
        if need_reg:
            reg_out = self._forward_chunks(
                kernel,
                [points[i] for i in need_reg],
                ["regressor", "bram_regressor"],
            )
            for row, i in enumerate(need_reg):
                records[i]["reg"] = reg_out["regressor"][row]
                records[i]["bram"] = reg_out["bram_regressor"][row]

        # Materialize through the shared reference helper.
        t0 = time.perf_counter()
        mask = [wants_reg[i] and "reg" in records[i] for i in range(len(points))]
        reg_dim = None
        for record in records:
            if "reg" in record:
                reg_dim = record["reg"].shape[0]
                break
        if reg_dim is None:
            reg = bram = None
        else:
            reg = np.zeros((len(points), reg_dim), dtype=logits.dtype)
            bram = np.zeros((len(points), 1), dtype=logits.dtype)
            for i, record in enumerate(records):
                if mask[i]:
                    reg[i] = record["reg"]
                    bram[i] = record["bram"]
        out = predictions_from_outputs(
            logits,
            reg,
            bram,
            self.predictor.normalizer,
            valid_threshold,
            objectives_mask=mask if reg is not None else None,
        )
        out = scale_objectives_for_device(out, self._device)
        self.stats.materialize_seconds += time.perf_counter() - t0
        return out
