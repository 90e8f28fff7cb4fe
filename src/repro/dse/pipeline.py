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
   of large array operations per batch.
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
mirrors the reference operation order exactly (see
``tests/test_pipeline.py``).  Predictors without the compiled-engine
contract (duck-typed stubs, non-transformer configs) transparently fall
back to their own ``predict_batch``.
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
from ..nn.lazy.equiv import EngineEquivalenceError, predictions_equivalent
from ..nn.pooling import NodeAttentionPool, SumPool
from ..nn.tensor import get_default_dtype, no_grad
from ..obs import counter, histogram, span
from .fused import FusedGNNEngine, _FusedTemplate, forward_all as fused_forward_all

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
# batch template: one kernel's graph tiled ``capacity`` times


class _BatchTemplate:
    """Fixed-capacity batched graph structure for one kernel.

    Real edges are sorted (stably) by destination and tiled per graph
    copy; self-loops are *split out* and handled on node-aligned arrays.
    Because the reference batch appends each node's self-loop after its
    real in-edges (with exactly-zero edge features), reducing the real
    edges first and folding the self contribution in afterwards
    reproduces the reference segment sums association-for-association.
    """

    def __init__(self, enc: EncodedGraph, capacity: int, dtype):
        self.enc = enc
        self.capacity = capacity
        self.dtype = np.dtype(dtype)
        N = enc.num_nodes
        src, dst = enc.edge_index
        order = np.argsort(dst, kind="stable")
        self.eattr_sorted = enc.edge_attr[order]
        src_sorted = src[order].astype(np.int64)
        dst_sorted = dst[order].astype(np.int64)
        offsets = (np.arange(capacity, dtype=np.int64) * N)[:, None]
        self.src = (src_sorted[None, :] + offsets).ravel()
        self.dst = (dst_sorted[None, :] + offsets).ravel()
        self.num_nodes = N
        self.total_nodes = N * capacity
        self.total_edges = src_sorted.shape[0] * capacity
        counts = np.tile(np.bincount(dst_sorted, minlength=N), capacity)
        indptr = np.concatenate([[0], np.cumsum(counts)])
        self.seg_starts = indptr[:-1]
        self.seg_nonempty = counts > 0
        ones = np.ones(self.total_edges, dtype=np.float32)
        self.edge_csr = sp.csr_matrix(
            (ones, np.arange(self.total_edges), indptr),
            shape=(self.total_nodes, self.total_edges),
        )
        node_indptr = np.arange(capacity + 1, dtype=np.int64) * N
        self.node_csr = sp.csr_matrix(
            (np.ones(self.total_nodes, dtype=np.float32),
             np.arange(self.total_nodes), node_indptr),
            shape=(capacity, self.total_nodes),
        )
        self.node_starts = node_indptr[:-1]
        self.graph_ids = np.repeat(np.arange(capacity, dtype=np.int64), N)
        self.x = np.tile(enc.x_base.astype(self.dtype), (capacity, 1))
        self.pragma_rows = enc.pragma_row_order
        self.all_pragma_rows = (self.pragma_rows[None, :] + offsets).ravel()

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
    """Reusable scratch buffers keyed by (tag, layer)."""

    def __init__(self):
        self._bufs: Dict[tuple, np.ndarray] = {}

    def get(self, key, shape, dtype) -> np.ndarray:
        buf = self._bufs.get(key)
        if buf is None or buf.shape != shape or buf.dtype != dtype:
            buf = np.empty(shape, dtype=dtype)
            self._bufs[key] = buf
        return buf


class CompiledGNNEngine:
    """One GNN model lowered onto a :class:`_BatchTemplate`.

    Supports the paper's architecture family: a stack of
    :class:`~repro.nn.conv.TransformerConv` layers with ELU, optional
    jumping knowledge (``max``/``last``), attention or sum pooling, and
    MLP heads.  Anything else raises :class:`UnsupportedModelError` so
    the pipeline can fall back to the reference path.
    """

    def __init__(self, model, template: _BatchTemplate):
        self.template = template
        self.dtype = template.dtype
        self._ws = _Workspace()
        self.trace = None  # set to a list to record per-layer node embeddings
        self._compile(model)

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
        tpl = self.template
        # Edge features in the exact shape the reference Batch lowers them:
        # real edges plus zero-feature self-loops, stably sorted by dst.
        # Projecting THIS matrix (and then selecting the real-edge rows,
        # which stay in the engine's sorted order) keeps every row
        # bit-identical to the per-point path — BLAS results can depend on
        # the row count of the gemm, so the input shape must match too.
        enc = tpl.enc
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
                edge_kv=np.tile(
                    np.ascontiguousarray(np.hstack([edge_proj, edge_proj])),
                    (tpl.capacity, 1),
                ),
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
        # Layer-1 projections of the tiled base features: only pragma rows
        # change between candidates, so everything else is precomputed.
        L = layers[0]
        xb = tpl.enc.x_base.astype(dtype)
        self._l1_base = [
            np.tile(xb @ L["Wq"] + L["bq"], (tpl.capacity, 1)),
            np.tile(xb @ L["Wkv"] + L["bkv"], (tpl.capacity, 1)),
            np.tile(xb @ L["Wr"] + L["br"], (tpl.capacity, 1)),
        ]

    # -- forward ----------------------------------------------------------------

    def _proj(self, h: np.ndarray, W: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``h @ W + b`` computed one graph copy at a time.

        BLAS gemm results can differ by ulps depending on the row count,
        so a single tall gemm over all tiled copies would not be
        bit-identical to the per-point reference.  A batched 3-D matmul
        runs one gemm per graph copy with exactly the per-point shape.
        """
        B = self.template.capacity
        np.matmul(h.reshape(B, -1, h.shape[1]), W, out=out.reshape(B, -1, W.shape[1]))
        out += b
        return out

    def forward(self) -> np.ndarray:
        """Run the compiled forward over the template's current features."""
        tpl, ws, dt = self.template, self._ws, self.dtype
        src, dst = tpl.src, tpl.dst
        NT, E = tpl.total_nodes, tpl.total_edges
        B = tpl.capacity
        rows = tpl.all_pragma_rows
        P = tpl.pragma_rows.shape[0]
        L1 = self._layers[0]
        xr = tpl.x[rows]
        pq1, pkv1, pr1 = self._l1_base
        pq1[rows] = self._proj(xr, L1["Wq"], L1["bq"], np.empty((B * P, L1["out"]), dt))
        pkv1[rows] = self._proj(xr, L1["Wkv"], L1["bkv"], np.empty((B * P, 2 * L1["out"]), dt))
        pr1[rows] = self._proj(xr, L1["Wr"], L1["br"], np.empty((B * P, L1["out"]), dt))
        outs = []
        h = tpl.x
        for li, L in enumerate(self._layers):
            H, D, od = L["heads"], L["head_dim"], L["out"]
            if li == 0:
                pq, pkv, root = pq1, pkv1, pr1
            else:
                pq = self._proj(h, L["Wq"], L["bq"], ws.get(("pq", li), (NT, od), dt))
                pkv = self._proj(h, L["Wkv"], L["bkv"], ws.get(("pkv", li), (NT, 2 * od), dt))
                root = self._proj(h, L["Wr"], L["br"], ws.get(("pr", li), (NT, od), dt))
            q = np.take(pq, dst, axis=0, out=ws.get(("q", li), (E, od), dt), mode="clip")
            kv = np.take(pkv, src, axis=0, out=ws.get(("kv", li), (E, 2 * od), dt), mode="clip")
            kv += L["edge_kv"]
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
            # Self-loop contributions on node-aligned arrays (self-loop edge
            # features are exactly zero, so k/v are the projections themselves).
            k_self = pkv[:, :od]
            v_self = pkv[:, od:]
            prod_s = np.multiply(
                pq.reshape(NT, H, D), k_self.reshape(NT, H, D),
                out=ws.get(("prod_s", li), (NT, H, D), dt),
            )
            s_self = prod_s.sum(axis=2, out=ws.get(("s_self", li), (NT, H), dt))
            s_self *= 1.0 / np.sqrt(D)
            m = ws.get(("m", li), (NT, H), dt)
            m[:] = -np.inf
            m[tpl.seg_nonempty] = np.maximum.reduceat(
                scores, tpl.seg_starts[tpl.seg_nonempty], axis=0
            )
            np.maximum(m, s_self, out=m)
            scores -= m[dst]
            np.clip(scores, -60.0, 60.0, out=scores)
            np.exp(scores, out=scores)
            s_self -= m
            np.clip(s_self, -60.0, 60.0, out=s_self)
            np.exp(s_self, out=s_self)
            denom = tpl.edge_csr @ scores
            denom += s_self
            denom += 1e-16
            np.power(denom, -1.0, out=denom)
            scores *= denom[dst]
            s_self *= denom
            v.reshape(E, H, D).__imul__(scores.reshape(E, H, 1))
            agg = tpl.edge_csr @ v
            agg.reshape(NT, H, D).__iadd__(
                s_self.reshape(NT, H, 1) * v_self.reshape(NT, H, D)
            )
            gi = ws.get(("gi", li), (NT, 3 * od), dt)
            gi[:, :od] = agg
            gi[:, od:2 * od] = root
            np.subtract(agg, root, out=gi[:, 2 * od:])
            gate = self._proj(gi, L["Wb"], L["bb"], ws.get(("gate", li), (NT, 1), dt))
            np.clip(gate, -60.0, 60.0, out=gate)
            np.negative(gate, out=gate)
            np.exp(gate, out=gate)
            gate += 1.0
            np.divide(1.0, gate, out=gate)
            out = ws.get(("out", li), (NT, od), dt)
            np.multiply(root, gate, out=out)
            np.subtract(1.0, gate, out=gate)
            agg *= gate
            out += agg
            neg = ws.get(("neg", li), (NT, od), dt)
            np.clip(out, -60.0, 0.0, out=neg)
            np.exp(neg, out=neg)
            neg -= 1.0
            np.copyto(neg, out, where=out > 0)
            h = neg
            outs.append(h)
            if self.trace is not None:
                self.trace.append(h.copy())
        if self._jkn_mode == "max":
            jk = ws.get(("jk",), outs[0].shape, dt)
            np.copyto(jk, outs[0])
            for o in outs[1:]:
                np.maximum(jk, o, out=jk)
        else:
            jk = outs[-1]
        jk3 = jk.reshape(B, -1, jk.shape[1])
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
            pooled = tpl.node_csr @ jk
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

    def __contains__(self, kernel: str) -> bool:
        with self._lock:
            return (kernel, None) in self._encoded


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
        ``"auto"`` (default), ``"compiled"`` (raise if unsupported),
        ``"reference"`` (never compile), or ``"fused"`` (run the
        models' own forwards on the lazy fused engine — tolerance-level
        agreement, verified against the eager reference on the first
        batch per kernel unless ``verify_fused=False``).
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
        verify_fused: bool = True,
    ):
        if engine not in ("auto", "compiled", "reference", "fused"):
            raise ValueError(f"unknown engine mode {engine!r}")
        self.predictor = predictor
        self.batch_size = max(int(batch_size), 1)
        self.engine_mode = engine
        self.cache_enabled = cache
        self.verify_fused = verify_fused
        self._fused_verified: set = set()
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

    def _supports_fused(self) -> bool:
        """Can (and may) this predictor run on the fused lazy engine?"""
        if self.engine_mode != "fused":
            return False
        models = self._predictor_models()
        if models is None or not all(
            FusedGNNEngine.supports(m) for m in models.values()
        ):
            raise UnsupportedModelError(
                "engine='fused' but the predictor's models are not GNNs "
                "the fused engine can run"
            )
        return True

    def _fused_engines(self, kernel: str, capacity: int) -> Dict[str, object]:
        """Fused engines + template for one kernel at one capacity."""
        key = ("fused", kernel, self._device_name, np.dtype(get_default_dtype()).str, capacity)
        entry = self._compiled.get(key)
        if entry is not None:
            return entry
        models = self._predictor_models()
        for model in models.values():
            model.eval()
        template = _FusedTemplate(self.encodings.get(kernel, self._device), capacity)
        entry = {
            "template": template,
            "engines": {
                name: FusedGNNEngine(model, template)
                for name, model in models.items()
            },
        }
        self._compiled[key] = entry
        return entry

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
        # in: float32 graph features promoted by the parameter dtype
        # (``load_state_dict`` upcasts weights to float64, so loaded
        # predictors run in float64 even when the engine default is
        # float32; the promotion is exact, so matching it keeps the
        # compiled path bit-identical).
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
                if self._supports_fused():
                    out = self._compiled_batch(
                        kernel, points, valid_threshold, objectives_for,
                        fused=True,
                    )
                elif self._supports_compiled():
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
        fused: bool = False,
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
                if fused:
                    entry = self._fused_engines(kernel, len(chunk))
                else:
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
                    if fused:
                        results = fused_forward_all(engines, engine_names)
                        for name in engine_names:
                            outputs[name].append(results[name][: len(chunk)].copy())
                    else:
                        for name in engine_names:
                            result = engines[name].forward()
                            outputs[name].append(result[: len(chunk)].copy())
                    self.stats.inference_seconds += time.perf_counter() - t0
                self.stats.batches += 1
                self.stats.model_points += len(chunk)
                _OBS_BATCH_FILL.observe(len(chunk))
        return {name: np.concatenate(chunks, axis=0) for name, chunks in outputs.items()}

    def _compiled_batch(
        self, kernel, points, valid_threshold, objectives_for, fused: bool = False
    ) -> List[Prediction]:
        self.stats.engine = "fused" if fused else "compiled"
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
                kernel, [points[i] for i in need_cls], ["classifier"], fused=fused
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
                fused=fused,
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
        if fused and self.verify_fused and kernel not in self._fused_verified:
            self._verify_fused_batch(kernel, points, out, valid_threshold)
        return out

    def _verify_fused_batch(
        self, kernel, points, fused_preds, valid_threshold, sample: int = 4
    ) -> None:
        """Equivalence gate: check the first fused batch per kernel.

        A few points are re-evaluated on the eager reference predictor
        and compared under the per-dtype tolerance policy
        (:mod:`repro.nn.lazy.equiv`); any divergence raises
        :class:`~repro.nn.lazy.equiv.EngineEquivalenceError` before a
        single fused prediction is acted on.  One-time per kernel —
        steady-state throughput is unaffected.
        """
        n = min(int(sample), len(points))
        reference = self.predictor.predict_batch(
            kernel, list(points[:n]), valid_threshold
        )
        mismatch = predictions_equivalent(
            list(fused_preds[:n]),
            reference,
            valid_threshold=valid_threshold,
            dtype=get_default_dtype(),
        )
        if mismatch is not None:
            raise EngineEquivalenceError(
                f"fused engine failed verification on kernel {kernel!r}: {mismatch}"
            )
        self._fused_verified.add(kernel)
