"""Batched, cached evaluation pipeline: the DSE surrogate hot path.

The searchers in this package probe the GNN surrogate thousands of
times per run, so evaluation throughput — not model quality — bounds
how much of a design space one wall-clock budget can cover.  This
module turns the point-by-point reference path into a pipeline:

1. **Keyed encoding cache** — each kernel is lowered and encoded once
   (:class:`EncodingCache`); per candidate only the pragma-node feature
   cells (``len(pragma_rows) * 6`` floats) are written into the chunk's
   pragma block, instead of rebuilding the ProGraML graph and copying
   the full feature matrix per point.
2. **Compiled batched inference** — :class:`CompiledGNNEngine` lowers
   the transformer-conv GNN stack to flat numpy kernels (fused
   projections, CSR segment reductions, a self-loop split that keeps
   the reference summation order), replacing thousands of small
   autograd ``Tensor`` ops per point with a handful of large array
   operations per chunk.  The pipeline compiles one engine per kernel,
   device and model, whatever the chunk sizes, and stacks a kernel's
   three engines on one model axis (:class:`_HeadStack`): projection
   and edge tables hold every model's values side by side, once.  Only
   pragma rows differ between candidates, and each conv layer spreads a
   change one hop, so the kernel graph's receptive-field plan lists, per
   layer, the rows (and their in-edges) a candidate can change; every
   other row reuses base activations computed once per engine.  On
   gesummv the plan keeps 6/15/25/49/89/117 of 131 rows across the six
   layers.  A planned row's output depends only on the pragma values
   inside its receptive field, so a pipeline-wide row memo
   (:class:`_RowMemo`) keyed by (kernel, device, layer, row, those
   values) lets a chunk compute only the rows no earlier point of the
   pipeline's life computed: on an exhaustive gesummv sweep that is 54%
   of them.  One memo slot per key holds all three models' output rows
   side by side, with a mask of the models filled so far; jumping
   knowledge is taken per chunk from the rows, so a slot stores outputs
   only.  The memo holds at most :data:`ROW_MEMO_BYTES` with
   least-recently-used eviction, and lives until
   :meth:`EvaluationPipeline.clear_cache` or the pipeline does.  Its
   exactness leans on the three BLAS rules of :class:`CompiledGNNEngine`.
3. **One op stream per chunk, fused or cascaded** — a chunk runs a
   contiguous range of the models on the model axis
   (:func:`_forward_group`): one set of row keys, and per layer one memo
   lookup, one slot claim, one set of ragged tables and one conv layer
   (:func:`_conv_layer`) whose every gather, product, softmax and CSR
   sum covers the whole range; the jumping-knowledge fold and the
   attention pooling run on the same axis, and only the output MLPs
   run per model.  A call that wants objectives for every point
   (``objectives_for="all"``: serving, the beam's full re-score) runs
   all three models as one range.  Searches only consume regression
   objectives of *valid* candidates, so ``objectives_for="valid"`` runs
   the classifier first and the two regressors, one range, only on
   points it accepts; the regression stage fills the memo slots its
   classifier stage wrote.
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

import math
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
_OBS_ROWS_REUSED = counter("pipeline.rows_reused")

#: Byte budget of a pipeline's conv-row memo (:class:`_RowMemo`).  At
#: float32 with 64-wide layers a slot holding all three models' outputs
#: is 768 bytes, so this holds 10,922 rows.
ROW_MEMO_BYTES = 8 << 20

#: The models in model-axis order: the compiled stack (:class:`_HeadStack`)
#: and a memo slot (:attr:`_RowMemo.cells`) hold model ``i``'s values at
#: position ``i``, and mask bit ``1 << i`` says whether a slot's are
#: filled.  A cascade stage runs a contiguous range of them.
_HEADS = ("classifier", "regressor", "bram_regressor")
_CLASSIFIER, _REGRESSORS = _HEADS[:1], _HEADS[1:]
#: Where each model's outputs go in a point-cache record.
_RECORD_FIELDS = {"classifier": "logits", "regressor": "reg", "bram_regressor": "bram"}

#: Row blocks of the stacked projections: at most ``_MAX_BLOCK`` rows
#: and ``_BLOCK_WORK`` multiply-adds per product.  OpenBLAS runs larger
#: products on a second thread, which then spins between calls.
_MAX_BLOCK = 64
_BLOCK_WORK = 1 << 19

#: Low bits of a row-memo index entry hold the slot, the rest its generation.
_SLOT_BITS = 24
_SLOT_MASK = (1 << _SLOT_BITS) - 1


# ---------------------------------------------------------------------------
# statistics


@dataclass
class PipelineStats:
    """Counters and per-stage wall time for one pipeline (cumulative).

    A batch is one chunk's forward, whichever models it runs.
    ``model_points`` counts the cascade stages each forwarded point
    passes: one for a classifier-only or regressor-only chunk, two for
    a fused chunk.  ``rows_computed`` and ``rows_reused`` count once per
    model that runs the row.
    """

    points: int = 0  #: predictions returned to callers
    batches: int = 0  #: chunk forwards executed
    model_points: int = 0  #: points pushed through a model, once per cascade stage
    cache_hits: int = 0
    cache_misses: int = 0
    cascade_skipped: int = 0  #: points whose regression forwards were skipped
    rows_computed: int = 0  #: conv-layer rows computed (distinct memo keys missed)
    rows_reused: int = 0  #: planned conv-layer rows taken from the row memo or a chunk twin
    encode_seconds: float = 0.0  #: pragma-block fill
    inference_seconds: float = 0.0  #: model forward passes
    materialize_seconds: float = 0.0  #: Prediction construction
    wall_seconds: float = 0.0
    engine: str = ""

    def points_per_second(self) -> float:
        return self.points / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def cache_hit_rate(self) -> float:
        seen = self.cache_hits + self.cache_misses
        return self.cache_hits / seen if seen else 0.0

    def row_reuse_rate(self) -> float:
        rows = self.rows_computed + self.rows_reused
        return self.rows_reused / rows if rows else 0.0

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
        out["row_reuse_rate"] = self.row_reuse_rate()
        return out

    def summary(self) -> str:
        return (
            f"{self.points:,} pts in {self.wall_seconds:.2f}s "
            f"({self.points_per_second():,.0f} pts/s, {self.engine}) | "
            f"{self.batches} batches, cache {self.cache_hits}/{self.cache_hits + self.cache_misses} hit, "
            f"{self.cascade_skipped} regression-skipped, "
            f"rows {100 * self.row_reuse_rate():.0f}% reused | "
            f"encode {self.encode_seconds:.2f}s infer {self.inference_seconds:.2f}s "
            f"materialize {self.materialize_seconds:.2f}s"
        )


# ---------------------------------------------------------------------------
# kernel graph and receptive-field plan


class _LayerPlan:
    """One conv layer's share of a :class:`_Plan`.

    The layer reads ``n_in`` changed input rows and writes ``n_out``
    changed output rows (``rows``: a prefix of the plan order).
    ``edges`` lists the planned rows' in-edges, grouped by row in plan
    order (``degree`` edges from ``edge_start``) and kept in the
    dst-sorted (reference) order within each row.  An input *column* is
    a plan position ``< n_in`` (a changed row) or ``n_in + node`` (an
    unchanged base row): ``self_col`` per planned row, ``src_col`` per
    edge source.  ``rf`` lists, per planned row, the pragma columns
    inside its receptive field, padded with the column count.
    """

    def __init__(self, plan: "_Plan", n_in: int, n_out: int):
        self.n_in, self.n_out = n_in, n_out
        self.rows = plan.order[:n_out]
        starts = plan.indptr[self.rows]
        self.degree = plan.indptr[self.rows + 1] - starts
        self.edge_start = np.cumsum(self.degree) - self.degree
        self.edges = np.repeat(starts - self.edge_start, self.degree) + np.arange(
            self.degree.sum()
        )
        self.src_pos = plan.pos[plan.src[self.edges]]
        planned = np.arange(n_out)
        self.self_col = np.where(planned < n_in, planned, n_in + self.rows)
        self.src_col = np.where(
            self.src_pos < n_in, self.src_pos, n_in + plan.src[self.edges]
        )
        self.rf = np.empty((n_out, 0), dtype=np.int64)

    def ragged(self, copies, pos, in_map, num_nodes: int, heads: range, models: int) -> "_Ragged":
        """Index tables for computing planned rows ``pos`` of ``copies``
        for the models ``heads`` of a ``models``-wide stack.

        ``in_map[copy, p]`` is the projected input row of position
        ``p < n_in``.  A projection table holds the ``num_nodes`` base
        rows first, then the projected input rows, each row one value
        block per model.  The gather tables index it in blocks of
        ``unit`` models: the whole head range where each row splits into
        blocks of its size, the range among them, else one model.
        """
        r = _Ragged()
        r.S = pos.size
        degree = self.degree[pos]
        r.indptr = np.zeros(r.S + 1, dtype=np.int32)
        np.cumsum(degree, out=r.indptr[1:])
        r.E = E = int(r.indptr[-1])
        r.seg = np.repeat(np.arange(r.S), degree)
        r.edges = np.arange(E) + np.repeat(self.edge_start[pos] - r.indptr[:-1], degree)
        r.nonempty = degree > 0
        r.starts = r.indptr[:-1][r.nonempty]
        table = np.empty((in_map.shape[0], self.n_in + num_nodes), dtype=np.int64)
        np.add(in_map, num_nodes, out=table[:, : self.n_in])
        table[:, self.n_in:] = np.arange(num_nodes)
        G = len(heads)
        r.unit = unit = G if heads.start % G == 0 and models % G == 0 else 1
        hs = np.arange(heads.start // unit, heads.stop // unit)
        table = table[:, :, None] * (models // unit) + hs
        r.self_t = table[copies, self.self_col[pos]]
        r.src_t = table[copies[r.seg], self.src_col[r.edges]]
        r.q_t = r.self_t[r.seg]
        r.edge_t = r.edges[:, None] * (models // unit) + hs
        r.csr = sp.csr_matrix(
            (np.ones(E, dtype=np.float32), np.arange(E, dtype=np.int32), r.indptr),
            shape=(r.S, E),
        )
        # Rule 2: the gate runs per copy that has a computed row.
        gated = np.zeros(in_map.shape[0], dtype=bool)
        gated[copies] = True
        r.gated = int(np.count_nonzero(gated))
        r.gate_row = (np.cumsum(gated) - 1)[copies] * num_nodes + self.rows[pos]
        return r


class _Ragged:
    """Per-chunk index tables of one layer (see :meth:`_LayerPlan.ragged`)."""


class _Plan:
    """The rows each conv layer can change when only ``seeds`` change.

    Output row ``i`` of a conv layer reads input row ``i`` (root and
    self-loop) and its in-neighbours, so the changed set grows by one
    out-hop per layer; every other row keeps its base activation.  Rows
    are ordered seeds first, then the rows each later layer adds, so each
    layer's changed set is a prefix of :attr:`order`.  The plan does not
    depend on how many points a chunk holds.  Layers are planned on first
    use (:meth:`layer`), each with the receptive fields of its rows over
    the ``pragma_rows`` columns.
    """

    def __init__(self, src, dst, num_nodes: int, seeds, pragma_rows=()):
        self.src, self.dst = src, dst  # one copy's edges, stably dst-sorted
        self.num_nodes = num_nodes
        self.indptr = np.concatenate(
            [[0], np.cumsum(np.bincount(dst, minlength=num_nodes))]
        )
        self.seeds = self.order = np.unique(np.asarray(seeds, dtype=np.int64))
        self.pos = np.full(num_nodes, num_nodes, dtype=np.int64)
        self.pos[self.seeds] = np.arange(self.seeds.size)
        pragma_rows = np.asarray(pragma_rows, dtype=np.int64)
        self.num_pragmas = pragma_rows.size
        self._rf = self.seeds[:, None] == pragma_rows[None, :]
        self._layers: List[_LayerPlan] = []

    def layer(self, li: int) -> _LayerPlan:
        while len(self._layers) <= li:
            n_in = self.order.size
            changed = self.pos < n_in
            reached = np.unique(self.dst[changed[self.src]])
            new = reached[~changed[reached]]
            self.pos[new] = n_in + np.arange(new.size)
            self.order = np.concatenate([self.order, new])
            lp = _LayerPlan(self, n_in, self.order.size)
            # A row's receptive field: its own and its in-neighbours' fields
            # one layer down (a base row's field is empty).
            rf = np.zeros((lp.n_out, self.num_pragmas), dtype=bool)
            rf[:n_in] = self._rf
            read = lp.src_pos < n_in
            dst_pos = np.repeat(np.arange(lp.n_out), lp.degree)
            np.logical_or.at(rf, dst_pos[read], self._rf[lp.src_pos[read]])
            self._rf = rf
            cols = np.where(rf, np.arange(self.num_pragmas), self.num_pragmas)
            cols.sort(axis=1)
            lp.rf = cols[:, : rf.sum(axis=1).max(initial=0)]
            self._layers.append(lp)
        return self._layers[li]


class _KernelGraph:
    """One kernel's graph as the compiled engines see it.

    Real edges are sorted (stably) by destination; self-loops are *split
    out* and handled on row-aligned arrays.  Because the reference batch
    appends each node's self-loop after its real in-edges (with
    exactly-zero edge features), reducing the real edges first and
    folding the self contribution in afterwards reproduces the reference
    segment sums association-for-association.  ``plan`` is the
    receptive-field :class:`_Plan` seeded with the pragma rows.

    A chunk of design points differs from the base graph only in its
    pragma rows, so a chunk is its pragma block (:meth:`fill`): the
    pragma rows' features, one ``(pragmas, features)`` slab per point.
    The block and the pooling CSR's index arrays (:meth:`pooling`) keep
    room for the largest chunk seen so far and hand out their leading
    copies.
    """

    def __init__(self, enc: EncodedGraph, dtype):
        self.enc = enc
        self.dtype = np.dtype(dtype)
        N = self.num_nodes = enc.num_nodes
        src, dst = enc.edge_index
        order = np.argsort(dst, kind="stable")
        self.src = src[order].astype(np.int64)
        self.dst = dst[order].astype(np.int64)
        pragma_rows = enc.pragma_row_order  # sorted and distinct: the plan's seeds
        self.plan = _Plan(self.src, self.dst, N, pragma_rows, pragma_rows)
        self.pragmas = enc.x_base[pragma_rows].astype(self.dtype)[None]
        self._cols = np.empty(0, dtype=np.int64)

    def fill(self, points: Sequence[DesignPoint]) -> np.ndarray:
        """The chunk's pragma block, ``(len(points), pragmas, features)``."""
        if self.pragmas.shape[0] < len(points):
            self.pragmas = np.tile(self.pragmas[:1], (len(points), 1, 1))
        for slot, point in enumerate(points):
            self.set_point(slot, point)
        return self.pragmas[: len(points)]

    def set_point(self, slot: int, point: DesignPoint) -> None:
        """Write one candidate's pragma features into a block slot."""
        self.pragmas[slot, :, PRAGMA_FEATURE_SLICE] = self.enc.pragma_patch(point)[1]

    def pooling(self, copies: int) -> sp.csr_matrix:
        """The CSR summing each of ``copies`` stacked copies' rows."""
        total = copies * self.num_nodes
        if self._cols.size < total:
            self._cols = np.arange(total)
            self._indptr = np.arange(copies + 1) * self.num_nodes
        ones = np.ones(total, dtype=np.float32)
        return sp.csr_matrix(
            (ones, self._cols[:total], self._indptr[: copies + 1]), shape=(copies, total)
        )


# ---------------------------------------------------------------------------
# conv-row memo


class _RowMemo:
    """Conv-layer rows memoised across design points, under a byte budget.

    Only pragma features vary between design points, so a row's output
    after conv layer ``l`` is a function of the pragma values in its
    receptive field (:attr:`_LayerPlan.rf`).  :meth:`keys` turns each
    (copy, planned row) of a chunk into a key: the row's plan
    position followed by a small integer code per receptive-field pragma,
    interned from the pragma's feature block.  A key of at most 8 bytes
    is one int64; a longer one is a fixed-width byte string, which
    cannot overflow.

    Entries live in one preallocated slab of ``budget // slot bytes``
    slots shared by every kernel and device of the pipeline.  One slot
    per (kernel, device, layer, row key) holds every model's output
    row (the models share one width), model ``i`` of :data:`_HEADS` at
    ``cells[slot, i]``, and ``filled`` keeps a bit per model whose row
    the slot holds: a lookup hits only
    where every requested model is filled, and a later cascade stage
    fills its models into the slot an earlier one took
    (:meth:`claim`).  Each layer of a (kernel, device) has a sorted key
    index; a slot taken over by another entry bumps its generation,
    which retires the old index entry, and an index sheds its retired
    entries once they outnumber its live ones.  A new entry takes the
    least recently used slot, so a budget too small for one chunk only
    costs reuse, never results: engines copy what they read out of the
    slab before they store.
    """

    def __init__(self, budget: int, widths: Sequence[int], dtype):
        dtype = np.dtype(dtype)
        self.slot_bytes = sum(widths) * dtype.itemsize
        slots = min(max(int(budget), 0) // self.slot_bytes, _SLOT_MASK + 1)
        self.slab = np.empty((slots, sum(widths)), dtype=dtype)
        self.cells = self.slab.reshape(slots, len(widths), widths[0])  # (slot, model, value)
        self.filled = np.zeros(slots, dtype=np.uint8)  # a bit per model held
        self.stamp = np.full(slots, -1, dtype=np.int64)  # last use; -1: free
        self.gen = np.zeros(slots, dtype=np.int64)
        self.owner = np.zeros(slots, dtype=np.int64)  # number of the _Index a live slot is in
        self.tick = 0
        self._free = np.arange(slots)
        self._indexes: List[_Index] = []
        self._index: Dict[tuple, _Index] = {}
        self._codes: Dict[tuple, List[Dict[bytes, int]]] = {}
        self._code_dtype: Dict[tuple, np.dtype] = {}

    @property
    def nbytes(self) -> int:
        """Bytes held by live entries."""
        return int(np.count_nonzero(self.stamp >= 0)) * self.slot_bytes

    def clear(self) -> None:
        self._indexes.clear()
        self._index.clear()
        self._codes.clear()
        self._code_dtype.clear()
        self.stamp[:] = -1
        self._free = np.arange(self.stamp.size)

    def keys(self, kid: tuple, plan: _Plan, block: np.ndarray, layers: int):
        """Per layer: the chunk's distinct row keys (sorted), each key's
        first (copy * n_out + row) occurrence, and every pair's key index.
        ``block`` is the chunk's pragma block (:meth:`_KernelGraph.fill`)."""
        B = block.shape[0]
        codes = self._encode(kid, block)
        row_t = np.min_scalar_type(plan.num_nodes)
        out = []
        for li in range(layers):
            lp = plan.layer(li)
            code = codes[:, lp.rf].view(np.uint8)
            width = row_t.itemsize + code.shape[2]
            packed = np.zeros((B, lp.n_out, max(width, 8)), dtype=np.uint8)
            packed[:, :, : row_t.itemsize] = (
                np.arange(lp.n_out, dtype=row_t).view(np.uint8).reshape(lp.n_out, row_t.itemsize)
            )
            packed[:, :, row_t.itemsize:width] = code
            keys = packed.view("<i8" if width <= 8 else f"S{width}").reshape(-1)
            out.append(np.unique(keys, return_index=True, return_inverse=True))
        return out

    def _encode(self, kid: tuple, block: np.ndarray) -> np.ndarray:
        """Each copy's pragma codes, ``(copies, pragmas + 1)``; the last
        column is the padding code of :attr:`_LayerPlan.rf`."""
        B, P = block.shape[:2]
        blocks = np.ascontiguousarray(block[:, :, PRAGMA_FEATURE_SLICE])
        blocks = blocks.view(f"S{blocks.shape[2] * blocks.itemsize}").reshape(B, P)
        tables = self._codes.setdefault(kid, [{} for _ in range(P)])
        codes = np.zeros((B, P + 1), dtype=np.int64)
        for j, table in enumerate(tables):
            codes[:, j] = [table.setdefault(v, len(table)) for v in blocks[:, j].tolist()]
        dtype = np.min_scalar_type(max((len(t) for t in tables), default=0))
        if self._code_dtype.setdefault(kid, dtype) != dtype:
            # Wider codes change every key's width: drop the kernel's entries.
            self._code_dtype[kid] = dtype
            for key in [k for k in self._index if k[0] == kid]:
                del self._index[key]
        return codes.astype(dtype)

    def lookup(self, key: tuple, keys: np.ndarray, heads: int) -> Tuple[np.ndarray, np.ndarray]:
        """Slot of each (sorted) key, ``-1`` if not held, and whether the
        slot holds every model of the ``heads`` mask; marks held slots used."""
        found = np.full(keys.size, -1, dtype=np.int64)
        entry = self._index.get(key)
        if entry is None:
            return found, found >= 0
        index, refs = entry.keys, entry.refs
        at = np.minimum(np.searchsorted(index, keys), index.size - 1)
        slots = refs[at] & _SLOT_MASK
        held = (index[at] == keys) & (refs[at] >> _SLOT_BITS == self.gen[slots])
        found[held] = slots[held]
        self.stamp[found[held]] = self.tick
        return found, held & (self.filled[found] & heads == heads)

    def claim(self, key: tuple, keys: np.ndarray, found: np.ndarray, heads: int) -> np.ndarray:
        """Slots to store the ``heads`` models' values of the (sorted) missed
        ``keys`` in, ``-1`` where none: a key's own slot where ``found``
        (from :meth:`lookup`) holds one, else a new one, as many as fit."""
        held = np.flatnonzero(found >= 0)
        gen = self.gen[found[held]]
        absent = np.flatnonzero(found < 0)
        out = found.copy()
        new = self.insert(key, keys[absent])
        out[absent[absent.size - new.size:]] = new
        # A held slot the insert evicted now belongs to another key.
        out[held[self.gen[found[held]] != gen]] = -1
        self.filled[out[out >= 0]] |= heads
        return out

    def insert(self, key: tuple, keys: np.ndarray) -> np.ndarray:
        """Empty slots for the last ``n`` of the (sorted, absent) ``keys``,
        all that fit, taking the least recently used; the caller fills them."""
        n = min(keys.size, self.stamp.size)
        if n == 0:
            return np.empty(0, dtype=np.int64)
        keys = keys[keys.size - n:]
        if self._free.size < n:
            # Evict the least recently used slots in bulk, at least an
            # eighth of the slab, so selecting them is paid rarely.
            k = min(self.stamp.size, self._free.size + max(n, self.stamp.size // 8))
            victims = np.argpartition(self.stamp, k - 1)[:k]
            live = victims[self.stamp[victims] >= 0]
            for owner, count in zip(*np.unique(self.owner[live], return_counts=True)):
                self._indexes[owner].live -= int(count)
            self.gen[victims] += 1
            self.stamp[victims] = -1
            self._free = victims
        slots, self._free = self._free[:n], self._free[n:]
        self.stamp[slots] = self.tick
        self.filled[slots] = 0
        # An index entry is its key and its slot tagged with the slot's
        # generation; an entry whose slot moved on is stale.  A new entry
        # goes before any stale one with the same key, where lookups land.
        refs = self.gen[slots] << _SLOT_BITS | slots
        entry = self._index.get(key)
        if entry is None:
            entry = self._index[key] = _Index(len(self._indexes), keys, refs)
            self._indexes.append(entry)
        else:
            index, old = entry.keys, entry.refs
            if index.size > 2 * entry.live:
                live = old >> _SLOT_BITS == self.gen[old & _SLOT_MASK]
                index, old = index[live], old[live]
            at = np.searchsorted(index, keys)
            entry.keys, entry.refs = np.insert(index, at, keys), np.insert(old, at, refs)
        entry.live += n
        self.owner[slots] = entry.number
        return slots


class _Index:
    """One (kernel, device, layer)'s sorted memo keys, their slot refs,
    and how many of them are live."""

    def __init__(self, number: int, keys: np.ndarray, refs: np.ndarray):
        self.number, self.keys, self.refs, self.live = number, keys, refs, 0


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
    """An MLP on ``x``; with weights ``(models, in, out)`` and biases
    ``(models, 1, out)``, one product per leading index and model."""
    for i, (W, b) in enumerate(weights):
        x = x @ W
        if b is not None:
            x += b
        if i < len(weights) - 1:
            x = _elu(x, np.empty_like(x))
    return x


def _elu(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """ELU of ``x`` into ``out``, bit for bit
    :meth:`~repro.nn.tensor.Tensor.elu`; clobbers ``x``.

    Branch-free: ``exp(min(x, 0)) - 1`` is exactly +0.0 where ``x > 0``,
    and ``max(x, 0)`` adds +0.0 everywhere else.
    """
    np.clip(x, -60.0, 0.0, out=out)
    np.exp(out, out=out)
    out -= 1.0
    out += np.maximum(x, 0.0, out=x)
    return out


class _Workspace:
    """Reusable scratch buffers keyed by (tag, trailing shape, dtype).

    :meth:`get` folds a buffer's ``lead`` leading dimensions into its
    rows: those vary with the chunk and the head range, the trailing
    ones with neither, so each key keeps one buffer, grown to the most
    rows any call has asked for, and hands out its leading rows.
    Kernels of different sizes (the gate's per-copy rows) keep one
    buffer each.
    """

    def __init__(self):
        self._bufs: Dict[tuple, np.ndarray] = {}

    def get(self, tag, shape, dtype, lead: int = 1) -> np.ndarray:
        rows, tail = math.prod(shape[:lead]), tuple(shape[lead:])
        key = (tag, tail, np.dtype(dtype))
        buf = self._bufs.get(key)
        if buf is None or buf.shape[0] < rows:
            buf = self._bufs[key] = np.zeros((rows,) + tail, dtype=dtype)
        return buf[:rows].reshape(shape)


def _gather(table: np.ndarray, index: np.ndarray, unit: int, out: np.ndarray) -> np.ndarray:
    """Rows of ``table`` ``(rows, models, width)`` into ``out``
    ``(len(index), heads, width)``; ``index`` numbers blocks of ``unit``
    models (:meth:`_LayerPlan.ragged`)."""
    blocks = table.reshape(-1, unit * table.shape[2])
    np.take(blocks, index, axis=0, out=out.reshape(index.shape + blocks.shape[1:]), mode="clip")
    return out


def _conv_layer(L, base, heads: range, inp: np.ndarray, rag: _Ragged, ws: _Workspace,
                num_nodes: int) -> Tuple[np.ndarray, Dict[str, np.ndarray]]:
    """One conv layer of the models ``heads`` on the rows of ``rag``.

    ``L`` holds the layer's weights, each with a leading model axis, and
    ``base`` its per-kernel tables, ``(rows, models, out_dim)``: the
    ``num_nodes`` base rows of the query, key, value and root
    projections, and the planned edges' edge-feature projections ``e``.
    ``inp`` holds the input rows, ``(rows, heads, K)``, or ``(rows, K)``
    when every model reads the same ones.  Their projections go into
    workspace tables after a copy of the base rows, so every kernel
    shares one set of chunk-sized tables.  Every step but the gate's
    product runs once for the whole head range, and two per-edge buffers
    serve every per-edge array in turn.  Returns the rows' outputs,
    ``(rows, heads, out_dim)``, and the projection tables, both in
    workspace memory.
    """
    N, G = num_nodes, len(heads)
    hs = slice(heads.start, heads.stop)
    dt = base["e"].dtype
    H, D, od = L["heads"], L["head_dim"], L["out"]
    S, E, seg, u = rag.S, rag.E, rag.seg, rag.unit
    # The input rows go through the projections in blocks of ``blk``
    # rows: at least 2 (rule 1), and few enough that each product
    # stays single-threaded in BLAS, as the eager path's are.
    M, K = inp.shape[0], inp.shape[-1]
    Gi = 1 if inp.ndim == 2 else inp.shape[1]
    blk = _MAX_BLOCK
    while blk > 2 and blk * K * 2 * od > _BLOCK_WORK:
        blk //= 2
    nb = -(-M // blk)
    h = ws.get(("h",), (nb * blk, Gi, K), dt, lead=2)
    h[:M] = inp.reshape(M, Gi, K)
    h = h.reshape(nb, blk, Gi, K).transpose(2, 0, 1, 3)  # one matrix per (head, block)
    rows = N + nb * blk
    tab = {"e": base["e"]}
    for name in ("q", "k", "v", "r"):
        W, b = L["W" + name], L["b" + name]
        tab[name] = table = ws.get(("proj", name), (rows,) + W.shape[::2], dt)
        table[:N, hs] = base[name][:, hs]
        out = table[N:rows].reshape(nb, blk, *table.shape[1:])[:, :, hs].transpose(2, 0, 1, 3)
        np.matmul(h, W[hs, None], out=out)
        out += b[hs, None, None]
    a = ws.get(("edge_a",), (E, G, od), dt, lead=2)
    b = ws.get(("edge_b",), (E, G, od), dt, lead=2)
    k = _gather(tab["k"], rag.src_t, u, a)
    k += _gather(tab["e"], rag.edge_t, u, b)
    # (q · k) per head via multiply + pairwise sum, matching the
    # reference ``(q * k).sum(axis=2)`` bit-for-bit (einsum uses a
    # different accumulation order and drifts by ulps at float32).
    prod = _gather(tab["q"], rag.q_t, u, b)
    prod *= k
    scores = prod.reshape(E, G, H, D).sum(axis=3, out=ws.get(("scores",), (E, G, H), dt, lead=2))
    scores *= 1.0 / np.sqrt(D)
    # Self-loop contributions on row-aligned arrays (self-loop edge
    # features are exactly zero, so k/v are the projections themselves).
    q_s = _gather(tab["q"], rag.self_t, u, ws.get(("row_a",), (S, G, od), dt, lead=2))
    k_s = _gather(tab["k"], rag.self_t, u, ws.get(("row_b",), (S, G, od), dt, lead=2))
    q_s *= k_s
    s_self = q_s.reshape(S, G, H, D).sum(axis=3, out=ws.get(("s_self",), (S, G, H), dt, lead=2))
    s_self *= 1.0 / np.sqrt(D)
    m = ws.get(("m",), (S, G, H), dt, lead=2)
    m[:] = -np.inf
    if E:
        m[rag.nonempty] = np.maximum.reduceat(scores, rag.starts, axis=0)
    np.maximum(m, s_self, out=m)
    scores -= m[seg]
    np.clip(scores, -60.0, 60.0, out=scores)
    np.exp(scores, out=scores)
    s_self -= m
    np.clip(s_self, -60.0, 60.0, out=s_self)
    np.exp(s_self, out=s_self)
    denom = rag.csr @ scores.reshape(E, G * H)
    denom += s_self.reshape(S, G * H)
    denom += 1e-16
    np.power(denom, -1.0, out=denom)
    denom = denom.reshape(S, G, H)
    scores *= denom[seg]
    s_self *= denom
    # α·v, contiguous: the CSR product's input layout.
    v = _gather(tab["v"], rag.src_t, u, a)
    v += _gather(tab["e"], rag.edge_t, u, b)
    v.reshape(E, G, H, D).__imul__(scores.reshape(E, G, H, 1))
    agg = (rag.csr @ v.reshape(E, G * od)).reshape(S, G, od)
    v_s = _gather(tab["v"], rag.self_t, u, k_s)
    v_s.reshape(S, G, H, D).__imul__(s_self.reshape(S, G, H, 1))
    agg += v_s
    root = _gather(tab["r"], rag.self_t, u, ws.get(("root",), (S, G, od), dt, lead=2))
    diff = np.subtract(agg, root, out=q_s)
    # Rule 2: the gate's single-column product runs over every row of
    # each copy with a computed row, one model at a time; only those
    # rows' inputs and outputs are used (a gemv row reads no other row).
    gi = ws.get(("gi",), (rag.gated, N, 3 * od), dt).reshape(-1, 3 * od)
    gate_all = ws.get(("gate",), (rag.gated, N, 1), dt).reshape(-1)
    gate = ws.get(("gate_s",), (S, G, 1), dt, lead=2)
    for j, model in enumerate(heads):
        gi[rag.gate_row, :od] = agg[:, j]
        gi[rag.gate_row, od:2 * od] = root[:, j]
        gi[rag.gate_row, 2 * od:] = diff[:, j]
        np.matmul(gi.reshape(rag.gated, N, 3 * od), L["Wb"][model],
                  out=gate_all.reshape(rag.gated, N, 1))
        gate[:, j, 0] = gate_all[rag.gate_row]
    gate += L["bb"][hs]
    np.clip(gate, -60.0, 60.0, out=gate)
    np.negative(gate, out=gate)
    np.exp(gate, out=gate)
    gate += 1.0
    np.divide(1.0, gate, out=gate)
    out = np.multiply(root, gate, out=q_s)
    np.subtract(1.0, gate, out=gate)
    agg *= gate
    out += agg
    return _elu(out, k_s), tab


class CompiledGNNEngine:
    """One GNN model lowered onto one kernel's :class:`_KernelGraph`.

    Supports the paper's architecture family: a stack of
    :class:`~repro.nn.conv.TransformerConv` layers with ELU, optional
    jumping knowledge (``max``/``last``), attention or sum pooling, and
    MLP heads.  Anything else raises :class:`UnsupportedModelError` so
    the pipeline can fall back to the reference path.

    A design point changes only its pragma rows, and each conv layer
    spreads a change by one hop, so at layer ``l`` only the rows of the
    graph's :class:`_Plan` (the ``l``-hop out-neighbourhood of the
    pragma rows) can differ from their *base* activation, which is the
    same in every copy and for every point.  The base arrays come from
    one all-rows forward of one copy on the neutral features (the conv
    layers, :func:`_conv_layer`, on a one-model axis): its projections
    become the base rows at the head of each layer's projection table,
    and its layer outputs the unplanned rows of the jumping-knowledge
    and pooling input.

    An engine compiles its model's weights and base arrays with a
    leading model axis of one; the pipeline stacks the classifier's, the
    regressor's and the BRAM regressor's engines of a kernel into one
    :class:`_HeadStack` and runs a chunk's models on that axis.  A
    planned row's output after layer ``l`` depends only on the pragma
    values in its receptive field, so :func:`_forward_group` computes a
    layer only for the distinct (layer, row, receptive-field values)
    keys the pipeline's :class:`_RowMemo` does not hold: their in-edges'
    attention and aggregation, over the projections of the chunk's input
    rows (computed or memoised one layer down).  An entry holds the
    row's outputs; the jumping-knowledge max of a planned row is taken
    per chunk over its outputs at every layer
    (:meth:`_HeadStack.jk_rows`).  The memo is the pipeline's: at most
    :data:`ROW_MEMO_BYTES`, least recently used out first, shared by
    every kernel of the pipeline, and emptied by
    :meth:`EvaluationPipeline.clear_cache`.  Pooling and heads run per
    point (:meth:`_HeadStack.readout`).

    Bit-identity with the eager per-point path rests on three rules
    about BLAS (OpenBLAS, measured), which the model axis leaves as they
    are: a stacked product is one BLAS call per (head, matrix) at the
    shape a single model's would have.

    1. A gemm output row does not depend on the row count when the
       product has at least 2 rows; a 1-row product takes the gemv path
       and differs.  So the projections of a chunk's input rows run as
       products over padded row blocks of 2 to ``_MAX_BLOCK`` rows, one
       per (head, block).
    2. Products with a single output column (the beta gate, the last
       layer of the pooling and head MLPs) do depend on the row count and
       on the row's position, so they run at the full per-copy shape, one
       gemv per (copy, head): the gate of every copy with a missed row
       covers all of its rows.
    3. The segment max and the CSR sums reduce the same segments in the
       same order, whatever other segments are present, and each value
       column on its own, so neither the ragged per-chunk edge tables nor
       the heads' columns side by side change a row's reductions.

    Together they make a row's output independent of the batch, the
    slot, the head range and the other rows computed with it, so a
    memoised row is the row the eager path computes.
    """

    def __init__(self, model, graph: _KernelGraph):
        self.graph = graph
        self.dtype = graph.dtype
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

    @staticmethod
    def stack_shape(model) -> tuple:
        """What the models of one :class:`_HeadStack` must share (for a
        model :meth:`supports`): each conv layer's weight shape and
        attention heads, the jumping-knowledge mode, and the pooling
        kind and its MLPs' shapes.  Only the output MLPs may differ."""
        convs = tuple((c.lin_query.weight.shape, c.heads) for c in model.convs)
        jkn = model.jkn.mode if model.jkn is not None else "last"
        pool = model.pool
        mlps = (pool.score_mlp, pool.value_mlp) if isinstance(pool, NodeAttentionPool) else ()
        layers = tuple(
            (layer.weight.shape, layer.bias is None)
            for mlp in mlps for layer in mlp.net.layers if hasattr(layer, "weight")
        )
        return convs, jkn, type(pool).__name__, layers

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
        enc = self.graph.enc
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
            # Every array gets a leading model axis (of one model here).
            lins = dict(q=conv.lin_query, k=conv.lin_key, v=conv.lin_value, r=conv.lin_root)
            L = {f"W{n}": lin.weight.data.astype(dtype)[None] for n, lin in lins.items()}
            L.update({f"b{n}": lin.bias.data.astype(dtype)[None] for n, lin in lins.items()})
            L.update(
                # lin_beta acts on concat([agg, root, agg - root]); keep the
                # single gemm over the concatenated input so the gate is
                # bit-identical to the reference at any dtype (splitting the
                # matrix re-associates the dot products and drifts by ulps).
                Wb=conv.lin_beta.weight.data.astype(dtype)[None],
                bb=conv.lin_beta.bias.data.astype(dtype)[None],
                e=edge_proj[:, None],
                heads=conv.heads, head_dim=conv.head_dim, out=od,
            )
            layers.append(L)
        self._layers = layers
        self._jkn_mode = model.jkn.mode if model.jkn is not None else "last"
        pool = model.pool
        self._pool_kind = "attention" if isinstance(pool, NodeAttentionPool) else "sum"
        self._pool = [
            [(W[None], None if b is None else b[None, None]) for W, b in _mlp_weights(mlp, dtype)]
            for mlp in ((pool.score_mlp, pool.value_mlp) if self._pool_kind == "attention" else ())
        ]
        heads = model.heads
        if heads.task == "classification":
            self._heads = [_mlp_weights(heads.classifier, dtype)]
        else:
            self._heads = [_mlp_weights(h, dtype) for h in heads.heads]
        self._task = heads.task

    def _fill_base(self) -> None:
        """Base arrays from one all-rows forward of one copy (see class doc)."""
        graph, dt = self.graph, self.dtype
        plan, N = graph.plan, graph.num_nodes
        full = _Plan(graph.src, graph.dst, N, np.arange(N))
        ws, every, one = _Workspace(), np.arange(N), range(1)
        h, outs = graph.enc.x_base.astype(dt), []
        self._tabs = []
        for li, L in enumerate(self._layers):
            # No base row is read: every row is an input row here.
            unread = {k: np.empty((N,) + L["W" + k].shape[::2], dt) for k in "qkvr"}
            unread["e"] = L.pop("e")
            rag = full.layer(li).ragged(np.zeros(N, np.int64), every, every[None], N, one, 1)
            h, tab = _conv_layer(L, unread, one, h, rag, ws, N)
            h = h.copy()
            outs.append(h)
            # An all-rows plan keeps node order, so its projected rows are
            # the base rows themselves.  Only the planned edges' edge-feature
            # projections are kept.
            base = {k: tab[k][N:2 * N].copy() for k in "qkvr"}
            base["e"] = tab["e"][plan.layer(li).edges]
            self._tabs.append(base)
        self._jk_first = None
        if self._jkn_mode == "max":
            self._base_jk = np.maximum.reduce(outs)
            # Per row the last layer plans, the JK max over the layers
            # before the row is first planned (-inf where there are none).
            lp = plan.layer(len(self._layers) - 1)
            self._jk_first = np.full((lp.n_out,) + outs[0].shape[1:], -np.inf, dtype=dt)
            for li in range(len(self._layers)):
                lp = plan.layer(li)
                first = self._jk_first[lp.n_in:lp.n_out]
                for o in outs[:li]:
                    np.maximum(first, o[lp.rows[lp.n_in:]], out=first)
        else:
            self._base_jk = outs[-1]


class _HeadStack:
    """One kernel graph's compiled models on one model axis.

    Assembled from one :class:`CompiledGNNEngine` per model of
    :data:`_HEADS`, in that order, which it leaves behind: every weight
    and base array is the engines' stacked along the model axis, so the
    base projection and edge tables and the jumping-knowledge rows are
    ``(rows, models, width)``.  A chunk runs a contiguous head range of
    the models (a cascade stage, or all of them) through one op stream:
    one :func:`_conv_layer` per layer, one jumping-knowledge fold, one
    pooling; only the output MLPs, whose widths differ, run per model.
    A range reads and writes a slice of the tables, never a copy of its
    own.  The chunk's projected rows go into workspace tables that every
    kernel shares; the jumping-knowledge rows grow to the largest chunk
    run so far, and a chunk uses their leading rows.
    """

    def __init__(self, engines: Sequence[CompiledGNNEngine]):
        first = engines[0]
        self.graph, self.dtype = first.graph, first.dtype
        self.models = len(engines)
        self.layers = [
            {k: np.concatenate([e._layers[li][k] for e in engines])
             if isinstance(v, np.ndarray) else v for k, v in L.items()}
            for li, L in enumerate(first._layers)
        ]
        self.tabs = [
            {k: np.concatenate([e._tabs[li][k] for e in engines], axis=1) for k in tab}
            for li, tab in enumerate(first._tabs)
        ]
        self.jkn_mode = first._jkn_mode
        self.base_jk = np.concatenate([e._base_jk for e in engines], axis=1)
        if self.jkn_mode == "max":
            self.jk_first = np.concatenate([e._jk_first for e in engines], axis=1)
        self.pool_kind = first._pool_kind
        # The pooling MLPs (score, value), layer by layer, each layer's
        # weights and biases stacked on the model axis.
        self.pool = []
        for mlps in zip(*(e._pool for e in engines)):
            layers = []
            for params in zip(*mlps):
                Ws, bs = zip(*params)
                layers.append((np.concatenate(Ws), None if bs[0] is None else np.concatenate(bs)))
            self.pool.append(layers)
        self.out_mlps = [(e._heads, e._task) for e in engines]
        self._jk = self.base_jk[:0]

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    @property
    def entry_width(self) -> int:
        """Values per model in a memo entry (the widest layer's output)."""
        return max(L["out"] for L in self.layers)

    def jk_rows(self, vals: Sequence[np.ndarray], keys, copies: int, heads: range,
                ws: _Workspace) -> np.ndarray:
        """The last layer's planned jumping-knowledge rows of ``heads``,
        ``(copies, n_out, heads, out_dim)``: ``vals[l]`` holds layer
        ``l``'s outputs per row key of the chunk (``keys``, from
        :meth:`_RowMemo.keys`).  A max row folds its outputs in layer
        order from the max over the layers before it is planned, as the
        eager running max does."""
        plan = self.graph.plan
        last = len(vals) - 1
        if self.jkn_mode != "max":
            return vals[last][keys[last][2].reshape(copies, -1)]
        first = self.jk_first[:, heads.start:heads.stop]
        jk = ws.get(("jk",), (copies,) + first.shape, self.dtype, lead=3)
        jk[:] = first
        for li, v in enumerate(vals):
            rows = jk[:, : plan.layer(li).n_out]
            np.maximum(rows, v[keys[li][2].reshape(copies, -1)], out=rows)
        return jk

    def readout(self, jk_rows: np.ndarray, heads: range) -> List[np.ndarray]:
        """Pooling and output MLPs, per point, from the last layer's
        planned JK rows ``(copies, n_out, heads, out_dim)``: each model of
        ``heads``'s outputs, ``(copies, outputs)``."""
        B, N = jk_rows.shape[0], self.graph.num_nodes
        G, hs = len(heads), slice(heads.start, heads.stop)
        NT = B * N
        if self._jk.shape[0] < NT:
            self._jk = np.tile(self.base_jk, (B, 1, 1))
        jk = self._jk[:NT].reshape(B, N, self.models, -1)
        jk[:, self.graph.plan.layer(self.num_layers - 1).rows, hs] = jk_rows
        if self.pool_kind == "attention":
            score, value = (
                [(W[hs], None if b is None else b[hs]) for W, b in mlp] for mlp in self.pool
            )
            x = jk[:, :, hs].transpose(0, 2, 1, 3)  # one (N, width) matrix per (copy, head)
            pool = self.graph.pooling(B * G)
            s = _run_mlp(score, x)
            s -= s.max(axis=2, keepdims=True)  # max is exact in any order
            np.clip(s, -60.0, 60.0, out=s)
            np.exp(s, out=s)
            denom = pool @ s.reshape(B * G * N, -1)
            denom += 1e-16
            np.power(denom, -1.0, out=denom)
            s *= denom.reshape(B, G, 1, 1)
            vals = _run_mlp(value, x)
            vals *= s
            pooled = pool @ vals.reshape(B * G * N, -1)
        else:
            pooled = self.graph.pooling(B) @ jk[:, :, hs].reshape(NT, -1)
        pooled = pooled.reshape(B, G, -1)
        outputs = []
        for g, (mlps, task) in enumerate(self.out_mlps[hs]):
            cols = [_run_mlp(w, pooled[:, g:g + 1]).reshape(B, -1) for w in mlps]
            outputs.append(cols[0] if task == "classification" else np.concatenate(cols, axis=1))
        return outputs


def _forward_group(
    stack: _HeadStack, heads: range, block: np.ndarray, memo: _RowMemo, kid: tuple, keys,
    ws: _Workspace,
) -> Tuple[List[np.ndarray], int, int]:
    """Run the models ``heads`` of ``stack`` over a chunk's pragma block.

    ``heads`` is a range of model positions in :data:`_HEADS` (a memo
    slot's models), and ``keys`` are the chunk's row keys from
    :meth:`_RowMemo.keys`.  Per layer, one memo lookup, one set of
    ragged tables, one slot claim and one :func:`_conv_layer` serve
    every model of the range: a row is reused only where its slot holds
    every model's output, else it is computed for every model and stored
    into its slot.  Scratch comes from ``ws``.  Returns each model's
    outputs and the (computed, reused) row counts, once per model.
    """
    graph = stack.graph
    plan, N = graph.plan, graph.num_nodes
    B = block.shape[0]
    G, hs = len(heads), slice(heads.start, heads.stop)
    mask = sum(1 << h for h in heads)
    memo.tick += 1
    vals: List[np.ndarray] = []  # per layer, (keys, heads, out_dim)
    inp = block.reshape(B * plan.seeds.size, -1)
    in_map = np.arange(B * plan.seeds.size).reshape(B, -1)
    computed = reused = 0
    for li in range(stack.num_layers):
        lp = plan.layer(li)
        index, first, inverse = keys[li]
        slots, hit = memo.lookup((kid, li), index, mask)
        miss = np.flatnonzero(~hit)
        od = stack.layers[li]["out"]
        v = ws.get(("vals", li), (index.size, G, od), stack.dtype, lead=2)
        v[hit] = memo.cells[slots[hit], hs, :od]
        if miss.size:
            copies, pos = np.divmod(first[miss], lp.n_out)
            rag = lp.ragged(copies, pos, in_map, N, heads, stack.models)
            stored = memo.claim((kid, li), index[miss], slots[miss], mask)
            v[miss] = _conv_layer(stack.layers[li], stack.tabs[li], heads, inp, rag, ws, N)[0]
            kept = stored >= 0
            memo.cells[stored[kept], hs, :od] = v[miss[kept]]
        computed += G * miss.size
        reused += G * (B * lp.n_out - miss.size)
        vals.append(v)
        inp = v
        in_map = inverse.reshape(B, lp.n_out)
    jk_rows = stack.jk_rows(vals, keys, B, heads, ws)
    return stack.readout(jk_rows, heads), computed, reused


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
        Most candidates evaluated per compiled forward (a chunk).
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
        # conditions the encoded graphs, keys the compiled engines,
        # and rescales predicted utilizations onto the target's
        # capacities — matching predictor.predict_batch exactly.
        self._device = getattr(predictor, "device", None)
        self._device_name = getattr(self._device, "name", None)
        self._point_cache: Dict[str, Dict] = {}
        self._compiled: Dict[tuple, Tuple[_KernelGraph, _HeadStack]] = {}
        self._dtype: Optional[np.dtype] = None
        self._memo: Optional[_RowMemo] = None
        self._ws = _Workspace()  # forward scratch, shared by every engine
        # Whether the predictor runs on the compiled engine: decided on
        # the first call (:meth:`_supports_compiled`), since the models
        # never change under a pipeline.
        self._compiled_ok: Optional[bool] = False if engine == "reference" else None
        # One evaluation at a time: the compiled engines share workspace
        # buffers and pragma blocks, and the point caches are plain
        # dicts — neither survives concurrent mutation.  The serving
        # layer gets its concurrency from micro-batching, not parallel
        # forwards, so a coarse reentrant lock keeps multi-threaded
        # callers bit-exact.
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
        """Can (and may) this predictor run on the compiled engine?  Its
        three models must each lower, and stack on one model axis
        (:meth:`CompiledGNNEngine.stack_shape`): every
        :data:`~repro.model.config.MODEL_CONFIGS` predictor does, since
        its models differ only in task and objectives."""
        if self._compiled_ok is None:
            models = self._predictor_models()
            supported = (
                models is not None
                and all(CompiledGNNEngine.supports(m) for m in models.values())
                and len({CompiledGNNEngine.stack_shape(m) for m in models.values()}) == 1
            )
            if not supported and self.engine_mode == "compiled":
                raise UnsupportedModelError(
                    "engine='compiled' but the predictor's models cannot be lowered "
                    "onto one model axis"
                )
            self._compiled_ok = supported
        return self._compiled_ok

    def _engines(self, kernel: str) -> Tuple[_KernelGraph, _HeadStack]:
        """One kernel's graph and its models' stack (memoised), assembled
        from one compiled engine per model.

        One stack serves every chunk size and head range: its chunk-sized
        buffers grow to the largest chunk run, and a row's output depends
        on neither, so chunk sizing never changes results.
        """
        kid = (kernel, self._device_name)
        entry = self._compiled.get(kid)
        if entry is not None:
            return entry
        models = self._predictor_models()
        if self._dtype is None:
            # Compile at the dtype the reference forward actually computes
            # in: float32 graph features promoted by the parameter dtype.
            # ``load_state_dict`` keeps each parameter's own dtype, so
            # float64 weights come only from a float64 artifact or a
            # float64 engine default; the promotion is exact, so matching
            # it keeps the compiled path bit-identical.  The models never
            # change under a pipeline (a new predictor gets a new one).
            dtype = np.dtype(get_default_dtype())
            for model in models.values():
                for param in model.parameters():
                    dtype = np.promote_types(dtype, param.data.dtype)
            self._dtype = dtype
        for model in models.values():
            model.eval()
        graph = _KernelGraph(self.encodings.get(kernel, self._device), self._dtype)
        stack = _HeadStack([CompiledGNNEngine(models[name], graph) for name in _HEADS])
        if self._memo is None:
            self._memo = _RowMemo(ROW_MEMO_BYTES, [stack.entry_width] * len(_HEADS), self._dtype)
        entry = self._compiled[kid] = (graph, stack)
        return entry

    # -- cache ------------------------------------------------------------------

    def _kernel_cache(self, kernel: str) -> Dict:
        cache = self._point_cache.get(kernel)
        if cache is None:
            cache = self._point_cache[kernel] = {}
        return cache

    def clear_cache(self) -> None:
        """Drop the point cache and the conv-row memo."""
        with self._lock:
            self._point_cache.clear()
            if self._memo is not None:
                self._memo.clear()

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
            before = self.stats.cache_hits, self.stats.cache_misses, self.stats.batches
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
            self._account(len(points), t_wall, before)
            return out

    def _account(self, points: int, t_wall: float, before: Tuple[int, int, int]) -> None:
        """Close one call's stats and obs counters; ``before`` holds the
        cache hits, misses and batches at its start."""
        hits0, misses0, batches0 = before
        self.stats.points += points
        self.stats.wall_seconds += time.perf_counter() - t_wall
        _OBS_POINTS.inc(points)
        _OBS_BATCHES.inc(self.stats.batches - batches0)
        _OBS_CACHE_HITS.inc(self.stats.cache_hits - hits0)
        _OBS_CACHE_MISSES.inc(self.stats.cache_misses - misses0)

    def predict_cached(
        self,
        kernel: str,
        points: Sequence[DesignPoint],
        valid_threshold: float = DEFAULT_VALID_THRESHOLD,
        objectives_for: str = "all",
    ) -> Optional[List[Prediction]]:
        """:meth:`predict_batch` when no point needs a forward, else None.

        Answers only when every point's cache record holds what this
        call needs: classifier logits, plus regression outputs where
        ``objectives_for`` is ``"all"`` or the point clears
        ``valid_threshold``.  One key lookup per point, then one
        materialisation; the call never runs the model.  It never waits
        either: when another thread holds the pipeline it returns None
        at once, and the caller takes its usual (batched) path.
        """
        if objectives_for not in ("all", "valid"):
            raise ValueError(f"unknown objectives_for {objectives_for!r}")
        if not self.cache_enabled or not points:
            return None
        if not self._lock.acquire(blocking=False):
            return None
        try:
            cache = self._point_cache.get(kernel)
            if cache is None:
                return None
            t_wall = time.perf_counter()
            before = self.stats.cache_hits, self.stats.cache_misses, self.stats.batches
            compiled = self._supports_compiled()
            if compiled:
                records = [cache.get(point_key(p)) for p in points]
                if any(record is None or "logits" not in record for record in records):
                    return None
                logits, wants_reg = self._cascade(records, valid_threshold, objectives_for)
                if any(w and "reg" not in r for w, r in zip(wants_reg, records)):
                    return None
            else:
                out = [cache.get((point_key(p), valid_threshold)) for p in points]
                if any(pred is None for pred in out):
                    return None
            self.stats.engine = "compiled" if compiled else "reference"
            with span(
                "pipeline.predict_batch", kernel=kernel, points=len(points),
                engine=self.stats.engine,
            ):
                self.stats.cache_hits += len(points)
                if compiled:
                    self.stats.cascade_skipped += wants_reg.count(False)
                    out = self._materialize(records, logits, wants_reg, valid_threshold)
            self._account(len(points), t_wall, before)
            return out
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
        """Run the named models, a contiguous range of :data:`_HEADS`, over
        ``points`` in chunks of at most ``batch_size``; a partial chunk
        (the tail of a sweep, or a lightly-filled micro-batch from the
        server) runs at its own size, so no forward pays for padded
        slots.  Each chunk is one :func:`_forward_group` of the range
        over row keys built once.
        """
        kid = (kernel, self._device_name)
        graph, stack = self._engines(kernel)
        start = _HEADS.index(engine_names[0])
        heads = range(start, start + len(engine_names))
        # Cascade stages each point passes: the classifier, the regressors.
        stages = (_CLASSIFIER[0] in engine_names) + any(n in _REGRESSORS for n in engine_names)
        outputs: Dict[str, List[np.ndarray]] = {name: [] for name in engine_names}
        with no_grad():
            for start in range(0, len(points), self.batch_size):
                chunk = points[start:start + self.batch_size]
                with span(
                    "pipeline.forward", kernel=kernel, chunk=len(chunk),
                    engines=",".join(engine_names),
                ) as sp:
                    t0 = time.perf_counter()
                    block = graph.fill(chunk)
                    self.stats.encode_seconds += time.perf_counter() - t0
                    t0 = time.perf_counter()
                    keys = self._memo.keys(kid, graph.plan, block, stack.num_layers)
                    results, computed, reused = _forward_group(
                        stack, heads, block, self._memo, kid, keys, self._ws
                    )
                    for name, result in zip(engine_names, results):
                        outputs[name].append(result)
                    self.stats.inference_seconds += time.perf_counter() - t0
                    sp.set(computed=computed, reused=reused)
                self.stats.rows_computed += computed
                self.stats.rows_reused += reused
                _OBS_ROWS_REUSED.inc(reused)
                self.stats.batches += 1
                self.stats.model_points += stages * len(chunk)
                _OBS_BATCH_FILL.observe(len(chunk))
        return {name: np.concatenate(chunks, axis=0) for name, chunks in outputs.items()}

    def _fill_records(self, kernel, points, records, indices, engine_names) -> None:
        """Forward ``points[i]`` for each ``i`` in ``indices`` through the
        named engines and store the outputs in ``records[i]``."""
        if not indices:
            return
        out = self._forward_chunks(kernel, [points[i] for i in indices], engine_names)
        for name in engine_names:
            field = _RECORD_FIELDS[name]
            for row, i in enumerate(indices):
                records[i][field] = out[name][row]

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

        # Stage 1: validity classifier for every point not yet classified,
        # fused with the regressors when every point wants objectives.
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
        fused = objectives_for == "all"
        self._fill_records(kernel, points, records, need_cls, _HEADS if fused else _CLASSIFIER)

        logits, wants_reg = self._cascade(records, valid_threshold, objectives_for)
        self.stats.cascade_skipped += wants_reg.count(False)

        # Stage 2: regression for points that need objectives and have
        # none yet (a classified point the cascade skipped, when fused).
        need_reg: List[int] = []
        fresh_reg = set()
        for i, record in enumerate(records):
            if wants_reg[i] and "reg" not in record and id(record) not in fresh_reg:
                need_reg.append(i)
                fresh_reg.add(id(record))
        self._fill_records(kernel, points, records, need_reg, _REGRESSORS)
        return self._materialize(records, logits, wants_reg, valid_threshold)

    @staticmethod
    def _cascade(records, valid_threshold, objectives_for) -> Tuple[np.ndarray, List[bool]]:
        """The classified records' stacked logits, and which of them want
        objectives: all under ``"all"``, else those clearing the
        threshold."""
        logits = np.stack([record["logits"] for record in records])
        if objectives_for == "all":
            return logits, [True] * len(records)
        exp = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs = exp[:, 1] / exp.sum(axis=1)
        return logits, [bool(prob >= valid_threshold) for prob in probs]

    def _materialize(self, records, logits, wants_reg, valid_threshold) -> List[Prediction]:
        """Predictions from complete records, through the shared reference
        helper (:func:`predictions_from_outputs`)."""
        t0 = time.perf_counter()
        mask = [want and "reg" in record for want, record in zip(wants_reg, records)]
        reg_dim = None
        for record in records:
            if "reg" in record:
                reg_dim = record["reg"].shape[0]
                break
        if reg_dim is None:
            reg = bram = None
        else:
            reg = np.zeros((len(records), reg_dim), dtype=logits.dtype)
            bram = np.zeros((len(records), 1), dtype=logits.dtype)
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
