"""A small vectorized autograd engine over numpy arrays.

Substitutes for PyTorch in the GNN-DSE reproduction.  Supports exactly
the operator set the model needs: broadcast arithmetic, matmul,
activations, reductions, concatenation, row gathering, and sorted
segment sums (the message-passing primitive).  Gradients are accumulated
by reverse-mode differentiation over a topologically-sorted tape.

Design notes
------------
* ``data`` is a float ndarray in the engine's default dtype — float32
  for training throughput (the hot path is memory-bandwidth bound);
  :func:`set_default_dtype` switches to float64 for tight numerical
  gradient checks.
* Broadcasting is handled by un-broadcasting gradients back to the
  operand shapes (summing over expanded axes).
* Segment aggregation (the message-passing primitive) is a cached
  sparse-matrix product; gather backward uses a precomputed
  :class:`IndexPlan` instead of the very slow ``np.add.at``.
"""

from __future__ import annotations

import threading
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import NNError

__all__ = [
    "Tensor",
    "Segments",
    "IndexPlan",
    "concat",
    "stack_max",
    "no_grad",
    "set_default_dtype",
    "get_default_dtype",
]

ArrayLike = Union[np.ndarray, float, int, Sequence]

# Graph construction is toggled per *thread*: a server thread running
# inference under ``no_grad`` must not silently zero the gradients of a
# training loop in another thread (the active-learning loop fine-tunes
# while the same process serves requests).
_grad_state = threading.local()


def _grad_enabled() -> bool:
    return getattr(_grad_state, "enabled", True)

#: float32 keeps the message-passing hot path memory-bandwidth friendly;
#: numerical gradient checks switch to float64 via set_default_dtype.
_default_dtype = np.float32


def set_default_dtype(dtype) -> None:
    """Set the engine's float dtype (np.float32 or np.float64)."""
    global _default_dtype
    dtype = np.dtype(dtype).type
    if dtype not in (np.float32, np.float64):
        raise NNError("default dtype must be float32 or float64")
    _default_dtype = dtype


def get_default_dtype():
    """Current engine float dtype."""
    return _default_dtype


class no_grad:
    """Context manager disabling graph construction (this thread only)."""

    def __enter__(self):
        self._prev = _grad_enabled()
        _grad_state.enabled = False
        return self

    def __exit__(self, *exc):
        _grad_state.enabled = self._prev
        return False


def _as_array(value: ArrayLike) -> np.ndarray:
    if isinstance(value, np.ndarray):
        return value.astype(_default_dtype, copy=False)
    return np.asarray(value, dtype=_default_dtype)


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (reverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Segments:
    """Precomputed layout of sorted segment ids.

    Parameters
    ----------
    ids:
        Sorted, non-negative int array mapping each row to its segment.
    num_segments:
        Total segment count (>= ids.max()+1); empty segments allowed.
    """

    def __init__(self, ids: np.ndarray, num_segments: int):
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size and np.any(np.diff(ids) < 0):
            raise NNError("segment ids must be sorted ascending")
        if ids.size and ids[-1] >= num_segments:
            raise NNError("segment id exceeds num_segments")
        self.ids = ids
        self.num_segments = int(num_segments)
        self.counts = np.bincount(ids, minlength=num_segments)
        starts = np.zeros(num_segments, dtype=np.int64)
        if num_segments > 1:
            starts[1:] = np.cumsum(self.counts)[:-1]
        self.starts = starts
        self.nonempty = self.counts > 0
        self._plan: Optional["IndexPlan"] = None
        self._csr = None

    @property
    def plan(self) -> "IndexPlan":
        """IndexPlan for gathering per-segment rows back per element."""
        if self._plan is None:
            self._plan = IndexPlan(self.ids, self.num_segments)
        return self._plan

    @property
    def matrix(self):
        """Cached (num_segments, E) CSR aggregation matrix."""
        if self._csr is None:
            import scipy.sparse as sp

            count = self.ids.size
            self._csr = sp.csr_matrix(
                (np.ones(count, dtype=np.float32), (self.ids, np.arange(count))),
                shape=(self.num_segments, count),
            )
        return self._csr

    def sum(self, data: np.ndarray) -> np.ndarray:
        """Segment-wise sum of rows.

        Implemented as a cached sparse-matrix product — measurably
        faster than ``np.add.reduceat`` on the wide float matrices of
        the message-passing hot path.
        """
        out_shape = (self.num_segments,) + data.shape[1:]
        if self.ids.size == 0:
            return np.zeros(out_shape, dtype=data.dtype)
        flat = data.reshape(data.shape[0], -1)
        out = self.matrix @ flat
        return np.ascontiguousarray(out).reshape(out_shape)

    def max(self, data: np.ndarray) -> np.ndarray:
        """Segment-wise max (empty segments get 0); not differentiated."""
        out_shape = (self.num_segments,) + data.shape[1:]
        out = np.zeros(out_shape, dtype=data.dtype)
        if self.ids.size == 0:
            return out
        reduced = np.maximum.reduceat(data, self.starts[self.nonempty], axis=0)
        out[self.nonempty] = reduced
        return out

    def expand(self, per_segment: np.ndarray) -> np.ndarray:
        """Broadcast one row per segment back to one row per element."""
        return per_segment[self.ids]


class IndexPlan:
    """A row-index array with a precomputed fast scatter-add plan.

    ``np.add.at`` (the naive scatter-add) is an order of magnitude
    slower than a sort + ``reduceat``; since graph batches reuse the
    same gather indices across every layer and epoch, we precompute the
    sort permutation once and reuse it in every backward pass.
    """

    def __init__(self, index: np.ndarray, num_rows: int):
        self.index = np.asarray(index, dtype=np.int64)
        self.num_rows = int(num_rows)
        self._csr = None

    @property
    def matrix(self):
        """Cached (num_rows, E) CSR scatter matrix."""
        if self._csr is None:
            import scipy.sparse as sp

            count = self.index.size
            self._csr = sp.csr_matrix(
                (np.ones(count, dtype=np.float32), (self.index, np.arange(count))),
                shape=(self.num_rows, count),
            )
        return self._csr

    def scatter_add(self, values: np.ndarray) -> np.ndarray:
        """Return (num_rows, ...) with ``out[index[k]] += values[k]``."""
        out_shape = (self.num_rows,) + values.shape[1:]
        if self.index.size == 0:
            return np.zeros(out_shape, dtype=values.dtype)
        flat = values.reshape(values.shape[0], -1)
        return np.ascontiguousarray(self.matrix @ flat).reshape(out_shape)


class Tensor:
    """An autograd-tracked numpy array."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "_grad_owned")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _parents: Tuple["Tensor", ...] = (),
        _backward: Optional[Callable[[np.ndarray], None]] = None,
    ):
        self.data = _as_array(data)
        self.grad: Optional[np.ndarray] = None
        self._grad_owned = False
        grad_enabled = _grad_enabled()
        self.requires_grad = requires_grad and grad_enabled
        self._parents = _parents if grad_enabled else ()
        self._backward = _backward if grad_enabled else None

    # -- plumbing -----------------------------------------------------------

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def numpy(self) -> np.ndarray:
        return self.data

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def zero_grad(self) -> None:
        self.grad = None
        self._grad_owned = False

    def _accumulate(self, grad: np.ndarray) -> None:
        # Lazy-copy accumulation: the first contribution is referenced,
        # not copied (most tensors receive exactly one); a second
        # contribution forces a fresh owned buffer before mutating.
        if self.grad is None:
            self.grad = grad
            self._grad_owned = False
        elif self._grad_owned:
            self.grad += grad
        else:
            self.grad = self.grad + grad
            self._grad_owned = True

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Reverse-mode AD from this tensor (default seed: ones).

        Gradients are kept on leaves only (tensors without parents, e.g.
        parameters); an intermediate tensor's gradient is released as
        soon as it has been propagated, so a training step never holds
        a gradient for every activation at once.
        """
        if grad is None:
            grad = np.ones_like(self.data)
        topo: List[Tensor] = []
        visited = set()

        def visit(node: "Tensor"):
            if id(node) in visited:
                return
            visited.add(id(node))
            for parent in node._parents:
                visit(parent)
            topo.append(node)

        visit(self)
        self._accumulate(np.asarray(grad, dtype=self.data.dtype))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
            if node._parents:
                node.grad = None

    @staticmethod
    def _make(data, parents, backward, requires: bool) -> "Tensor":
        requires = requires and _grad_enabled()
        return Tensor(
            data,
            requires_grad=requires,
            _parents=tuple(p for p in parents if p.requires_grad) if requires else (),
            _backward=backward if requires else None,
        )

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data + other.data

        def backward(grad):
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad, other.shape))

        return self._make(out_data, (self, other), backward, self.requires_grad or other.requires_grad)

    __radd__ = __add__

    def __mul__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data * other.data

        def backward(grad):
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad * self.data, other.shape))

        return self._make(out_data, (self, other), backward, self.requires_grad or other.requires_grad)

    __rmul__ = __mul__

    def __neg__(self) -> "Tensor":
        return self * -1.0

    def __sub__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        return self + (-other)

    def __rsub__(self, other) -> "Tensor":
        return Tensor(other) + (-self)

    def __truediv__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        return self * other.pow(-1.0)

    def __rtruediv__(self, other) -> "Tensor":
        return Tensor(other) * self.pow(-1.0)

    def pow(self, exponent: float) -> "Tensor":
        out_data = np.power(self.data, exponent)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * exponent * np.power(self.data, exponent - 1.0))

        return self._make(out_data, (self,), backward, self.requires_grad)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        if not isinstance(other, Tensor):
            other = Tensor(other)
        out_data = self.data @ other.data

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad @ other.data.T)
            if other.requires_grad:
                other._accumulate(self.data.T @ grad)

        return self._make(out_data, (self, other), backward, self.requires_grad or other.requires_grad)

    # -- elementwise nonlinearities ------------------------------------------------

    def exp(self) -> "Tensor":
        out_data = np.exp(np.clip(self.data, -60.0, 60.0))

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * out_data)

        return self._make(out_data, (self,), backward, self.requires_grad)

    def log(self) -> "Tensor":
        out_data = np.log(np.maximum(self.data, 1e-12))

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad / np.maximum(self.data, 1e-12))

        return self._make(out_data, (self,), backward, self.requires_grad)

    def sqrt(self) -> "Tensor":
        return self.pow(0.5)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * (1.0 - out_data**2))

        return self._make(out_data, (self,), backward, self.requires_grad)

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-np.clip(self.data, -60.0, 60.0)))

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * out_data * (1.0 - out_data))

        return self._make(out_data, (self,), backward, self.requires_grad)

    def relu(self) -> "Tensor":
        mask = self.data > 0

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * mask)

        return self._make(self.data * mask, (self,), backward, self.requires_grad)

    def leaky_relu(self, alpha: float = 0.01) -> "Tensor":
        mask = self.data > 0
        slope = np.where(mask, 1.0, alpha)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * slope)

        return self._make(self.data * slope, (self,), backward, self.requires_grad)

    def elu(self, alpha: float = 1.0) -> "Tensor":
        mask = self.data > 0
        exp_part = alpha * (np.exp(np.clip(self.data, -60.0, 0.0)) - 1.0)
        out_data = np.where(mask, self.data, exp_part)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * np.where(mask, 1.0, exp_part + alpha))

        return self._make(out_data, (self,), backward, self.requires_grad)

    # -- reductions / shaping --------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad):
            if not self.requires_grad:
                return
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, self.shape).copy())

        return self._make(out_data, (self,), backward, self.requires_grad)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        count = self.size if axis is None else self.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def reshape(self, *shape) -> "Tensor":
        out_data = self.data.reshape(*shape)
        original = self.shape

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad.reshape(original))

        return self._make(out_data, (self,), backward, self.requires_grad)

    def transpose(self, axes=None) -> "Tensor":
        out_data = self.data.transpose(axes)
        inverse = None if axes is None else np.argsort(axes)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad.transpose(inverse))

        return self._make(out_data, (self,), backward, self.requires_grad)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    # -- gather / segment ops -----------------------------------------------------------

    def gather_rows(self, index) -> "Tensor":
        """Select rows: ``out[k] = self[index[k]]`` (scatter-add backward).

        Pass an :class:`IndexPlan` on hot paths — its precomputed sorted
        layout makes the backward scatter-add ~10× faster than the
        naive ``np.add.at`` fallback used for raw index arrays.
        """
        if isinstance(index, IndexPlan):
            plan = index
            out_data = self.data[plan.index]

            def backward(grad):
                if self.requires_grad:
                    self._accumulate(plan.scatter_add(grad))

            return self._make(out_data, (self,), backward, self.requires_grad)

        index = np.asarray(index, dtype=np.int64)
        out_data = self.data[index]

        def backward_slow(grad):
            if self.requires_grad:
                acc = np.zeros_like(self.data)
                np.add.at(acc, index, grad)
                self._accumulate(acc)

        return self._make(out_data, (self,), backward_slow, self.requires_grad)

    def segment_sum(self, segments: Segments) -> "Tensor":
        """Sum rows into segments (rows must be pre-sorted by segment)."""
        if self.shape[0] != segments.ids.size:
            raise NNError(
                f"segment_sum: {self.shape[0]} rows vs {segments.ids.size} segment ids"
            )
        out_data = segments.sum(self.data)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad[segments.ids])

        return self._make(out_data, (self,), backward, self.requires_grad)

    def segment_softmax(self, segments: Segments) -> "Tensor":
        """Softmax over rows within each segment (numerically stable).

        Uses the detached per-segment max as the stabiliser, which is the
        standard trick (the max shift has zero gradient).
        """
        shifted = self - Tensor(segments.expand(segments.max(self.data)))
        exp = shifted.exp()
        denom = exp.segment_sum(segments)
        denom_per_row = denom.gather_rows(segments.plan)
        return exp / (denom_per_row + 1e-16)

    def softmax(self, axis: int = -1) -> "Tensor":
        shifted = self - Tensor(self.data.max(axis=axis, keepdims=True))
        exp = shifted.exp()
        return exp / (exp.sum(axis=axis, keepdims=True) + 1e-16)

    def log_softmax(self, axis: int = -1) -> "Tensor":
        shifted = self - Tensor(self.data.max(axis=axis, keepdims=True))
        return shifted - (shifted.exp().sum(axis=axis, keepdims=True) + 1e-16).log()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    """Concatenate tensors along ``axis`` with autograd support."""
    tensors = list(tensors)
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)
    requires = any(t.requires_grad for t in tensors)

    def backward(grad):
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if tensor.requires_grad:
                slicer = [slice(None)] * grad.ndim
                slicer[axis] = slice(int(start), int(stop))
                tensor._accumulate(grad[tuple(slicer)])

    return Tensor._make(out_data, tuple(tensors), backward, requires)


def stack_max(tensors: Sequence[Tensor]) -> Tensor:
    """Elementwise max across equally-shaped tensors (JKN aggregation).

    Gradient flows to the argmax tensor per element (ties go to the
    earliest layer, matching PyTorch's max backward convention).
    """
    tensors = list(tensors)
    stacked = np.stack([t.data for t in tensors], axis=0)
    winner = np.argmax(stacked, axis=0)
    out_data = np.take_along_axis(stacked, winner[None], axis=0)[0]
    requires = any(t.requires_grad for t in tensors)

    def backward(grad):
        for layer, tensor in enumerate(tensors):
            if tensor.requires_grad:
                tensor._accumulate(grad * (winner == layer))

    return Tensor._make(out_data, tuple(tensors), backward, requires)
