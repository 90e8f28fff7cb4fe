"""Shared test fixtures.

The NN engine defaults to float32 for training throughput; tests run in
float64 so numerical gradient checks stay tight.  Individual tests that
exercise the float32 path opt back in explicitly.

``--engine {eager,fused}`` selects the tensor engine for the
engine-sensitive forward tests (``test_nn_tensor``, ``test_nn_layers``,
``test_model``, and the differential suite): the same test bodies run
against the eager reference or the fused lazy engine, so CI covers both
without duplicated tests.  Gradient checks always run eager — the lazy
engine is inference-only by design.
"""

import ctypes
import gc

import numpy as np
import pytest

from repro.nn.tensor import Tensor, get_default_dtype, set_default_dtype

try:
    _malloc_trim = ctypes.CDLL("libc.so.6").malloc_trim
except (OSError, AttributeError):  # not glibc
    _malloc_trim = None


def pytest_addoption(parser):
    parser.addoption(
        "--engine",
        action="store",
        default="eager",
        choices=("eager", "fused"),
        help="tensor engine for engine-parametrized forward tests",
    )


@pytest.fixture(autouse=True)
def float64_engine():
    previous = get_default_dtype()
    set_default_dtype(np.float64)
    yield
    set_default_dtype(previous)


@pytest.fixture(autouse=True, scope="module")
def release_freed_memory():
    """Hand freed heap pages back to the OS after each test module.

    glibc keeps freed arrays in its arenas, so without this the suite's
    RSS ratchets up to the sum of past peaks (about 2 GB of free heap
    after the DSE-strategy tests) and a later training test stacks its
    own peak on top of it.
    """
    yield
    gc.collect()
    if _malloc_trim is not None:
        _malloc_trim(0)


@pytest.fixture
def engine(request) -> str:
    """The engine selected with ``--engine`` (default ``eager``)."""
    return request.config.getoption("--engine")


@pytest.fixture
def T(engine):
    """Input-tensor factory honouring ``--engine``.

    Returns a plain :class:`Tensor` under ``eager`` and a
    :class:`~repro.nn.lazy.LazyTensor` (recording, fused execution on
    demand) under ``fused``.  Forward-value tests build their inputs
    through this so one body exercises both engines.
    """

    def make(data):
        array = data.data if isinstance(data, Tensor) else data
        if engine == "fused":
            from repro.nn.lazy import LazyTensor

            return LazyTensor(array)
        return Tensor(array)

    return make


@pytest.fixture
def engine_batch(engine):
    """Wrap a :class:`~repro.nn.data.Batch` for the selected engine.

    Under ``fused`` the batch's node features become a LazyTensor, so a
    model's own forward records one lazy graph and realizes fused —
    exactly how the DSE pipeline drives it.  Under ``eager`` the batch
    is returned untouched.
    """

    def apply(batch):
        if engine == "fused":
            from repro.nn.lazy import LazyTensor

            batch.x = LazyTensor(np.asarray(batch.x))
        return batch

    return apply
