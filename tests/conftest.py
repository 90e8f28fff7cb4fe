"""Shared test fixtures.

The NN engine defaults to float32 for training throughput; tests run in
float64 so numerical gradient checks stay tight.  Individual tests that
exercise the float32 path opt back in explicitly.
"""

import ctypes
import gc

import numpy as np
import pytest

from repro.nn.tensor import get_default_dtype, set_default_dtype

try:
    _malloc_trim = ctypes.CDLL("libc.so.6").malloc_trim
except (OSError, AttributeError):  # not glibc
    _malloc_trim = None


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
