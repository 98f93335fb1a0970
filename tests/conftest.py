import tracemalloc

import hypothesis
import numpy as np
import pytest

hypothesis.settings.register_profile(
    "lab", deadline=None, derandomize=True, max_examples=60
)
hypothesis.settings.load_profile("lab")


@pytest.fixture
def rng():
    return np.random.default_rng(987654321)


@pytest.fixture
def peak_bytes():
    """``peak_bytes(fn, *args)``: the peak traced allocation while ``fn(*args)``
    runs (tracemalloc sees numpy buffers)."""
    def peak(fn, *args):
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return peak
