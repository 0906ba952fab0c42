import tracemalloc

import pytest


@pytest.fixture
def traced_peak():
    """measure(fn, *args, **kwargs) -> (fn's result, the peak bytes numpy and
    Python allocated while it ran, as tracemalloc counts them)."""

    def measure(fn, *args, **kwargs):
        tracemalloc.start()
        try:
            result = fn(*args, **kwargs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return result, peak

    return measure
