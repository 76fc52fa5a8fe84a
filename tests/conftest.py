"""Helpers shared by the test modules."""

import tracemalloc


def traced_peak(fn):
    """(fn(), the peak bytes traced while fn ran), tracing only that call."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
