"""Peak memory of one call, as `tracemalloc` traces it."""

import tracemalloc


def peak_bytes(fn):
    """fn() and the peak bytes traced while it ran; tracing stops after."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
