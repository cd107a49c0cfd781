"""Stage spans: wall time and counts of named stages, for whoever listens.

    with span("epipolar.estimate_essential") as counts:
        est = estimate_essential(...)
        counts["inliers"] = len(est.inlier_indices)

When its block exits normally, a span hands the recorder installed by
`recording` its name, the elapsed seconds and the counts dict it yielded.
With no recorder set a span only yields the dict, so library calls cost
the same traced or not, and no artifact ever holds a timing. The recorder
lives in a contextvars slot, so threads and tasks that did not set one
stay silent.
"""

from __future__ import annotations

import contextvars
import time
from contextlib import contextmanager

_RECORDER: contextvars.ContextVar = contextvars.ContextVar("panostitch_trace",
                                                           default=None)


@contextmanager
def span(name: str, **counts):
    """Time the block as stage `name`; yields the counts dict."""
    recorder = _RECORDER.get()
    if recorder is None:
        yield counts
        return
    t0 = time.perf_counter()
    yield counts
    recorder(name, time.perf_counter() - t0, counts)


@contextmanager
def recording(recorder):
    """Install recorder(name, seconds, counts) for the spans of the block."""
    token = _RECORDER.set(recorder)
    try:
        yield
    finally:
        _RECORDER.reset(token)
