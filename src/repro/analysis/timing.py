"""Small timing helpers shared by the CLI, the experiment drivers and the sweeps.

Timing is routed through the observability layer's span API
(:func:`repro.obs.trace.span`), so every ``timed_call`` shows up as a
``timed.<function>`` span in traces when tracing is enabled, and all
measurements use the monotonic :func:`time.perf_counter_ns` clock —
immune to NTP/wall-clock adjustments mid-run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable

from repro.obs.trace import span as _span

__all__ = ["Timed", "timed_call"]


@dataclass(frozen=True)
class Timed:
    """The result of a timed call: the returned value and the monotonic seconds it took."""

    value: Any
    seconds: float


def timed_call(function: Callable[..., Any], *args: Any, **kwargs: Any) -> Timed:
    """Call ``function`` and measure the monotonic time it takes.

    When tracing is enabled the call is additionally recorded as a
    ``timed.<name>`` span (nested under whatever span is open).
    """
    label = getattr(function, "__name__", None) or "call"
    with _span("timed." + label):
        start = time.perf_counter_ns()
        value = function(*args, **kwargs)
        elapsed_ns = time.perf_counter_ns() - start
    return Timed(value=value, seconds=elapsed_ns / 1e9)
