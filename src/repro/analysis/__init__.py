"""Measurement and reporting over recorded runs.

- :mod:`repro.analysis.stabilization` — empirical stabilization times:
  the smallest grace period under which a problem predicate holds on
  every stable-coterie window of a history.  Includes a streaming
  (observer-based) counterpart for the clock-agreement problem.
- :mod:`repro.analysis.metrics` — message/overhead accounting for the
  compiler's and superimposition's cost benches, with a streaming
  counterpart that accumulates the same totals from the kernel's
  event bus.
- :mod:`repro.analysis.report` — "paper claim vs measured" tables the
  benchmark harness prints and EXPERIMENTS.md records.
"""

from repro._lazy import lazy_surface

__all__ = [
    "ExperimentReport",
    "StreamingClockStabilization",
    "StreamingMessageStats",
    "empirical_stabilization",
    "format_async_trace",
    "format_history",
    "message_overhead",
    "run_message_stats",
    "window_stabilization_times",
]

__getattr__, __dir__ = lazy_surface(
    __name__,
    {
        ".metrics": ("StreamingMessageStats", "message_overhead", "run_message_stats"),
        ".report": ("ExperimentReport",),
        ".stabilization": (
            "StreamingClockStabilization",
            "empirical_stabilization",
            "window_stabilization_times",
        ),
        ".tracefmt": ("format_async_trace", "format_history"),
    },
)
