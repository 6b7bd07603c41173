"""Asynchronous system simulator (paper, Section 3).

The paper's asynchronous model: unbounded differences in process speeds
and message delivery times, crash-type process failures, and systemic
failures (arbitrary initial states).  The simulator is a discrete-event
scheduler:

- every process takes *ticks* (local steps) at its own drifting rate —
  unbounded relative speeds within a run;
- messages are reliable but arbitrarily delayed; an optional *global
  stabilization time* (GST) bounds delays afterwards, which is how the
  Eventually-Weak failure-detector oracle earns its "eventually";
- crashes stop a process permanently at a scheduled instant;
- systemic failures install arbitrary initial states (reusing the
  corruption plans of :mod:`repro.sync.corruption`).

Outputs are sampled at a fixed virtual-time cadence, producing the time
series over which "eventually, permanently" detector properties and
consensus specifications are checked empirically.
"""

from repro._lazy import lazy_surface

__all__ = [
    "AsyncProtocol",
    "AsyncScheduler",
    "AsyncTrace",
    "ProcessContext",
    "WeakDetectorOracle",
]

__getattr__, __dir__ = lazy_surface(
    __name__,
    {
        ".oracle": ("WeakDetectorOracle",),
        ".scheduler": ("AsyncProtocol", "AsyncScheduler", "AsyncTrace", "ProcessContext"),
    },
)
