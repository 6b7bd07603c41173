"""Live asyncio network runtime.

The paper's protocols, unmodified, over real transports: asyncio-queue
or loopback-TCP message passing, wire-level fault injection compiled
from the same unified :class:`~repro.kernel.faults.FaultPlan` the
simulators consume, and conformance checking that holds the live
substrate to the simulator's recorded histories and verdicts.

Layers (bottom up): :mod:`~repro.net.framing` (tagged-JSON codec +
length-prefixed frames), :mod:`~repro.net.transport` (in-process and
TCP fabrics), :mod:`~repro.net.interposer` (fault plan → wire
behaviour), :mod:`~repro.net.host` (round-paced and event-driven
process drivers), :mod:`~repro.net.cluster` (supervision, pacing,
deadline watchdog), :mod:`~repro.net.conformance` (simulator↔live
parity).  See ``docs/net.md`` for the architecture tour and the
NET-LIVE experiment for the headline parity run.
"""

from repro._lazy import lazy_surface

__all__ = [
    "DetectorConformance",
    "DetectorHost",
    "Endpoint",
    "FrameDecoder",
    "FrameError",
    "InProcessTransport",
    "LiveClock",
    "LiveDeadlineExceeded",
    "LiveRunResult",
    "NetContext",
    "ProcessHost",
    "SyncConformance",
    "TcpTransport",
    "Transport",
    "WireInterposer",
    "decode_value",
    "encode_value",
    "histories_equal",
    "live_run_sync",
    "make_transport",
    "run_detector_live",
    "run_live_sync",
    "verify_detector_conformance",
    "verify_sync_conformance",
]

__getattr__, __dir__ = lazy_surface(
    __name__,
    {
        ".cluster": (
            "LiveDeadlineExceeded",
            "LiveRunResult",
            "live_run_sync",
            "run_detector_live",
            "run_live_sync",
        ),
        ".conformance": (
            "DetectorConformance",
            "SyncConformance",
            "histories_equal",
            "verify_detector_conformance",
            "verify_sync_conformance",
        ),
        ".framing": ("FrameDecoder", "FrameError", "decode_value", "encode_value"),
        ".host": ("DetectorHost", "LiveClock", "NetContext", "ProcessHost"),
        ".interposer": ("WireInterposer",),
        ".transport": (
            "Endpoint",
            "InProcessTransport",
            "TcpTransport",
            "Transport",
            "make_transport",
        ),
    },
)
