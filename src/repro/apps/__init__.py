"""Application layer: services built on the paper's protocols.

What a downstream adopter actually wants from "self-stabilizing
fault-tolerance" is not a consensus primitive but a service that keeps
working: :mod:`repro.apps.rsm` provides total-order command
replication (a replicated state machine) over the self-stabilizing
repeated consensus of Section 3, with client workloads, exactly-once
application, and spec checkers.
"""

from repro._lazy import lazy_surface

__all__ = [
    "ClientWorkload",
    "Command",
    "NOOP",
    "ReplicatedStateMachine",
    "applied_commands",
    "rsm_verdict",
]

__getattr__, __dir__ = lazy_surface(
    __name__,
    {
        ".rsm": (
            "ClientWorkload",
            "Command",
            "NOOP",
            "ReplicatedStateMachine",
            "applied_commands",
            "rsm_verdict",
        ),
    },
)
