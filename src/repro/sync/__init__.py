"""Perfectly synchronous round simulator (paper, Section 2).

The paper's synchronous model: a completely-connected network of
processes communicating only by message-passing, all processes taking
steps at the same time, message delivery time constant (one round).
Computation proceeds in rounds numbered from 1; each round a process
sends at the start and updates its state from the delivered messages at
the end.

- :mod:`repro.sync.protocol` — the round-protocol interface.
- :mod:`repro.sync.clock` — the declaration form of a protocol whose
  state is the round variable alone, and what is derived from it.
- :mod:`repro.sync.adversary` — process-failure injection (crash,
  send-omission, receive-omission, general omission), scripted and
  randomized.
- :mod:`repro.sync.corruption` — systemic-failure injection (arbitrary
  state corruption at execution start or mid-run).
- :mod:`repro.sync.engine` — the lockstep engine; records a full
  :class:`~repro.histories.history.ExecutionHistory` of every run.
"""

from repro._lazy import lazy_surface

__all__ = [
    "Adversary",
    "ByzantineAdversary",
    "ClockSkewCorruption",
    "CorruptionPlan",
    "DelayModel",
    "ExplicitCorruption",
    "FaultBudgetExceeded",
    "FaultMode",
    "NoCorruption",
    "NoDelay",
    "NullAdversary",
    "RandomAdversary",
    "RandomCorruption",
    "RandomDelay",
    "RoundFaultPlan",
    "TargetedLag",
    "ScriptedAdversary",
    "SyncProtocol",
    "SyncRunResult",
    "run_sync",
]

__getattr__, __dir__ = lazy_surface(
    __name__,
    {
        ".adversary": (
            "Adversary",
            "ByzantineAdversary",
            "FaultBudgetExceeded",
            "FaultMode",
            "NullAdversary",
            "RandomAdversary",
            "RoundFaultPlan",
            "ScriptedAdversary",
        ),
        ".corruption": (
            "ClockSkewCorruption",
            "CorruptionPlan",
            "ExplicitCorruption",
            "NoCorruption",
            "RandomCorruption",
        ),
        ".delays": ("DelayModel", "NoDelay", "RandomDelay", "TargetedLag"),
        ".engine": ("SyncRunResult", "run_sync"),
        ".protocol": ("SyncProtocol",),
    },
)
