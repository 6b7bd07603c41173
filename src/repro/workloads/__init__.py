"""Workload generators: adversary schedules and corruption patterns.

The theorems quantify over *all* failure patterns; experiments need
both broad randomized campaigns (:class:`~repro.sync.adversary.RandomAdversary`,
:class:`~repro.sync.corruption.RandomCorruption`) and the specific
worst-case patterns the paper's arguments hinge on.  This package holds
the latter:

- :class:`LateRevealAdversary` — a general-omission process that hides
  a value from everyone and reveals it to a single victim at a chosen
  cadence: the stale-message attack that makes the compiler's suspect
  sets load-bearing (ABL-SUSPECT).
- :class:`ConsensusDeadlockCorruption` — corrupts only the consensus
  layer (send-flags claim messages were already sent; phases point
  mid-protocol) while leaving the embedded failure detector clean: the
  pure [KP90] deadlock scenario for the retransmission ablation
  (ABL-RETX), with no corrupted-suspicion side channel to kick the
  system awake.
- helpers for building crash/corruption sweeps used by the benches.
"""

from repro._lazy import lazy_surface

__all__ = [
    "ConsensusDeadlockCorruption",
    "LateRevealAdversary",
    "clock_skew_pattern",
    "crash_schedule",
]

__getattr__, __dir__ = lazy_surface(
    __name__,
    {
        ".scenarios": (
            "ConsensusDeadlockCorruption",
            "LateRevealAdversary",
            "clock_skew_pattern",
            "crash_schedule",
        ),
    },
)
