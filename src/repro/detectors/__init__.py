"""Failure detectors and detector-based consensus (paper, Section 3).

- :mod:`repro.detectors.strong` — the Figure 4 protocol: a process- and
  systemic-failure-tolerant transformation of an Eventually Weak
  failure detector (◇W) into an Eventually Strong one (◇S), plus the
  non-stabilizing baseline it is compared against.
- :mod:`repro.detectors.properties` — empirical checkers for the
  detector properties (weak/strong completeness, eventual weak
  accuracy) over sampled traces.
- :mod:`repro.detectors.consensus` — Chandra–Toueg ◇S consensus
  (baseline) and the paper's self-stabilizing repeated-consensus
  variant (periodic retransmission + round-agreement superimposition).
- :mod:`repro.detectors.stack` — the heartbeat-◇P + Figure 4 pipeline
  stacked into one synchronous round protocol (and batched on the
  array engine via its suspect-matrix twin).
"""

from repro._lazy import lazy_surface

__all__ = [
    "CTConsensus",
    "DetectorStack",
    "DetectorVerdict",
    "LastWriterDetector",
    "StrongDetector",
    "consensus_log_agreement",
    "eventual_weak_accuracy",
    "strong_completeness",
]

__getattr__, __dir__ = lazy_surface(
    __name__,
    {
        ".consensus": ("CTConsensus", "consensus_log_agreement"),
        ".properties": ("DetectorVerdict", "eventual_weak_accuracy", "strong_completeness"),
        ".stack": ("DetectorStack",),
        ".strong": ("LastWriterDetector", "StrongDetector"),
    },
)
