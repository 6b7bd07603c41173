"""repro — Unifying Self-Stabilization and Fault-Tolerance.

A complete, executable reproduction of Gopal & Perry, *"Unifying
Self-Stabilization and Fault-Tolerance (Preliminary Version)"*, PODC
1993: the formal model (histories, coteries, the ``ftss-solves``
definition), the round agreement protocol (Figure 1), the compiler from
process-failure-tolerant protocols to process- and systemic-failure-
tolerant ones (Figures 2–3), the impossibility scenarios (Theorems
1–2), and the asynchronous results (Figure 4's ◇W→◇S failure-detector
transformation and the self-stabilizing Chandra–Toueg consensus).

Quick tour
----------

Synchronous::

    from repro import (
        RoundAgreementProtocol, ClockAgreementProblem, ftss_check,
        run_sync, RandomAdversary, FaultMode, RandomCorruption,
    )

    result = run_sync(
        RoundAgreementProtocol(), n=6, rounds=40,
        adversary=RandomAdversary(n=6, f=2, mode=FaultMode.GENERAL_OMISSION),
        corruption=RandomCorruption(seed=7),       # systemic failure
    )
    report = ftss_check(result.history, ClockAgreementProblem(),
                        stabilization_time=1)      # Theorem 3's bound
    assert report.holds

The compiler::

    from repro import FloodMinConsensus, compile_protocol
    pi_plus = compile_protocol(FloodMinConsensus(f=2, proposals=[3, 1, 4]))

Asynchronous::

    from repro import (AsyncScheduler, WeakDetectorOracle,
                       StrongDetector, strong_completeness)

See ``examples/`` for runnable end-to-end scenarios and
``benchmarks/`` for the per-figure/per-theorem experiment harness.
"""

from repro._lazy import lazy_surface

__version__ = "1.0.0"

__all__ = [
    "Adversary",
    "AsyncProtocol",
    "AsyncScheduler",
    "AsyncTrace",
    "BoundedRoundAgreement",
    "BoundedSkewAgreementProblem",
    "BroadcastProblem",
    "HeartbeatDetector",
    "NoDelay",
    "RandomDelay",
    "TargetedLag",
    "CTConsensus",
    "EarlyDecidingFloodMin",
    "InteractiveConsistency",
    "VectorConsensusProblem",
    "bounded_refutation_sweep",
    "CanonicalProtocol",
    "CanonicalRunner",
    "CheckReport",
    "ClockAgreementProblem",
    "ClockSkewCorruption",
    "CompiledProtocol",
    "ConsensusProblem",
    "ExecutionHistory",
    "ExperimentReport",
    "ExplicitCorruption",
    "FaultMode",
    "FloodBroadcast",
    "FloodMinConsensus",
    "FreeRunningRoundProtocol",
    "LastWriterDetector",
    "Message",
    "MinMergeRoundProtocol",
    "NoCorruption",
    "NullAdversary",
    "PhaseQueenConsensus",
    "Problem",
    "RandomAdversary",
    "RandomCorruption",
    "RepeatedConsensusProblem",
    "RoundAgreementProtocol",
    "RoundFaultPlan",
    "RoundHistory",
    "ScriptedAdversary",
    "StrongDetector",
    "SyncProtocol",
    "SyncRunResult",
    "UniformityCondition",
    "Violation",
    "WeakDetectorOracle",
    "compile_protocol",
    "consensus_log_agreement",
    "coterie",
    "coterie_timeline",
    "empirical_stabilization",
    "eventual_weak_accuracy",
    "ft_check",
    "ftss_check",
    "iteration_decisions",
    "message_overhead",
    "run_ft",
    "run_message_stats",
    "run_sync",
    "ss_check",
    "stable_windows",
    "strong_completeness",
    "tentative_check",
    "theorem1_scenario",
    "theorem2_scenario",
    "window_stabilization_times",
]

__getattr__, __dir__ = lazy_surface(
    __name__,
    {
        ".analysis.metrics": ("message_overhead", "run_message_stats"),
        ".analysis.report": ("ExperimentReport",),
        ".analysis.stabilization": ("empirical_stabilization", "window_stabilization_times"),
        ".asyncnet.oracle": ("WeakDetectorOracle",),
        ".asyncnet.scheduler": ("AsyncProtocol", "AsyncScheduler", "AsyncTrace"),
        ".core.bounded": ("BoundedRoundAgreement", "bounded_refutation_sweep"),
        ".core.canonical": ("CanonicalProtocol", "CanonicalRunner", "run_ft"),
        ".core.compiler": ("CompiledProtocol", "compile_protocol"),
        ".core.impossibility": ("theorem1_scenario", "theorem2_scenario"),
        ".core.problems": (
            "CheckReport",
            "ClockAgreementProblem",
            "ConsensusProblem",
            "Problem",
            "RepeatedConsensusProblem",
            "UniformityCondition",
            "Violation",
            "BoundedSkewAgreementProblem",
        ),
        ".core.rounds": (
            "FreeRunningRoundProtocol",
            "MinMergeRoundProtocol",
            "RoundAgreementProtocol",
        ),
        ".core.solvability": ("ft_check", "ftss_check", "ss_check", "tentative_check"),
        ".detectors.consensus": ("CTConsensus", "consensus_log_agreement"),
        ".detectors.heartbeat": ("HeartbeatDetector",),
        ".detectors.properties": ("eventual_weak_accuracy", "strong_completeness"),
        ".detectors.strong": ("LastWriterDetector", "StrongDetector"),
        ".histories.coterie": ("coterie", "coterie_timeline"),
        ".histories.history": ("ExecutionHistory", "Message", "RoundHistory"),
        ".histories.stability": ("stable_windows",),
        ".protocols.broadcast": ("BroadcastProblem", "FloodBroadcast"),
        ".protocols.earlydeciding": ("EarlyDecidingFloodMin",),
        ".protocols.floodmin": ("FloodMinConsensus",),
        ".protocols.interactive": ("InteractiveConsistency", "VectorConsensusProblem"),
        ".protocols.phaseking": ("PhaseQueenConsensus",),
        ".protocols.repeated": ("iteration_decisions",),
        ".sync.adversary": (
            "Adversary",
            "FaultMode",
            "NullAdversary",
            "RandomAdversary",
            "RoundFaultPlan",
            "ScriptedAdversary",
        ),
        ".sync.corruption": (
            "ClockSkewCorruption",
            "ExplicitCorruption",
            "NoCorruption",
            "RandomCorruption",
        ),
        ".sync.delays": ("NoDelay", "RandomDelay", "TargetedLag"),
        ".sync.engine": ("SyncRunResult", "run_sync"),
        ".sync.protocol": ("SyncProtocol",),
    },
)
