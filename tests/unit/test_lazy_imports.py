"""A process imports only the planes it runs; the public surface is intact.

Package ``__init__``s re-export through :func:`repro._lazy.lazy_surface`,
so a name is imported on first use.  The import-set checks each start a
fresh interpreter and look at ``sys.modules`` after one entry point has
loaded; the surface checks pin every package's ``__all__`` and resolve
each name against the module that defines it.
"""

from __future__ import annotations

import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments import REGISTRY

SRC = Path(__file__).resolve().parents[2] / "src"

#: Where the FIG4 sweep of ``benchmarks/suite``'s ``async_sweep`` goes:
#: the run cache, ``run_sweep`` and the serving catalog, then one point.
FIG4_SWEEP = """
import repro.cache
repro.cache.configure(enabled=False)
from repro.experiments.base import run_sweep
from repro.serve.catalog import default_catalog
surface = default_catalog().get("FIG4")
point = surface.default_points[0]
run_sweep(surface.worker, [surface.build_task(point, 11)], jobs=1)
"""


def _loaded(*argv: str) -> list:
    """Modules a fresh ``python *argv`` imports, read off ``-X importtime``."""
    done = subprocess.run(
        [sys.executable, "-X", "importtime", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return [
        line.rsplit("|", 1)[1].strip()
        for line in done.stderr.splitlines()
        if line.startswith("import time:") and not line.endswith("| imported package")
    ]


def _under(modules, *prefixes):
    return sorted(
        m for m in modules if any(m == p or m.startswith(p + ".") for p in prefixes)
    )


def test_the_fig4_sweep_path_loads_no_other_plane():
    loaded = _loaded("-c", FIG4_SWEEP)
    assert "repro.experiments.fig4" in loaded
    heavy = _under(
        loaded,
        "asyncio",
        "multiprocessing",
        "numpy",
        "repro.array",
        "repro.verify",
        "repro.explore",
        "repro.net.cluster",
    )
    assert heavy == []


def test_import_repro_loads_no_plane():
    assert _under(_loaded("-c", "import repro"), "repro") == ["repro", "repro._lazy"]


def test_a_serve_worker_loads_no_experiment_and_no_array_plane():
    loaded = _loaded("-c", "import repro.serve.worker")
    assert "repro.serve.worker" in loaded
    assert _under(loaded, "repro.experiments", "repro.array") == []
    # a worker is blocking I/O: the fleet's event loop stays in the server
    assert _under(loaded, "asyncio", "concurrent.futures") == []


def test_listing_the_experiments_imports_none_of_them():
    loaded = _loaded("-m", "repro.experiments", "--list")
    experiments = _under(loaded, "repro.experiments")
    assert set(experiments) <= {
        "repro.experiments",
        "repro.experiments.__main__",
        "repro.experiments.base",
    }


#: Every package's ``__all__``, as it stood before its surface went lazy.
PARENT_ALL = {
    "repro": """
        Adversary AsyncProtocol AsyncScheduler AsyncTrace BoundedRoundAgreement
        BoundedSkewAgreementProblem BroadcastProblem HeartbeatDetector NoDelay RandomDelay
        TargetedLag CTConsensus EarlyDecidingFloodMin InteractiveConsistency
        VectorConsensusProblem bounded_refutation_sweep CanonicalProtocol CanonicalRunner
        CheckReport ClockAgreementProblem ClockSkewCorruption CompiledProtocol
        ConsensusProblem ExecutionHistory ExperimentReport ExplicitCorruption FaultMode
        FloodBroadcast FloodMinConsensus FreeRunningRoundProtocol LastWriterDetector Message
        MinMergeRoundProtocol NoCorruption NullAdversary PhaseQueenConsensus Problem
        RandomAdversary RandomCorruption RepeatedConsensusProblem RoundAgreementProtocol
        RoundFaultPlan RoundHistory ScriptedAdversary StrongDetector SyncProtocol
        SyncRunResult UniformityCondition Violation WeakDetectorOracle compile_protocol
        consensus_log_agreement coterie coterie_timeline empirical_stabilization
        eventual_weak_accuracy ft_check ftss_check iteration_decisions message_overhead
        run_ft run_message_stats run_sync ss_check stable_windows strong_completeness
        tentative_check theorem1_scenario theorem2_scenario window_stabilization_times
    """.split(),
    "repro.analysis": """
        ExperimentReport StreamingClockStabilization StreamingMessageStats
        empirical_stabilization format_async_trace format_history message_overhead
        run_message_stats window_stabilization_times
    """.split(),
    "repro.apps": """
        ClientWorkload Command NOOP ReplicatedStateMachine applied_commands rsm_verdict
    """.split(),
    "repro.array": """
        ArrayBackendUnavailable ArrayConformance ArrayEligibilityError ArrayProtocol
        ArrayRunResult BACKENDS LaneConformance as_array_protocol assert_conformance
        check_conformance has_numpy pick_backend run_array
    """.split(),
    "repro.asyncnet": """
        AsyncProtocol AsyncScheduler AsyncTrace ProcessContext WeakDetectorOracle
    """.split(),
    "repro.cache": """
        CacheStats CacheStatsObserver CanonicalizationError RunCache VerifyReport
        active_cache cache_dir cache_enabled cached_call canonical_bytes code_fingerprint
        configure digest_key disable enable flush get_cache worker_ref
    """.split(),
    "repro.core": """
        BoundedClockAgreementProblem BoundedRoundAgreement CanonicalProtocol CanonicalRunner
        CheckReport ClockAgreementProblem CompiledProtocol ConsensusProblem
        FreeRunningRoundProtocol MinMergeRoundProtocol Problem RepeatedConsensusProblem
        RoundAgreementProtocol UniformityCondition Violation bounded_refutation_sweep
        compile_protocol ft_check ftss_check run_ft ss_check tentative_check
    """.split(),
    "repro.detectors": """
        CTConsensus DetectorStack DetectorVerdict LastWriterDetector StrongDetector
        consensus_log_agreement eventual_weak_accuracy strong_completeness
    """.split(),
    "repro.experiments": "REGISTRY ExperimentResult Expectations Registry".split(),
    "repro.explore": """
        Artifact ExplorationResult ExplorationTarget Finding OmissionSpec PlanSpace PlanSpec
        TARGETS dedupe explore get_target load_artifact replay save_artifact shrink
    """.split(),
    "repro.histories": """
        CLOCK_KEY CausalityTracker ExecutionHistory Message ProcessRoundRecord RoundHistory
        StableWindow coterie coterie_timeline happened_before is_coterie_monotone
        knowledge_timeline renumber stable_windows windows_from_timeline
    """.split(),
    "repro.kernel": """
        AsyncFaultView AsyncMessage AsyncTraceRecorder ChurnEvent ChurnSchedule
        CompleteTopology ComposedAdversary CrashScheduleAdversary DynamicTopology EventBus
        ExplicitTopology GridTopology FaultEvent FaultKind FaultPlan FrozenDict
        HistoryRecorder LiveTraceRecorder Liveness Observer RandomTopology RingTopology
        RoundLedger ServeEvent SyncFaultView Topology TreeTopology copy_payload freeze imm
        normalize_topology round_edges snapshot_state snapshot_states
    """.split(),
    "repro.net": """
        DetectorConformance DetectorHost Endpoint FrameDecoder FrameError InProcessTransport
        LiveClock LiveDeadlineExceeded LiveRunResult NetContext ProcessHost SyncConformance
        TcpTransport Transport WireInterposer decode_value encode_value histories_equal
        live_run_sync make_transport run_detector_live run_live_sync
        verify_detector_conformance verify_sync_conformance
    """.split(),
    "repro.protocols": """
        BoundedUnison BroadcastProblem EarlyDecidingFloodMin FloodBroadcast
        FloodMinConsensus InteractiveConsistency IterationDecision MinUnison
        PhaseQueenConsensus VectorConsensusProblem iteration_decisions
    """.split(),
    "repro.serve": """
        Catalog ProcessFleet ProtocolError ServeClient ServeError ServerThread StreamSummary
        SweepService SweepSurface ThreadFleet WorkerFleet default_catalog make_fleet
    """.split(),
    "repro.sync": """
        Adversary ByzantineAdversary ClockSkewCorruption CorruptionPlan DelayModel
        ExplicitCorruption FaultBudgetExceeded FaultMode NoCorruption NoDelay NullAdversary
        RandomAdversary RandomCorruption RandomDelay RoundFaultPlan TargetedLag
        ScriptedAdversary SyncProtocol SyncRunResult run_sync
    """.split(),
    "repro.util": """
        derive_seed make_rng require require_non_negative require_positive
        require_process_count
    """.split(),
    "repro.verify": """
        CrossCheck FrontierStats SmtUnavailableError SmtUnsupportedError VERIFY_TARGETS
        VerifyResult VerifyTarget cross_check get_verify_target smt_available verify
    """.split(),
    "repro.workloads": """
        ConsensusDeadlockCorruption LateRevealAdversary clock_skew_pattern crash_schedule
    """.split(),
}

#: Exported values that are not classes or functions, by defining module.
DEFINED_IN = {
    "Command": "repro.apps.rsm",
    "NOOP": "repro.apps.rsm",
    "BACKENDS": "repro.array.backend",
    "CLOCK_KEY": "repro.histories.history",
    "REGISTRY": "repro.experiments.base",
    "TARGETS": "repro.explore.targets",
    "VERIFY_TARGETS": "repro.verify.targets",
}

EXPERIMENT_IDS = [
    "FIG1", "FIG2", "FIG3", "FIG4", "THM1", "THM2", "THM3", "THM4", "THM5",
    "ASYNC-CONS", "ABL-SUSPECT", "ABL-RETX", "ABL-MERGE", "EXT-BOUNDED", "EXT-BYZ",
    "EXT-EARLY", "EXT-HEARTBEAT", "EXT-SKEW", "EXT-RSM", "EXPLORE", "VERIFY",
    "NET-LIVE", "UNISON", "UNISON-CHURN", "ARRAY-SCALE", "ARRAY-TWINS",
]


def _defined(name, value):
    """The object ``name`` is bound to where ``value`` was defined."""
    if name in DEFINED_IN:
        return getattr(importlib.import_module(DEFINED_IN[name]), name)
    owner = importlib.import_module(value.__module__)
    for part in value.__qualname__.split("."):
        owner = getattr(owner, part)
    return owner


@pytest.mark.parametrize("package", sorted(PARENT_ALL))
def test_every_public_name_resolves_to_its_definition(package):
    module = importlib.import_module(package)
    assert list(module.__all__) == PARENT_ALL[package]
    for name in module.__all__:
        value = getattr(module, name)
        assert value is _defined(name, value), f"{package}.{name}"
        assert name in dir(module)
    star = {}
    exec(f"from {package} import *", star)
    assert {name: star[name] for name in module.__all__} == {
        name: getattr(module, name) for name in module.__all__
    }
    with pytest.raises(AttributeError, match=re.escape(f"module {package!r}")):
        getattr(module, "no_such_name")


def test_a_name_shared_with_its_submodule_stays_the_name():
    # Importing repro.histories.coterie binds the submodule on the
    # package; the function of the same name must still win.
    code = (
        "import json, repro.histories.coterie, repro.explore.shrink\n"
        "from repro.histories import coterie\n"
        "from repro.explore import shrink\n"
        "print(json.dumps([type(coterie).__name__, type(shrink).__name__]))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == ["function", "function"]


def test_the_registry_lists_every_experiment_in_order():
    assert REGISTRY.ids() == EXPERIMENT_IDS
