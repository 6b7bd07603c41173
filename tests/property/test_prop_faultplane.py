"""Property-based tests for the kernel fault plane and observer bus.

The contracts the refactor rests on: one :class:`FaultPlan` realizes
the *same* fault scenario on both substrates (identical crash set,
identical corruption schedule), an extra observer reconstructs the
engine's own history byte-for-byte, and the streaming analyses agree
exactly with their batch counterparts.
"""

import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.metrics import StreamingMessageStats, run_message_stats
from repro.analysis.stabilization import (
    StreamingClockStabilization,
    empirical_stabilization,
)
from repro.asyncnet.scheduler import AsyncScheduler
from repro.core.compiler import compile_protocol
from repro.core.problems import ClockAgreementProblem
from repro.core.rounds import RoundAgreementProtocol
from repro.core.solvability import check_definition
from repro.detectors.heartbeat import HeartbeatDetector
from repro.explore.checkers import StreamingFtssClock
from repro.kernel import FaultKind, FaultPlan, HistoryRecorder, Observer
from repro.protocols.floodmin import FloodMinConsensus
from repro.sync.adversary import FaultMode, RandomAdversary
from repro.sync.corruption import RandomCorruption
from repro.sync.engine import run_sync


class FaultCollector(Observer):
    """Records every fault event the bus emits."""

    def __init__(self):
        self.crashes = set()
        self.corruption_times = []

    def on_fault(self, fault):
        if fault.kind == FaultKind.CRASH:
            self.crashes.add(fault.pid)
        elif fault.kind == FaultKind.CORRUPTION:
            self.corruption_times.append(fault.time)


@st.composite
def fault_plans(draw):
    n = draw(st.integers(min_value=3, max_value=6))
    crashed = draw(
        st.sets(st.integers(min_value=0, max_value=n - 1), max_size=n - 2)
    )
    crash_times = {
        pid: draw(st.floats(min_value=0.5, max_value=18.0)) for pid in crashed
    }
    seed = draw(st.integers(min_value=0, max_value=999))
    # Mid-run corruption times at least one round apart so the sync
    # translation is well-defined.
    mid_rounds = draw(
        st.sets(st.integers(min_value=2, max_value=18), max_size=2)
    )
    mid = {float(r): RandomCorruption(seed=seed + r) for r in mid_rounds}
    plan = FaultPlan(
        crashes=crash_times,
        initial_corruption=RandomCorruption(seed=seed),
        mid_corruptions=mid,
        gst=draw(st.floats(min_value=0.0, max_value=10.0)),
    )
    return n, plan


@settings(max_examples=30, deadline=None)
@given(args=fault_plans())
def test_same_crash_set_on_both_substrates(args):
    n, plan = args
    sync_collector = FaultCollector()
    run_sync(
        RoundAgreementProtocol(),
        n=n,
        rounds=20,
        fault_plan=plan,
        observers=(sync_collector,),
    )
    async_collector = FaultCollector()
    sched = AsyncScheduler(
        HeartbeatDetector(max_timeout=20.0),
        n,
        seed=0,
        fault_plan=plan,
        observers=(async_collector,),
    )
    sched.run(max_time=25.0)
    assert sync_collector.crashes == plan.crash_set
    assert async_collector.crashes == plan.crash_set


@settings(max_examples=30, deadline=None)
@given(args=fault_plans())
def test_corruption_rounds_match_the_sync_schedule(args):
    n, plan = args
    collector = FaultCollector()
    run_sync(
        RoundAgreementProtocol(),
        n=n,
        rounds=20,
        fault_plan=plan,
        observers=(collector,),
    )
    # The initial corruption lands before round 1 (time 0); mid-run
    # corruptions land exactly at the rounds corruption_rounds() names.
    mid_times = sorted(t for t in collector.corruption_times if t >= 1)
    expected = [r for r in plan.corruption_rounds() if r <= 20]
    # Corruption that changes no state emits no event, so observed
    # times are a subset of the schedule; every observed time must be
    # on the schedule.
    assert set(mid_times) <= set(expected)
    assert all(t == int(t) for t in mid_times)


def _fig1_run(observers=()):
    adversary = RandomAdversary(
        n=6, f=2, mode=FaultMode.GENERAL_OMISSION, rate=0.35, seed=11
    )
    return run_sync(
        RoundAgreementProtocol(),
        n=6,
        rounds=24,
        adversary=adversary,
        corruption=RandomCorruption(seed=11),
        observers=observers,
    )


def _fig3_run(observers=()):
    pi = FloodMinConsensus(f=2, proposals=[3, 1, 4, 1, 5, 9])
    plus = compile_protocol(pi)
    adversary = RandomAdversary(n=6, f=2, mode=FaultMode.CRASH, rate=0.15, seed=7)
    return run_sync(
        plus,
        n=6,
        rounds=8 * pi.final_round,
        adversary=adversary,
        corruption=RandomCorruption(seed=7),
        observers=observers,
    )


def test_extra_recorder_rebuilds_fig1_history_byte_identical():
    recorder = HistoryRecorder()
    result = _fig1_run(observers=(recorder,))
    assert pickle.dumps(recorder.history()) == pickle.dumps(result.history)


def test_extra_recorder_rebuilds_fig3_history_byte_identical():
    recorder = HistoryRecorder()
    result = _fig3_run(observers=(recorder,))
    assert pickle.dumps(recorder.history()) == pickle.dumps(result.history)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=500),
    n=st.integers(min_value=3, max_value=6),
    rounds=st.integers(min_value=3, max_value=20),
    mode=st.sampled_from(list(FaultMode)),
)
def test_streaming_message_stats_match_batch(seed, n, rounds, mode):
    streaming = StreamingMessageStats()
    adversary = RandomAdversary(n=n, f=n // 2, mode=mode, rate=0.4, seed=seed)
    result = run_sync(
        RoundAgreementProtocol(),
        n=n,
        rounds=rounds,
        adversary=adversary,
        corruption=RandomCorruption(seed=seed),
        observers=(streaming,),
    )
    assert streaming.stats() == run_message_stats(result.history)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=500),
    n=st.integers(min_value=3, max_value=6),
    rounds=st.integers(min_value=3, max_value=24),
    mode=st.sampled_from(list(FaultMode)),
    mid=st.one_of(st.none(), st.integers(min_value=1, max_value=24)),
    at=st.integers(min_value=0, max_value=3),
)
def test_streaming_stabilization_matches_batch(seed, n, rounds, mode, mid, at):
    streaming, ftss, faults = StreamingClockStabilization(), StreamingFtssClock(at), FaultCollector()
    adversary = RandomAdversary(n=n, f=n // 2, mode=mode, rate=0.4, seed=seed)
    result = run_sync(
        RoundAgreementProtocol(),
        n=n,
        rounds=rounds,
        adversary=adversary,
        corruption=RandomCorruption(seed=seed),
        mid_run_corruptions=None if mid is None else {mid: RandomCorruption(seed=seed + 1)},
        observers=(streaming, ftss, faults),
    )
    history = result.history
    batch = empirical_stabilization(history, ClockAgreementProblem())
    assert streaming.result() == batch  # every round scored, a corruption's too
    # The ftss monitor restarts at a mid-run corruption that struck some
    # memory: Definition 2.4 obliges the rounds after the last one.
    struck = max([time for time in faults.corruption_times if time >= 1], default=0)
    if struck >= len(history):
        holds = True  # nothing left to oblige
    else:
        obliged = history.suffix(struck) if struck else history
        holds = check_definition("ftss", obliged, ClockAgreementProblem(), at).holds
    assert ftss.verdict().holds == holds


@settings(max_examples=20, deadline=None)
@given(args=fault_plans())
def test_fault_plan_runs_are_deterministic(args):
    n, plan = args
    first = run_sync(RoundAgreementProtocol(), n=n, rounds=15, fault_plan=plan)
    second = run_sync(RoundAgreementProtocol(), n=n, rounds=15, fault_plan=plan)
    assert pickle.dumps(first.history) == pickle.dumps(second.history)
