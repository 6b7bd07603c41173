"""The synchronous streaming checkers as monitors: pure folds of filed rounds.

A monitor is an initial state, a pure ``step(state, corrupted,
round_history)`` and a verdict; :class:`MonitorRecorder` folds one on a
run's bus and the proof plane's walk folds it over filed rounds.  These
tests pin what the fold must keep doing in the order it does it: a
mid-run corruption's round is not scored and restarts the stream (and
the compiler check's journal of that round is dropped with it), a fold
over the bus equals a fold over the recorded rounds, and every state is
a hashable value that stepping never mutates.
"""

import pytest

from repro.core.rounds import RoundAgreementProtocol
from repro.explore.checkers import (
    CompilerMonitor,
    FtssMonitor,
    StreamingCompilerCheck,
    StreamingFtssClock,
    StreamingTentativeClock,
    TentativeMonitor,
)
from repro.explore.targets import FIG3_PROPOSALS, _fig3_instance
from repro.kernel.recorders import MonitorRecorder
from repro.sync.adversary import FaultMode, RandomAdversary
from repro.sync.corruption import RandomCorruption
from repro.sync.engine import run_sync

MID = 4


def _fig1(observers=(), mid=MID):
    return run_sync(
        RoundAgreementProtocol(),
        n=4,
        rounds=10,
        adversary=RandomAdversary(n=4, f=1, mode=FaultMode.GENERAL_OMISSION, rate=0.3, seed=2),
        corruption=RandomCorruption(seed=3),
        mid_run_corruptions={mid: RandomCorruption(seed=4)},
        observers=observers,
    )


def _fig3(observers=(), mid=MID):
    _pi, plus, _valid = _fig3_instance()
    return run_sync(
        plus,
        n=4,
        rounds=16,
        adversary=RandomAdversary(n=4, f=1, mode=FaultMode.CRASH, rate=0.2, seed=5),
        corruption=RandomCorruption(seed=6),
        mid_run_corruptions={mid: RandomCorruption(seed=7)},
        observers=observers,
    )


def _fold(monitor, history, corrupted_at=None, first_round=1):
    state = monitor.start(history.n, first_round)
    states = []
    for round_history in history:
        state = monitor.step(state, round_history.round_no == corrupted_at, round_history)
        states.append(state)
    return states


def test_a_mid_run_corruption_round_is_not_scored_and_restarts_the_stream():
    history = _fig1().history
    monitor = FtssMonitor(1)
    states = _fold(monitor, history, corrupted_at=MID)
    assert states[MID - 1] == monitor.start(4)  # its round left nothing behind
    after = _fold(monitor, history.suffix(MID), first_round=MID + 1)
    assert states[-1] == after[-1]  # ... so the rest is the suffix's fold
    measures = monitor.measures(states[-1])
    assert measures and measures[0].first_round == MID + 1


def test_the_compiler_journal_of_a_corruption_round_is_dropped():
    history = _fig3().history
    pi, _plus, valid = _fig3_instance()
    monitor = CompilerMonitor(pi.final_round, valid)
    states = _fold(monitor, history, corrupted_at=MID)
    assert states[MID - 1] == monitor.start(4)
    opened = states[MID]  # the round after: a window opens, nothing compared
    assert opened.windows.start == MID + 1
    assert opened.previous is None and opened.writes == ()
    after = _fold(monitor, history.suffix(MID), first_round=MID + 1)
    assert states[-1] == after[-1]


@pytest.mark.parametrize(
    "run, recorder",
    [
        (_fig1, lambda: StreamingFtssClock(1)),
        (_fig1, lambda: StreamingTentativeClock(2)),
        (_fig3, lambda: StreamingCompilerCheck(_fig3_instance()[0].final_round, frozenset(FIG3_PROPOSALS))),
    ],
)
def test_the_bus_folds_what_the_recorded_rounds_fold(run, recorder):
    checker = recorder()
    assert isinstance(checker, MonitorRecorder)
    history = run((checker,)).history
    corrupted_at = None if isinstance(checker.monitor, TentativeMonitor) else MID
    states = _fold(checker.monitor, history, corrupted_at)
    assert checker.state == states[-1]
    assert checker.verdict() == checker.monitor.verdict(states[-1])


@pytest.mark.parametrize(
    "monitor, run",
    [
        (FtssMonitor(1), _fig1),
        (TentativeMonitor(2), _fig1),
        (CompilerMonitor(_fig3_instance()[0].final_round, frozenset(FIG3_PROPOSALS)), _fig3),
    ],
)
def test_states_are_hashable_values_that_stepping_leaves_alone(monitor, run):
    history = run().history
    state = monitor.start(history.n, 1)
    for round_history in history:
        before = hash(state)
        stepped = monitor.step(state, False, round_history)
        assert hash(state) == before
        assert monitor.step(state, False, round_history) == stepped
        state = stepped
    assert len({state, monitor.start(history.n, 1)}) == 2
