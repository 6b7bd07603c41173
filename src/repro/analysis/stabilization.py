"""Empirical stabilization-time measurement.

The paper proves upper bounds on stabilization times (1 round for round
agreement, ``final_round`` for the compiler, plus up to another
``final_round`` of suspect-set effect).  These helpers *measure* the
stabilization a run actually exhibited: for each stable-coterie window
of a history, the smallest grace period ``s`` such that the problem
predicate holds on the window's rounds after the first ``s``.  The
maximum over windows is the run's empirical stabilization time, and the
distribution over a seed sweep is what the THM3/THM4 benches report
against the paper's claims.

For the clock-agreement Σ the measurement also streams, as a *monitor*:
a pure fold of filed rounds into a small hashable state
(:class:`ClockWindowMonitor`), riding a run's bus or a proof's walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, NamedTuple, Optional, Tuple

from repro.core.problems import Problem
from repro.histories.causality import learn, shared
from repro.histories.coterie import coterie_of
from repro.histories.history import ExecutionHistory
from repro.histories.stability import StableWindow, stable_windows
from repro.kernel.recorders import MonitorRecorder

__all__ = [
    "ClockWindowMonitor",
    "ClockWindows",
    "StreamingClockStabilization",
    "WindowMeasure",
    "WindowStabilization",
    "window_stabilization_times",
    "empirical_stabilization",
]


@dataclass(frozen=True)
class WindowMeasure:
    """One stable-coterie window's streamed grace measurement.

    ``grace`` is the smallest prefix length after which clock agreement
    held through the window's end; ``None`` means no non-vacuous suffix
    held.  Unlike :meth:`StreamingClockStabilization.result`, measures
    are recorded for *every* window regardless of
    ``min_window_length`` — ftss verdicts at a given stabilization time
    need the short windows too (they are vacuous only relative to the
    candidate time, not to a fixed reporting threshold).
    """

    first_round: int
    last_round: int
    grace: Optional[int]

    @property
    def length(self) -> int:
        return self.last_round - self.first_round + 1

    def holds_at(self, stabilization_time: int) -> bool:
        """Whether this window meets its Def 2.4 obligation at time r."""
        if self.first_round + stabilization_time > self.last_round:
            return True  # obligation span empty: vacuously satisfied
        return self.grace is not None and self.grace <= stabilization_time


@dataclass(frozen=True)
class WindowStabilization:
    """How quickly Σ started holding inside one stable window.

    ``stabilized_after`` is the smallest grace (in rounds) after which
    Σ held through the window's end; ``None`` means Σ never held on any
    suffix of the window (the window may simply be too short, or the
    protocol genuinely failed there — ``window.length`` disambiguates).
    """

    window: StableWindow
    stabilized_after: Optional[int]


def window_stabilization_times(
    history: ExecutionHistory, problem: Problem
) -> List[WindowStabilization]:
    """Per-window empirical stabilization of ``problem`` over ``history``.

    For each maximal stable-coterie window ``[x, y]``, finds (by binary
    search over the monotone "holds on rounds (x+s, y]" predicate) the
    smallest ``s`` with a passing check.
    """
    faulty_by_round = history.faulty_by_round()
    out: List[WindowStabilization] = []
    for window in stable_windows(history):
        faulty = faulty_by_round[window.last_round - history.first_round]

        def holds_with_grace(grace: int) -> bool:
            first = window.first_round + grace
            if first > window.last_round:
                return True  # vacuous: nothing left to check
            sub = history.window(first, window.last_round)
            return problem.check(sub, faulty).holds

        if not holds_with_grace(window.length):
            # Even the vacuous grace failed — cannot happen; guard anyway.
            out.append(WindowStabilization(window=window, stabilized_after=None))
            continue
        lo, hi = 0, window.length
        if holds_with_grace(0):
            out.append(WindowStabilization(window=window, stabilized_after=0))
            continue
        # Invariant: fails at lo, holds at hi.
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if holds_with_grace(mid):
                hi = mid
            else:
                lo = mid
        stabilized = hi if hi < window.length else None
        out.append(WindowStabilization(window=window, stabilized_after=stabilized))
    return out


def empirical_stabilization(
    history: ExecutionHistory,
    problem: Problem,
    min_window_length: int = 2,
) -> Optional[int]:
    """The run's overall empirical stabilization time.

    The maximum of the per-window values over windows of at least
    ``min_window_length`` rounds (shorter windows carry no signal: the
    coterie changed before the protocol could possibly converge).
    Returns ``None`` if some qualifying window never stabilized — i.e.
    the run *refutes* every finite stabilization time.
    """
    measurements = window_stabilization_times(history, problem)
    worst: Optional[int] = 0
    for measurement in measurements:
        if measurement.window.length < min_window_length:
            continue
        if measurement.stabilized_after is None:
            # Distinguish "window too short to say" from "never held":
            # the window qualified by length, so this is a refutation.
            return None
        if worst is None or measurement.stabilized_after > worst:
            worst = measurement.stabilized_after
    return worst


# ---------------------------------------------------------------------------
# The streaming measurement, as a fold over filed rounds
# ---------------------------------------------------------------------------

_NOBODY: FrozenSet[int] = frozenset()


def clock_row(records, faulty: FrozenSet[int]) -> tuple:
    """A round's clocks by pid, ``None`` for the crashed and the faulty."""
    return tuple([None if record.pid in faulty else record.clock_before for record in records])


def drop_faulty(row: tuple, faulty: FrozenSet[int]) -> tuple:
    """``row`` with the clocks of ``faulty`` cleared."""
    return tuple([None if pid in faulty else clock for pid, clock in enumerate(row)])


def _why(breaks, groups, faulty: FrozenSet[int] = _NOBODY) -> Optional[tuple]:
    """Why a window row fails with ``faulty`` discounted: ``(breaks,
    groups)``, who breaks rate and the others grouped by clock (kept
    while two groups disagree); ``None`` if it holds."""
    breaks = shared(breaks - faulty)
    groups = {group - faulty - breaks for group in groups} - {_NOBODY}
    if len(groups) < 2:
        return (breaks, _NOBODY) if breaks else None
    return breaks, shared(frozenset(map(shared, groups)))


def _failure(row: tuple, nxt: tuple) -> Optional[tuple]:
    """Why ``row`` breaks agreement, or rate into ``nxt`` (:func:`_why`)."""
    breaks = [
        pid for pid, (clock, later) in enumerate(zip(row, nxt))
        if clock is not None and later is not None and later != clock + 1
    ]
    if not breaks and len({clock for clock in row if clock is not None}) < 2:
        return None
    by_clock: dict = {}
    for pid, clock in enumerate(row):
        if clock is not None:
            by_clock.setdefault(clock, set()).add(pid)
    return _why(frozenset(breaks), map(frozenset, by_clock.values()))


class ClockWindows(NamedTuple):
    """Where a run stands against the clock-agreement Σ's windows: the
    little of the past the rounds to come still need, hashable.

    Of the open window's rows the last is kept whole (its rate check
    waits for the next round); of the others, only why each one that
    fails under ``faulty`` fails.  A row that holds under a faulty set
    holds under every larger one — fewer processes can lose a
    disagreement or a rate break, never gain one — and the faulty set
    only grows, so a row that passes is never the last failing one.
    """

    know: Tuple[FrozenSet[int], ...]
    late: tuple
    faulty: FrozenSet[int]
    #: The open window's first round (``None``: none yet); its coterie is
    #: the one ``know`` and ``faulty`` give.
    start: Optional[int]
    #: ``(round, breaks, groups)`` of each earlier row that fails.
    failing: tuple
    #: ``(round, clock row)`` of the open window's last round.
    last: Optional[tuple]
    #: The closed windows, in round order.
    measures: Tuple[WindowMeasure, ...]


def _closed(state: ClockWindows) -> WindowMeasure:
    """The open window's measure, its rows judged under ``state.faulty``."""
    start, (last_round, row) = state.start, state.last
    if len({clock for clock in row if clock is not None}) > 1:
        return WindowMeasure(start, last_round, None)
    grace = state.failing[-1][0] - start + 1 if state.failing else 0
    return WindowMeasure(start, last_round, grace)


class ClockWindowMonitor:
    """Definition 2.4's windows for the clock-agreement Σ, as a fold.

    Each round advances the know-sets (the coterie) and the faulty set.
    When the coterie grows, the window open until the previous round
    closes under the faulty set as of that round, its grace one past its
    last failing row: what :func:`window_stabilization_times` finds by
    binary search, "holds after grace s" being monotone in ``s``.  Every
    round is scored, as :func:`empirical_stabilization` scores a history.
    """

    def __init__(self, min_window_length: int = 2):
        self.min_window_length = min_window_length

    def start(self, n: int, first_round: int = 1) -> ClockWindows:
        return ClockWindows((_NOBODY,) * n, (), _NOBODY, None, (), None, ())

    def step(self, state: ClockWindows, corrupted: bool, round_history) -> ClockWindows:
        know, late = learn(state.know, state.late, round_history)
        deviators = round_history.deviators()
        faulty = state.faulty if deviators <= state.faulty else shared(state.faulty | deviators)
        start, failing, last, measures = state.start, state.failing, state.last, state.measures
        if start is not None and (know is not state.know or faulty is not state.faulty):
            if coterie_of(know, faulty) != coterie_of(state.know, state.faulty):
                measures += (_closed(state),)  # the coterie grew: the window closed last round
                start = None
        round_no = round_history.round_no
        if start is None:
            start, failing, last = round_no, (), None
        elif faulty is not state.faulty:
            kept = [(r, _why(breaks, groups, faulty)) for r, breaks, groups in failing]
            failing = tuple([(r, *why) for r, why in kept if why is not None])
            last = (last[0], drop_faulty(last[1], faulty))
        row = clock_row(round_history.records, faulty)
        why = None if last is None else _failure(last[1], row)
        if why is not None:
            failing += ((last[0], *why),)
        return ClockWindows(know, late, faulty, start, failing, (round_no, row), measures)

    def measures(self, state: ClockWindows) -> Tuple[WindowMeasure, ...]:
        """Every window's measure, the open one closed at the run's end
        (short windows too: see :class:`WindowMeasure`)."""
        if state.start is None:
            return state.measures
        return state.measures + (_closed(state),)

    def result(self, state: ClockWindows) -> Optional[int]:
        """The run's empirical stabilization time (None = refuted)."""
        worst = 0
        for measure in self.measures(state):
            if measure.length < self.min_window_length:
                continue
            if measure.grace is None:
                return None  # only the vacuous grace passed
            worst = max(worst, measure.grace)
        return worst

    verdict = result


class StreamingClockStabilization(MonitorRecorder):
    """Streaming ``empirical_stabilization`` for the clock-agreement Σ:
    a :class:`ClockWindowMonitor` folded on a synchronous run's bus, so
    no :class:`ExecutionHistory` is materialized.  After the run,
    :meth:`result` equals ``empirical_stabilization(result.history,
    ClockAgreementProblem(), min_window_length)`` exactly
    (property-tested).  General problem predicates need arbitrary
    sub-histories and go through the recorded-history path above.
    """

    def __init__(self, min_window_length: int = 2):
        super().__init__(ClockWindowMonitor(min_window_length))

    result = MonitorRecorder.verdict
