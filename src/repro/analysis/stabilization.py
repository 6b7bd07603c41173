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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.problems import Problem
from repro.histories.causality import CausalityTracker
from repro.histories.history import ExecutionHistory
from repro.histories.stability import StableWindow, stable_windows
from repro.kernel.recorders import HistoryRecorder

__all__ = [
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


class StreamingClockStabilization(HistoryRecorder):
    """Streaming ``empirical_stabilization`` for the clock-agreement Σ.

    Attach to a synchronous run's observer bus to measure the run's
    empirical stabilization time *as the run executes*, retaining only
    per-round clock digests of the current stable-coterie window — no
    :class:`ExecutionHistory` is materialized.  After the run,
    :meth:`result` equals ``empirical_stabilization(result.history,
    ClockAgreementProblem(), min_window_length)`` exactly
    (property-tested).

    How: each round's records are assembled (reusing the history
    recorder's round-building; dropped afterwards unless the caller set
    ``keeps_rounds``, in which case :meth:`history` also works), fed to a private
    :class:`CausalityTracker` to maintain the coterie incrementally;
    whenever the coterie grows, the closing window is scored on its
    buffered ``(round, clocks)`` rows by scanning for the last
    agreement/rate violation w.r.t. the faulty set at the window's end
    — the same grace :func:`window_stabilization_times` finds by
    binary search, since the "holds after grace s" predicate is
    monotone in ``s``.

    Clock-agreement only: general problem predicates need arbitrary
    sub-histories and go through the recorded-history path above.
    """

    keeps_rounds = False

    def __init__(self, min_window_length: int = 2):
        super().__init__()
        self._min_window_length = min_window_length
        self._tracker: Optional[CausalityTracker] = None
        self._everyone: frozenset = frozenset()
        self._faulty: set = set()
        self._window_start: Optional[int] = None
        self._window_members: Optional[frozenset] = None
        self._window_rows: List[Tuple[int, Dict[int, Optional[int]]]] = []
        self._worst: Optional[int] = 0
        self._refuted = False
        #: Grace measurements for every closed window, in round order
        #: (short windows included — see :class:`WindowMeasure`).
        self.window_measures: List[WindowMeasure] = []

    def on_run_start(self, n, protocol, first_round=1):
        super().on_run_start(n, protocol, first_round)
        self._tracker = CausalityTracker(n)
        self._everyone = frozenset(range(n))

    def _round_finished(self, round_history):
        super()._round_finished(round_history)  # kept only if keeps_rounds
        self._score_round(round_history)

    def _score_round(self, round_history) -> None:
        """Advance the coterie and the current window by one round."""
        round_no = round_history.round_no
        faulty = self._faulty
        faulty_before = frozenset(faulty)
        tracker = self._tracker
        assert tracker is not None
        tracker.advance(round_history)
        faulty |= round_history.deviators()

        everyone = self._everyone
        correct = everyone - faulty
        if not correct:
            members = everyone
        else:
            members = everyone.intersection(*[tracker.know(q) for q in correct])

        if self._window_members is not None and members != self._window_members:
            # The coterie grew: the previous window closed at the
            # previous round, with the faulty set as of that round.
            self._close_window(faulty_before)
        if self._window_members is None:
            self._window_start = round_no
            self._window_members = members
            self._window_rows = []
        self._window_rows.append(
            (
                round_no,
                {
                    record.pid: record.clock_before
                    for record in round_history.records
                },
            )
        )

    def on_run_end(self, time, final_states):
        if self._window_members is not None:
            self._close_window(frozenset(self._faulty))

    def _close_window(self, faulty: frozenset) -> None:
        rows = self._window_rows
        first_round = self._window_start
        self._window_start = None
        self._window_members = None
        self._window_rows = []
        assert first_round is not None
        length = len(rows)

        live: List[Dict[int, int]] = [
            {
                pid: clock
                for pid, clock in clocks.items()
                if pid not in faulty and clock is not None
            }
            for _, clocks in rows
        ]
        last_bad: Optional[int] = None  # window-relative index
        for idx, clocks in enumerate(live):
            if len(set(clocks.values())) > 1:
                last_bad = idx
            if idx + 1 < length:
                nxt = live[idx + 1]
                for pid, clock in clocks.items():
                    if pid in nxt and nxt[pid] != clock + 1:
                        last_bad = idx
                        break
        grace = 0 if last_bad is None else last_bad + 1
        self.window_measures.append(
            WindowMeasure(
                first_round=first_round,
                last_round=first_round + length - 1,
                grace=grace if grace < length else None,
            )
        )
        if length < self._min_window_length:
            return
        if grace >= length:
            # Only the vacuous grace passed: the window refutes every
            # finite stabilization time.
            self._refuted = True
            return
        if self._worst is None or grace > self._worst:
            self._worst = grace

    def holds_at(self, stabilization_time: int) -> bool:
        """Streaming ftss@r verdict for the clock-agreement Σ.

        True iff every closed window met its Definition 2.4 obligation
        at the candidate stabilization time (vacuously for windows of
        length ≤ r).  Call after the run ends.
        """
        return all(
            measure.holds_at(stabilization_time)
            for measure in self.window_measures
        )

    def result(self) -> Optional[int]:
        """The run's empirical stabilization time (None = refuted)."""
        return None if self._refuted else self._worst
