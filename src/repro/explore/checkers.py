"""Streaming spec checkers for the exploration engine.

The per-run fast path must not materialize an
:class:`~repro.histories.history.ExecutionHistory`.  The synchronous
checkers are *monitors*: pure folds of filed rounds into a small
hashable state (know-sets, faulty set, the open window and why its rows
fail, closed-window measures, journal writes), with a
:class:`SpecVerdict` read off the last state.  The ``Streaming*``
classes fold one on a run's bus; a proof's walk folds it over filed
rounds once per (node, state) (:mod:`repro.verify.walk`).  The
asynchronous detector check is an observer that keeps its samples.

Division of labor with :mod:`repro.core.solvability`: the streaming
checkers are a *filter*.  Every violation they flag is re-confirmed by
the definition-grade predicates (:func:`repro.core.solvability
.check_definition` on a recorded history) before it is reported,
shrunk, or written to an artifact; a disagreement between the two paths
is itself surfaced as a finding (see
:class:`repro.explore.engine.ExplorationResult.mismatches`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, List, NamedTuple, Optional, Tuple

from repro.analysis.stabilization import (
    ClockWindowMonitor,
    ClockWindows,
    clock_row,
    drop_faulty,
)
from repro.kernel.events import FaultKind, Observer
from repro.kernel.recorders import MonitorRecorder

__all__ = [
    "CompilerMonitor",
    "FtssMonitor",
    "SpecVerdict",
    "StreamingFtssClock",
    "StreamingTentativeClock",
    "StreamingCompilerCheck",
    "StreamingDetectorCheck",
    "TentativeMonitor",
]


@dataclass(frozen=True)
class SpecVerdict:
    """One checker's judgment of one fault plan.

    ``violations`` are rendered strings (deterministic, picklable,
    JSON-able — the currency of replay artifacts); ``details`` is a
    sorted tuple of key/value pairs with checker-specific measurements.
    """

    checker: str
    holds: bool
    violations: Tuple[str, ...] = ()
    details: Tuple[Tuple[str, Any], ...] = ()

    def __bool__(self) -> bool:
        return self.holds


class FtssMonitor(ClockWindowMonitor):
    """Definition 2.4 at stabilization time ``r`` for the clock-agreement
    Σ (Theorem 3): every window longer than ``r`` must reach
    agreement+rate within ``r`` rounds of opening.

    A mid-run corruption, the paper's "final systemic failure" (cf.
    ``test_mid_run_corruption_restarts_convergence``), restarts the
    obligations, its own round unscored: the fold judges the suffix the
    confirm path cuts with ``history.suffix(last corruption round)``.
    Initial corruption (before round 1) is ordinary window grace.
    """

    def __init__(self, stabilization_time: int):
        super().__init__(min_window_length=stabilization_time + 1)
        self.stabilization_time = stabilization_time

    def step(self, state: ClockWindows, corrupted: bool, round_history) -> ClockWindows:
        if corrupted:
            return self.start(len(state.know))
        return super().step(state, corrupted, round_history)

    def verdict(self, state: ClockWindows) -> SpecVerdict:
        r = self.stabilization_time
        measures = self.measures(state)
        violations = tuple(
            f"window [{m.first_round}, {m.last_round}] "
            f"(grace {'∞' if m.grace is None else m.grace}) "
            f"missed the ftss obligation at stabilization time {r}"
            for m in measures
            if not m.holds_at(r)
        )
        return SpecVerdict(
            checker=f"streaming-ftss-clock@{r}",
            holds=not violations,
            violations=violations,
            details=(
                ("empirical_stabilization", self.result(state)),
                ("windows", len(measures)),
            ),
        )


class TentativeMonitor:
    """Tentative Definition 1 (the Theorem 1 foil), as a fold: Σ on the
    r-suffix with the faulty set of the *whole* history.  The state is
    ``(first suffix round, faulty set, rows)``: every suffix row
    (:func:`clock_row`, under the faulty set so far) is kept — thm1's
    horizons keep them few — and scanned at the end."""

    def __init__(self, stabilization_time: int):
        self.stabilization_time = stabilization_time

    def start(self, n: int, first_round: int = 1) -> tuple:
        return first_round + self.stabilization_time, frozenset(), ()

    def step(self, state: tuple, corrupted: bool, round_history) -> tuple:
        from_round, faulty, rows = state
        deviators = round_history.deviators()
        if not deviators <= faulty:
            faulty = faulty | deviators
            rows = tuple([(r, drop_faulty(row, faulty)) for r, row in rows])
        if round_history.round_no >= from_round:
            rows += ((round_history.round_no, clock_row(round_history.records, faulty)),)
        return from_round, faulty, rows

    def verdict(self, state: tuple) -> SpecVerdict:
        _from_round, faulty, rows = state
        violations: List[str] = []
        live = [
            (round_no, {pid: clock for pid, clock in enumerate(row) if clock is not None})
            for round_no, row in rows
        ]
        for index, (round_no, clocks) in enumerate(live):
            if len(set(clocks.values())) > 1:
                violations.append(
                    f"[round {round_no}] agreement: non-faulty clocks differ: {clocks}"
                )
            nxt = live[index + 1][1] if index + 1 < len(live) else {}
            for pid, clock in clocks.items():
                if pid in nxt and nxt[pid] != clock + 1:
                    violations.append(
                        f"[round {round_no}] rate: process {pid} went {clock} -> {nxt[pid]}"
                    )
        return SpecVerdict(
            checker=f"streaming-tentative-clock@{self.stabilization_time}",
            holds=not violations,
            violations=tuple(violations),
            details=(("faulty", tuple(sorted(faulty))), ("suffix_rounds", len(rows))),
        )


class Journal(NamedTuple):
    """The compiler monitor's state: the clock windows', and the open
    window's journal."""

    windows: ClockWindows
    #: The last round's pairs (:func:`_journal`), if the next round's
    #: writes fall in the obligation span.
    previous: Optional[tuple]
    #: ``(round, pid, decided_at_clock, decision)`` of each fresh write.
    writes: tuple
    #: The closed windows' journal violations.
    violations: Tuple[str, ...]


def _journal(records, faulty: FrozenSet[int]) -> tuple:
    """``(decided_at_clock, last_decision)`` by pid; ``None`` for the
    crashed, the faulty and a pair with a field unset."""
    pairs = []
    for record in records:
        state = record.state_before
        pair = None if state is None or record.pid in faulty else (
            state.get("decided_at_clock"), state.get("last_decision")
        )
        pairs.append(None if pair is None or pair[0] is None or pair[1] is None else pair)
    return tuple(pairs)


class CompilerMonitor:
    """Definition 2.4 at ``final_round`` of Σ⁺ for a compiled Π⁺
    (Theorem 4), as a fold: the clock windows (:class:`FtssMonitor`),
    and :class:`~repro.core.problems.RepeatedConsensusProblem` on them —
    every iteration whose journal entry is *freshly written* in a
    window's obligation span must have agreeing, valid decisions among
    non-faulty processes.  A mid-run corruption restarts both, dropping
    its round's journal.
    """

    def __init__(self, final_round: int, valid_proposals: Optional[frozenset] = None):
        self.clock = FtssMonitor(final_round)
        self.final_round = final_round
        self.valid_proposals = valid_proposals

    def start(self, n: int, first_round: int = 1) -> Journal:
        return Journal(self.clock.start(n, first_round), None, (), ())

    def step(self, state: Journal, corrupted: bool, round_history) -> Journal:
        if corrupted:
            return self.start(len(state.windows.know))
        before = state.windows
        windows = self.clock.step(before, corrupted, round_history)
        round_no = round_history.round_no
        previous, writes, violations = state.previous, state.writes, state.violations
        if windows.start == round_no:  # a window opened: the one before closed
            if before.start is not None:
                violations += self._scored(writes, before.faulty)
            previous, writes = None, ()
        elif windows.faulty is not before.faulty:
            writes = tuple([write for write in writes if write[1] not in windows.faulty])
        journal = _journal(round_history.records, windows.faulty)
        if previous is not None:
            writes += tuple([
                (round_no - 1, pid, *pair)
                for pid, pair in enumerate(journal)
                if pair is not None and pair != previous[pid]
            ])
        if round_no < windows.start + self.final_round:
            journal = None  # the next round's writes are still grace
        return Journal(windows, journal, writes, violations)

    def _scored(self, writes: tuple, faulty: FrozenSet[int]) -> Tuple[str, ...]:
        """Iteration agreement/validity over one window's fresh writes."""
        groups: Dict[Any, Tuple[int, Dict[int, Any]]] = {}
        for round_no, pid, decided_at, decision in writes:
            if pid not in faulty:  # the first write's round names the group
                groups.setdefault(decided_at, (round_no, {}))[1][pid] = decision
        violations: List[str] = []
        for decided_at in sorted(groups):
            where, decisions = groups[decided_at]
            if len(set(decisions.values())) > 1:
                violations.append(
                    f"[round {where}] iteration-agreement: iteration at clock "
                    f"{decided_at}: decisions differ: {dict(sorted(decisions.items()))}"
                )
            if self.valid_proposals is not None:
                for pid in sorted(decisions):
                    if decisions[pid] not in self.valid_proposals:
                        violations.append(
                            f"[round {where}] iteration-validity: process {pid} "
                            f"decided {decisions[pid]!r}, not a proposal"
                        )
        return tuple(violations)

    def verdict(self, state: Journal) -> SpecVerdict:
        clock = self.clock.verdict(state.windows)
        journal = state.violations
        if state.windows.start is not None:
            journal += self._scored(state.writes, state.windows.faulty)
        violations = clock.violations + journal
        return SpecVerdict(
            checker=f"streaming-compiler@{self.final_round}",
            holds=not violations,
            violations=violations,
            details=clock.details,
        )


class StreamingFtssClock(MonitorRecorder):
    """An :class:`FtssMonitor` folded on a run's bus."""

    def __init__(self, stabilization_time: int):
        super().__init__(FtssMonitor(stabilization_time))


class StreamingTentativeClock(MonitorRecorder):
    """A :class:`TentativeMonitor` folded on a run's bus."""

    def __init__(self, stabilization_time: int):
        super().__init__(TentativeMonitor(stabilization_time))


class StreamingCompilerCheck(MonitorRecorder):
    """A :class:`CompilerMonitor` folded on a run's bus."""

    def __init__(self, final_round: int, valid_proposals: Optional[frozenset] = None):
        super().__init__(CompilerMonitor(final_round, valid_proposals))


class StreamingDetectorCheck(Observer):
    """Streaming ◇S property check for the asynchronous target (Theorem 5).

    Retains the sampled suspect sets and the crash schedule — O(samples),
    with no message or state trace — and evaluates strong completeness
    and eventual weak accuracy at verdict time by handing a minimal
    sample-only trace to the canonical evaluators in
    :mod:`repro.detectors.properties` (zero checker drift).
    """

    def __init__(self):
        self._n = 0
        self._duration = 0.0
        self._samples: List[Tuple[float, Dict[int, Any]]] = []
        self._crashed: set = set()

    def on_run_start(self, n, protocol, first_round=1):
        self._n = n

    def on_sample(self, time, outputs):
        self._samples.append((time, dict(outputs)))

    def on_fault(self, fault):
        if fault.kind == FaultKind.CRASH:
            self._crashed.add(fault.pid)

    def on_run_end(self, time, final_states):
        self._duration = time

    def verdict(self) -> SpecVerdict:
        # Imported here: repro.detectors.properties imports the async
        # scheduler, which this module must not load for sync targets.
        from repro.asyncnet.scheduler import AsyncTrace
        from repro.detectors.properties import (
            eventual_weak_accuracy,
            strong_completeness,
        )

        trace = AsyncTrace(
            n=self._n,
            duration=self._duration,
            samples=self._samples,
            crashed=frozenset(self._crashed),
        )
        completeness = strong_completeness(trace)
        accuracy = eventual_weak_accuracy(trace)
        violations: List[str] = []
        if not completeness.holds:
            violations.append(
                "strong-completeness never converged within the run"
            )
        if not accuracy.holds:
            violations.append(
                "eventual-weak-accuracy never converged within the run"
            )
        return SpecVerdict(
            checker="streaming-detector",
            holds=not violations,
            violations=tuple(violations),
            details=(
                ("completeness_converged_at", completeness.converged_at),
                ("accuracy_converged_at", accuracy.converged_at),
                ("crashed", tuple(sorted(self._crashed))),
                ("samples", len(self._samples)),
            ),
        )
