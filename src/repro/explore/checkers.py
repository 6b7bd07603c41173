"""Streaming spec checkers for the exploration engine.

The engine evaluates thousands of fault plans, so the per-run fast path
must not materialize an :class:`~repro.histories.history.ExecutionHistory`
(O(rounds × n) records).  Each checker here is a kernel
:class:`~repro.kernel.events.Observer` that retains only small
summaries — per-round clock digests of the current stable-coterie
window, decision-journal deltas, detector samples, fault times — and
renders a :class:`SpecVerdict` after the run.

Division of labor with :mod:`repro.core.solvability`: the streaming
checkers are a *filter*.  Every violation they flag is re-confirmed by
the definition-grade predicates (:func:`repro.core.solvability
.check_definition` on a recorded history) before it is reported,
shrunk, or written to an artifact; a disagreement between the two paths
is itself surfaced as a finding (see
:class:`repro.explore.engine.ExplorationResult.mismatches`).

The clock-window machinery is inherited from
:class:`repro.analysis.stabilization.StreamingClockStabilization`,
whose grace measurements are property-tested against the
binary-search-over-recorded-history evaluator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.stabilization import StreamingClockStabilization
from repro.histories.causality import CausalityTracker
from repro.histories.history import CLOCK_KEY
from repro.kernel.events import FaultKind, Observer

__all__ = [
    "SpecVerdict",
    "StreamingFtssClock",
    "StreamingTentativeClock",
    "StreamingCompilerCheck",
    "StreamingDetectorCheck",
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


class StreamingFtssClock(StreamingClockStabilization):
    """Streaming ftss@r check for the clock-agreement Σ (Theorem 3).

    Inherits the stable-coterie window tracking and per-window grace
    scoring; the verdict is Definition 2.4 instantiated with the
    candidate stabilization time: every window longer than ``r`` must
    reach agreement+rate within ``r`` rounds of opening.

    Mid-run corruption is the paper's "final systemic failure" framing
    (cf. ``test_mid_run_corruption_restarts_convergence``): a systemic
    failure during the run restarts the Def 2.4 obligations, so the
    checker resets its stream at each corruption round and judges the
    maximal corruption-free suffix — exactly what the confirm path
    evaluates with ``history.suffix(last corruption round)``.  Initial
    corruption (before round 1) is ordinary window grace and does not
    reset.
    """

    def __init__(self, stabilization_time: int):
        super().__init__(min_window_length=stabilization_time + 1)
        self.stabilization_time = stabilization_time
        self._first_round = 1
        self._corruption_pending = False

    def on_run_start(self, n, protocol, first_round=1):
        super().on_run_start(n, protocol, first_round)
        self._first_round = first_round

    def on_fault(self, fault):
        super().on_fault(fault)
        # The engine stamps initial corruption at first_round - 1 and
        # mid-run corruption at the round it lands in; only the latter
        # restarts the obligation stream.
        if fault.kind == FaultKind.CORRUPTION and fault.time >= self._first_round:
            self._corruption_pending = True

    def _score_round(self, round_history):
        if not self._corruption_pending:
            super()._score_round(round_history)
            return
        self._corruption_pending = False  # the fault round itself is not scored
        self._reset_stream()

    def _reset_stream(self) -> None:
        """Restart the obligation stream after a mid-run systemic failure."""
        self._tracker = CausalityTracker(self._n or 0)
        self._faulty = set()
        self._window_start = None
        self._window_members = None
        self._window_rows = []
        self.window_measures = []
        self._worst = 0
        self._refuted = False

    def verdict(self) -> SpecVerdict:
        r = self.stabilization_time
        violations = tuple(
            f"window [{m.first_round}, {m.last_round}] "
            f"(grace {'∞' if m.grace is None else m.grace}) "
            f"missed the ftss obligation at stabilization time {r}"
            for m in self.window_measures
            if not m.holds_at(r)
        )
        return SpecVerdict(
            checker=f"streaming-ftss-clock@{r}",
            holds=not violations,
            violations=violations,
            details=(
                ("empirical_stabilization", self.result()),
                ("windows", len(self.window_measures)),
            ),
        )


class StreamingTentativeClock(Observer):
    """Streaming Tentative-Definition-1 check (the Theorem 1 foil).

    Tentative Definition 1 evaluates Σ on the r-suffix with the faulty
    set of the *whole* history.  Streamed: keep the per-round live
    clock vectors only for rounds past the grace prefix (O(suffix), not
    O(history) — and the engine's thm1 horizons keep the suffix tiny),
    accumulate the deviator set from fault events, and scan the suffix
    at verdict time.
    """

    def __init__(self, stabilization_time: int):
        self.stabilization_time = stabilization_time
        self._first_round = 1
        self._rows: List[Tuple[int, Dict[int, Optional[int]]]] = []
        self._faulty: set = set()

    def on_run_start(self, n, protocol, first_round=1):
        self._first_round = first_round

    def on_round_start(self, round_no, snapshots):
        if round_no - self._first_round < self.stabilization_time:
            return  # inside the grace prefix: the suffix never sees it
        self._rows.append(
            (
                round_no,
                {
                    pid: None if state is None else state.get(CLOCK_KEY)
                    for pid, state in snapshots.items()
                },
            )
        )

    def on_fault(self, fault):
        if fault.kind != FaultKind.CORRUPTION:
            self._faulty.add(fault.pid)  # corruption is systemic, not a process fault

    def verdict(self) -> SpecVerdict:
        violations: List[str] = []
        live = [
            (
                round_no,
                {
                    pid: clock
                    for pid, clock in clocks.items()
                    if pid not in self._faulty and clock is not None
                },
            )
            for round_no, clocks in self._rows
        ]
        for index, (round_no, clocks) in enumerate(live):
            if len(set(clocks.values())) > 1:
                violations.append(
                    f"[round {round_no}] agreement: non-faulty clocks differ: "
                    f"{dict(sorted(clocks.items()))}"
                )
            if index + 1 < len(live):
                nxt = live[index + 1][1]
                for pid in sorted(clocks):
                    if pid in nxt and nxt[pid] != clocks[pid] + 1:
                        violations.append(
                            f"[round {round_no}] rate: process {pid} went "
                            f"{clocks[pid]} -> {nxt[pid]}"
                        )
        return SpecVerdict(
            checker=f"streaming-tentative-clock@{self.stabilization_time}",
            holds=not violations,
            violations=tuple(violations),
            details=(
                ("faulty", tuple(sorted(self._faulty))),
                ("suffix_rounds", len(self._rows)),
            ),
        )


class StreamingCompilerCheck(StreamingFtssClock):
    """Streaming ftss@final_round check of Σ⁺ for a compiled Π⁺ (Theorem 4).

    On top of the clock windows, buffers the journal pairs
    ``(decided_at_clock, last_decision)`` of the current window's rounds
    and, when the window closes, mirrors
    :class:`~repro.core.problems.RepeatedConsensusProblem`: every
    iteration whose journal entry is *freshly written* inside the
    window's obligation span must have agreeing, valid decisions among
    non-faulty processes.
    """

    def __init__(self, final_round: int, valid_proposals: Optional[frozenset] = None):
        super().__init__(stabilization_time=final_round)
        self.final_round = final_round
        self._valid_proposals = valid_proposals
        self._journal: Dict[int, Dict[int, Optional[Tuple[Any, Any]]]] = {}
        self._journal_violations: List[str] = []

    def _reset_stream(self) -> None:
        super()._reset_stream()
        self._journal = {}
        self._journal_violations = []

    def on_round_start(self, round_no, snapshots):
        super().on_round_start(round_no, snapshots)
        self._journal[round_no] = {
            pid: None
            if state is None
            else (state.get("decided_at_clock"), state.get("last_decision"))
            for pid, state in snapshots.items()
        }

    def _close_window(self, faulty: frozenset) -> None:
        first = self._window_start
        length = len(self._window_rows)
        if first is not None and length:
            last = first + length - 1
            span_first = first + self.final_round
            if span_first <= last:
                self._score_journal(span_first, last, faulty)
            for round_no in range(first, last + 1):
                self._journal.pop(round_no, None)
        super()._close_window(faulty)

    def _score_journal(self, first: int, last: int, faulty: frozenset) -> None:
        """Iteration agreement/validity over fresh writes in [first, last]."""
        groups: Dict[Any, Dict[int, Any]] = {}
        group_rounds: Dict[Any, int] = {}
        for round_no in range(first, last):
            before = self._journal.get(round_no, {})
            after = self._journal.get(round_no + 1, {})
            for pid, pair in after.items():
                if pid in faulty or pair is None:
                    continue
                decided_at, decision = pair
                if decided_at is None or decision is None:
                    continue
                if before.get(pid) == pair:
                    continue  # not a fresh write
                groups.setdefault(decided_at, {})[pid] = decision
                group_rounds.setdefault(decided_at, round_no)
        for decided_at in sorted(groups):
            decisions = groups[decided_at]
            where = group_rounds[decided_at]
            if len(set(decisions.values())) > 1:
                self._journal_violations.append(
                    f"[round {where}] iteration-agreement: iteration at clock "
                    f"{decided_at}: decisions differ: {dict(sorted(decisions.items()))}"
                )
            if self._valid_proposals is not None:
                for pid in sorted(decisions):
                    if decisions[pid] not in self._valid_proposals:
                        self._journal_violations.append(
                            f"[round {where}] iteration-validity: process {pid} "
                            f"decided {decisions[pid]!r}, not a proposal"
                        )

    def verdict(self) -> SpecVerdict:
        clock = super().verdict()
        violations = clock.violations + tuple(self._journal_violations)
        return SpecVerdict(
            checker=f"streaming-compiler@{self.final_round}",
            holds=not violations,
            violations=violations,
            details=clock.details,
        )


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
