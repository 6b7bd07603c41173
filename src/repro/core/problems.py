"""Problems as predicates on (history, faulty set).

The paper defines a *problem* Σ as a predicate on a history and a set
of faulty processes, and assumes (Assumption 1) that every round-based
problem requires the correct processes to agree on the round number and
advance it by one per round.  This module makes those predicates
executable: each :class:`Problem` checks a recorded
:class:`~repro.histories.history.ExecutionHistory` (or any window of
one) against a given faulty set and reports each violation with the
round it occurred in.

Provided problems:

- :class:`ClockAgreementProblem` — exactly Assumption 1 (agreement +
  rate on the round variables of non-faulty processes).  This is the Σ
  that the round agreement protocol (Figure 1) ftss-solves.
- :class:`ConsensusProblem` — single-shot consensus (agreement,
  validity, termination), evaluated over the decisions non-faulty
  processes record in their states.
- :class:`RepeatedConsensusProblem` — Σ⁺ for the compiler: the window
  decomposes into iterations of ``final_round`` rounds, each complete
  iteration satisfying consensus.
- :class:`UniformityCondition` — Assumption 2 (faulty processes have
  halted or agree on the round number), used by the Theorem 2
  demonstration.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, FrozenSet, List, Optional

from repro.histories.history import ExecutionHistory

__all__ = [
    "Violation",
    "CheckReport",
    "Problem",
    "ClockAgreementProblem",
    "ConsensusProblem",
    "RepeatedConsensusProblem",
    "UniformityCondition",
]

ProcessId = int

#: Key under which protocol states record a consensus decision.
DECISION_KEY = "decision"
#: Key under which protocol states record the value they proposed.
PROPOSAL_KEY = "proposal"
#: Key marking a voluntarily halted process (uniform protocols).
HALTED_KEY = "halted"


@dataclass(frozen=True)
class Violation:
    """One point at which a predicate failed."""

    round_no: int
    condition: str
    description: str

    def __str__(self) -> str:
        return f"[round {self.round_no}] {self.condition}: {self.description}"


@dataclass
class CheckReport:
    """The outcome of evaluating Σ(H, F)."""

    problem: str
    holds: bool
    violations: List[Violation] = field(default_factory=list)

    @staticmethod
    def from_violations(problem: str, violations: List[Violation]) -> "CheckReport":
        return CheckReport(
            problem=problem, holds=not violations, violations=violations
        )

    def first_violation_round(self) -> Optional[int]:
        if not self.violations:
            return None
        return min(v.round_no for v in self.violations)

    def __bool__(self) -> bool:
        return self.holds


class Problem(ABC):
    """A problem Σ: a predicate on (history, faulty set)."""

    name: str = "problem"

    @abstractmethod
    def check(self, history: ExecutionHistory, faulty: FrozenSet[ProcessId]) -> CheckReport:
        """Evaluate Σ(history, faulty) and report all violations."""

    def holds(self, history: ExecutionHistory, faulty: FrozenSet[ProcessId]) -> bool:
        return self.check(history, faulty).holds


def _live_nonfaulty(
    history: ExecutionHistory, round_no: int, faulty: FrozenSet[ProcessId]
) -> Dict[ProcessId, int]:
    """Round variables of non-faulty, non-crashed processes at round start."""
    clocks = {}
    for pid, clock in history.clocks(round_no).items():
        if pid in faulty or clock is None:
            continue
        clocks[pid] = clock
    return clocks


class ClockAgreementProblem(Problem):
    """Assumption 1 as a problem: round agreement plus unit rate.

    - *Agreement*: for every round ``r`` of the history, all non-faulty
      processes have equal round variables ``c_p^r``.
    - *Rate*: for consecutive rounds within the history, every
      non-faulty process advanced its round variable by exactly one.

    Because of systemic failures, ``c_p^r`` need not equal the actual
    round number ``r`` — only mutual agreement and unit rate are
    required.
    """

    name = "clock-agreement"

    def check(
        self, history: ExecutionHistory, faulty: FrozenSet[ProcessId]
    ) -> CheckReport:
        violations: List[Violation] = []
        nxt = _live_nonfaulty(history, history.first_round, faulty)
        for round_no in range(history.first_round, history.last_round + 1):
            clocks = nxt  # each round is read once: as ``nxt``, then as ``clocks``
            if len(set(clocks.values())) > 1:
                violations.append(
                    Violation(
                        round_no=round_no,
                        condition="agreement",
                        description=f"non-faulty round variables differ: {clocks}",
                    )
                )
            if round_no < history.last_round:
                nxt = _live_nonfaulty(history, round_no + 1, faulty)
                for pid, clock in clocks.items():
                    if pid in nxt and nxt[pid] != clock + 1:
                        violations.append(
                            Violation(
                                round_no=round_no,
                                condition="rate",
                                description=(
                                    f"process {pid} moved its round variable "
                                    f"{clock} -> {nxt[pid]} (must be +1)"
                                ),
                            )
                        )
        return CheckReport.from_violations(self.name, violations)


class BoundedSkewAgreementProblem(Problem):
    """Assumption 1 relaxed for not-perfectly-synchronized systems.

    With message delivery taking up to ``1 + skew`` rounds, exact
    lockstep agreement on round variables is unattainable — a
    permanently lagged link holds its receiver exactly one round
    behind (see :mod:`repro.sync.delays`).  The adapted problem:

    - *skew-agreement*: at every round, the round variables of
      non-faulty processes span at most ``skew``;
    - *bounded rate*: every non-faulty process advances by at least 1
      and at most ``1 + skew`` per round (a process one round behind
      the pack may catch up with a ``+2`` jump when a late copy of the
      maximum finally lands).

    With ``skew=0`` this is exactly :class:`ClockAgreementProblem`.
    """

    def __init__(self, skew: int):
        if skew < 0:
            raise ValueError(f"skew must be non-negative, got {skew}")
        self.skew = skew
        self.name = f"clock-agreement-skew-{skew}"

    def check(
        self, history: ExecutionHistory, faulty: FrozenSet[ProcessId]
    ) -> CheckReport:
        violations: List[Violation] = []
        nxt = _live_nonfaulty(history, history.first_round, faulty)
        for round_no in range(history.first_round, history.last_round + 1):
            clocks = nxt  # each round is read once: as ``nxt``, then as ``clocks``
            if clocks and max(clocks.values()) - min(clocks.values()) > self.skew:
                violations.append(
                    Violation(
                        round_no=round_no,
                        condition="skew-agreement",
                        description=(
                            f"round-variable spread "
                            f"{max(clocks.values()) - min(clocks.values())} "
                            f"exceeds skew {self.skew}: {clocks}"
                        ),
                    )
                )
            if round_no < history.last_round:
                nxt = _live_nonfaulty(history, round_no + 1, faulty)
                for pid, clock in clocks.items():
                    if pid in nxt and not 1 <= nxt[pid] - clock <= 1 + self.skew:
                        violations.append(
                            Violation(
                                round_no=round_no,
                                condition="bounded-rate",
                                description=(
                                    f"process {pid} moved its round variable "
                                    f"{clock} -> {nxt[pid]} (must advance by "
                                    f"1..{1 + self.skew})"
                                ),
                            )
                        )
        return CheckReport.from_violations(self.name, violations)


class ConsensusProblem(Problem):
    """Single-shot consensus over recorded decisions.

    Decisions and proposals are read from process states under
    :data:`DECISION_KEY` / :data:`PROPOSAL_KEY` (overridable via
    extractor callbacks, for protocols with different state layouts).

    - *Agreement*: no two non-faulty processes decide differently.
    - *Validity*: every non-faulty decision is some process's proposal.
    - *Termination*: every non-faulty process has decided by the last
      round of the history (set ``require_termination=False`` to check a
      window that legitimately ends mid-protocol).
    """

    name = "consensus"

    def __init__(
        self,
        decision_of: Optional[Callable[[Dict[str, Any]], Any]] = None,
        proposal_of: Optional[Callable[[Dict[str, Any]], Any]] = None,
        require_termination: bool = True,
        valid_proposals: Optional[frozenset] = None,
    ):
        self._decision_of = decision_of or (lambda s: s.get(DECISION_KEY))
        self._proposal_of = proposal_of or (lambda s: s.get(PROPOSAL_KEY))
        self.require_termination = require_termination
        self._valid_proposals = valid_proposals

    def check(
        self, history: ExecutionHistory, faulty: FrozenSet[ProcessId]
    ) -> CheckReport:
        violations: List[Violation] = []
        last = history.last_round
        decisions: Dict[ProcessId, Any] = {}
        proposals: set = set(self._valid_proposals or ())

        for round_no in range(history.first_round, last + 1):
            for record in history.round(round_no).records:
                if record.state_before is None:
                    continue
                proposal = self._proposal_of(record.state_before)
                if proposal is not None and self._valid_proposals is None:
                    proposals.add(proposal)

        for record in history.round(last).records:
            if record.pid in faulty or record.state_before is None:
                continue
            decision = self._decision_of(record.state_before)
            if decision is None:
                if self.require_termination:
                    violations.append(
                        Violation(
                            round_no=last,
                            condition="termination",
                            description=f"process {record.pid} has not decided",
                        )
                    )
                continue
            decisions[record.pid] = decision
            if proposals and decision not in proposals:
                violations.append(
                    Violation(
                        round_no=last,
                        condition="validity",
                        description=(
                            f"process {record.pid} decided {decision!r}, "
                            f"not among proposals {sorted(map(repr, proposals))}"
                        ),
                    )
                )
        if len(set(decisions.values())) > 1:
            violations.append(
                Violation(
                    round_no=last,
                    condition="agreement",
                    description=f"non-faulty decisions differ: {decisions}",
                )
            )
        return CheckReport.from_violations(self.name, violations)


class RepeatedConsensusProblem(Problem):
    """Σ⁺ for a consensus protocol compiled with Figure 3.

    The compiled protocol records, in each process state, the decision
    of the most recently *completed* iteration (``last_decision``) and
    the clock value at which it completed (``decided_at_clock``); see
    :mod:`repro.core.compiler`.  Σ⁺ holds on a window iff:

    - Assumption 1 (clock agreement + rate) holds throughout, and
    - for every iteration that completes inside the window, the
      decisions recorded by non-faulty processes for that iteration
      agree and are valid proposals.

    Partial iterations at the window edges are constrained only by
    Assumption 1, matching the compiler's stabilization-time contract
    (stabilization ``final_round`` means the first complete iteration
    after the grace period must already be correct).
    """

    name = "repeated-consensus"

    def __init__(self, final_round: int, valid_proposals: Optional[frozenset] = None):
        self.final_round = final_round
        self._valid_proposals = valid_proposals
        self._clock_agreement = ClockAgreementProblem()

    def check(
        self, history: ExecutionHistory, faulty: FrozenSet[ProcessId]
    ) -> CheckReport:
        report = self._clock_agreement.check(history, faulty)
        violations = list(report.violations)

        # Group recorded iteration decisions by the clock at which the
        # iteration completed; each group must agree.  Only *fresh
        # writes* count: a journal entry already present when the
        # window opens was written during the grace period (or planted
        # by the systemic failure itself) and is not this window's
        # obligation.  A fresh write shows up as a change of the
        # (decided_at_clock, last_decision) pair between two
        # consecutive rounds of the window.
        iteration_decisions: Dict[int, Dict[ProcessId, Any]] = {}
        decision_rounds: Dict[int, int] = {}
        for round_no in range(history.first_round, history.last_round):
            for record in history.round(round_no).records:
                after = history.round(round_no + 1).record(record.pid)
                if record.pid in faulty or after.state_before is None:
                    continue
                decided_at = after.state_before.get("decided_at_clock")
                decision = after.state_before.get("last_decision")
                if decided_at is None or decision is None:
                    continue
                before_state = record.state_before or {}
                unchanged = (
                    before_state.get("decided_at_clock") == decided_at
                    and before_state.get("last_decision") == decision
                )
                if unchanged:
                    continue
                iteration_decisions.setdefault(decided_at, {})[record.pid] = decision
                decision_rounds.setdefault(decided_at, round_no)

        for decided_at, decisions in sorted(iteration_decisions.items()):
            where = decision_rounds[decided_at]
            if len(set(decisions.values())) > 1:
                violations.append(
                    Violation(
                        round_no=where,
                        condition="iteration-agreement",
                        description=(
                            f"iteration completing at clock {decided_at}: "
                            f"non-faulty decisions differ: {decisions}"
                        ),
                    )
                )
            if self._valid_proposals is not None:
                for pid, decision in decisions.items():
                    if decision not in self._valid_proposals:
                        violations.append(
                            Violation(
                                round_no=where,
                                condition="iteration-validity",
                                description=(
                                    f"iteration at clock {decided_at}: process "
                                    f"{pid} decided {decision!r}, not a proposal"
                                ),
                            )
                        )
        return CheckReport.from_violations(self.name, violations)


class ConjunctionProblem(Problem):
    """Σ = Σ₁ ∧ Σ₂ ∧ …: all component predicates must hold.

    Used e.g. to state "clock agreement *under the uniformity
    assumption*" (Assumption 1 ∧ Assumption 2) for the Theorem 2
    demonstration.
    """

    def __init__(self, *components: Problem):
        if not components:
            raise ValueError("a conjunction needs at least one component")
        self.components = components
        self.name = " & ".join(c.name for c in components)

    def check(
        self, history: ExecutionHistory, faulty: FrozenSet[ProcessId]
    ) -> CheckReport:
        violations: List[Violation] = []
        for component in self.components:
            violations.extend(component.check(history, faulty).violations)
        return CheckReport.from_violations(self.name, violations)


class UniformityCondition(Problem):
    """Assumption 2: faulty processes have halted or agree on the round.

    A process is considered halted if it crashed or its state carries a
    truthy :data:`HALTED_KEY`.  The condition is evaluated per round
    against the round variable shared by the non-faulty processes (if
    the non-faulty processes themselves disagree, Assumption 1 is
    already violated and this check reports nothing extra for that
    round).
    """

    name = "uniformity"

    def check(
        self, history: ExecutionHistory, faulty: FrozenSet[ProcessId]
    ) -> CheckReport:
        violations: List[Violation] = []
        for round_no in range(history.first_round, history.last_round + 1):
            correct_clocks = set(
                _live_nonfaulty(history, round_no, faulty).values()
            )
            if len(correct_clocks) != 1:
                continue
            (reference,) = correct_clocks
            for record in history.round(round_no).records:
                if record.pid not in faulty:
                    continue
                if record.state_before is None:
                    continue  # crashed counts as halted
                if record.state_before.get(HALTED_KEY):
                    continue
                if record.clock_before != reference:
                    violations.append(
                        Violation(
                            round_no=round_no,
                            condition="uniformity",
                            description=(
                                f"faulty process {record.pid} is running with "
                                f"round variable {record.clock_before} != "
                                f"{reference} and has not halted"
                            ),
                        )
                    )
        return CheckReport.from_violations(self.name, violations)
