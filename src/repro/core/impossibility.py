"""Executable renderings of the paper's impossibility arguments.

Theorems 1 and 2 are proofs by scenario: the adversary builds two (or
three) executions that a process cannot tell apart, such that any
protocol behaviour violates the specification in at least one of them.
This module constructs exactly those executions on the synchronous
simulator, so the tests and benches can *run* the dichotomy rather than
merely assert it.

Theorem 1 (no finite stabilization time under Tentative Definition 1)
---------------------------------------------------------------------
Two processes start with different round variables (systemic failure);
one stays silent for ``r`` rounds (omission failures) and then reveals
itself.  The dichotomy over merge behaviours:

- a protocol that *merges* round numbers (Figure 1's max-merge) has the
  correct process's clock jump when the hidden process reveals — a rate
  violation inside the r-suffix, for every finite candidate ``r``;
- a protocol that *ignores* others (free-running) keeps perfect rate
  but, in the failure-free twin execution, never re-establishes
  agreement — an agreement violation at every round of the suffix.

Either way Tentative Definition 1 fails; and the same merge history
**passes** ``ftss_check`` with stabilization time 1, because the reveal
is a coterie change that resets the obligation window (the paper's
point: the coterie change *is* the de-stabilizing event).

Theorem 2 (uniform protocols cannot ftss-solve anything)
--------------------------------------------------------
A process that hears only itself cannot distinguish "I am the faulty
one and must halt" (uniformity, Assumption 2) from "the other process
is faulty and I must keep running" (rate, Assumption 1).  We build the
two scenarios with **identical local views** for the pivot process; for
any local halting rule, one of the scenarios is violated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

from repro.core.problems import (
    ClockAgreementProblem,
    CheckReport,
    ConjunctionProblem,
    HALTED_KEY,
    UniformityCondition,
)
from repro.core.rounds import FreeRunningRoundProtocol, RoundAgreementProtocol
from repro.core.solvability import FtssReport, ftss_check, tentative_check
from repro.histories.history import CLOCK_KEY, ExecutionHistory
from repro.sync.adversary import RoundFaultPlan, ScriptedAdversary
from repro.sync.corruption import ClockSkewCorruption
from repro.sync.engine import run_sync
from repro.util.validation import require, require_positive

__all__ = [
    "Theorem1Outcome",
    "Theorem2Outcome",
    "UniformRoundAgreement",
    "theorem1_scenario",
    "theorem2_scenario",
    "local_view",
]

#: The pivot process (the one whose view the adversary controls).
PIVOT = 0
#: Its peer.
PEER = 1


# ---------------------------------------------------------------------------
# Theorem 1
# ---------------------------------------------------------------------------


@dataclass
class Theorem1Outcome:
    """The full dichotomy for one candidate stabilization time."""

    candidate_stabilization: int
    #: Max-merge protocol, hidden-then-reveal scenario.
    merge_history: ExecutionHistory
    merge_tentative: CheckReport
    merge_ftss: FtssReport
    #: Free-running protocol, failure-free skewed twin.
    twin_history: ExecutionHistory
    twin_tentative: CheckReport

    @property
    def tentative_defeated(self) -> bool:
        """True iff both horns violate Tentative Definition 1."""
        return not self.merge_tentative.holds and not self.twin_tentative.holds

    @property
    def ftss_survives(self) -> bool:
        """True iff the very same merge history satisfies Definition 2.4."""
        return self.merge_ftss.holds


def theorem1_scenario(
    candidate_stabilization: int,
    skew: int = 100,
    rounds_after_reveal: int = 8,
) -> Theorem1Outcome:
    """Build the Theorem 1 scenario pair for one candidate ``r``.

    The hidden process starts *ahead* by ``skew`` (the proof's process
    ``u`` with the larger corrupted round number) and reveals itself in
    round ``r + 1`` — the first round of the r-suffix, the earliest
    point at which the tentative definition starts owing anything.
    """
    r = require_positive(candidate_stabilization, "candidate_stabilization")
    require(skew > 0, "the hidden process must be ahead for the merge horn")
    require_positive(rounds_after_reveal, "rounds_after_reveal")
    sigma = ClockAgreementProblem()
    n = 2
    total_rounds = r + rounds_after_reveal

    # Horn 1: merge protocol, hidden peer ahead by `skew`.
    corruption = ClockSkewCorruption({PIVOT: 1, PEER: 1 + skew})
    adversary = ScriptedAdversary.silence([PEER], range(1, r + 1), n=n)
    merge_run = run_sync(
        RoundAgreementProtocol(),
        n=n,
        rounds=total_rounds,
        adversary=adversary,
        corruption=corruption,
    )
    merge_tentative = tentative_check(merge_run.history, sigma, r)
    merge_ftss = ftss_check(merge_run.history, sigma, stabilization_time=1)

    # Horn 2: free-running protocol, failure-free, same initial skew.
    twin_run = run_sync(
        FreeRunningRoundProtocol(),
        n=n,
        rounds=total_rounds,
        corruption=corruption,
    )
    twin_tentative = tentative_check(twin_run.history, sigma, r)

    return Theorem1Outcome(
        candidate_stabilization=r,
        merge_history=merge_run.history,
        merge_tentative=merge_tentative,
        merge_ftss=merge_ftss,
        twin_history=twin_run.history,
        twin_tentative=twin_tentative,
    )


# ---------------------------------------------------------------------------
# Theorem 2
# ---------------------------------------------------------------------------


class UniformRoundAgreement(RoundAgreementProtocol):
    """Round agreement plus a local "self-check and halt" rule.

    A uniform protocol must ensure faulty processes halt before doing
    harm (Assumption 2).  The only information a process has is its
    local view, so any such rule is a predicate over that view; we
    parameterize by the simplest family — "halt after hearing nobody
    but myself for ``patience`` consecutive rounds" (``patience=None``
    never halts).  Theorem 2 says *no* member of this family (or any
    other local rule) can work; :func:`theorem2_scenario` runs the two
    indistinguishable executions that together defeat each member.
    """

    def __init__(self, patience: Optional[int]):
        super().__init__()
        if patience is not None:
            require_positive(patience, "patience")
        self.patience = patience
        self.name = (
            "uniform-round-agreement-never"
            if patience is None
            else f"uniform-round-agreement-T{patience}"
        )

    def initial_state(self, pid: int, n: int) -> dict:
        return {CLOCK_KEY: 1, "lonely_rounds": 0, HALTED_KEY: False}

    def send(self, pid: int, state) -> Any:
        if state[HALTED_KEY]:
            return None
        return state[CLOCK_KEY]

    def update(self, pid: int, state, delivered) -> dict:
        if state[HALTED_KEY]:
            return dict(state)
        rounds_seen = {m.payload for m in delivered}
        heard_others = any(m.sender != pid for m in delivered)
        lonely = 0 if heard_others else state["lonely_rounds"] + 1
        if not rounds_seen:
            rounds_seen = {state[CLOCK_KEY]}
        halted = self.patience is not None and lonely >= self.patience
        return {
            CLOCK_KEY: state[CLOCK_KEY] if halted else max(rounds_seen) + 1,
            "lonely_rounds": lonely,
            HALTED_KEY: halted,
        }


@dataclass
class Theorem2Outcome:
    """Both indistinguishable scenarios for one halting rule.

    The proof's dichotomy concerns the *pivot's* obligations: in
    scenario A (pivot faulty) Assumption 2 obliges the pivot to halt or
    agree; in scenario B (peer faulty, pivot correct, same local view)
    Assumption 1's rate condition forbids it from halting.  Because the
    views are identical the pivot behaves identically, so at least one
    obligation breaks.  ``pivot_uniform_in_a`` / ``pivot_rate_in_b``
    isolate those two obligations; the full ftss reports are kept as
    supporting evidence (whole-Σ verdicts, which may fail for
    additional reasons — e.g. an isolation-halting rule also halts the
    *correct* peer in scenario A).
    """

    patience: Optional[int]
    #: Scenario A: the pivot is the faulty one (general omission).
    pivot_faulty_history: ExecutionHistory
    pivot_faulty_report: FtssReport
    #: Scenario B: the peer is faulty (send omission); pivot is correct.
    peer_faulty_history: ExecutionHistory
    peer_faulty_report: FtssReport
    #: Whether the pivot's local views coincide (they must).
    views_identical: bool
    #: Did the pivot halt (same in both runs when views are identical)?
    pivot_halted: bool
    #: Scenario A obligation: pivot halted-or-agreeing in the window.
    pivot_uniform_in_a: bool
    #: Scenario B obligation: pivot's clock advanced +1 throughout.
    pivot_rate_in_b: bool

    @property
    def rule_defeated(self) -> bool:
        """True iff at least one pivot obligation breaks — the dichotomy."""
        return not (self.pivot_uniform_in_a and self.pivot_rate_in_b)


def theorem2_scenario(
    patience: Optional[int],
    rounds: int = 12,
    skew: int = 40,
) -> Theorem2Outcome:
    """Run the Theorem 2 indistinguishability pair for one halting rule.

    Scenario A makes the pivot faulty (it omits all sends and
    receives); Assumption 2 then obliges it to halt or agree — it can
    do neither without hearing the peer, unless the rule fires.
    Scenario B silences the *peer's sends only*, leaving the pivot
    correct with the byte-identical local view; Assumption 1's rate
    condition then forbids the pivot from halting.  One obligation must
    break.
    """
    require_positive(rounds, "rounds")
    # Grant the rule the most generous stabilization time that could
    # possibly save it: enough for the halting rule to have fired.  The
    # point of the theorem is that *no* finite grace helps — the other
    # scenario still breaks.
    stabilization_time = 1 if patience is None else patience + 1
    require(
        rounds >= stabilization_time + 3,
        f"need at least {stabilization_time + 3} rounds to exercise the "
        f"obligation window after the grace period",
    )
    n = 2
    protocol_a = UniformRoundAgreement(patience)
    protocol_b = UniformRoundAgreement(patience)
    sigma = ConjunctionProblem(ClockAgreementProblem(), UniformityCondition())
    corruption = ClockSkewCorruption({PIVOT: 1 + skew, PEER: 1})

    everyone = frozenset(range(n))
    # Scenario A: pivot general-omits everything, forever.
    script_a = {
        r: RoundFaultPlan(
            send_omissions={PIVOT: everyone - {PIVOT}},
            receive_omissions={PIVOT: everyone - {PIVOT}},
        )
        for r in range(1, rounds + 1)
    }
    run_a = run_sync(
        protocol_a,
        n=n,
        rounds=rounds,
        adversary=ScriptedAdversary(f=1, script=script_a),
        corruption=corruption,
    )

    # Scenario B: the peer send-omits to the pivot, forever.
    script_b = {
        r: RoundFaultPlan(send_omissions={PEER: frozenset({PIVOT})})
        for r in range(1, rounds + 1)
    }
    run_b = run_sync(
        protocol_b,
        n=n,
        rounds=rounds,
        adversary=ScriptedAdversary(f=1, script=script_b),
        corruption=corruption,
    )

    views_identical = local_view(run_a.history, PIVOT) == local_view(
        run_b.history, PIVOT
    )
    report_a = ftss_check(run_a.history, sigma, stabilization_time)
    report_b = ftss_check(run_b.history, sigma, stabilization_time)

    obligation_rounds = range(stabilization_time + 1, rounds + 1)
    pivot_halted = bool(
        run_a.final_states[PIVOT] and run_a.final_states[PIVOT].get(HALTED_KEY)
    )
    pivot_uniform_in_a = all(
        _halted_or_agreeing(run_a.history, round_no) for round_no in obligation_rounds
    )
    pivot_rate_in_b = all(
        _pivot_advanced(run_b.history, round_no)
        for round_no in obligation_rounds
        if round_no < rounds
    )
    return Theorem2Outcome(
        patience=patience,
        pivot_faulty_history=run_a.history,
        pivot_faulty_report=report_a,
        peer_faulty_history=run_b.history,
        peer_faulty_report=report_b,
        views_identical=views_identical,
        pivot_halted=pivot_halted,
        pivot_uniform_in_a=pivot_uniform_in_a,
        pivot_rate_in_b=pivot_rate_in_b,
    )


def _halted_or_agreeing(history: ExecutionHistory, round_no: int) -> bool:
    """Assumption 2 at the pivot, one round: halted or matching the peer."""
    pivot = history.round(round_no).record(PIVOT)
    peer = history.round(round_no).record(PEER)
    if pivot.state_before is None or pivot.state_before.get(HALTED_KEY):
        return True
    return pivot.clock_before == peer.clock_before


def _pivot_advanced(history: ExecutionHistory, round_no: int) -> bool:
    """Assumption 1's rate at the pivot, between round_no and round_no+1."""
    now = history.round(round_no).record(PIVOT).clock_before
    nxt = history.round(round_no + 1).record(PIVOT).clock_before
    return now is not None and nxt == now + 1


def local_view(
    history: ExecutionHistory, pid: int
) -> List[Tuple[int, Tuple[Tuple[int, Any], ...]]]:
    """The pid's local view: per round, the (sender, payload) pairs delivered.

    Two executions are indistinguishable to ``pid`` exactly when these
    views (together with its initial state, which the scenarios fix)
    coincide.
    """
    view = []
    for round_no in range(history.first_round, history.last_round + 1):
        record = history.round(round_no).record(pid)
        deliveries = tuple(
            (message.sender, message.payload) for message in record.heard
        )
        view.append((round_no, deliveries))
    return view
