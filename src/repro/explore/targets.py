"""Exploration targets: protocol + predicate + fault-plan space.

A target bundles everything the engine needs to judge one fault plan:

- a ``streaming`` path — run the plan with streaming observers only
  (``record_history=False`` on the synchronous substrate) and return a
  fast :class:`~repro.explore.checkers.SpecVerdict`;
- a ``confirm`` path — re-run the plan recording the history and
  evaluate the definition-grade predicates from
  :mod:`repro.core.solvability` (or, for the asynchronous target, the
  canonical detector-property evaluators).  This is the oracle the
  shrinker uses and the verdict artifacts carry.

Both paths derive every random stream from the spec's seed, so a spec
fully determines its run and artifacts replay byte-identically.  The
synchronous targets are each stated once, as a :class:`SyncClaim`, and
both paths (and the proof plane's) are read off that statement.

Six targets ship: ``fig1``/``fig3``/``fig4`` (Theorems 3-5 — every
plan must hold; a confirmed violation is a reproduction bug),
``thm1``/``thm2`` (Theorems 1-2 — the engine must *find* violations
and shrink them to the paper's minimal adversary shapes), and
``unison`` (the topology layer's min-rule unison on a churning ring —
every churn schedule must re-stabilize within a diameter).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, FrozenSet, Hashable, Optional, Tuple

from repro.core.compiler import compile_protocol
from repro.core.impossibility import UniformRoundAgreement
from repro.core.problems import (
    ClockAgreementProblem,
    ConjunctionProblem,
    Problem,
    RepeatedConsensusProblem,
    UniformityCondition,
)
from repro.core.rounds import RoundAgreementProtocol
from repro.core.solvability import check_definition
from repro.explore.checkers import (
    SpecVerdict,
    StreamingCompilerCheck,
    StreamingDetectorCheck,
    StreamingFtssClock,
    StreamingTentativeClock,
)
from repro.explore.space import PlanSpace, PlanSpec
from repro.histories.history import ExecutionHistory
from repro.kernel.recorders import MonitorRecorder
from repro.kernel.topology import RingTopology, Topology
from repro.protocols.floodmin import FloodMinConsensus
from repro.protocols.unison import MinUnison
from repro.sync.engine import run_sync
from repro.sync.protocol import SyncProtocol
from repro.util.rng import derive_seed
from repro.workloads.spaces import (
    FIG1_SPACE,
    FIG3_SMOKE_SPACE,
    FIG3_SPACE,
    FIG4_SPACE,
    THM1_SPACE,
    THM2_SPACE,
    UNISON_SPACE,
)

__all__ = ["ExplorationTarget", "SYNC_CLAIMS", "SyncClaim", "TARGETS", "get_target"]

#: Violations carried per verdict (artifacts stay small; determinism is
#: unaffected because violation lists are generated in round order).
MAX_VIOLATIONS = 12

#: Candidate stabilization time the thm1 target refutes (any finite
#: value works; 3 keeps the exhaustive space small).
THM1_CANDIDATE = 3

#: Halting patience of the thm2 uniform protocol; its obligation is
#: checked at stabilization time patience + 1.
THM2_PATIENCE = 3


@dataclass(frozen=True)
class ExplorationTarget:
    """One explorable claim: protocol, predicate, space, expectations."""

    name: str
    title: str
    #: True for the impossibility theorems: violations are the sought
    #: outcome, and their *absence* is the alarming one.
    expect_violation: bool
    #: Whether pid relabeling preserves run semantics (sound symmetry
    #: dedup); False for per-pid-asymmetric protocols or oracles.
    symmetric: bool
    default_space: PlanSpace
    streaming: Callable[[PlanSpec], SpecVerdict]
    confirm: Callable[[PlanSpec], SpecVerdict]
    smoke_space: Optional[PlanSpace] = None


def _cap(violations) -> Tuple[str, ...]:
    return tuple(violations[:MAX_VIOLATIONS])


def _from_the_start(spec: PlanSpec) -> int:
    """The whole history is obliged."""
    return 0


def _reads_nothing(spec: PlanSpec) -> Hashable:
    """The judge reads nothing of the spec besides the obligation."""
    return ()


def _after_last_corruption(spec: PlanSpec) -> int:
    """Mid-run corruption restarts the stabilization obligations (the
    repo's "final systemic failure" contract): Def 2.4 obliges the
    maximal corruption-free suffix, the rounds after the last mid-run
    corruption round (round numbers start at 1)."""
    return max(spec.corruption_rounds, default=0)


def _obligation(history, skipped: int):
    """``history`` without its first ``skipped`` rounds; ``None`` when
    nothing remains to check."""
    if not skipped:
        return history
    if skipped >= len(history):
        return None
    return history.suffix(skipped)


# ---------------------------------------------------------------------------
# The synchronous targets, each stated once
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SyncClaim:
    """One synchronous target: how to run, stream and judge a plan.

    Everything that judges a synchronous plan — ``ExplorationTarget``'s
    two paths here, :mod:`repro.verify.targets`' two verdict functions
    and the proof plane's walk, which judges a space's plans as chains
    that merge (:mod:`repro.verify.walk`) — reads these fields, so a
    target's protocol, topology, checker and predicate are written down
    exactly once.
    """

    #: Canonical stabilization time the claim is instantiated at.
    at: int
    protocol: Callable[[], SyncProtocol]
    #: ``(history, spec, at) -> SpecVerdict``: the definition-grade
    #: predicate on a recorded history, which reads only the claim's
    #: obligation of it, and of the spec only ``obliged_after`` and
    #: ``judge_reads`` (unison's reads the churn schedule).
    judge: Callable[[ExecutionHistory, PlanSpec, int], SpecVerdict]
    #: ``at -> MonitorRecorder``: a monitor (``.monitor``) folded on a
    #: run's bus, with ``.verdict()``; ``None`` where no streaming
    #: checker models the predicate and the judge doubles as the fast
    #: path (thm2, unison — the documented streaming == confirm exception).
    checker: Optional[Callable[[int], MonitorRecorder]] = None
    topology: Optional[Callable[[int], Topology]] = None
    #: ``spec -> r``: the claim obliges the rounds after round ``r``
    #: (``0``: the whole history).  Both verdicts are functions of that
    #: obligation: the judge reads nothing else, and the streaming
    #: checker, which restarts at a mid-run corruption, judges the same
    #: rounds — so a walk may fold it over the obligation alone.
    obliged_after: Callable[[PlanSpec], int] = _from_the_start
    #: ``spec -> key``: what the judge reads of the spec besides
    #: ``obliged_after`` (``()``: nothing).  A walk that files verdicts
    #: by obligation keys them on it too.
    judge_reads: Callable[[PlanSpec], Hashable] = _reads_nothing

    def obligation(self, history: ExecutionHistory, spec: PlanSpec):
        """The rounds of ``history`` the claim obliges (``None``: none)."""
        return _obligation(history, self.obliged_after(spec))

    def _at(self, at: Optional[int]) -> int:
        return self.at if at is None else at

    def run(self, spec: PlanSpec, observers=(), record_history: bool = True):
        return run_sync(
            self.protocol(),
            n=spec.n,
            rounds=spec.rounds,
            fault_plan=spec.fault_plan(),
            observers=observers,
            record_history=record_history,
            topology=None if self.topology is None else self.topology(spec.n),
        )

    def streaming(
        self, spec: PlanSpec, at: Optional[int] = None, observers=()
    ) -> SpecVerdict:
        """The fast filter: streaming observers only, no history."""
        if self.checker is None:
            return self.confirm(spec, at, observers)
        checker = self.checker(self._at(at))
        self.run(spec, (checker, *observers), record_history=False)
        return checker.verdict()

    def confirm(
        self, spec: PlanSpec, at: Optional[int] = None, observers=()
    ) -> SpecVerdict:
        """The oracle: record the history, evaluate the definition on it."""
        return self.judge(self.run(spec, observers).history, spec, self._at(at))


def _judge_ftss(
    label: str,
    sigma: Callable[[], Problem],
    obliged_after: Callable[[PlanSpec], int],
    history: ExecutionHistory,
    spec: PlanSpec,
    at: int,
) -> SpecVerdict:
    """Definition 2.4 at ``at`` on the rounds after ``obliged_after``."""
    checker = f"confirm-ftss-{label}@{at}"
    obliged = _obligation(history, obliged_after(spec))
    if obliged is None:
        return SpecVerdict(checker=checker, holds=True)
    verdict = check_definition("ftss", obliged, sigma(), at)
    return SpecVerdict(
        checker=checker, holds=verdict.holds, violations=_cap(verdict.violations)
    )


def _ftss_claim(
    label: str,
    sigma: Callable[[], Problem],
    obliged_after: Callable[[PlanSpec], int] = _from_the_start,
    **fields,
) -> SyncClaim:
    """A claim judged by Definition 2.4, its obligation stated once for
    the judge and for everyone who narrates the obligation."""
    return SyncClaim(
        judge=partial(_judge_ftss, label, sigma, obliged_after),
        obliged_after=obliged_after,
        **fields,
    )


#: Fixed per-pid proposals for the n=4 compiled-consensus target.
FIG3_PROPOSALS = (3, 1, 4, 1)


def _fig3_instance():
    pi = FloodMinConsensus(f=1, proposals=FIG3_PROPOSALS)
    plus = compile_protocol(pi)
    valid = frozenset(FIG3_PROPOSALS)
    return pi, plus, valid


def _fig3_sigma() -> Problem:
    pi, _plus, valid = _fig3_instance()
    return RepeatedConsensusProblem(pi.final_round, valid_proposals=valid)


def _judge_thm1(history: ExecutionHistory, spec: PlanSpec, at: int) -> SpecVerdict:
    sigma = ClockAgreementProblem()
    tentative = check_definition("tentative", history, sigma, at)
    # The dichotomy that motivates Definition 2.4: the very runs that
    # refute the tentative definition still ftss-solve Σ at time 1.
    ftss = check_definition("ftss", history, sigma, 1)
    return SpecVerdict(
        checker=f"confirm-tentative@{at}",
        holds=tentative.holds,
        violations=_cap(tentative.violations),
        details=(("ftss_at_1_holds", ftss.holds),),
    )


def _thm2_sigma() -> Problem:
    return ConjunctionProblem(ClockAgreementProblem(), UniformityCondition())


def _unison_schedule(spec: PlanSpec) -> Tuple[int, FrozenSet[int]]:
    """``(quiet, exempt)``: the last churn or mid-run corruption round,
    and the processes whose churn window never rejoins."""
    quiet = max(spec.corruption_rounds, default=0)
    for ch in spec.churn:
        quiet = max(quiet, ch.leave_round, ch.rejoin_round or 0)
    return quiet, frozenset(ch.pid for ch in spec.churn if ch.rejoin_round is None)


def _judge_unison(history: ExecutionHistory, spec: PlanSpec, at: int) -> SpecVerdict:
    """Unison re-agreement after quiescence, on the recorded history.

    The obligation: let *quiet* be the last churn or mid-run corruption
    round; the processes still attached must agree (and tick +1) from
    round ``quiet + diameter + 1`` to the horizon.  A process whose
    churn window never rejoins free-runs detached and is exempt.  The
    deadline is spec-dependent, so ``at`` does not enter.
    """
    diameter = RingTopology(spec.n).diameter()
    quiet, exempt = _unison_schedule(spec)
    deadline = quiet + diameter
    violations: list = []
    previous: Optional[Dict[int, int]] = None
    for round_no in range(deadline + 1, spec.rounds + 1):
        clocks = {
            pid: clock
            for pid, clock in history.clocks(round_no).items()
            if pid not in exempt and clock is not None
        }
        if len(set(clocks.values())) > 1:
            violations.append(
                f"[round {round_no}] agreement: attached clocks differ "
                f"{deadline - quiet} rounds after quiescence: "
                f"{dict(sorted(clocks.items()))}"
            )
        if previous is not None:
            for pid in sorted(clocks):
                if pid in previous and clocks[pid] != previous[pid] + 1:
                    violations.append(
                        f"[round {round_no}] rate: process {pid} went "
                        f"{previous[pid]} -> {clocks[pid]}"
                    )
        previous = clocks
    return SpecVerdict(
        checker=f"confirm-unison-ring@diameter={diameter}",
        holds=not violations,
        violations=_cap(violations),
        details=(("quiet_round", quiet), ("deadline", deadline)),
    )


SYNC_CLAIMS: Dict[str, SyncClaim] = {
    # Round agreement (Figure 1), ftss@1 (Theorem 3).
    "fig1": _ftss_claim(
        "clock",
        ClockAgreementProblem,
        _after_last_corruption,
        at=1,
        protocol=RoundAgreementProtocol,
        checker=StreamingFtssClock,
    ),
    # Compiled FloodMin (Figure 3), ftss@final_round (Theorem 4); the
    # obligation time is structural, so ``at`` is always the final round.
    "fig3": _ftss_claim(
        "compiler",
        _fig3_sigma,
        _after_last_corruption,
        at=FloodMinConsensus(f=1, proposals=FIG3_PROPOSALS).final_round,
        protocol=lambda: _fig3_instance()[1],
        checker=lambda at: StreamingCompilerCheck(
            final_round=at, valid_proposals=frozenset(FIG3_PROPOSALS)
        ),
    ),
    # Min-rule unison on a churning ring (topology layer).  Its
    # obligation starts at the churn schedule's quiescence point, which
    # the generic streaming clock checkers cannot express; the runs are
    # small, so the definition-grade path doubles as the fast path.
    "unison": SyncClaim(
        at=0,
        protocol=MinUnison,
        topology=RingTopology,
        judge=_judge_unison,
        judge_reads=_unison_schedule,
    ),
    # The tentative definition is refutable (Theorem 1).
    "thm1": SyncClaim(
        at=THM1_CANDIDATE,
        protocol=RoundAgreementProtocol,
        checker=StreamingTentativeClock,
        judge=_judge_thm1,
    ),
    # Uniformity is impossible with process failures (Theorem 2).  Σ
    # mixes clock agreement with the uniformity condition on *faulty*
    # processes — a predicate the streaming clock checkers do not model;
    # the runs are 2-process and 12 rounds, so the definition-grade path
    # doubles as the fast path (documented search-target exception).
    "thm2": _ftss_claim(
        "uniform",
        _thm2_sigma,
        at=THM2_PATIENCE + 1,
        protocol=partial(UniformRoundAgreement, patience=THM2_PATIENCE),
    ),
}


# ---------------------------------------------------------------------------
# fig4 — ◇W→◇S transformation (Figure 4), Theorem 5
# ---------------------------------------------------------------------------


def _fig4_run(spec: PlanSpec, observers=()):
    # Imported lazily so synchronous-only explorations never load the
    # asynchronous substrate.
    from repro.asyncnet.oracle import WeakDetectorOracle
    from repro.asyncnet.scheduler import AsyncScheduler
    from repro.detectors.strong import StrongDetector

    crashes = {pid: float(time) for pid, time in spec.crashes}
    oracle = WeakDetectorOracle(
        spec.n,
        crashes,
        gst=float(spec.gst),
        seed=derive_seed(spec.seed, "explore:oracle"),
    )
    scheduler = AsyncScheduler(
        StrongDetector(),
        spec.n,
        seed=derive_seed(spec.seed, "explore:sched"),
        oracle=oracle,
        fault_plan=spec.fault_plan(),
        sample_interval=2.0,
        observers=observers,
    )
    return scheduler.run(max_time=float(spec.rounds))


def _fig4_streaming(spec: PlanSpec) -> SpecVerdict:
    checker = StreamingDetectorCheck()
    _fig4_run(spec, observers=(checker,))
    return checker.verdict()


def _fig4_confirm(spec: PlanSpec) -> SpecVerdict:
    from repro.detectors.properties import (
        eventual_weak_accuracy,
        strong_completeness,
    )

    trace = _fig4_run(spec)
    completeness = strong_completeness(trace)
    accuracy = eventual_weak_accuracy(trace)
    violations = []
    if not completeness.holds:
        violations.append("strong-completeness never converged within the run")
    if not accuracy.holds:
        violations.append("eventual-weak-accuracy never converged within the run")
    return SpecVerdict(
        checker="confirm-detector",
        holds=not violations,
        violations=tuple(violations),
        details=(
            ("completeness_converged_at", completeness.converged_at),
            ("accuracy_converged_at", accuracy.converged_at),
        ),
    )


TARGETS: Dict[str, ExplorationTarget] = {
    "fig1": ExplorationTarget(
        name="fig1",
        title="round agreement (Figure 1) ftss-solves clock agreement at time 1",
        expect_violation=False,
        symmetric=True,
        default_space=FIG1_SPACE,
        streaming=SYNC_CLAIMS["fig1"].streaming,
        confirm=SYNC_CLAIMS["fig1"].confirm,
    ),
    "fig3": ExplorationTarget(
        name="fig3",
        title="compiled FloodMin (Figure 3) ftss-solves Σ⁺ at final_round",
        expect_violation=False,
        symmetric=False,  # per-pid proposals
        default_space=FIG3_SPACE,
        streaming=SYNC_CLAIMS["fig3"].streaming,
        confirm=SYNC_CLAIMS["fig3"].confirm,
        smoke_space=FIG3_SMOKE_SPACE,
    ),
    "fig4": ExplorationTarget(
        name="fig4",
        title="◇W→◇S transformation (Figure 4) yields completeness + accuracy",
        expect_violation=False,
        symmetric=False,  # the oracle's watcher assignment is pid-ordered
        default_space=FIG4_SPACE,
        streaming=_fig4_streaming,
        confirm=_fig4_confirm,
    ),
    "unison": ExplorationTarget(
        name="unison",
        title="min-rule unison on a churning ring re-agrees within a diameter",
        expect_violation=False,
        symmetric=False,  # ring adjacency is pid-dependent
        default_space=UNISON_SPACE,
        streaming=SYNC_CLAIMS["unison"].streaming,
        confirm=SYNC_CLAIMS["unison"].confirm,
    ),
    "thm1": ExplorationTarget(
        name="thm1",
        title=f"Tentative Definition 1 is refutable at r={THM1_CANDIDATE} (Theorem 1)",
        expect_violation=True,
        symmetric=True,
        default_space=THM1_SPACE,
        streaming=SYNC_CLAIMS["thm1"].streaming,
        confirm=SYNC_CLAIMS["thm1"].confirm,
    ),
    "thm2": ExplorationTarget(
        name="thm2",
        title=(
            f"no patience-{THM2_PATIENCE} halting rule ftss-solves "
            "clock agreement ∧ uniformity (Theorem 2)"
        ),
        expect_violation=True,
        symmetric=True,
        default_space=THM2_SPACE,
        streaming=SYNC_CLAIMS["thm2"].streaming,
        confirm=SYNC_CLAIMS["thm2"].confirm,
    ),
}


def get_target(name: str) -> ExplorationTarget:
    try:
        return TARGETS[name]
    except KeyError:
        raise ValueError(
            f"unknown exploration target {name!r}; "
            f"available: {', '.join(sorted(TARGETS))}"
        ) from None
