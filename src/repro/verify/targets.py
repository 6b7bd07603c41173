"""Verification targets: the claims the proof plane can exhaust.

A verify target reuses an exploration target's protocol and predicates
(:mod:`repro.explore.targets`) but inverts the posture: instead of
*sampling* a large fault-plan space hunting for violations, it walks a
curated small space *exhaustively* and renders a verdict about the
whole space — ``proved`` (no plan violates the claim) or ``refuted``
(with a concrete counterexample plan).

Every plan faces EXPLORE's two judges, both read off the target's one
:class:`~repro.explore.targets.SyncClaim`:

- the **streaming** judge is the streaming checker EXPLORE uses, fed
  by the run's events as they happen;
- the **confirm** judge evaluates the definition-grade predicates from
  :mod:`repro.core.solvability` on the recorded history.  *This* is
  the verdict of record — the streaming verdict is cross-checked
  against it on every single plan, and any disagreement is surfaced as
  a mismatch that blocks certification.

:func:`streaming_verdict` and :func:`confirm_verdict` each execute one
plan through ``run_sync`` for their one judge: the per-plan oracle
(replays, cross-checks, the SMT engine's concrete counterexamples, and
the tests the explicit engine is held to).  The explicit engine judges
a whole space with the same two judges off the chains of
:mod:`repro.verify.walk`, once per obligation many plans reach: the
engine is deterministic in the spec, so the rounds two executions of
an obligation file would be equal anyway, and what the judges share is
only that input.  They stay separate code (a monitor's fold over filed
rounds vs ``check_definition`` on an ``ExecutionHistory``) and can
still disagree; thm2 and unison have no
streaming checker, so their single judge's verdict is reported on both
sides.

``fig1`` and ``thm1`` additionally support re-instantiating the claim
at a caller-chosen stabilization time ``--at R`` (the claims are
parametric in r); the other targets' obligations are structural
(compiler final round, halting patience, churn quiescence) and only
verify at their canonical instantiation.

``fig4`` is deliberately absent: the asynchronous substrate's virtual
time is real-valued and scheduler-driven, so its run space is not the
finite fault-plan product the bounded engines exhaust.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.explore.checkers import SpecVerdict
from repro.explore.space import PlanSpace, PlanSpec
from repro.explore.targets import SYNC_CLAIMS
from repro.kernel.events import Observer
from repro.workloads.spaces import (
    THM1_SPACE,
    THM2_SPACE,
    VERIFY_FIG1_SMOKE_SPACE,
    VERIFY_FIG1_SPACE,
    VERIFY_FIG3_SPACE,
    VERIFY_UNISON_SPACE,
)

__all__ = [
    "VerifyTarget",
    "VERIFY_TARGETS",
    "get_verify_target",
    "confirm_verdict",
    "streaming_verdict",
]


@dataclass(frozen=True)
class VerifyTarget:
    """One provable claim: spaces, canonical instantiation, expectation."""

    name: str
    title: str
    #: The sentence a proof certificate asserts about the space.
    claim: str
    #: ``"proved"`` for the protocol theorems (no plan may violate),
    #: ``"refuted"`` for the impossibility theorems (the space *must*
    #: contain the paper's counterexample shapes).
    expect: str
    #: The canonical stabilization time the claim is instantiated at.
    default_at: int
    #: Whether ``--at R`` may re-instantiate the claim at another time.
    supports_at: bool
    #: Sound pid-relabeling symmetry (same flag the explorer uses).
    symmetric: bool
    space: PlanSpace
    smoke_space: Optional[PlanSpace] = None


VERIFY_TARGETS: Dict[str, VerifyTarget] = {
    "fig1": VerifyTarget(
        name="fig1",
        title="round agreement (Figure 1) ftss-solves clock agreement",
        claim=(
            "no fault plan in the space makes Figure 1 miss the Def 2.4 "
            "obligation at stabilization time r"
        ),
        expect="proved",
        default_at=1,
        supports_at=True,
        symmetric=True,
        space=VERIFY_FIG1_SPACE,
        smoke_space=VERIFY_FIG1_SMOKE_SPACE,
    ),
    "fig3": VerifyTarget(
        name="fig3",
        title="compiled FloodMin (Figure 3) ftss-solves Σ⁺ at final_round",
        claim=(
            "no fault plan in the space makes the compiled FloodMin miss "
            "the Σ⁺ obligation at its final round"
        ),
        expect="proved",
        default_at=SYNC_CLAIMS["fig3"].at,  # structural: the final round
        supports_at=False,
        symmetric=False,  # per-pid proposals
        space=VERIFY_FIG3_SPACE,
    ),
    "unison": VerifyTarget(
        name="unison",
        title="min-rule unison on a churning ring re-agrees within a diameter",
        claim=(
            "every churn/corruption schedule in the space re-agrees within "
            "a ring diameter of quiescence"
        ),
        expect="proved",
        default_at=0,  # the deadline is spec-dependent (churn quiescence)
        supports_at=False,
        symmetric=False,  # ring adjacency is pid-dependent
        space=VERIFY_UNISON_SPACE,
    ),
    "thm1": VerifyTarget(
        name="thm1",
        title="Tentative Definition 1 is refutable (Theorem 1)",
        claim=(
            "the space contains a fault plan violating Tentative "
            "Definition 1 at r"
        ),
        expect="refuted",
        default_at=SYNC_CLAIMS["thm1"].at,
        supports_at=True,
        symmetric=True,
        space=THM1_SPACE,
    ),
    "thm2": VerifyTarget(
        name="thm2",
        title="uniformity is impossible with process failures (Theorem 2)",
        claim=(
            "the space contains a fault plan making the halting rule miss "
            "clock agreement ∧ uniformity"
        ),
        expect="refuted",
        default_at=SYNC_CLAIMS["thm2"].at,
        supports_at=False,
        symmetric=True,
        space=THM2_SPACE,
    ),
}


def get_verify_target(name: str) -> VerifyTarget:
    try:
        return VERIFY_TARGETS[name]
    except KeyError:
        raise ValueError(
            f"unknown verify target {name!r}; "
            f"available: {', '.join(sorted(VERIFY_TARGETS))}"
        ) from None


def _require_at(target: VerifyTarget, at: int) -> None:
    if at != target.default_at and not target.supports_at:
        raise ValueError(
            f"target {target.name!r} only verifies at its canonical "
            f"stabilization time {target.default_at} (its obligation is "
            "structural, not parametric)"
        )


# ---------------------------------------------------------------------------
# The two judges, one plan each
# ---------------------------------------------------------------------------


def _riders(frontier: Optional[Observer]) -> Tuple[Observer, ...]:
    return () if frontier is None else (frontier,)


def streaming_verdict(
    target: VerifyTarget,
    at: int,
    spec: PlanSpec,
    frontier: Optional[Observer] = None,
) -> SpecVerdict:
    """EXPLORE's streaming verdict for one plan, plus frontier capture.

    The frontier observer rides on the same run as the checker (for
    thm2 and unison, whose judge reads a recorded history, on that
    recorded run).
    """
    _require_at(target, at)
    return SYNC_CLAIMS[target.name].streaming(spec, at, _riders(frontier))


def confirm_verdict(target: VerifyTarget, at: int, spec: PlanSpec) -> SpecVerdict:
    """The definition-grade verdict for one plan — the verdict of record.

    At the canonical instantiation this *is* the exploration target's
    confirm path — byte-identical checker names and violation strings,
    so verify counterexamples are EXPLORE artifacts verbatim.  The
    parametric targets (fig1/thm1) additionally accept any ``at``.
    """
    _require_at(target, at)
    return SYNC_CLAIMS[target.name].confirm(spec, at)
