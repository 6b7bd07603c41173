"""The explicit-state engine: exhaust the space, intern every state.

Pure Python, always available.  The engine enumerates *every* fault
plan in the target's :class:`~repro.explore.space.PlanSpace` (after
symmetry dedup, exactly the explorer's), puts each plan before **both**
of EXPLORE's judges — the streaming checker and the definition-grade
confirm oracle — and hash-conses every per-round global state it meets
along the way into a canonical frontier.  The outcome:

- ``proved``: no plan violates; the certificate carries the space
  cardinality and the order-independent frontier digest;
- ``refuted``: the first violating plan (enumeration order) comes back
  as a counterexample whose confirm verdict is byte-identical to what
  EXPLORE would put in a replay artifact.

The confirm judge's is the verdict of record on *every* plan — not just
streaming-flagged ones, as in EXPLORE's sampling posture — because a
proof must not inherit a streaming checker's blind spots.  Every plan
gets its own pair of verdicts, even where two plans share an
obligation and the pair was rendered once: a judge is a pure function
of the obligation it reads, so the pair it rendered for one plan is
the pair it would render for the other.  Any streaming/confirm
disagreement is returned as a mismatch and blocks certification.

Two judges, one walk: a plan is walked once
(:func:`repro.verify.targets.judge_plan`), with the frontier observer
as its rider; the walk returns the plan's path, whose filed rounds are
the history handed to the judge and whose obligation is narrated to
the streaming checker.  The walk (:mod:`repro.verify.walk`) steps each
distinct transition once per call: every plan of the space goes
through one table of filed rounds, and only a round the table lacks is
stepped by the engine's round function; a corruption the table lacks
is applied, and an obligation it has not judged is judged.  That is
sound because a spec fully determines its run — a second execution
would narrate the same events and record an equal history — and it
leaves the cross-check intact, because what is shared is the judges'
*input* (and their answer to an identical input), not their reasoning.

Per-plan work is memoized through the content-addressed run cache
under the ``verify:<target>@verify`` namespace, so re-proving an
unchanged space costs lookups, and ``python -m repro.cache stats``
reports the proof plane's traffic separately from EXPLORE's.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Optional, Tuple

from repro.experiments.base import run_sweep
from repro.explore.space import PlanSpace, PlanSpec, dedupe
from repro.verify.result import VerifyResult, frontier_from_digests
from repro.verify.targets import VerifyTarget, judge_plan
from repro.verify.walk import FrontierObserver, shared_table, state_digest

__all__ = [
    "FrontierObserver",
    "MAX_EXPLICIT_PLANS",
    "SpaceTooLargeError",
    "enumerate_space",
    "explicit_verify",
    "state_digest",
]

#: Ceiling on plans one explicit verification will walk.  Bounded model
#: checking earns the word "provably" only when the space is genuinely
#: exhausted, so an over-budget space is an error, never a sample.
MAX_EXPLICIT_PLANS = 20_000


class SpaceTooLargeError(ValueError):
    """The space exceeds what the explicit engine will exhaust."""


def _verify_worker(task: Tuple[str, int, PlanSpec]) -> Dict[str, Any]:
    """Put one plan before both judges and capture its frontier.

    Module-level and pure in its task, as :func:`run_sweep`'s fork pool
    and the run cache both require.
    """
    from repro.verify.targets import get_verify_target

    target_name, at, spec = task
    target = get_verify_target(target_name)
    frontier = FrontierObserver()
    streaming, confirm = judge_plan(target, at, spec, frontier)
    return {
        "streaming": streaming,
        "confirm": confirm,
        "digests": tuple(frontier.digests),
    }


def enumerate_space(
    space: PlanSpace,
    symmetric: bool,
    max_plans: Optional[int] = None,
) -> Tuple[List[PlanSpec], int, int]:
    """``(kept_specs, raw_count, symmetry_dropped)`` for the whole space.

    Raises :class:`SpaceTooLargeError` when the raw enumeration exceeds
    the ceiling — exhaustiveness is the contract, so there is no
    sampling fallback.
    """
    limit = MAX_EXPLICIT_PLANS if max_plans is None else max_plans
    raw = list(itertools.islice(space.enumerate_plans(), limit + 1))
    if len(raw) > limit:
        raise SpaceTooLargeError(
            f"space enumerates more than {limit} plans; the explicit "
            "engine only proves claims over spaces it can exhaust — "
            "shrink the space (or raise max_plans if you really mean it)"
        )
    kept, dropped = dedupe(raw, symmetric=symmetric)
    return kept, len(raw), dropped


def explicit_verify(
    target: VerifyTarget,
    at: int,
    space: PlanSpace,
    jobs: Optional[int] = None,
    max_plans: Optional[int] = None,
) -> VerifyResult:
    """Exhaust ``space`` for ``target``'s claim at stabilization time ``at``."""
    specs, raw_count, dropped = enumerate_space(
        space, target.symmetric, max_plans=max_plans
    )
    with shared_table():
        outcomes = run_sweep(
            _verify_worker,
            [(target.name, at, spec) for spec in specs],
            jobs,
            cache=f"verify:{target.name}@verify",
        )

    digests: List[str] = []
    mismatches = []
    counterexample: Optional[PlanSpec] = None
    counterexample_verdict = None
    violating = 0
    for spec, outcome in zip(specs, outcomes):
        digests.extend(outcome["digests"])
        streaming, confirm = outcome["streaming"], outcome["confirm"]
        if streaming.holds != confirm.holds:
            mismatches.append((spec, streaming, confirm))
        if not confirm.holds:
            violating += 1
            if counterexample is None:
                counterexample = spec
                counterexample_verdict = confirm

    return VerifyResult(
        target=target.name,
        at=at,
        engine="explicit",
        verdict="refuted" if counterexample is not None else "proved",
        raw_plans=raw_count,
        examined=len(specs),
        symmetry_dropped=dropped,
        violating=violating,
        frontier=frontier_from_digests(digests),
        counterexample=counterexample,
        counterexample_verdict=counterexample_verdict,
        mismatches=mismatches,
    )
