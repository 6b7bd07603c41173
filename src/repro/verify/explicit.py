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
proof must not inherit a streaming checker's blind spots.  Any
streaming/confirm disagreement is returned as a mismatch and blocks
certification.

Two judges, one execution: a plan is run through the engine once
(:func:`repro.verify.targets.judge_plan`), with the streaming checker
and the frontier observer on its event bus and the recorded history
handed to ``check_definition`` afterwards.  That is sound because a
spec fully determines its run — a second execution would narrate the
same events and record an equal history — and it leaves the cross-check
intact, because what is shared is the judges' *input*, not their
reasoning.

Per-plan work is memoized through the content-addressed run cache
under the ``verify:<target>@verify`` namespace, so re-proving an
unchanged space costs lookups, and ``python -m repro.cache stats``
reports the proof plane's traffic separately from EXPLORE's.
"""

from __future__ import annotations

import hashlib
import itertools
from collections.abc import Mapping
from typing import Any, Dict, List, Optional, Tuple

from repro.experiments.base import run_sweep
from repro.explore.space import PlanSpace, PlanSpec, dedupe
from repro.kernel.events import Observer
from repro.verify.result import VerifyResult, frontier_from_digests
from repro.verify.targets import VerifyTarget, judge_plan

__all__ = [
    "FrontierObserver",
    "MAX_EXPLICIT_PLANS",
    "SpaceTooLargeError",
    "enumerate_space",
    "explicit_verify",
]

#: Ceiling on plans one explicit verification will walk.  Bounded model
#: checking earns the word "provably" only when the space is genuinely
#: exhausted, so an over-budget space is an error, never a sample.
MAX_EXPLICIT_PLANS = 20_000


class SpaceTooLargeError(ValueError):
    """The space exceeds what the explicit engine will exhaust."""


_ATOMS = frozenset({int, str, bool, float, type(None)})


def _canon(value: Any) -> str:
    """A deterministic textual form for state values.

    ``repr`` alone is not canonical for unordered containers (set and
    frozenset iteration order follows hash seeds for str members, a
    mapping's follows insertion), so mappings — the kernel's
    ``FrozenDict`` snapshots as much as plain dicts — and sets are
    rendered with sorted members.
    """
    if type(value) in _ATOMS:  # most values; spares them the Mapping ABC check
        return repr(value)
    if isinstance(value, Mapping):
        items = ", ".join(
            f"{_canon(k)}: {_canon(value[k])}" for k in sorted(value, key=repr)
        )
        return "{" + items + "}"
    if isinstance(value, (set, frozenset)):
        return "{" + ", ".join(sorted(_canon(item) for item in value)) + "}"
    if isinstance(value, (list, tuple)):
        return "(" + ", ".join(_canon(item) for item in value) + ")"
    return repr(value)


def state_digest(snapshots: Any) -> str:
    """Canonical digest of one global state (pid → state-or-crashed)."""
    parts = []
    for pid in sorted(snapshots):
        state = snapshots[pid]
        parts.append(f"{pid}=" + ("<crashed>" if state is None else _canon(state)))
    content = hashlib.sha256("|".join(parts).encode("utf-8"))
    return content.hexdigest()[:16]


class FrontierObserver(Observer):
    """Digests every per-round global state a run passes through.

    The digests — not the states — ride back to the parent, which
    interns them across *all* plans of the verification: two plans that
    steer the system through the same global state collapse to one
    frontier entry, and the dedup ratio measures how much of the
    fault-plan product re-treads shared ground.
    """

    def __init__(self) -> None:
        self.digests: List[str] = []

    def on_round_start(self, round_no, snapshots) -> None:
        self.digests.append(state_digest(snapshots))

    def on_run_end(self, time, final_states) -> None:
        # The post-final-round state never gets a round row; digest it
        # here so the frontier covers the run end-to-end.
        self.digests.append(state_digest(final_states))


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
