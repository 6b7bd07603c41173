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
gets its own pair of verdicts, even where many plans share an
obligation and the pair was rendered once: a judge is a pure function
of the obligation it reads, so the pair it rendered for one plan is
the pair it would render for the other.  Any streaming/confirm
disagreement is returned as a mismatch and blocks certification.

The plans are walked as chains that merge (:mod:`repro.verify.walk`):
two plans that start a round from the same configuration with the same
fault script left run the same to the horizon, so each such node's
successor is filed once, a plan walks only up to the first node
another plan walked, and each obligation node is judged once.  That is
sound because a spec fully determines its run — a second execution
would narrate the same events and record an equal history — and it
leaves the cross-check intact, because what is shared is the judges'
*input* (and their answer to an identical input), not their reasoning.
``--jobs N`` walks N contiguous slices of the plans in pool workers,
each with a walk of its own; the slices' verdicts, counts and digest
sets merge in order, so nothing in a result depends on N.

A proof is memoized whole through the content-addressed run cache
(:func:`cached_verify`): one entry per (target, ``at``, space, engine)
under the ``verify:<target>@verify`` namespace, looked up before the
space is enumerated, so re-proving an unchanged space costs one
lookup, and ``python -m repro.cache stats`` reports the proof plane's
traffic separately from EXPLORE's.
"""

from __future__ import annotations

import itertools
from typing import Any, List, Optional, Sequence, Tuple

import repro.cache
from repro.experiments.base import default_jobs, run_sweep
from repro.explore.space import PlanSpace, PlanSpec, dedupe
from repro.explore.targets import SYNC_CLAIMS
from repro.verify.result import VerifyResult, frontier_of
from repro.verify.targets import VerifyTarget, _require_at, get_verify_target
from repro.verify.walk import ChainWalk, FrontierObserver, state_digest

__all__ = [
    "FrontierObserver",
    "MAX_EXPLICIT_PLANS",
    "SpaceTooLargeError",
    "cached_verify",
    "enumerate_space",
    "explicit_verify",
    "state_digest",
]

#: Ceiling on plans one explicit verification will walk.  Bounded model
#: checking earns the word "provably" only when the space is genuinely
#: exhausted, so an over-budget space is an error, never a sample.
MAX_EXPLICIT_PLANS = 40_000


class SpaceTooLargeError(ValueError):
    """The space exceeds what the explicit engine will exhaust."""


def _walk_slice(task: Tuple[str, int, Sequence[PlanSpec]]) -> Tuple[list, set, int]:
    """``(verdict pairs, distinct digests, frontier arrivals)`` of one
    slice of plans, walked as chains through one table.

    Module-level and pure in its task, as :func:`run_sweep`'s fork pool
    requires.
    """
    target_name, at, specs = task
    walk = ChainWalk(SYNC_CLAIMS[target_name], at)
    pairs = [walk.judge(spec) for spec in specs]
    return pairs, walk.digests, walk.visited


def _slices(specs: List[PlanSpec], jobs: int) -> List[List[PlanSpec]]:
    """``specs`` in at most ``jobs`` contiguous slices of near-equal size."""
    total = len(specs)
    count = max(1, min(jobs, total))
    return [specs[index * total // count : (index + 1) * total // count] for index in range(count)]


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
    _require_at(target, at)
    specs, raw_count, dropped = enumerate_space(
        space, target.symmetric, max_plans=max_plans
    )
    jobs = default_jobs() if jobs is None else jobs
    slices = _slices(specs, jobs)
    outcomes = run_sweep(_walk_slice, [(target.name, at, part) for part in slices], jobs)

    distinct: set = set()
    visited = 0
    mismatches = []
    counterexample: Optional[PlanSpec] = None
    counterexample_verdict = None
    violating = 0
    for part, (pairs, digests, arrivals) in zip(slices, outcomes):
        distinct |= digests
        visited += arrivals
        for spec, (streaming, confirm) in zip(part, pairs):
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
        frontier=frontier_of(visited, distinct),
        counterexample=counterexample,
        counterexample_verdict=counterexample_verdict,
        mismatches=mismatches,
    )


# ---------------------------------------------------------------------------
# One cache entry per proof
# ---------------------------------------------------------------------------


def _proof(point: Tuple[str, int, PlanSpace, int]) -> VerifyResult:
    """The proof a cache entry holds, recomputed from its point (what
    ``python -m repro.cache verify`` re-executes)."""
    name, at, space, limit = point
    return explicit_verify(get_verify_target(name), at, space, jobs=1, max_plans=limit)


def cached_verify(
    target: VerifyTarget,
    at: int,
    space: PlanSpace,
    jobs: Optional[int] = None,
    max_plans: Optional[int] = None,
) -> VerifyResult:
    """:func:`explicit_verify`, memoized whole in the run cache.

    The entry is keyed by the target, ``at``, the space and the plan
    ceiling (never ``jobs``: no result depends on it) and looked up
    before enumeration.  An entry that does not hold this proof's
    result — truncated, corrupted, foreign — is recomputed and
    overwritten, never returned.
    """
    cache = repro.cache.active_cache()
    if cache is None:
        return explicit_verify(target, at, space, jobs=jobs, max_plans=max_plans)
    namespace = f"verify:{target.name}@verify"
    limit = MAX_EXPLICIT_PLANS if max_plans is None else max_plans
    point = (target.name, at, space, limit)
    try:
        key = cache.key(namespace, _proof, point)
    except repro.cache.CanonicalizationError:
        return explicit_verify(target, at, space, jobs=jobs, max_plans=max_plans)
    hit, value = cache.get(key, namespace)
    if hit and _holds_proof(value, target, at):
        return value
    result = explicit_verify(target, at, space, jobs=jobs, max_plans=max_plans)
    cache.put(key, result, namespace=namespace, worker=_proof, point=point)
    return result


def _holds_proof(value: Any, target: VerifyTarget, at: int) -> bool:
    return (
        type(value) is VerifyResult
        and value.target == target.name
        and value.at == at
        and value.engine == "explicit"
    )
