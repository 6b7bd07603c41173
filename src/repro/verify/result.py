"""Shared result types for the verification plane.

A :class:`VerifyResult` is what both engines return from one bounded
verification: the claim that was checked, the space cardinality that
was actually exhausted, the verdict (``proved`` — *no* plan in the
space violates the claim — or ``refuted``, with the first violating
plan as a replayable counterexample), and, on the explicit-state
engine, the :class:`FrontierStats` of the canonical-state walk.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import AbstractSet, Any, Dict, Iterable, List, Optional, Tuple

from repro.explore.checkers import SpecVerdict
from repro.explore.space import PlanSpec

__all__ = ["FrontierStats", "VerifyResult", "frontier_from_digests", "frontier_of"]


@dataclass(frozen=True)
class FrontierStats:
    """The canonical-state frontier of one explicit-state verification.

    Every per-round global state encountered anywhere in the fault-plan
    × execution walk is reduced to a canonical digest and interned;
    ``states_visited`` counts arrivals, ``states_distinct`` the interned
    survivors, and ``digest`` is a content hash over the *sorted
    distinct set* — independent of sweep order and ``--jobs``, so a
    proof certificate carrying it can be re-checked bit-for-bit.
    """

    states_visited: int
    states_distinct: int
    digest: str

    @property
    def dedup_hits(self) -> int:
        return self.states_visited - self.states_distinct

    @property
    def dedup_hit_ratio(self) -> float:
        if not self.states_visited:
            return 0.0
        return self.dedup_hits / self.states_visited

    def to_jsonable(self) -> Dict[str, Any]:
        return {
            "states_visited": self.states_visited,
            "states_distinct": self.states_distinct,
            "dedup_hits": self.dedup_hits,
            "digest": self.digest,
        }

    @staticmethod
    def from_jsonable(data: Dict[str, Any]) -> "FrontierStats":
        return FrontierStats(
            states_visited=int(data["states_visited"]),
            states_distinct=int(data["states_distinct"]),
            digest=str(data["digest"]),
        )


def frontier_from_digests(digests: Iterable[str]) -> FrontierStats:
    """Intern a stream of per-round state digests into frontier stats."""
    visited = 0
    distinct = set()
    for digest in digests:
        visited += 1
        distinct.add(digest)
    return frontier_of(visited, distinct)


def frontier_of(visited: int, distinct: AbstractSet[str]) -> FrontierStats:
    """Frontier stats of ``visited`` arrivals at the ``distinct`` digests."""
    content = hashlib.sha256("\n".join(sorted(distinct)).encode("ascii"))
    return FrontierStats(
        states_visited=visited,
        states_distinct=len(distinct),
        digest=content.hexdigest(),
    )


@dataclass
class VerifyResult:
    """Everything one bounded verification established."""

    target: str
    #: The stabilization time the claim was instantiated at.
    at: int
    engine: str
    #: ``"proved"`` (no plan in the space violates) or ``"refuted"``.
    verdict: str
    #: Plans the space enumerates before symmetry dedup.
    raw_plans: int
    #: Plans actually judged (after dedup) — the exhausted set.
    examined: int
    #: Plans dropped as symmetric images of an examined one.
    symmetry_dropped: int
    #: How many examined plans violated the claim (0 for a proof).
    violating: int = 0
    #: Canonical-state walk statistics (explicit engine only).
    frontier: Optional[FrontierStats] = None
    #: The first violating plan, in enumeration order.
    counterexample: Optional[PlanSpec] = None
    #: The definition-grade verdict on the counterexample.
    counterexample_verdict: Optional[SpecVerdict] = None
    #: SMT refutations carry the initial clocks the solver exhibited
    #: (pid → clock); empty for concrete-initial-state counterexamples.
    counterexample_clocks: Dict[int, int] = field(default_factory=dict)
    #: (spec, streaming verdict, confirm verdict) disagreements — any
    #: entry here blocks certification.
    mismatches: List[Tuple[PlanSpec, SpecVerdict, SpecVerdict]] = field(
        default_factory=list
    )

    @property
    def proved(self) -> bool:
        return self.verdict == "proved"

    @property
    def refuted(self) -> bool:
        return self.verdict == "refuted"
