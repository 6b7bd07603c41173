"""The self-stabilizing unison family — the topology layer's headline client.

Unison is clock agreement on an arbitrary connected graph: every
process keeps a logical clock, talks only to its *neighbors*, and must
reach (and keep) a configuration where all clocks tick in lockstep —
from any initial memory state.  It is exactly the paper's round-
agreement problem (Figure 1) generalized away from the complete graph,
and the bridge to the related work this repo tracks: the dynamic-FTSS
unison treatment on time-varying graphs and the Byzantine asynchronous
unison line (see PAPERS.md).  Two protocols:

- :class:`MinUnison` — the classic min-rule synchronous unison:
  ``c := min over closed neighborhood + 1``.  On a connected static
  graph it stabilizes in at most *diameter* rounds (the global minimum
  floods outward one hop per round, and +1 per round exactly offsets
  the one-hop propagation delay).  The UNISON experiment measures this
  diameter law across ring/tree/random topologies — on the complete
  graph (diameter 1) it degenerates to the paper's one-round
  stabilization, which is the whole unification point.
- :class:`BoundedUnison` — Boulinier–Petit–Villain-style unison with a
  *finite* clock domain: a "tail" ``{-alpha .. -1}`` glued to a ring
  ``{0 .. K-1}``.  Arbitrary corruption can scatter clocks anywhere in
  the domain; incoherent neighborhoods reset to the bottom of the tail,
  the tail climbs by min-rule (which re-synchronizes, since the tail is
  totally ordered), and coherent ring neighborhoods tick ``(c+1) mod
  K``.  The price of bounded memory is a longer stabilization window
  (up to ``alpha + diameter`` rather than ``diameter``), which the
  tests measure.

Both are plain :class:`~repro.sync.protocol.SyncProtocol`\\ s: they run
unchanged on the sync engine, the live cluster, and under churn — a
detached process free-runs on its own clock (its closed neighborhood is
just itself) and re-synchronizes within a diameter of rejoining, which
is the UNISON-CHURN experiment's subject.
"""

from __future__ import annotations

from typing import Optional

from repro.sync.clock import BIG, ClockProtocol

__all__ = ["BoundedUnison", "MinUnison"]


class MinUnison(ClockProtocol):
    """Min-rule unison: ``c := min(closed neighborhood) + 1``.

    The closed neighborhood always includes the process itself (the
    engine's self-delivery guarantee), so the merge set is never empty.
    Stabilization time on a connected graph is at most its diameter.
    """

    name = "min-unison"
    reductions = (min,)

    def rule(self, where, lowest):
        return lowest + 1


class BoundedUnison(ClockProtocol):
    """Bounded-domain unison on the tail-plus-ring clock space.

    The clock lives in ``{-alpha .. -1} ∪ {0 .. K-1}``.  Defaults
    (``K = 2n + 2``, ``alpha = 2n``) satisfy the classic requirements
    ``K > 2 * diameter`` and ``alpha >= diameter`` for every connected
    graph on ``n`` nodes (diameter ≤ n − 1), so one constructor works
    for any topology in a sweep.

    Update rule over the closed-neighborhood multiset ``V``:

    1. any tail value present → ``c := min(V) + 1`` (drag everyone onto
       the totally-ordered tail and climb it together);
    2. else if ``V`` is *ring-coherent* — values within 1 of each other,
       counting the wrap pair ``{K-1, 0}`` as adjacent — tick
       ``c := (ring_min + 1) mod K``;
    3. else (incoherent ring values: only arbitrary corruption produces
       this) reset to the bottom of the tail, ``c := -alpha``.
    """

    name = "bounded-unison"
    initial = 0
    reductions = (min, max, min)

    def __init__(self, n: int, K: Optional[int] = None, alpha: Optional[int] = None):
        if n < 1:
            raise ValueError("n must be >= 1")
        self.n = n
        self.K = K if K is not None else 2 * n + 2
        self.alpha = alpha if alpha is not None else 2 * n
        if self.K < 3 or self.alpha < 1:
            raise ValueError("need K >= 3 and alpha >= 1")

    def domain(self):
        return -self.alpha, self.K

    def sent(self, where, c):
        # V is the clamped values (out of the domain reads as -alpha); the
        # third column keeps only the inner ring values 1 .. K-2, so a ring
        # V with a gap wider than one is the wrap pair iff it heard none
        K, alpha = self.K, self.alpha
        clamped = where((c >= -alpha) & (c < K), c, -alpha)
        return clamped, clamped, where((c > 0) & (c < K - 1), c, BIG)

    def rule(self, where, lowest, highest, inner_lowest):
        ring = where(
            highest - lowest <= 1,
            (lowest + 1) % self.K,
            where(inner_lowest < BIG, -self.alpha, 0),  # 0: V is the wrap pair
        )
        return where(lowest < 0, lowest + 1, ring)
