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

import random
from typing import Any, Dict, Mapping, Optional, Sequence

from repro.histories.history import CLOCK_KEY, Message
from repro.sync.protocol import SyncProtocol
from repro.util.rng import randrange_block

__all__ = ["BoundedUnison", "MinUnison"]


class MinUnison(SyncProtocol):
    """Min-rule unison: ``c := min(closed neighborhood) + 1``.

    The closed neighborhood always includes the process itself (the
    engine's self-delivery guarantee), so the merge set is never empty.
    Stabilization time on a connected graph is at most its diameter.
    """

    name = "min-unison"

    def __init__(self, max_corrupt_clock: int = 1 << 20):
        #: Upper bound used only by the corruption generator (the
        #: protocol itself runs on unbounded integers).
        self.max_corrupt_clock = max_corrupt_clock

    def initial_state(self, pid: int, n: int) -> Dict[str, Any]:
        return {CLOCK_KEY: 1}

    def send(self, pid: int, state: Mapping[str, Any]) -> Any:
        return state[CLOCK_KEY]

    def update(
        self, pid: int, state: Mapping[str, Any], delivered: Sequence[Message]
    ) -> Dict[str, Any]:
        clocks_seen = {message.payload for message in delivered}
        if not clocks_seen:
            # Unreachable under self-delivery; degrade to free-running.
            clocks_seen = {state[CLOCK_KEY]}
        return {CLOCK_KEY: min(clocks_seen) + 1}

    def arbitrary_state(self, pid: int, n: int, rng: random.Random) -> Dict[str, Any]:
        return {CLOCK_KEY: rng.randrange(0, self.max_corrupt_clock)}

    def arbitrary_columns(self, pids: Sequence[int], n: int, rng: random.Random):
        return {CLOCK_KEY: randrange_block(rng, 0, self.max_corrupt_clock, len(pids))}


class BoundedUnison(SyncProtocol):
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

    def __init__(self, n: int, K: Optional[int] = None, alpha: Optional[int] = None):
        if n < 1:
            raise ValueError("n must be >= 1")
        self.n = n
        self.K = K if K is not None else 2 * n + 2
        self.alpha = alpha if alpha is not None else 2 * n
        if self.K < 3 or self.alpha < 1:
            raise ValueError("need K >= 3 and alpha >= 1")

    def _clamp(self, value: int) -> int:
        if -self.alpha <= value < self.K:
            return value
        return -self.alpha

    def initial_state(self, pid: int, n: int) -> Dict[str, Any]:
        return {CLOCK_KEY: 0}

    def send(self, pid: int, state: Mapping[str, Any]) -> Any:
        return state[CLOCK_KEY]

    def update(
        self, pid: int, state: Mapping[str, Any], delivered: Sequence[Message]
    ) -> Dict[str, Any]:
        seen = {self._clamp(message.payload) for message in delivered}
        if not seen:
            seen = {self._clamp(state[CLOCK_KEY])}
        lowest = min(seen)
        if lowest < 0:
            # Tail phase: totally ordered, min-rule climbs toward 0.
            return {CLOCK_KEY: lowest + 1}
        highest = max(seen)
        if highest - lowest <= 1:
            return {CLOCK_KEY: (lowest + 1) % self.K}
        if seen <= {0, self.K - 1}:
            # The wrap pair: K-1 is "behind" 0, so it is the ring min.
            return {CLOCK_KEY: 0}  # (K-1 + 1) mod K
        return {CLOCK_KEY: -self.alpha}

    def arbitrary_state(self, pid: int, n: int, rng: random.Random) -> Dict[str, Any]:
        return {CLOCK_KEY: rng.randrange(-self.alpha, self.K)}

    def arbitrary_columns(self, pids: Sequence[int], n: int, rng: random.Random):
        return {CLOCK_KEY: randrange_block(rng, -self.alpha, self.K, len(pids))}
