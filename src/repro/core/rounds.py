"""The round agreement protocol (paper, Figure 1) and ablation variants.

Figure 1, verbatim:

    At the start of round r:
        p sends (ROUND: p, c_p^r) to all
    At the end of round r:
        R := {c | p received (ROUND: q, c) in this round}
        c_p^{r+1} := max(R) + 1

Theorem 3: this is a ftss protocol with stabilization time **1 round**
that ensures all correct processes agree on the current round number.
The max-merge is the load-bearing choice: a process whose corrupted
round variable is *ahead* drags everyone forward in one round (and, in
doing so, enters the coterie — the de-stabilizing event after which the
one-round clock starts).  The ablation variants below replace the merge
rule and are shown by the tests/benches to fail the Theorem 3 scenario
family:

- :class:`MinMergeRoundProtocol` — adopting the *minimum*.  A genuine
  reproduction finding (recorded in EXPERIMENTS.md): in the paper's
  fully-connected, unit-rate model this is empirically *symmetric* to
  the max rule for the standalone clock-agreement problem — the +1
  increment per round exactly compensates the one-round propagation
  delay, so whichever extremal timeline wins, everyone locks onto it
  within a round of the coterie change.  What the max rule uniquely
  buys is **monotonicity**: a correct process's round variable never
  decreases, so the compiled protocol never replays a protocol round
  ``k`` it already executed.  Under min-merge a lurking laggard drags
  clocks *backwards* (the monotonicity bench measures this), which
  would make Figure 3's iteration accounting (journaled decisions,
  resets crossed more than once) ill-founded.
- :class:`FreeRunningRoundProtocol` — ignoring other processes entirely
  (``c := c + 1``) preserves rate but can never re-establish agreement
  after a systemic failure: skews persist forever.
"""

from __future__ import annotations

import random
from typing import Any, Dict, Mapping, Sequence

from repro.histories.history import CLOCK_KEY, Message
from repro.sync.protocol import SyncProtocol
from repro.util.rng import randrange_block

__all__ = [
    "RoundAgreementProtocol",
    "MinMergeRoundProtocol",
    "FreeRunningRoundProtocol",
]


class RoundAgreementProtocol(SyncProtocol):
    """Figure 1: broadcast your round number, adopt ``max(R) + 1``.

    The state is exactly the round variable.  ``R`` is never empty for
    an alive process because every process receives its own broadcast
    (paper footnote 1, enforced by the engine).
    """

    name = "round-agreement"

    def __init__(self, max_corrupt_clock: int = 1 << 20):
        #: Upper bound used only by the corruption generator; the
        #: protocol itself runs on unbounded integers (paper §2.4
        #: requires an unbounded round counter).
        self.max_corrupt_clock = max_corrupt_clock

    def initial_state(self, pid: int, n: int) -> Dict[str, Any]:
        return {CLOCK_KEY: 1}

    def send(self, pid: int, state: Mapping[str, Any]) -> Any:
        return state[CLOCK_KEY]

    def update(
        self, pid: int, state: Mapping[str, Any], delivered: Sequence[Message]
    ) -> Dict[str, Any]:
        rounds_seen = {message.payload for message in delivered}
        if not rounds_seen:
            # Unreachable under the engine's self-delivery guarantee;
            # degrade to free-running rather than crash.
            rounds_seen = {state[CLOCK_KEY]}
        return {CLOCK_KEY: max(rounds_seen) + 1}

    def arbitrary_state(self, pid: int, n: int, rng: random.Random) -> Dict[str, Any]:
        return {CLOCK_KEY: rng.randrange(0, self.max_corrupt_clock)}

    def arbitrary_columns(self, pids: Sequence[int], n: int, rng: random.Random):
        return {CLOCK_KEY: randrange_block(rng, 0, self.max_corrupt_clock, len(pids))}


class MinMergeRoundProtocol(RoundAgreementProtocol):
    """Ablation: adopt ``min(R) + 1`` instead of the max.

    Empirically satisfies the same ftss clock-agreement property as
    Figure 1 in this model (see the module docstring — a reproduction
    finding), but sacrifices monotonicity: a stale laggard revealing
    itself yanks correct clocks *backwards*, so the round variable is
    no longer a progress measure.  Kept as the ablation subject for
    the merge-rule bench.
    """

    name = "round-agreement-min"

    def update(
        self, pid: int, state: Mapping[str, Any], delivered: Sequence[Message]
    ) -> Dict[str, Any]:
        rounds_seen = {message.payload for message in delivered}
        if not rounds_seen:
            rounds_seen = {state[CLOCK_KEY]}
        return {CLOCK_KEY: min(rounds_seen) + 1}


class FreeRunningRoundProtocol(RoundAgreementProtocol):
    """Ablation: ignore everyone, ``c := c + 1``.

    Perfect rate, zero convergence: after a systemic failure the skew
    between round variables persists forever.  This is the "no-merge"
    horn of the Theorem 1 dichotomy — in the failure-free twin
    execution the agreement condition of Assumption 1 is violated at
    every round.
    """

    name = "round-free-running"

    def update(
        self, pid: int, state: Mapping[str, Any], delivered: Sequence[Message]
    ) -> Dict[str, Any]:
        return {CLOCK_KEY: state[CLOCK_KEY] + 1}
