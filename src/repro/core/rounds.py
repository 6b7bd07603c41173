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

All three are :class:`~repro.sync.clock.ClockProtocol` declarations:
the ablations differ from Figure 1 in ``reductions`` alone.
"""

from __future__ import annotations

from repro.sync.clock import ClockProtocol

__all__ = [
    "RoundAgreementProtocol",
    "MinMergeRoundProtocol",
    "FreeRunningRoundProtocol",
]


class RoundAgreementProtocol(ClockProtocol):
    """Figure 1: broadcast your round number, adopt ``max(R) + 1``.

    The state is exactly the round variable.  ``R`` is never empty for
    an alive process because every process receives its own broadcast
    (paper footnote 1, enforced by the engine).
    """

    name = "round-agreement"
    reductions = (max,)

    def rule(self, where, c):
        return c + 1


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
    reductions = (min,)


class FreeRunningRoundProtocol(RoundAgreementProtocol):
    """Ablation: ignore everyone, ``c := c + 1``.

    Perfect rate, zero convergence: after a systemic failure the skew
    between round variables persists forever.  This is the "no-merge"
    horn of the Theorem 1 dichotomy — in the failure-free twin
    execution the agreement condition of Assumption 1 is violated at
    every round.
    """

    name = "round-free-running"
    reductions = ()
