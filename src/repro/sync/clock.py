"""Clock protocols, declared once.

A protocol whose whole state is the round variable ``c_p`` is written as
a :class:`ClockProtocol` *declaration* — a transition system stated as
data, with every consumer derived from it:

- ``initial`` — the specified clock of every process;
- ``domain()`` — the corruption domain ``[low, high)`` arbitrary states
  are drawn from;
- ``reductions`` — what a receiver takes over the clocks it heard this
  round, itself included: ``min`` / ``max``, one per argument of the
  rule; empty for a rule that reads only its own clock;
- ``sent(where, c)`` — optional: the values a sender contributes, one
  per reduction, computed from its clock before the wire (without it,
  a rule takes one reduction, of the clocks themselves);
- ``rule(where, *reduced)`` — the next clock.

``sent`` and ``rule`` are elementwise: selections go through
``where(condition, a, b)`` and conditions combine with ``&``, so one
definition sees a cell's ints here (``where`` is :func:`pick`) and whole
``(lanes, n)`` columns on the array plane (``where`` is ``np.where``).
This module derives the reference :class:`~repro.sync.protocol.SyncProtocol`
methods; :class:`repro.array.protocols.ArrayClock` derives the batched
twin from the same declaration.
"""

from __future__ import annotations

import random
from abc import abstractmethod
from typing import Any, Callable, Dict, Mapping, Sequence, Tuple

from repro.histories.history import CLOCK_KEY, Message
from repro.sync.protocol import SyncProtocol
from repro.util.rng import randrange_block

__all__ = ["BIG", "SMALL", "ClockProtocol", "declared", "pick"]

#: The clock values both data planes carry lie in ``[SMALL, BIG)``
#: (int64-safe), and the two bounds double as the reductions' identities.
BIG = 1 << 62
SMALL = -(1 << 62)

#: The methods a declaration gets from this module.
_DERIVED = ("initial_state", "send", "update", "arbitrary_state", "arbitrary_columns")


def pick(condition, then, otherwise):
    """``where`` for one cell: a plain conditional."""
    return then if condition else otherwise


class ClockProtocol(SyncProtocol):
    """A protocol whose state is the round variable alone, declared as data.

    Subclasses set ``name``, ``reductions`` and ``rule`` (and ``initial``,
    ``domain`` or ``sent`` when the defaults do not fit); everything a
    :class:`~repro.sync.protocol.SyncProtocol` must implement is derived
    below.  The inbox is never empty for an alive process (the engine
    delivers every process its own broadcast); if it were, the rule would
    read the process's own clock as all it heard.
    """

    initial: int = 1
    reductions: Tuple[Callable, ...] = ()
    sent = None

    def __init__(self, max_corrupt_clock: int = 1 << 20):
        #: Upper bound used only by the corruption generator; the
        #: protocol itself runs on unbounded integers (paper §2.4
        #: requires an unbounded round counter).
        self.max_corrupt_clock = max_corrupt_clock

    def domain(self) -> Tuple[int, int]:
        """The corruption domain ``[low, high)`` of the clock."""
        return 0, self.max_corrupt_clock

    @abstractmethod
    def rule(self, where, *reduced):
        """The next clock from the reduced heard values (or the own clock)."""

    # -- derived -----------------------------------------------------------

    def initial_state(self, pid: int, n: int) -> Dict[str, Any]:
        return {CLOCK_KEY: self.initial}

    def send(self, pid: int, state: Mapping[str, Any]) -> Any:
        return state[CLOCK_KEY]

    def update(
        self, pid: int, state: Mapping[str, Any], delivered: Sequence[Message]
    ) -> Dict[str, Any]:
        folds = self.reductions
        if not folds:
            return {CLOCK_KEY: self.rule(pick, state[CLOCK_KEY])}
        seen = {message.payload for message in delivered} or {state[CLOCK_KEY]}
        if self.sent is None:  # one reduction, of the clocks themselves
            (fold,) = folds
            return {CLOCK_KEY: self.rule(pick, fold(seen))}
        # one column per reduction; the map reads a value alone, so once per value
        columns = zip(*[self.sent(pick, value) for value in seen])
        return {CLOCK_KEY: self.rule(pick, *[f(c) for f, c in zip(folds, columns)])}

    def arbitrary_state(self, pid: int, n: int, rng: random.Random) -> Dict[str, Any]:
        return {CLOCK_KEY: rng.randrange(*self.domain())}

    def arbitrary_columns(self, pids: Sequence[int], n: int, rng: random.Random):
        return {CLOCK_KEY: randrange_block(rng, *self.domain(), len(pids))}


def declared(protocol: SyncProtocol) -> bool:
    """Does ``protocol``'s own class declare a clock rule and keep every
    derived method?

    Only then does a consumer that derives from the declaration compute
    what the protocol's methods would: a subclass that declares nothing
    itself may override a method in a way such a consumer would ignore.
    """
    kind = type(protocol)
    return (
        isinstance(protocol, ClockProtocol)
        and "reductions" in vars(kind)
        and set(kind.reductions) <= {min, max}
        and all(getattr(kind, m) is getattr(ClockProtocol, m) for m in _DERIVED)
    )
