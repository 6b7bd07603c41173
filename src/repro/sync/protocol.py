"""The round-protocol interface for the synchronous simulator.

A protocol is specified, per the paper, by a collection of initial
states and transition functions.  Every protocol state is a mapping
that contains the distinguished round variable ``c_p`` under the key
``"clock"`` (:data:`repro.histories.history.CLOCK_KEY`); the rest of the
mapping is the paper's ``s_p``.

All of the paper's protocols are *full-information broadcast* protocols:
at the start of each round a process broadcasts one payload to everyone
(including itself — the paper guarantees every process correctly
receives its own broadcast), and at the end of the round it updates its
state as a function of (pid, state, delivered messages).  The interface
mirrors that shape directly.

States are treated as immutable by convention: ``update`` must return a
fresh mapping and never mutate its input, so the recorded history's
``state_before`` snapshots stay valid.  The engine defensively deep-ish
copies snapshots anyway, but well-behaved protocols should not rely on
that.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.histories.history import CLOCK_KEY, Message

__all__ = ["SyncProtocol", "column_cells", "column_states"]


def column_cells(column: Sequence) -> List[Any]:
    """A state column's cells as plain Python values.

    A column is a list, or a NumPy array on installs that have NumPy;
    recorded states must never hold NumPy scalars (they would change the
    canonical digest form).
    """
    tolist = getattr(column, "tolist", None)
    return list(column) if tolist is None else tolist()


def column_states(columns: Mapping[str, Sequence]) -> List[Dict[str, Any]]:
    """The state dicts a ``{field: column}`` mapping stands for, row by row."""
    rows = zip(*map(column_cells, columns.values()))
    return [dict(zip(columns, row)) for row in rows]


class SyncProtocol(ABC):
    """A synchronous, round-based, full-information broadcast protocol.

    Subclasses implement three things: the specified initial state, the
    payload broadcast at the start of a round, and the end-of-round
    state update.  Optionally they override :meth:`arbitrary_state` to
    let the systemic-failure injector produce arbitrary states over the
    protocol's full state space (the default only corrupts the clock),
    and :meth:`arbitrary_columns` to draw many such states at once.
    """

    #: Human-readable protocol name (used in reports).
    name: str = "protocol"

    @abstractmethod
    def initial_state(self, pid: int, n: int) -> Dict[str, Any]:
        """The initial state specified by the protocol (clock included).

        This is the "good" state that systemic failures perturb.  Must
        include ``CLOCK_KEY`` (conventionally 1).
        """

    @abstractmethod
    def send(self, pid: int, state: Mapping[str, Any]) -> Any:
        """Payload to broadcast at the start of a round, or None for silence.

        The engine puts it on the wire as one broadcast; a per-copy
        :class:`Message` exists once somebody reads a history.
        Full-information protocols typically broadcast (pid, state) wholesale.
        """

    @abstractmethod
    def update(
        self, pid: int, state: Mapping[str, Any], delivered: Sequence[Message]
    ) -> Dict[str, Any]:
        """End-of-round transition: return the next state (clock included).

        Each item of ``delivered`` promises ``sender``, ``sent_round`` and
        ``payload`` and nothing else — the engine hands over whole
        broadcasts, a live host :class:`Message` copies — and the inbox
        is immutable and may be shared between receivers.
        """

    # ------------------------------------------------------------------

    def arbitrary_state(self, pid: int, n: int, rng: random.Random) -> Dict[str, Any]:
        """An arbitrary state in the protocol's state space.

        Used by :class:`repro.sync.corruption.RandomCorruption` to model
        systemic failures.  The default perturbs only the round variable;
        protocols with richer state should override and scramble every
        field over its domain.
        """
        state = self.initial_state(pid, n)
        state[CLOCK_KEY] = rng.randrange(0, 1 << 20)
        return state

    def arbitrary_columns(
        self, pids: Sequence[int], n: int, rng: random.Random
    ) -> Optional[Dict[str, Sequence]]:
        """Bulk twin of :meth:`arbitrary_state`, or ``None`` (not offered).

        For ascending ``pids``, one column per state field: cell ``i`` of
        column ``field`` is ``arbitrary_state(pids[i], n, rng)[field]``
        had the states been drawn one by one in that order, and ``rng``
        ends where those draws would have left it (see
        :func:`repro.util.rng.randrange_block`).  A protocol that
        declines returns ``None`` *before* touching ``rng``; the caller
        then draws state by state.
        """
        return None

    def clock_of(self, state: Mapping[str, Any]) -> int:
        """Read the round variable ``c_p`` out of a state."""
        return state[CLOCK_KEY]

    def describe(self) -> str:
        """One-line description for reports."""
        return self.name
