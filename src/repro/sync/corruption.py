"""Systemic-failure injection: arbitrary state corruption.

A *systemic failure* (self-stabilization failure) occurs when a process
commences execution in a state other than the protocol's specified
initial state — corrupted memory, unchanged program.  Following the
paper (and the self-stabilization tradition) we concentrate on behaviour
*after the final systemic failure*: an experiment applies a corruption
at the start of execution (or at a chosen mid-run round, which simply
restarts the analysis window) and then observes stabilization.

Corruption plans rewrite process states wholesale.  States produced by
:class:`RandomCorruption` are drawn from the protocol's own
:meth:`~repro.sync.protocol.SyncProtocol.arbitrary_state`, i.e. they
range over the protocol's full state space — the standard formal model
of memory corruption (variables take arbitrary values of their domains;
the program text is intact).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from functools import lru_cache
from typing import Any, Dict, FrozenSet, Mapping, Optional, Sequence, Tuple

from repro.histories.history import CLOCK_KEY
from repro.sync.protocol import SyncProtocol, column_states
from repro.util.rng import make_rng

__all__ = [
    "CorruptionPlan",
    "ExplicitCorruption",
    "NoCorruption",
    "RandomCorruption",
    "ClockSkewCorruption",
]


class CorruptionPlan(ABC):
    """Produces corrupted states for a set of processes."""

    @abstractmethod
    def corrupt(
        self,
        protocol: SyncProtocol,
        states: Mapping[int, Optional[Dict[str, Any]]],
        n: int,
    ) -> Dict[int, Optional[Dict[str, Any]]]:
        """Return the post-corruption states.

        ``states`` maps pid to its current state (``None`` = crashed).
        Crashed processes are never revived: corruption scribbles on
        memory, it does not restart processes.
        """

    def touched_pids(
        self,
        states: Mapping[int, Optional[Dict[str, Any]]],
        n: int,
    ) -> Optional[FrozenSet[int]]:
        """Candidate pids this plan may have modified, or ``None``.

        The engines narrate corruption by diffing pre/post states; a
        plan that knows which processes it targets reports them here so
        the diff is O(touched) instead of O(n x state).  ``None`` (the
        base default) means "unknown — diff everyone"."""
        return None

    def corrupt_columns(
        self, protocol: SyncProtocol, alive: Sequence[int], n: int
    ) -> Optional[Tuple[Sequence[int], Dict[str, Sequence]]]:
        """:meth:`corrupt` without the states, or ``None`` (not offered).

        ``alive`` lists the non-crashed pids, ascending.  The answer is
        the ascending pids whose whole state the plan replaces and one
        column per state field holding their new states — exactly what
        :meth:`corrupt` would have put there; every other process keeps
        its state.  Columnar hosts (:mod:`repro.array`) ask this first
        and fall back to :meth:`corrupt` on ``None``.
        """
        return None


class NoCorruption(CorruptionPlan):
    """Identity plan (failure-free systemically)."""

    def corrupt(
        self,
        protocol: SyncProtocol,
        states: Mapping[int, Optional[Dict[str, Any]]],
        n: int,
    ) -> Dict[int, Optional[Dict[str, Any]]]:
        return {pid: None if s is None else dict(s) for pid, s in states.items()}

    def touched_pids(self, states, n) -> FrozenSet[int]:
        return frozenset()


class ExplicitCorruption(CorruptionPlan):
    """Overwrite chosen processes' states with explicit values.

    Used to realize the exact corrupted configurations from the paper's
    proofs (e.g. "p and q store different values in their round
    variables").  Processes absent from ``overrides`` keep their state.
    """

    def __init__(self, overrides: Mapping[int, Mapping[str, Any]]):
        # No shape validation here: overrides model *arbitrary* memory
        # contents, and the plan is shared by the synchronous engine
        # (which validates the round variable on ingestion) and the
        # asynchronous scheduler (whose states carry no round variable).
        self._overrides = {pid: dict(state) for pid, state in overrides.items()}

    def corrupt(
        self,
        protocol: SyncProtocol,
        states: Mapping[int, Optional[Dict[str, Any]]],
        n: int,
    ) -> Dict[int, Optional[Dict[str, Any]]]:
        out: Dict[int, Optional[Dict[str, Any]]] = {}
        for pid, state in states.items():
            if state is None or pid not in self._overrides:
                out[pid] = None if state is None else dict(state)
            else:
                out[pid] = dict(self._overrides[pid])
        return out

    def touched_pids(self, states, n) -> FrozenSet[int]:
        return frozenset(self._overrides)


class RandomCorruption(CorruptionPlan):
    """Scramble every (or a chosen subset of) process state randomly.

    Each affected process gets a state drawn from the protocol's
    arbitrary-state generator — in bulk when the protocol offers
    :meth:`~repro.sync.protocol.SyncProtocol.arbitrary_columns`, one by
    one otherwise, the same values either way.  The draw is seeded, so
    campaigns are reproducible.  ``victims=None`` corrupts everyone —
    the headline regime of self-stabilization, where *all* process
    memories may be corrupted simultaneously (unlike Byzantine
    tolerance, which caps the number of affected processes).
    """

    def __init__(self, seed: int, victims: Optional[frozenset] = None):
        self._seed = seed
        self._victims = victims

    def _draw(self, protocol, alive: Sequence[int], n: int):
        """The one statement of who is hit, in which order, from which
        stream: ``(victims, their columns or None, the stream)``."""
        rng = make_rng(self._seed, f"corruption:{protocol.name}")
        victims = self._victims
        hit = alive if victims is None else [pid for pid in alive if pid in victims]
        columns = None
        if _bulk_twin_is_current(type(protocol)):
            columns = protocol.arbitrary_columns(hit, n, rng)
        return hit, columns, rng

    def corrupt(
        self,
        protocol: SyncProtocol,
        states: Mapping[int, Optional[Dict[str, Any]]],
        n: int,
    ) -> Dict[int, Optional[Dict[str, Any]]]:
        order = sorted(states)
        alive = [pid for pid in order if states[pid] is not None]
        hit, columns, rng = self._draw(protocol, alive, n)
        if columns is None:
            fresh = [protocol.arbitrary_state(pid, n, rng) for pid in hit]
        else:
            fresh = column_states(columns)
        out: Dict[int, Optional[Dict[str, Any]]] = dict.fromkeys(order)
        out.update(zip(hit, fresh))
        for pid in alive:
            if out[pid] is None:  # alive and not hit: keeps (a copy of) its state
                out[pid] = dict(states[pid])
        return out

    def corrupt_columns(self, protocol, alive, n):
        hit, columns, _rng = self._draw(protocol, alive, n)
        return None if columns is None else (hit, columns)

    def touched_pids(self, states, n) -> Optional[FrozenSet[int]]:
        return None if self._victims is None else frozenset(self._victims)


@lru_cache(maxsize=None)
def _bulk_twin_is_current(protocol_class: type) -> bool:
    """Is the class's ``arbitrary_columns`` defined at or below its
    ``arbitrary_state``?  A subclass that re-defines the single draw alone
    has orphaned the twin it inherits, and a protocol of another family
    (:class:`~repro.asyncnet.scheduler.AsyncProtocol`) has none."""
    for klass in protocol_class.__mro__:
        if "arbitrary_columns" in vars(klass):
            return True
        if "arbitrary_state" in vars(klass):
            return False
    return False


class ClockSkewCorruption(CorruptionPlan):
    """Corrupt only the round variables, by explicit per-process skews.

    The minimal systemic failure that already defeats naive protocols:
    processes disagree on the current round number.  ``skews`` maps pid
    to the absolute clock value to install.
    """

    def __init__(self, skews: Mapping[int, int]):
        self._skews = dict(skews)

    def corrupt(
        self,
        protocol: SyncProtocol,
        states: Mapping[int, Optional[Dict[str, Any]]],
        n: int,
    ) -> Dict[int, Optional[Dict[str, Any]]]:
        out: Dict[int, Optional[Dict[str, Any]]] = {}
        for pid, state in states.items():
            if state is None:
                out[pid] = None
                continue
            fresh = dict(state)
            if pid in self._skews:
                fresh[CLOCK_KEY] = self._skews[pid]
            out[pid] = fresh
        return out

    def touched_pids(self, states, n) -> FrozenSet[int]:
        return frozenset(self._skews)
