"""The kernel's observer/event-bus API.

Both engines narrate their execution as a stream of events instead of
doing inline history bookkeeping.  An :class:`Observer` subscribes to
the hooks it cares about; an :class:`EventBus` fans each event out to
every registered observer.  The classic artifacts —
:class:`~repro.histories.history.ExecutionHistory` and
:class:`~repro.asyncnet.scheduler.AsyncTrace` — are rebuilt by two
observers over this stream (:mod:`repro.kernel.recorders`), and the
streaming analyses (:mod:`repro.analysis.metrics`,
:mod:`repro.analysis.stabilization`) are further observers that compute
their measurements without materializing a full history.

Event vocabulary (``time`` is the actual round number in the
synchronous substrate and the virtual time in the asynchronous one):

================== ======================================================
``on_run_start``    system size, protocol, first round
``on_round_start``  (sync) round number + state snapshots at round start
``on_topology``     (sync) the round's effective edge sets, when the run
                    uses a non-complete or dynamic topology (never fired
                    on the default complete graph)
``on_send``         one message actually placed on the network
``on_sends``        (sync) one round's whole wire, in wire order (:class:`Wire`)
``on_deliver``      one message actually delivered
``on_deliveries``   (sync) one round's inboxes, receiver -> messages (:class:`Inboxes`)
``on_fault``        one :class:`FaultEvent` (crash, omission, forgery,
                    corruption)
``on_state_commit`` a process committed a new state (``None`` = crashed)
``on_sample``       (async) sampled outputs at the trace cadence
``on_round_end``    (sync) the round's records are complete
``on_cache``        one run-cache access (:class:`CacheEvent`; emitted
                    by :mod:`repro.cache`, not by the engines)
``on_serve``        one serving-layer lifecycle step (:class:`ServeEvent`;
                    emitted by :mod:`repro.serve`, not by the engines)
``on_run_end``      final states at the end of the run
================== ======================================================

The round-based producers (the synchronous engine, the live cluster and
its interposer) narrate messages a round at a time through the batch
hooks; the base implementations replay the batch through ``on_send`` /
``on_deliver`` in wire order (receivers ascending, then delivery
order), so an observer that overrides only the per-message form sees
one call per message, as it always has.  The event-driven producers
(the asynchronous scheduler, a live host) learn of messages one at a
time and call the per-message form directly — which an observer that
overrides *only* the batch form does not hear.
"""

from __future__ import annotations

from collections import UserDict, UserList
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Any, Dict, FrozenSet, Mapping, Optional, Sequence

from repro.histories.history import inbox_copies, wire_copies

__all__ = [
    "AsyncMessage",
    "CacheEvent",
    "EventBus",
    "FaultEvent",
    "FaultKind",
    "Inboxes",
    "Observer",
    "ServeEvent",
    "Wire",
]

ProcessId = int


class FaultKind:
    """The fault vocabulary shared by both substrates."""

    CRASH = "crash"
    SEND_OMISSION = "send-omission"
    RECEIVE_OMISSION = "receive-omission"
    FORGERY = "forgery"
    CORRUPTION = "corruption"


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault, as seen by observers.

    ``time`` is the actual round number (sync) or virtual time (async).
    ``targets`` depends on the kind: crash → receivers of the final
    broadcast; send omission → receivers dropped; receive omission →
    senders dropped; forgery → receivers lied to; corruption → empty
    (the corrupted process is ``pid`` itself).
    """

    kind: str
    time: float
    pid: ProcessId
    targets: FrozenSet[ProcessId] = frozenset()


@dataclass(frozen=True)
class CacheEvent:
    """One run-cache access, as seen by observers.

    Emitted by :mod:`repro.cache` when a memoized simulation is looked
    up or stored: ``kind`` is ``"hit"``, ``"miss"``, ``"store"`` or
    ``"flush"``; ``namespace`` is the caller-chosen cache namespace
    (usually the experiment id or exploration target); ``key`` is the
    content digest; ``nbytes`` is the entry's serialized size (0 when
    unknown, e.g. on a miss).
    """

    kind: str
    namespace: str
    key: str = ""
    nbytes: int = 0


@dataclass(frozen=True)
class ServeEvent:
    """One serving-layer lifecycle step, as seen by observers.

    Emitted by :mod:`repro.serve` around request and fleet activity:
    ``kind`` is one of ``"request-start"``, ``"request-end"``,
    ``"request-error"``, ``"request-cancelled"``, ``"request-truncated"``,
    ``"task-dispatch"``, ``"task-cached"``, ``"task-executed"``,
    ``"task-retried"``, ``"task-failed"``, ``"worker-restart"``,
    ``"remote-entry-request"`` or ``"remote-entry-hit"``; ``namespace`` is the
    request's cache namespace (experiment id or exploration target);
    ``detail`` is free-form (endpoint, worker slot); ``count`` batches
    events that arrive in groups (e.g. tasks per shard).
    """

    kind: str
    namespace: str = ""
    detail: str = ""
    count: int = 1


@dataclass(frozen=True)
class AsyncMessage:
    """A message in the asynchronous substrate (no round numbers)."""

    sender: ProcessId
    receiver: ProcessId
    payload: Any
    sent_time: float


class Wire(UserList):
    """What the synchronous engine hands ``on_sends``: it keeps the round's
    ``broadcasts`` and reads as the list of their :class:`Message` copies
    in wire order, built on first use."""

    def __init__(self, broadcasts: Sequence[Any]):
        self.broadcasts = broadcasts

    data = cached_property(lambda self: list(wire_copies(self.broadcasts)))


class Inboxes(UserDict):
    """What the synchronous engine hands ``on_deliveries``: it keeps what
    each receiver ``heard`` (receiver -> inbox items) and reads as receiver
    -> the :class:`Message` copies it was sent, built on first use."""

    def __init__(self, heard: Mapping[ProcessId, Sequence[Any]]):
        self.heard = heard

    data = cached_property(
        lambda self: {pid: inbox_copies(box, pid) for pid, box in self.heard.items()}
    )


class Observer:
    """Base observer: every hook is a no-op; override what you need."""

    def on_run_start(self, n: int, protocol: Any, first_round: int = 1) -> None:
        pass

    def on_round_start(
        self,
        round_no: int,
        snapshots: Mapping[ProcessId, Optional[Dict[str, Any]]],
    ) -> None:
        pass

    def on_topology(
        self, round_no: int, edges: Sequence[Sequence[ProcessId]]
    ) -> None:
        """``edges[p]`` = p's broadcast receivers this round (self included)."""
        pass

    def on_send(self, message: Any, time: float) -> None:
        pass

    def on_sends(self, messages: Sequence[Any], time: float) -> None:
        """One round's wire; by default replayed through :meth:`on_send`."""
        on_send = self.on_send
        for message in messages:
            on_send(message, time)

    def on_deliver(self, message: Any, time: float) -> None:
        pass

    def on_deliveries(
        self, inboxes: Mapping[ProcessId, Sequence[Any]], time: float
    ) -> None:
        """One round's inboxes; by default replayed through :meth:`on_deliver`."""
        on_deliver = self.on_deliver
        for receiver in sorted(inboxes):
            for message in inboxes[receiver]:
                on_deliver(message, time)

    def on_fault(self, fault: FaultEvent) -> None:
        pass

    def on_state_commit(
        self, pid: ProcessId, time: float, state: Optional[Dict[str, Any]]
    ) -> None:
        pass

    def on_sample(self, time: float, outputs: Dict[ProcessId, Any]) -> None:
        pass

    def on_round_end(self, round_no: int) -> None:
        pass

    def on_cache(self, event: CacheEvent) -> None:
        pass

    def on_serve(self, event: ServeEvent) -> None:
        pass

    def on_run_end(
        self,
        time: float,
        final_states: Mapping[ProcessId, Optional[Dict[str, Any]]],
    ) -> None:
        pass


#: Hooks for which the bus precomputes capability flags (the per-event
#: hot path; run start/end fire once and are always dispatched).
_FLAGGED_HOOKS = (
    "round_start",
    "topology",
    "send",
    "deliver",
    "fault",
    "state_commit",
    "sample",
    "round_end",
    "cache",
    "serve",
)


#: Per-message hooks that also come in a per-round batch form; either
#: override makes an observer a subscriber.
_BATCH_FORMS = {"send": "on_sends", "deliver": "on_deliveries"}


def _overrides(cls: type, method: str) -> bool:
    return getattr(cls, method) is not getattr(Observer, method)


@lru_cache(maxsize=None)
def _class_hooks(cls: type) -> FrozenSet[str]:
    """The flagged hooks observer class ``cls`` overrides, in either form.

    A class's methods are fixed once it is defined, so the reflection is
    paid once per class, not once per bus (every run builds a bus).
    """
    return frozenset(
        hook
        for hook in _FLAGGED_HOOKS
        if _overrides(cls, f"on_{hook}")
        or (hook in _BATCH_FORMS and _overrides(cls, _BATCH_FORMS[hook]))
    )


def _subscribed_hooks(observer: Observer) -> FrozenSet[str]:
    """The hooks ``observer`` listens to (transitively for buses)."""
    if isinstance(observer, EventBus):  # per instance: it depends on its observers
        return frozenset(
            hook for hook in _FLAGGED_HOOKS if getattr(observer, f"wants_{hook}")
        )
    return _class_hooks(type(observer))


class EventBus(Observer):
    """Fans every event out to a fixed tuple of observers.

    The bus is itself an :class:`Observer`, so buses nest if a run ever
    needs to splice streams.

    Capability flags: for each per-event hook the bus precomputes
    ``wants_<hook>`` — True iff some registered observer actually
    overrides that hook (nested buses are inspected transitively).  The
    engines consult these flags to skip work that exists only to be
    narrated: state snapshots when nothing listens to ``round_start``,
    the ``on_sends``/``on_deliveries`` fan-out, per-transition
    ``on_state_commit`` calls.  An observer that merely inherits the
    base no-op does not count as a subscriber.  A batch is forwarded
    whole, once, to each observer that subscribes to messages in either
    form — so within a round one observer sees the whole batch before
    the next sees its first message.
    """

    __slots__ = ("_observers", "_send_observers", "_deliver_observers") + tuple(
        f"wants_{hook}" for hook in _FLAGGED_HOOKS
    )

    def __init__(self, observers: Sequence[Observer] = ()):
        self._observers = observers = tuple(observers)
        subscribed = [_subscribed_hooks(observer) for observer in observers]
        wanted = frozenset().union(*subscribed)
        for hook in _FLAGGED_HOOKS:
            setattr(self, f"wants_{hook}", hook in wanted)
        self._send_observers = tuple(
            observer
            for observer, hooks in zip(observers, subscribed)
            if "send" in hooks
        )
        self._deliver_observers = tuple(
            observer
            for observer, hooks in zip(observers, subscribed)
            if "deliver" in hooks
        )

    @property
    def observers(self) -> "tuple[Observer, ...]":
        return self._observers

    def on_run_start(self, n, protocol, first_round=1):
        for observer in self._observers:
            observer.on_run_start(n, protocol, first_round)

    def on_round_start(self, round_no, snapshots):
        for observer in self._observers:
            observer.on_round_start(round_no, snapshots)

    def on_topology(self, round_no, edges):
        for observer in self._observers:
            observer.on_topology(round_no, edges)

    def on_send(self, message, time):
        for observer in self._send_observers:
            observer.on_send(message, time)

    def on_sends(self, messages, time):
        for observer in self._send_observers:
            observer.on_sends(messages, time)

    def on_deliver(self, message, time):
        for observer in self._deliver_observers:
            observer.on_deliver(message, time)

    def on_deliveries(self, inboxes, time):
        for observer in self._deliver_observers:
            observer.on_deliveries(inboxes, time)

    def on_fault(self, fault):
        for observer in self._observers:
            observer.on_fault(fault)

    def on_state_commit(self, pid, time, state):
        for observer in self._observers:
            observer.on_state_commit(pid, time, state)

    def on_sample(self, time, outputs):
        for observer in self._observers:
            observer.on_sample(time, outputs)

    def on_round_end(self, round_no):
        for observer in self._observers:
            observer.on_round_end(round_no)

    def on_cache(self, event):
        for observer in self._observers:
            observer.on_cache(event)

    def on_serve(self, event):
        for observer in self._observers:
            observer.on_serve(event)

    def on_run_end(self, time, final_states):
        for observer in self._observers:
            observer.on_run_end(time, final_states)
