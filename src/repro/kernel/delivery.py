"""The round ledger: who hears whom in one synchronous round.

Section 2 of the paper fixes one delivery semantics — crash,
send-omission and receive-omission failures, a footnote that every
process correctly receives its own broadcast, and ``faulty(H)`` as
whoever deviated on a live copy.  This module is the only code that
interprets a :class:`~repro.sync.adversary.RoundFaultPlan`; the
reference engine, the live interposer, the array control plane and the
proof plane's delivery twin all read it (docs/kernel.md, "The round
ledger", tabulates the rules).

A :class:`RoundLedger` answers three questions about one round and
records the deviations it filters out while answering:

- :meth:`~RoundLedger.receivers` — which receivers get a copy of ``p``'s
  broadcast on the wire;
- :meth:`~RoundLedger.broadcast` — the same, plus which of those copies
  lie;
- :meth:`~RoundLedger.hearers` — which receivers of a broadcast accept
  their copy (:meth:`~RoundLedger.deliver` asks the same copy by copy).

:class:`Liveness` is the run-long record the adversary is replayed
against; :meth:`Liveness.fold` closes a round into it.
"""

from __future__ import annotations

from bisect import bisect_left
from types import MappingProxyType
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
)

from repro.kernel.events import EventBus, FaultEvent, FaultKind
from repro.kernel.snapshot import copy_payload

if TYPE_CHECKING:  # runtime import would close the kernel↔sync cycle
    from repro.sync.adversary import RoundFaultPlan

__all__ = ["Liveness", "Probe", "RoundLedger", "quiet"]

ProcessId = int

_NOBODY: FrozenSet[ProcessId] = frozenset()
_NO_LIES: Mapping[ProcessId, Any] = MappingProxyType({})


class Probe(NamedTuple):
    """A payload-free copy: enough for :meth:`RoundLedger.deliver`."""

    sender: ProcessId
    receiver: ProcessId


def quiet(plan: "RoundFaultPlan") -> bool:
    """Does ``plan`` inject no process failure at all this round?"""
    return not (
        plan.crashes or plan.send_omissions or plan.receive_omissions or plan.forgeries
    )


class Liveness:
    """Who is alive and who has deviated so far, as the adversary sees it.

    ``alive_order`` (ascending pids, crashed ones removed) is the single
    source of truth; ``alive_view`` is derived from it, never maintained
    in parallel.  Both are rebound, never mutated, so records may share
    them (:meth:`batch`).
    """

    __slots__ = ("crashed", "alive_order", "alive_view", "faulty")

    def __init__(self, n: int):
        order = list(range(n))
        self._begin(order, frozenset(order))

    @classmethod
    def batch(cls, n: int, count: int) -> List["Liveness"]:
        """``count`` fresh records of ``n`` processes (one per lane of a
        batched run) sharing one all-alive order and view."""
        order = list(range(n))
        view = frozenset(order)
        lives = [cls.__new__(cls) for _ in range(count)]
        for live in lives:
            live._begin(order, view)
        return lives

    def _begin(self, order: List[ProcessId], view: FrozenSet[ProcessId]) -> None:
        self.crashed: set = set()
        self.alive_order: List[ProcessId] = order
        self.alive_view: FrozenSet[ProcessId] = view
        self.faulty: FrozenSet[ProcessId] = frozenset()

    def copy(self) -> "Liveness":
        """A record that goes on from here apart from this one."""
        twin = Liveness.__new__(Liveness)
        twin._begin(self.alive_order, self.alive_view)
        twin.crashed = set(self.crashed)
        twin.faulty = self.faulty
        return twin

    def crash(self, pids: Iterable[ProcessId]) -> None:
        """``pids`` are dead from now on (and therefore faulty)."""
        self.crashed.update(pids)
        self.alive_order = [pid for pid in self.alive_order if pid not in self.crashed]
        self.alive_view = frozenset(self.alive_order)
        self.faulty = self.faulty | self.crashed

    def fold(self, ledger: Optional["RoundLedger"]) -> None:
        """Close a round: bury its crashers, charge its recorded deviators.
        A quiet round among the living keeps no ledger (``None``) and
        changes nothing."""
        if ledger is None:
            return
        if ledger.crashing_now:
            self.crash(ledger.crashing_now)
        if ledger.omitted_sends or ledger.omitted_receives or ledger.forged_sends:
            self.faulty = (
                self.faulty
                | ledger.omitted_sends.keys()
                | ledger.omitted_receives.keys()
                | ledger.forged_sends.keys()
            )


class RoundLedger:
    """One round's delivery decisions under one fault plan.

    Built from the plan, the liveness at round start and the round's
    ``edges`` (``None`` on the complete graph, else index ``p`` holds
    ``p``'s ascending receivers, self included: any row view will do,
    a tuple of tuples or slices of the topology's columns).  Faults are
    per-edge: crash survivor sets and omission targets are intersected
    with the live neighborhood.

    ``silent`` names the senders broadcasting ``None`` this round.  A
    caller that walks the senders itself (engine, interposer) leaves it
    out and simply never asks about a silent one; a caller that cannot
    afford the walk (the array control plane) passes it, and every
    deviation is then recorded up front in O(planned deviations).

    Recorded as the ledger filters — only pids that deviated on a live
    copy appear as keys:

    ``omitted_sends``
        ``pid -> receivers`` whose copy a broadcasting, non-crashing
        ``pid`` dropped.  Self-delivery is never dropped, and an omission
        aimed at a non-neighbor drops nothing and is not recorded.
    ``forged_sends``
        ``pid -> {receiver: forged payload}`` for lies placed on the wire.
    ``omitted_receives``
        ``pid -> senders`` whose copy arrived at a live ``pid`` and was
        dropped there.
    """

    __slots__ = (
        "plan",
        "n",
        "round_no",
        "edges",
        "alive",
        "silent",
        "crash_survivors",
        "crashing_now",
        "dead",
        "receive_drops",
        "deviants",
        "filters_arrivals",
        "refused",
        "hearing",
        "omitted_sends",
        "forged_sends",
        "omitted_receives",
    )

    def __init__(
        self,
        plan: "RoundFaultPlan",
        n: int,
        live: Liveness,
        round_no: int,
        edges: Optional[Sequence[Sequence[ProcessId]]] = None,
        silent: Optional[FrozenSet[ProcessId]] = None,
    ):
        self.plan = plan
        self.n = n
        self.round_no = round_no
        self.edges = edges
        alive = self.alive = live.alive_view
        self.silent = _NOBODY if silent is None else silent
        #: pid -> who still gets the final broadcast of a process crashing now.
        self.crash_survivors: Dict[ProcessId, FrozenSet[ProcessId]] = {
            pid: survivors for pid, survivors in plan.crashes.items() if pid in alive
        } if plan.crashes else {}
        crashing = self.crashing_now = frozenset(self.crash_survivors)
        #: Dead and crashing receivers hear nothing.
        self.dead = (live.crashed | crashing) if crashing else live.crashed
        #: pid -> senders a live receiver refuses (self excepted, on arrival).
        self.receive_drops: Dict[ProcessId, FrozenSet[ProcessId]] = {
            pid: drops
            for pid, drops in plan.receive_omissions.items()
            if drops and pid in alive and pid not in crashing
        } if plan.receive_omissions else {}
        #: Everyone else reaches all of its out-edges, truthfully.
        self.deviants = (
            crashing | plan.send_omissions.keys() | plan.forgeries.keys()
            if crashing or plan.send_omissions or plan.forgeries
            else _NOBODY
        )
        #: False: every receiver accepts every copy this round.
        self.filters_arrivals = bool(self.dead or self.receive_drops)
        #: Senders somebody refuses; anyone else's broadcast to all n is heard by ``hearing``.
        self.refused = frozenset().union(*self.receive_drops.values())
        self.hearing: Optional[List[ProcessId]] = None
        self.omitted_sends: Dict[ProcessId, set] = {}
        self.forged_sends: Dict[ProcessId, Dict[ProcessId, Any]] = {}
        self.omitted_receives: Dict[ProcessId, set] = {}
        if silent is not None:
            for pid in plan.send_omissions:
                if pid in alive and pid not in crashing and pid not in silent:
                    self._send_drops(pid)
            for pid, drops in self.receive_drops.items():
                for sender in drops:
                    if self.reaches(sender, pid):
                        self.accepts(sender, pid)

    # -- the send side -------------------------------------------------------

    def _send_drops(self, pid: ProcessId):
        """The copies a broadcasting, non-crashing ``pid`` omits (recorded)."""
        planned = self.plan.send_omissions.get(pid)
        if not planned:
            return _NOBODY
        dropped = set(planned)
        dropped.discard(pid)  # self-delivery is sacred
        if self.edges is not None:
            dropped.intersection_update(self.edges[pid])
        if dropped:
            self.omitted_sends[pid] = dropped
        return dropped

    def receivers(self, pid: ProcessId) -> Sequence[ProcessId]:
        """Ascending receivers of live ``pid``'s broadcast on the wire.

        A process crashing mid-broadcast reaches only its survivors;
        anyone else reaches its out-edges minus its send omissions.
        Dead receivers still count: the copy is sent, then not heard.
        """
        pool = range(self.n) if self.edges is None else self.edges[pid]
        survivors = self.crash_survivors.get(pid)
        if survivors is not None:
            if self.edges is None:
                return sorted(survivors)
            return [r for r in pool if r in survivors]
        if pid not in self.plan.send_omissions:
            return pool
        dropped = self._send_drops(pid)
        return [r for r in pool if r not in dropped] if dropped else pool

    def reaches(self, sender: ProcessId, receiver: ProcessId) -> bool:
        """Is a copy ``sender -> receiver`` on the wire?  The membership
        form of :meth:`receivers`; needs ``silent`` to answer for a
        sender that broadcasts nothing."""
        if sender not in self.alive or sender in self.silent:
            return False
        if self.edges is not None:
            row = self.edges[sender]
            at = bisect_left(row, receiver)
            if at == len(row) or row[at] != receiver:
                return False
        survivors = self.crash_survivors.get(sender)
        if survivors is not None:
            return receiver in survivors
        return receiver not in self._send_drops(sender)

    def broadcast(self, pid: ProcessId, payload: Any):
        """``(receivers, forged)`` for live ``pid``'s non-``None`` payload.

        ``forged`` maps each receiver whose copy lies to the lie (empty
        when every copy is true).  Mutators run once per forged wire
        copy, in ascending receiver order, each on a fresh copy of the
        true payload — one defensive copy suffices, the result goes
        straight onto the wire.  The sender's own copy stays true.
        """
        receivers = self.receivers(pid)
        lies = self.plan.forgeries.get(pid)
        if not lies:
            return receivers, _NO_LIES
        forged = {
            receiver: lies[receiver](copy_payload(payload))
            for receiver in receivers
            if receiver in lies and receiver != pid
        }
        if forged:
            self.forged_sends[pid] = forged
        return receivers, forged

    def liars(self) -> List[ProcessId]:
        """Ascending broadcasting pids the plan tells to lie (needs ``silent``)."""
        planned = self.plan.forgeries
        if not planned:
            return []
        return sorted(
            pid
            for pid, lies in planned.items()
            if lies and pid in self.alive and pid not in self.silent
        )

    # -- the receive side ----------------------------------------------------

    def accepts(self, sender: ProcessId, receiver: ProcessId) -> bool:
        """Does ``receiver`` accept the copy ``sender`` got onto the wire?
        The one statement of the receive side: dead and crashing receivers
        hear nothing; a receive omission is recorded only for a copy that
        actually arrived, never for the receiver's own."""
        if receiver in self.dead:
            return False
        drops = self.receive_drops.get(receiver)
        if drops and sender in drops and sender != receiver:
            self.omitted_receives.setdefault(receiver, set()).add(sender)
            return False
        return True

    def hearers(self, sender: ProcessId, receivers: Sequence[ProcessId]):
        """Who among the ascending ``receivers`` of ``sender``'s broadcast
        accepts a copy; one shared list whenever the answer is ``hearing``."""
        if sender in self.refused or len(receivers) != self.n:
            return [r for r in receivers if self.accepts(sender, r)]
        if self.hearing is None:
            self.hearing = [r for r in receivers if self.accepts(sender, r)]
        return self.hearing

    def deliver(self, arriving: Iterable[Any]) -> Dict[ProcessId, list]:
        """File arriving copies (anything with ``sender``/``receiver``)
        that their receiver :meth:`accepts` into per-receiver inboxes, in
        arrival order.  Sparse: only receivers that accepted something
        appear.  May be called once per round or once per broadcast.
        """
        delivered: Dict[ProcessId, list] = {}
        for copy in arriving:
            if self.accepts(copy.sender, copy.receiver):
                delivered.setdefault(copy.receiver, []).append(copy)
        return delivered

    # -- narration -----------------------------------------------------------

    def _narrate(self, bus: EventBus, kind: FaultKind, pid: ProcessId, targets) -> None:
        bus.on_fault(
            FaultEvent(kind=kind, time=self.round_no, pid=pid, targets=frozenset(targets))
        )

    def narrate_sends(self, bus: EventBus) -> None:
        """Send-side faults, before the wire: crashes, then send omissions
        and forgeries interleaved per pid."""
        for pid in sorted(self.crashing_now):
            self._narrate(bus, FaultKind.CRASH, pid, self.crash_survivors[pid])
        for pid in sorted(self.omitted_sends.keys() | self.forged_sends.keys()):
            if pid in self.omitted_sends:
                self._narrate(bus, FaultKind.SEND_OMISSION, pid, self.omitted_sends[pid])
            if pid in self.forged_sends:
                self._narrate(bus, FaultKind.FORGERY, pid, self.forged_sends[pid])

    def narrate_receives(self, bus: EventBus) -> None:
        """Receive omissions, after the wire and before the deliveries."""
        for pid in sorted(self.omitted_receives):
            self._narrate(bus, FaultKind.RECEIVE_OMISSION, pid, self.omitted_receives[pid])
