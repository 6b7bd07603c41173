"""Wire-level fault injection for the live runtime.

The :class:`WireInterposer` sits between each process's send path and
the transport, realizing a :class:`~repro.kernel.faults.FaultPlan` on a
real network the way the synchronous engine realizes it in simulation:
the same adversary object plans each round against identically evolving
``alive``/``faulty_so_far`` sets, copies are dropped (crash survivors,
send/receive omissions), forged (per-receiver payload mutators), or
tagged with extra wall-clock delay and duplication from the plan's
:class:`~repro.kernel.faults.WireFaults`, and the resulting fault
events are narrated to the event bus in exactly the engine's order and
shape.  That last point is what makes conformance checking possible: a
:class:`~repro.kernel.recorders.HistoryRecorder` attached to the live
bus rebuilds an :class:`~repro.histories.history.ExecutionHistory`
value-comparable with the simulator's, so the paper's predicates can be
evaluated on the live execution with the same code.

Division of labor per round (barrier-paced mode):

1. cluster calls :meth:`begin_round` — the adversary plans and the
   round's :class:`~repro.kernel.delivery.RoundLedger` is opened (the
   one definition of who hears whom, shared with the simulator);
2. each process's send path calls :meth:`broadcast` once; the
   interposer returns the surviving copies (possibly forged, delayed,
   or duplicated) which the caller posts to the transport — dropped
   copies never reach the wire;
3. after the transport's drain barrier the cluster calls
   :meth:`finish_round`, which narrates this round's faults and sends
   in engine order and folds the round into the liveness record.

Send-side events (crash, send omission, forgery, ``on_send``) are
narrated from the ledger and the interposer's wire log — they describe
what was *placed on* the wire.  Deliveries are narrated by the cluster
from what each endpoint *actually received*, so a transport bug
surfaces as a history divergence instead of being papered over.

In event-driven (asynchronous) mode there is no round plan; the
interposer only enforces the crash schedule (a crashed process neither
sends nor receives) and applies the wire extras.  Call
:meth:`route_async` with the current virtual time.

Wire delay/duplication draws consume a private RNG seeded from
``WireFaults.seed``.  Draw order depends on scheduling, so wire extras
are *not* bit-reproducible across runs — by design they only perturb
wall-clock arrival inside a round (the drain barrier absorbs delay; the
round host deduplicates copies), leaving the recorded history
untouched.
"""

from __future__ import annotations

import random
from typing import Any, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.histories.history import Message
from repro.kernel.delivery import Liveness, RoundLedger
from repro.kernel.events import EventBus
from repro.kernel.faults import WireFaults
from repro.sync.adversary import Adversary, NullAdversary
from repro.util.validation import require

__all__ = ["WireInterposer"]

ProcessId = int

#: One surviving copy: (destination, payload, extra wall-clock delay).
Copy = Tuple[ProcessId, Any, float]


class WireInterposer:
    """Realizes one fault plan's process failures on a live transport."""

    def __init__(
        self,
        n: int,
        bus: EventBus,
        adversary: Optional[Adversary] = None,
        wire: Optional[WireFaults] = None,
        crash_times: Optional[Dict[ProcessId, float]] = None,
    ):
        self.n = n
        self._bus = bus
        self._adversary = adversary or NullAdversary()
        self._wire = wire
        self._wire_rng = random.Random(wire.seed) if wire is not None else None
        self._crash_times = dict(crash_times or {})
        self._live = Liveness(n)
        self._ledger: Optional[RoundLedger] = None
        self._wire_log: List[Message] = []

    @property
    def crashed(self) -> Set[ProcessId]:
        return self._live.crashed

    @property
    def alive(self) -> FrozenSet[ProcessId]:
        return self._live.alive_view

    @property
    def faulty_so_far(self) -> FrozenSet[ProcessId]:
        return self._live.faulty

    # -- round-paced (synchronous) mode --------------------------------------

    def begin_round(self, round_no: int, edges=None) -> FrozenSet[ProcessId]:
        """Plan this round's process failures; returns who crashes now.

        Mirrors the engine: the adversary is consulted with the same
        ``(round_no, alive, faulty_so_far)`` it would see in simulation,
        its plan is validated against the same budget rules, and the
        ledger is opened over the same ``edges`` (``None``: complete).
        """
        require(self._ledger is None, "begin_round inside an open round")
        live = self._live
        plan = self._adversary.plan_round(round_no, live.alive_view, live.faulty)
        self._adversary.validate(plan, live.faulty)
        self._ledger = RoundLedger(plan, self.n, live, round_no, edges)
        self._wire_log = []
        return self._ledger.crashing_now

    def broadcast(self, src: ProcessId, round_no: int, payload: Any) -> List[Copy]:
        """Filter one broadcast; return the copies to actually post.

        A copy the ledger keeps off the wire (crash, send omission) or
        the receiver refuses (dead, receive omission) is absent; wire-
        level duplication may add extras.  Payloads may be forged.
        """
        ledger = self._ledger
        require(
            ledger is not None and round_no == ledger.round_no,
            "broadcast outside the current round",
        )
        if src in self._live.crashed:
            return []
        receivers, forged = ledger.broadcast(src, payload)
        sent = [
            Message(src, dst, round_no, forged[dst] if dst in forged else payload)
            for dst in receivers
        ]
        self._wire_log += sent
        # a refused copy was still sent: it stays in the wire log
        return [
            copy
            for inbox in ledger.deliver(sent).values()
            for message in inbox
            for copy in self._wire_copies(message.receiver, message.payload)
        ]

    def finish_round(self) -> FrozenSet[ProcessId]:
        """Narrate the round's faults/sends; fold the crash bookkeeping.

        Returns the set of processes that crashed *this* round (the
        cluster's update phase commits ``None`` for exactly these).
        Event order matches the engine: send-side faults, then every
        wire message, then receive omissions.  Deliveries are narrated
        by the caller.
        """
        ledger = self._ledger
        require(ledger is not None, "finish_round without begin_round")
        bus = self._bus
        if bus.wants_fault:
            ledger.narrate_sends(bus)
        if bus.wants_send:
            # Concurrent send phases log in arrival order; the engine's
            # wire order is (sender asc, receiver asc).
            bus.on_sends(
                sorted(self._wire_log, key=lambda m: (m.sender, m.receiver)),
                ledger.round_no,
            )
        if bus.wants_fault:
            ledger.narrate_receives(bus)
        self._live.fold(ledger)
        self._ledger = None
        return ledger.crashing_now

    # -- event-driven (asynchronous) mode ------------------------------------

    def crash_deadline(self, pid: ProcessId) -> Optional[float]:
        """The virtual time at which ``pid`` crashes, if scheduled."""
        return self._crash_times.get(pid)

    def mark_crashed(self, pid: ProcessId) -> None:
        """Record an event-driven crash (the cluster fires the timer)."""
        self._live.crash((pid,))

    def route_async(self, src: ProcessId, dst: ProcessId, payload: Any) -> List[Copy]:
        """Crash-schedule filtering + wire extras, no round structure."""
        if src in self.crashed or dst in self.crashed:
            return []
        return self._wire_copies(dst, payload)

    # -- wire extras ---------------------------------------------------------

    def _wire_copies(self, dst: ProcessId, payload: Any) -> List[Copy]:
        wire = self._wire
        if wire is None:
            return [(dst, payload, 0.0)]
        rng = self._wire_rng
        lo, hi = wire.delay
        copies = [(dst, payload, rng.uniform(lo, hi) if hi > 0.0 else 0.0)]
        if wire.duplication and rng.random() < wire.duplication:
            copies.append((dst, payload, rng.uniform(lo, hi) if hi > 0.0 else 0.0))
        return copies
