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
   round's crashing set is fixed;
2. each process's send path calls :meth:`route` once per (src, dst)
   copy; the interposer returns the surviving copies (possibly forged,
   delayed, or duplicated) which the caller posts to the transport —
   dropped copies never reach the wire;
3. after the transport's drain barrier the cluster calls
   :meth:`finish_round`, which narrates this round's faults and sends
   in engine order and folds the round into the crash/faulty
   bookkeeping.

Send-side events (crash, send omission, forgery, ``on_send``) are
narrated from the interposer's own bookkeeping — they describe what was
*placed on* the wire.  Deliveries are narrated by the cluster from what
each endpoint *actually received*, so a transport bug surfaces as a
history divergence instead of being papered over.

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
from repro.kernel.events import EventBus, FaultEvent, FaultKind
from repro.kernel.faults import WireFaults
from repro.kernel.snapshot import copy_payload
from repro.sync.adversary import Adversary, NullAdversary, RoundFaultPlan
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

        self.crashed: Set[ProcessId] = set()
        self.alive: FrozenSet[ProcessId] = frozenset(range(n))
        self.faulty_so_far: FrozenSet[ProcessId] = frozenset()

        self._round_no: Optional[int] = None
        self._plan: RoundFaultPlan = RoundFaultPlan()
        self._crashing_now: Set[ProcessId] = set()
        self._omitted_sends: Dict[ProcessId, Set[ProcessId]] = {}
        self._omitted_receives: Dict[ProcessId, Set[ProcessId]] = {}
        self._forged_sends: Dict[ProcessId, Set[ProcessId]] = {}
        self._wire_log: List[Message] = []

    # -- round-paced (synchronous) mode --------------------------------------

    def begin_round(self, round_no: int) -> FrozenSet[ProcessId]:
        """Plan this round's process failures; returns who crashes now.

        Mirrors the engine: the adversary is consulted with the same
        ``(round_no, alive, faulty_so_far)`` it would see in simulation
        and its plan is validated against the same budget rules.
        """
        require(self._round_no is None, "begin_round inside an open round")
        plan = self._adversary.plan_round(round_no, self.alive, self.faulty_so_far)
        self._adversary.validate(plan, self.faulty_so_far)
        self._plan = plan
        self._round_no = round_no
        self._crashing_now = {pid for pid in plan.crashes if pid in self.alive}
        self._omitted_sends = {}
        self._omitted_receives = {}
        self._forged_sends = {}
        self._wire_log = []
        return frozenset(self._crashing_now)

    def route(
        self, src: ProcessId, dst: ProcessId, round_no: int, payload: Any
    ) -> List[Copy]:
        """Filter one (src, dst) copy; return the copies to actually post.

        The returned list is empty when the copy is dropped (crash,
        omission), carries one entry normally, and more when wire-level
        duplication strikes.  Payloads may be forged in flight.
        """
        require(round_no == self._round_no, "route outside the current round")
        plan = self._plan
        if src in self.crashed:
            return []
        if src in self._crashing_now:
            # A crash mid-broadcast: only the plan's chosen survivors
            # receive the final message.
            if dst not in plan.crashes[src]:
                return []
        else:
            dropped = plan.send_omissions.get(src)
            if dropped and dst in dropped and dst != src:
                self._omitted_sends.setdefault(src, set()).add(dst)
                return []
        lies = plan.forgeries.get(src)
        if lies and dst in lies and dst != src:  # own broadcast stays true
            payload = lies[dst](copy_payload(payload))
            self._forged_sends.setdefault(src, set()).add(dst)
        self._wire_log.append(Message(src, dst, round_no, payload))
        if dst in self.crashed or dst in self._crashing_now:
            return []  # a crashed process receives nothing (but the send happened)
        drops = plan.receive_omissions.get(dst)
        if drops and src in drops and src != dst:  # self-delivery is sacred
            self._omitted_receives.setdefault(dst, set()).add(src)
            return []
        return self._wire_copies(dst, payload)

    def finish_round(self) -> FrozenSet[ProcessId]:
        """Narrate the round's faults/sends; fold the crash bookkeeping.

        Returns the set of processes that crashed *this* round (the
        cluster's update phase commits ``None`` for exactly these).
        Event order matches the engine: crashes, then send omissions and
        forgeries interleaved per pid, then every wire message, then
        receive omissions.  Deliveries are narrated by the caller.
        """
        round_no = self._round_no
        require(round_no is not None, "finish_round without begin_round")
        bus = self._bus
        plan = self._plan
        crashing_now = frozenset(self._crashing_now)
        if bus.wants_fault:
            for pid in sorted(crashing_now):
                bus.on_fault(
                    FaultEvent(
                        kind=FaultKind.CRASH,
                        time=round_no,
                        pid=pid,
                        targets=plan.crashes.get(pid, frozenset()),
                    )
                )
            for pid in sorted(self._omitted_sends.keys() | self._forged_sends.keys()):
                dropped = self._omitted_sends.get(pid)
                if dropped:
                    bus.on_fault(
                        FaultEvent(
                            kind=FaultKind.SEND_OMISSION,
                            time=round_no,
                            pid=pid,
                            targets=frozenset(dropped),
                        )
                    )
                forged = self._forged_sends.get(pid)
                if forged:
                    bus.on_fault(
                        FaultEvent(
                            kind=FaultKind.FORGERY,
                            time=round_no,
                            pid=pid,
                            targets=frozenset(forged),
                        )
                    )
        if bus.wants_send:
            # Concurrent send phases log in arrival order; the engine's
            # wire order is (sender asc, receiver asc).
            bus.on_sends(
                sorted(self._wire_log, key=lambda m: (m.sender, m.receiver)),
                round_no,
            )
        if bus.wants_fault:
            for pid in sorted(self._omitted_receives):
                bus.on_fault(
                    FaultEvent(
                        kind=FaultKind.RECEIVE_OMISSION,
                        time=round_no,
                        pid=pid,
                        targets=frozenset(self._omitted_receives[pid]),
                    )
                )
        if crashing_now:
            self.crashed |= crashing_now
            self.alive = self.alive - crashing_now
        if (
            crashing_now
            or self._omitted_sends
            or self._omitted_receives
            or self._forged_sends
        ):
            self.faulty_so_far = (
                self.faulty_so_far
                | self.crashed
                | self._omitted_sends.keys()
                | self._omitted_receives.keys()
                | self._forged_sends.keys()
            )
        self._round_no = None
        self._plan = RoundFaultPlan()
        return crashing_now

    # -- event-driven (asynchronous) mode ------------------------------------

    def crash_deadline(self, pid: ProcessId) -> Optional[float]:
        """The virtual time at which ``pid`` crashes, if scheduled."""
        return self._crash_times.get(pid)

    def mark_crashed(self, pid: ProcessId) -> None:
        """Record an event-driven crash (the cluster fires the timer)."""
        self.crashed.add(pid)
        self.alive = self.alive - {pid}
        self.faulty_so_far = self.faulty_so_far | {pid}

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
