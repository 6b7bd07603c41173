"""Observers that rebuild the classic run artifacts from the event stream.

The engines used to assemble :class:`ExecutionHistory` /
:class:`AsyncTrace` inline; now they only narrate events and these
observers do the bookkeeping.  Any other observer on the same bus sees
exactly the information the recorders see — which is the point: the
recorded history is *derived from* the event stream, never privileged.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set

from repro.histories.history import ExecutionHistory, RoundHistory
from repro.kernel.events import FaultEvent, FaultKind, Observer

__all__ = ["AsyncTraceRecorder", "HistoryRecorder", "LiveTraceRecorder", "MonitorRecorder"]

ProcessId = int


class HistoryRecorder(Observer):
    """Rebuilds the synchronous :class:`ExecutionHistory` from events.

    Byte-for-byte compatible with the engine's pre-kernel inline
    bookkeeping (property-tested on the FIG1/FIG3 workloads): records
    appear in pid order, sent tuples in emission order, delivered
    tuples in the engine's (sender, sent_round) order, and deviation
    flags exactly as the fault events report them.

    Every finished round passes through :meth:`_round_finished`, the one
    seam a subclass overrides to score a round as it completes instead
    of keeping it for :meth:`history` (:class:`MonitorRecorder`).
    """

    def __init__(self) -> None:
        self._n: Optional[int] = None
        self._rounds: List[RoundHistory] = []
        self._crashed: Set[ProcessId] = set()
        HistoryRecorder.on_round_start(self, None, {})  # no round open, nothing filed

    def on_run_start(self, n, protocol, first_round=1):
        self._n = n

    def on_round_start(self, round_no, snapshots):
        self._round_no = round_no
        self._snapshots = snapshots
        self._sent = {}
        self._delivered = {}
        self._crashing = set()
        self._omitted_sends = {}
        self._omitted_receives = {}
        self._forged_sends = {}
        self._edges = None

    def on_topology(self, round_no, edges):
        self._edges = tuple(tuple(receivers) for receivers in edges)

    def on_sends(self, messages, time):
        # The engine's wire keeps its broadcasts; any other producer's is
        # messages.  Either way each item is filed under its sender, in order.
        sent = self._sent
        for item in getattr(messages, "broadcasts", messages):
            filed = sent.get(item.sender)
            sent[item.sender] = (item,) if filed is None else (*filed, item)

    def on_deliveries(self, inboxes, time):
        # Likewise its inboxes keep their items; one filed once is kept as it is.
        delivered = self._delivered
        for receiver, inbox in getattr(inboxes, "heard", inboxes).items():
            if receiver in delivered:
                inbox = [*delivered[receiver], *inbox]
            delivered[receiver] = inbox

    # Producers that learn of messages one at a time (the asynchronous
    # scheduler, a live host) feed the same two filing passes.
    def on_send(self, message, time):
        self.on_sends((message,), time)

    def on_deliver(self, message, time):
        self.on_deliveries({message.receiver: (message,)}, time)

    def on_fault(self, fault: FaultEvent):
        if self._round_no is None:
            return  # initial corruption: not part of any round's records
        if fault.kind == FaultKind.CRASH:
            self._crashing.add(fault.pid)
        elif fault.kind == FaultKind.SEND_OMISSION:
            self._omitted_sends[fault.pid] = frozenset(fault.targets)
        elif fault.kind == FaultKind.RECEIVE_OMISSION:
            self._omitted_receives[fault.pid] = frozenset(fault.targets)
        elif fault.kind == FaultKind.FORGERY:
            self._forged_sends[fault.pid] = frozenset(fault.targets)
        # FaultKind.CORRUPTION: systemic failures are visible in the
        # snapshots themselves; histories carry no separate mark (the
        # paper's faulty set counts process failures only).

    def on_round_end(self, round_no):
        self._round_finished(self._finish_round(round_no))

    def _round_finished(self, round_history: RoundHistory) -> None:
        """A round's records are complete: keep them."""
        self._rounds.append(round_history)

    def _finish_round(self, round_no) -> RoundHistory:
        """Assemble this round's records from what was filed."""
        round_history = RoundHistory.filed(
            round_no, self._n or 0, self._snapshots, self._crashed, self._crashing,
            self._sent, self._delivered, self._omitted_sends, self._omitted_receives,
            self._forged_sends, self._edges,
        )
        self._crashed |= self._crashing
        self._round_no = None
        return round_history

    def history(self) -> ExecutionHistory:
        """The reconstructed execution history (≥ 1 round required)."""
        return ExecutionHistory(self._rounds)


class MonitorRecorder(HistoryRecorder):
    """Folds a *monitor* over the rounds a synchronous run files.

    A monitor is pure: ``start(n, first_round)`` is its initial state,
    ``step(state, corrupted, round_history)`` its state after one more
    round — ``corrupted`` when a mid-run corruption that changed some
    memory struck it (initial corruption is stamped ``first_round - 1``)
    — and ``verdict(state)`` what it concludes.  States are hashable, so
    a walk (:mod:`repro.verify.walk`) folds monitors without a bus.
    """

    def __init__(self, monitor) -> None:
        super().__init__()
        self.monitor = monitor
        self.state: Any = None
        self._first_round = 1
        self._corrupted = False

    def on_run_start(self, n, protocol, first_round=1):
        super().on_run_start(n, protocol, first_round)
        self._first_round = first_round
        self.state = self.monitor.start(n, first_round)

    def on_fault(self, fault: FaultEvent):
        super().on_fault(fault)
        if fault.kind == FaultKind.CORRUPTION and fault.time >= self._first_round:
            self._corrupted = True

    def _round_finished(self, round_history: RoundHistory) -> None:
        self.state = self.monitor.step(self.state, self._corrupted, round_history)
        self._corrupted = False

    def verdict(self):
        """The monitor's verdict on the rounds folded so far."""
        return self.monitor.verdict(self.state)


class AsyncTraceRecorder(Observer):
    """Rebuilds the asynchronous :class:`AsyncTrace` from events.

    All but its two traffic counts: the simulator's event loop tallies
    its own sends and deliveries and passes them to :meth:`trace`, so a
    run nobody else watches narrates no message at all.  Where the
    counts can only come from events, use :class:`LiveTraceRecorder`.
    """

    def __init__(self) -> None:
        self._n = 0
        self._samples: List[tuple] = []
        self._crashed: Set[ProcessId] = set()
        self._final_states: Dict[ProcessId, Optional[Dict[str, Any]]] = {}
        self._duration = 0.0

    def on_run_start(self, n, protocol, first_round=1):
        self._n = n

    def on_fault(self, fault: FaultEvent):
        if fault.kind == FaultKind.CRASH:
            self._crashed.add(fault.pid)

    def on_sample(self, time, outputs):
        self._samples.append((time, outputs))

    def on_run_end(self, time, final_states):
        self._duration = time
        self._final_states = {
            pid: None if state is None else dict(state)
            for pid, state in final_states.items()
        }

    def trace(self, messages_sent: int, deliveries: int):
        """The reconstructed :class:`~repro.asyncnet.scheduler.AsyncTrace`."""
        from repro.asyncnet.scheduler import AsyncTrace

        return AsyncTrace(
            n=self._n,
            duration=self._duration,
            samples=self._samples,
            final_states=self._final_states,
            crashed=frozenset(self._crashed),
            messages_sent=messages_sent,
            deliveries=deliveries,
        )


class LiveTraceRecorder(AsyncTraceRecorder):
    """An :class:`AsyncTraceRecorder` that counts traffic from events.

    The live cluster has no single loop to tally in: every host narrates
    its own sends and deliveries to the shared bus, and this recorder
    counts them there.
    """

    def __init__(self) -> None:
        super().__init__()
        self._messages_sent = 0
        self._deliveries = 0

    def on_send(self, message, time):
        self._messages_sent += 1

    def on_deliver(self, message, time):
        self._deliveries += 1

    def trace(self):
        return super().trace(self._messages_sent, self._deliveries)
