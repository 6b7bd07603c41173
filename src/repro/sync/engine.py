"""The lockstep round engine.

Executes a :class:`~repro.sync.protocol.SyncProtocol` on ``n`` processes
for a given number of rounds under a process-failure adversary and a
systemic-failure (corruption) plan.  The engine is built on the
simulation kernel (:mod:`repro.kernel`): faults may be supplied either
through the classic ``adversary``/``corruption`` arguments or as one
unified :class:`~repro.kernel.faults.FaultPlan`, and everything that
happens — states at round start, messages actually sent and delivered,
crashes, omissions, corruption — is narrated to an observer bus.  The
full :class:`~repro.histories.history.ExecutionHistory` is rebuilt from
that event stream by a :class:`~repro.kernel.recorders.HistoryRecorder`
(the engine does no inline history bookkeeping), and callers may attach
further observers (streaming metrics, custom probes) via ``observers``.

Round structure (paper, Section 2):

1. *(systemic failures)* any corruption scheduled for this round is
   applied to the surviving processes' memories;
2. *start of round* — every alive process broadcasts one payload;
   the adversary may crash a process mid-broadcast (its final message
   reaches only a chosen subset) or drop individual copies
   (send omission);
3. *delivery* — every copy that survived send-side filtering is
   delivered within the round (constant delivery time), except copies
   dropped by receive omission at a faulty receiver.  Self-delivery is
   never dropped (paper footnote: every process, correct or faulty,
   correctly receives its own broadcast);
4. *end of round* — every alive, non-crashing process applies the
   protocol's transition function to its delivered messages.

All of the paper's predicates are later evaluated on the recorded
history alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
)

from repro.histories.history import (
    CLOCK_KEY,
    ExecutionHistory,
    Message,
)
from repro.kernel.corruptions import apply_corruption
from repro.kernel.events import EventBus, FaultEvent, FaultKind, Observer
from repro.kernel.recorders import HistoryRecorder

if TYPE_CHECKING:  # runtime import would close the kernel↔sync cycle
    from repro.kernel.faults import FaultPlan
from repro.kernel.snapshot import copy_payload, snapshot_states
from repro.kernel.topology import (
    CompleteTopology,
    DynamicTopology,
    Topology,
    round_edges,
)
from repro.sync.adversary import Adversary, NullAdversary, RoundFaultPlan
from repro.sync.corruption import CorruptionPlan
from repro.sync.delays import DelayModel, NoDelay
from repro.sync.protocol import SyncProtocol
from repro.util.validation import require, require_positive, require_process_count

__all__ = ["SyncRunResult", "run_sync", "ProtocolError"]

ProcessId = int

#: Signature of an early-stop predicate: (states-after-round, round_no) -> bool.
StopCondition = Callable[[Dict[ProcessId, Optional[Dict[str, Any]]], int], bool]


class ProtocolError(RuntimeError):
    """A protocol implementation violated the engine's contract."""


@dataclass
class SyncRunResult:
    """Everything produced by one synchronous run.

    ``history`` is ``None`` when the run was executed with
    ``record_history=False`` (streaming-only consumers — e.g. the
    exploration engine's fast filter — observe the event bus instead).
    """

    protocol: SyncProtocol
    n: int
    history: Optional[ExecutionHistory]
    final_states: Dict[ProcessId, Optional[Dict[str, Any]]]
    faulty: frozenset
    stopped_early: bool = False
    executed_rounds: int = 0

    @property
    def rounds_executed(self) -> int:
        return self.executed_rounds if self.history is None else len(self.history)

    def final_clocks(self) -> Dict[ProcessId, Optional[int]]:
        """Round variables after the last executed round (None = crashed)."""
        return {
            pid: None if state is None else state[CLOCK_KEY]
            for pid, state in self.final_states.items()
        }


#: Corruption application + narration (shared across substrates).
_corrupt_states = apply_corruption


def run_sync(
    protocol: SyncProtocol,
    n: int,
    rounds: int,
    adversary: Optional[Adversary] = None,
    corruption: Optional[CorruptionPlan] = None,
    mid_run_corruptions: Optional[Mapping[int, CorruptionPlan]] = None,
    initial_states: Optional[Mapping[ProcessId, Dict[str, Any]]] = None,
    stop_condition: Optional[StopCondition] = None,
    first_round: int = 1,
    delay_model: Optional[DelayModel] = None,
    fault_plan: "Optional[FaultPlan]" = None,
    observers: Sequence[Observer] = (),
    record_history: bool = True,
    topology: Optional[Topology] = None,
) -> SyncRunResult:
    """Execute ``protocol`` on ``n`` processes for up to ``rounds`` rounds.

    Parameters
    ----------
    protocol:
        The round protocol to run.
    n:
        System size; processes are ``0 .. n-1``.
    rounds:
        Number of rounds to execute (actual rounds, observer-counted).
    adversary:
        Process-failure injector; defaults to :class:`NullAdversary`.
    corruption:
        Systemic failure applied to the *initial* states (after
        ``initial_states``, if both are given).
    mid_run_corruptions:
        ``round_no -> plan``: corruption applied at the start of that
        actual round, modelling systemic failures during execution.
    initial_states:
        Explicit initial states for some/all processes (overrides the
        protocol's specified initial state; a systemic failure by
        itself).
    stop_condition:
        Optional early-exit predicate evaluated after each round on the
        post-round states.
    first_round:
        Actual round number of the first executed round (default 1).
    delay_model:
        Delivery-delay model for the "synchronous but not perfectly
        synchronized" mode: each message may take a bounded number of
        extra rounds to arrive (default: none — the paper's perfect
        synchrony).  Messages still in flight when the run ends are
        dropped (a truncation artifact of finite histories).
    fault_plan:
        A unified :class:`~repro.kernel.faults.FaultPlan`, the kernel's
        substrate-independent fault description.  Mutually exclusive
        with ``adversary``/``corruption``/``mid_run_corruptions``.
    observers:
        Extra :class:`~repro.kernel.events.Observer` instances attached
        to the run's event bus alongside the history recorder.
    record_history:
        When ``False`` no :class:`HistoryRecorder` is attached and the
        result's ``history`` is ``None`` — the run costs O(1) memory in
        rounds and callers analyze it through streaming observers.  The
        faulty set is then the engine's own per-round deviator
        accumulation (identical to ``history.faulty()``).
    topology:
        Communication :class:`~repro.kernel.topology.Topology` — a
        broadcast reaches exactly the sender's current out-edges
        (always including the sender itself).  Defaults to the
        complete graph, which the engine normalizes away entirely:
        complete-graph runs follow the exact pre-topology code paths,
        record ``edges=None`` in histories, and never fire
        ``on_topology``.  When the fault plan carries a churn schedule
        the topology is wrapped in a
        :class:`~repro.kernel.topology.DynamicTopology`.

    Returns
    -------
    SyncRunResult
        History, final states, and the faulty set derived from the
        recorded deviations.
    """
    require_process_count(n)
    require_positive(rounds, "rounds")
    if fault_plan is not None:
        require(
            adversary is None and corruption is None and mid_run_corruptions is None,
            "pass either fault_plan or adversary/corruption/"
            "mid_run_corruptions, not both",
        )
        view = fault_plan.to_sync()
        adversary = view.adversary
        corruption = view.corruption
        mid_run_corruptions = view.mid_run_corruptions
    adversary = adversary or NullAdversary()
    delay_model = delay_model or NoDelay()
    mid_run = dict(mid_run_corruptions or {})
    in_flight: Dict[int, List[Message]] = {}

    # Normalize the topology: churn wraps whatever base was given; a
    # plain complete graph is erased so the default runs stay on the
    # exact pre-topology code paths (byte-identical histories).
    topo: Optional[Topology] = topology
    if fault_plan is not None and fault_plan.churn:
        topo = DynamicTopology(topo or CompleteTopology(n), fault_plan.churn)
    elif topo is not None and topo.complete:
        topo = None
    if topo is not None:
        require(topo.n == n, f"topology is sized for n={topo.n}, run has n={n}")

    recorder = HistoryRecorder() if record_history else None
    bus = EventBus(((recorder, *observers) if recorder else tuple(observers)))
    bus.on_run_start(n, protocol, first_round)

    states: Dict[ProcessId, Optional[Dict[str, Any]]] = {}
    for pid in range(n):
        state = protocol.initial_state(pid, n)
        if initial_states and pid in initial_states:
            state = dict(initial_states[pid])
        if CLOCK_KEY not in state:
            raise ProtocolError(
                f"{protocol.name}: initial state of process {pid} lacks "
                f"the round variable ({CLOCK_KEY!r})"
            )
        states[pid] = state
    if corruption is not None:
        states = _corrupt_states(
            bus, corruption, protocol, states, n, time=first_round - 1
        )

    crashed: set = set()
    # Liveness has a single source of truth: ``alive_order`` (ascending
    # pids, crashed ones removed).  The set view handed to the adversary
    # is *derived* from it, never maintained in parallel.
    alive_order: List[ProcessId] = list(range(n))
    alive_view: frozenset = frozenset(alive_order)
    faulty_so_far: frozenset = frozenset()
    stopped_early = False
    last_round = first_round

    wants_round_start = bus.wants_round_start
    wants_topology = bus.wants_topology
    wants_send = bus.wants_send
    wants_deliver = bus.wants_deliver
    wants_fault = bus.wants_fault
    wants_round_end = bus.wants_round_end

    for round_no in range(first_round, first_round + rounds):
        last_round = round_no
        if round_no in mid_run:
            states = _corrupt_states(
                bus, mid_run[round_no], protocol, states, n, time=round_no
            )

        plan = adversary.plan_round(round_no, alive_view, faulty_so_far)
        adversary.validate(plan, faulty_so_far)

        if wants_round_start:
            bus.on_round_start(round_no, snapshot_states(states))

        edges = None
        if topo is not None:
            edges = round_edges(topo, round_no)
            if wants_topology:
                bus.on_topology(round_no, edges)

        wire, omitted_sends, forged_sends, crashing_now = _send_phase(
            protocol, n, round_no, states, alive_order, plan, edges
        )
        if wants_fault:
            for pid in sorted(crashing_now):
                bus.on_fault(
                    FaultEvent(
                        kind=FaultKind.CRASH,
                        time=round_no,
                        pid=pid,
                        targets=plan.crashes.get(pid, frozenset()),
                    )
                )
            for pid in sorted(omitted_sends.keys() | forged_sends.keys()):
                dropped = omitted_sends.get(pid)
                if dropped:
                    bus.on_fault(
                        FaultEvent(
                            kind=FaultKind.SEND_OMISSION,
                            time=round_no,
                            pid=pid,
                            targets=frozenset(dropped),
                        )
                    )
                forged = forged_sends.get(pid)
                if forged:
                    bus.on_fault(
                        FaultEvent(
                            kind=FaultKind.FORGERY,
                            time=round_no,
                            pid=pid,
                            targets=frozenset(forged),
                        )
                    )
        if wants_send:
            bus.on_sends(wire, round_no)

        immediate = _route_delays(wire, round_no, delay_model, in_flight)
        pending = in_flight.pop(round_no, None)
        if pending:
            arriving = immediate + pending
            presorted = False
        else:
            arriving = immediate
            presorted = True
        delivered, omitted_receives = _delivery_phase(
            arriving, crashed, crashing_now, plan, presorted
        )
        if wants_fault:
            for pid in sorted(omitted_receives):
                bus.on_fault(
                    FaultEvent(
                        kind=FaultKind.RECEIVE_OMISSION,
                        time=round_no,
                        pid=pid,
                        targets=frozenset(omitted_receives[pid]),
                    )
                )
        if wants_deliver:
            bus.on_deliveries(delivered, round_no)

        _update_phase(
            protocol, n, bus, round_no, states, delivered, crashed, crashing_now
        )

        if crashing_now:
            crashed |= crashing_now
            alive_order = [pid for pid in alive_order if pid not in crashing_now]
            alive_view = frozenset(alive_order)
        if crashing_now or omitted_sends or omitted_receives or forged_sends:
            faulty_so_far = (
                faulty_so_far
                | crashed
                | omitted_sends.keys()
                | omitted_receives.keys()
                | forged_sends.keys()
            )

        if wants_round_end:
            bus.on_round_end(round_no)

        if stop_condition is not None and stop_condition(states, round_no):
            stopped_early = True
            break

    final_states = {pid: states[pid] for pid in range(n)}
    bus.on_run_end(last_round, final_states)
    history = recorder.history() if recorder else None
    return SyncRunResult(
        protocol=protocol,
        n=n,
        history=history,
        final_states=final_states,
        faulty=history.faulty() if history is not None else faulty_so_far,
        stopped_early=stopped_early,
        executed_rounds=last_round - first_round + 1,
    )


#: Deliveries are presented to the protocol sorted by (sender, round sent).
_DELIVERY_ORDER = attrgetter("sender", "sent_round")


def _send_phase(
    protocol: SyncProtocol,
    n: int,
    round_no: int,
    states: Dict[ProcessId, Optional[Dict[str, Any]]],
    alive_order: List[ProcessId],
    plan: RoundFaultPlan,
    edges=None,
):
    """Compute the messages actually placed on the wire this round.

    Returns the wire as one flat list in (sender asc, receiver asc)
    order — the narration order — plus sparse per-pid omission/forgery
    target sets (only faulty pids appear as keys) and the set of
    processes crashing mid-broadcast.  Fault-free rounds take a fast
    path with none of the omission/forgery bookkeeping.

    ``edges`` (``None`` on the complete graph) restricts every
    broadcast to the sender's current out-edges; faults are per-edge,
    so crash survivor sets and omission targets are intersected with
    the live neighborhood — an omission aimed at a non-neighbor drops
    nothing and is not recorded.
    """
    wire: List[Message] = []
    crashing_now: set = set()

    if not (plan.crashes or plan.send_omissions or plan.forgeries):
        receivers = range(n)
        for pid in alive_order:
            payload = protocol.send(pid, states[pid])
            if payload is None:
                continue
            payload = copy_payload(payload)
            wire += [
                Message(pid, receiver, round_no, payload)
                for receiver in (receivers if edges is None else edges[pid])
            ]
        return wire, {}, {}, crashing_now

    omitted_sends: Dict[ProcessId, set] = {}
    forged_sends: Dict[ProcessId, set] = {}
    for pid in alive_order:
        payload = protocol.send(pid, states[pid])
        crash_survivors = plan.crashes.get(pid)
        if crash_survivors is not None:
            crashing_now.add(pid)
        if payload is None:
            continue
        payload = copy_payload(payload)
        if crash_survivors is not None:
            if edges is None:
                receivers = sorted(crash_survivors)
            else:
                receivers = [r for r in edges[pid] if r in crash_survivors]
        else:
            dropped = set(plan.send_omissions.get(pid, frozenset()))
            dropped.discard(pid)  # self-delivery is sacred
            if edges is not None:
                dropped.intersection_update(edges[pid])
            if dropped:
                omitted_sends[pid] = dropped
                receivers = [
                    r
                    for r in (range(n) if edges is None else edges[pid])
                    if r not in dropped
                ]
            else:
                receivers = range(n) if edges is None else edges[pid]
        lies = plan.forgeries.get(pid)
        if lies:
            forged = forged_sends.setdefault(pid, set())
            for receiver in receivers:
                message_payload = payload
                if receiver in lies and receiver != pid:  # own broadcast stays true
                    # One defensive copy suffices: the mutator gets its own
                    # copy to work on, and its result goes straight onto
                    # the wire without ever escaping elsewhere.
                    message_payload = lies[receiver](copy_payload(payload))
                    forged.add(receiver)
                wire.append(Message(pid, receiver, round_no, message_payload))
            if not forged:
                del forged_sends[pid]
        else:
            wire += [
                Message(pid, receiver, round_no, payload) for receiver in receivers
            ]
    return wire, omitted_sends, forged_sends, crashing_now


def _route_delays(
    wire: List[Message],
    round_no: int,
    delay_model: DelayModel,
    in_flight: Dict[int, List[Message]],
) -> List[Message]:
    """Split fresh sends into immediate arrivals and future deliveries."""
    if type(delay_model) is NoDelay:
        return wire  # perfect synchrony: everything arrives this round
    immediate: List[Message] = []
    max_extra = delay_model.max_extra_rounds
    extra_rounds = delay_model.extra_rounds
    for message in wire:
        extra = extra_rounds(round_no, message.sender, message.receiver)
        if not 0 <= extra <= max_extra:
            raise ProtocolError(
                f"delay model returned {extra} extra rounds, outside "
                f"[0, {max_extra}]"
            )
        if extra == 0:
            immediate.append(message)
        else:
            in_flight.setdefault(round_no + extra, []).append(message)
    return immediate


def _delivery_phase(
    arriving: List[Message],
    crashed: set,
    crashing_now: set,
    plan: RoundFaultPlan,
    presorted: bool,
):
    """Deliver surviving copies, applying receive omissions.

    ``delivered``/``omitted_receives`` are sparse: only receivers with at
    least one delivery (resp. dropped copy) appear as keys.  When
    ``presorted`` is true the arrivals are already in wire order (sender
    asc within each receiver, one round), so the per-receiver delivery
    sort is skipped.
    """
    delivered: Dict[ProcessId, List[Message]] = {}
    omitted_receives: Dict[ProcessId, set] = {}
    receive_omissions = plan.receive_omissions
    dead = (crashed | crashing_now) if (crashed or crashing_now) else None

    if dead is None and not receive_omissions:
        for message in arriving:
            receiver = message.receiver
            inbox = delivered.get(receiver)
            if inbox is None:
                delivered[receiver] = [message]
            else:
                inbox.append(message)
    else:
        if dead is None:
            dead = frozenset()
        for message in arriving:
            receiver, sender = message.receiver, message.sender
            if receiver in dead:
                continue  # a crashed process receives nothing
            drops = receive_omissions.get(receiver)
            if drops and sender in drops and sender != receiver:
                omitted_receives.setdefault(receiver, set()).add(sender)
                continue
            inbox = delivered.get(receiver)
            if inbox is None:
                delivered[receiver] = [message]
            else:
                inbox.append(message)

    if not presorted:
        for inbox in delivered.values():
            inbox.sort(key=_DELIVERY_ORDER)
    return delivered, omitted_receives


def _update_phase(
    protocol: SyncProtocol,
    n: int,
    bus: EventBus,
    round_no: int,
    states: Dict[ProcessId, Optional[Dict[str, Any]]],
    delivered: Dict[ProcessId, List[Message]],
    crashed: set,
    crashing_now: set,
) -> None:
    """Apply transitions and narrate the committed states."""
    wants_state_commit = bus.wants_state_commit
    for pid in range(n):
        if pid in crashed:
            continue
        if pid in crashing_now:
            states[pid] = None
            if wants_state_commit:
                bus.on_state_commit(pid, round_no, None)
            continue
        inbox = delivered.get(pid)
        if inbox is None:
            inbox = []
        new_state = protocol.update(pid, states[pid], inbox)
        if not isinstance(new_state, dict) or CLOCK_KEY not in new_state:
            raise ProtocolError(
                f"{protocol.name}: update() for process {pid} must return a "
                f"dict containing the round variable ({CLOCK_KEY!r})"
            )
        states[pid] = new_state
        if wants_state_commit:
            bus.on_state_commit(pid, round_no, new_state)
