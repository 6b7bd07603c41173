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
2. *start of round* — every alive process broadcasts one payload, and
   that one :class:`~repro.histories.history.Broadcast` is what travels;
3. *delivery* — the round's :class:`~repro.kernel.delivery.RoundLedger`
   (the one definition of the paper's crash / send-omission /
   receive-omission semantics, self-delivery never dropped) decides
   which copies reach the wire, which of them lie and which arrivals
   are accepted, all within the round (constant delivery time);
4. *end of round* — every alive, non-crashing process applies the
   protocol's transition function to its delivered messages.

All of the paper's predicates are later evaluated on the recorded
history alone.

Steps 2–4 are one function, :func:`step_round`, over an explicit
configuration — the states (``None`` for the crashed), the
:class:`~repro.kernel.delivery.Liveness` and the round number — and the
round's fault plan.  :func:`run_sync` is set-up plus a loop that applies
step 1, asks the adversary for the plan and calls it; the proof plane's
walk (:mod:`repro.verify.walk`) calls the same function for every
transition it has not stepped before.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from operator import attrgetter
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Container,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.histories.history import CLOCK_KEY, Broadcast, ExecutionHistory, Message
from repro.kernel.corruptions import apply_corruption
from repro.kernel.delivery import Liveness, RoundLedger, quiet
from repro.kernel.events import EventBus, Inboxes, Observer, Wire
from repro.kernel.recorders import HistoryRecorder

if TYPE_CHECKING:  # runtime import would close the kernel↔sync cycle
    from repro.kernel.faults import FaultPlan
from repro.kernel.snapshot import copy_payload, snapshot_states
from repro.kernel.topology import Topology, normalize_topology, round_edges
from repro.sync.adversary import Adversary, NullAdversary, RoundFaultPlan
from repro.sync.corruption import CorruptionPlan
from repro.sync.delays import DelayModel, NoDelay
from repro.sync.protocol import SyncProtocol
from repro.util.validation import require, require_positive, require_process_count

__all__ = [
    "ProtocolError",
    "SyncRunResult",
    "run_sync",
    "start_states",
    "step_round",
    "update_phase",
]

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
    in_flight: Dict[int, Arrivals] = {}

    topo = normalize_topology(
        n, topology, fault_plan.churn if fault_plan is not None else None
    )

    recorder = HistoryRecorder() if record_history else None
    bus = EventBus(((recorder, *observers) if recorder else tuple(observers)))
    bus.on_run_start(n, protocol, first_round)

    states = start_states(protocol, n, initial_states)
    if corruption is not None:
        states = _corrupt_states(
            bus, corruption, protocol, states, n, time=first_round - 1
        )

    live = Liveness(n)
    stopped_early = False
    last_round = first_round

    for round_no in range(first_round, first_round + rounds):
        last_round = round_no
        if round_no in mid_run:
            states = _corrupt_states(
                bus, mid_run[round_no], protocol, states, n, time=round_no
            )

        plan = adversary.plan_round(round_no, live.alive_view, live.faulty)
        adversary.validate(plan, live.faulty)
        edges = None if topo is None else round_edges(topo, round_no)
        step_round(
            protocol, n, bus, round_no, states, live, plan, edges, delay_model, in_flight
        )

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
        faulty=history.faulty() if history is not None else live.faulty,
        stopped_early=stopped_early,
        executed_rounds=last_round - first_round + 1,
    )


def start_states(
    protocol: SyncProtocol,
    n: int,
    initial_states: Optional[Mapping[ProcessId, Dict[str, Any]]] = None,
) -> Dict[ProcessId, Optional[Dict[str, Any]]]:
    """The states a run starts from: the protocol's specified initial
    state, overridden per pid by ``initial_states``; each must hold the
    round variable."""
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
    return states


#: The delay model of perfect synchrony, for callers that bring none.
_NO_DELAY = NoDelay()


def step_round(
    protocol: SyncProtocol,
    n: int,
    bus: EventBus,
    round_no: int,
    states: Dict[ProcessId, Optional[Dict[str, Any]]],
    live: Liveness,
    plan: RoundFaultPlan,
    edges: Optional[Sequence[Sequence[ProcessId]]] = None,
    delay_model: DelayModel = _NO_DELAY,
    in_flight: Optional[Dict[int, Arrivals]] = None,
) -> None:
    """One round (steps 2–4 above) from the configuration ``(states,
    live, round_no)`` under ``plan``, narrated to ``bus``.

    ``states`` and ``live`` are advanced in place to the next
    configuration.  ``edges`` is the round's topology (``None`` on the
    complete graph); copies that a delay model holds back wait in
    ``in_flight`` (round due -> arrivals), which the caller keeps across
    rounds — under the default perfect synchrony nothing ever waits.
    """
    if bus.wants_round_start:
        bus.on_round_start(round_no, snapshot_states(states))
    if edges is not None and bus.wants_topology:
        bus.on_topology(round_no, edges)

    # A quiet round (empty plan, nobody dead) keeps no ledger at all.
    idle = not live.crashed and quiet(plan)
    ledger = None if idle else RoundLedger(plan, n, live, round_no, edges)
    wants_fault = bus.wants_fault and ledger is not None

    wire = _send_phase(protocol, n, round_no, states, live.alive_order, ledger, edges)
    if wants_fault:
        ledger.narrate_sends(bus)
    if bus.wants_send:
        bus.on_sends(Wire(wire), round_no)

    immediate = _route_delays(wire, round_no, delay_model, in_flight)
    pending = in_flight.pop(round_no, None) if in_flight else None
    arriving = immediate + pending if pending else immediate
    delivered = _delivery_phase(arriving, ledger, presorted=not pending)
    if wants_fault:
        ledger.narrate_receives(bus)
    if bus.wants_deliver:
        bus.on_deliveries(Inboxes(delivered), round_no)

    if ledger is None:
        update_phase(protocol, n, bus, round_no, states, delivered)
    else:
        update_phase(
            protocol, n, bus, round_no, states, delivered,
            live.crashed, ledger.crashing_now,
        )
        live.fold(ledger)

    if bus.wants_round_end:
        bus.on_round_end(round_no)


#: Deliveries are presented to the protocol sorted by (sender, round sent).
_DELIVERY_ORDER = attrgetter("sender", "sent_round")

#: Copies on their way: which inbox item reaches which (ascending) receivers.
Arrivals = List[Tuple[Any, Sequence[ProcessId]]]


def _send_phase(
    protocol: SyncProtocol,
    n: int,
    round_no: int,
    states: Dict[ProcessId, Optional[Dict[str, Any]]],
    alive_order: List[ProcessId],
    ledger: Optional[RoundLedger],
    edges=None,
) -> List[Broadcast]:
    """The broadcasts actually placed on the wire this round, senders
    ascending — with each one's receivers ascending, the narration order.

    ``edges`` (``None`` on the complete graph) restricts every broadcast
    to the sender's current out-edges; only the senders the ledger names
    as deviating ask it who gets which copy.
    """
    wire: List[Broadcast] = []
    everyone = range(n)
    deviants = () if ledger is None else ledger.deviants
    for pid in alive_order:
        payload = protocol.send(pid, states[pid])
        if payload is None:
            continue
        payload = copy_payload(payload)
        if pid not in deviants:
            receivers = everyone if edges is None else edges[pid]
            wire.append(Broadcast(pid, round_no, payload, receivers))
            continue
        receivers, forged = ledger.broadcast(pid, payload)
        lies = {r: Message(pid, r, round_no, lie) for r, lie in forged.items()}
        wire.append(Broadcast(pid, round_no, payload, receivers, lies))
    return wire


def _route_delays(
    wire: List[Broadcast], round_no: int, delay_model: DelayModel, in_flight: Dict[int, Arrivals]
) -> Arrivals:
    """Split fresh sends into immediate arrivals and future deliveries."""
    immediate: Arrivals = []
    whole = type(delay_model) is NoDelay  # perfect synchrony: broadcasts arrive whole
    max_extra = delay_model.max_extra_rounds
    for broadcast in wire:
        forged = broadcast.forged
        if whole and not forged:
            immediate.append((broadcast, broadcast.receivers))
            continue
        for receiver in broadcast.receivers:  # copy by copy
            extra = delay_model.extra_rounds(round_no, broadcast.sender, receiver)
            if not 0 <= extra <= max_extra:
                raise ProtocolError(
                    f"delay model returned {extra} extra rounds, outside "
                    f"[0, {max_extra}]"
                )
            due = immediate if extra == 0 else in_flight.setdefault(round_no + extra, [])
            due.append((forged.get(receiver, broadcast), (receiver,)))
    return immediate


def _delivery_phase(
    arriving: Arrivals, ledger: Optional[RoundLedger], presorted: bool
) -> Mapping[ProcessId, Sequence[Any]]:
    """File the copies that survive the ledger's receive-side filtering.

    ``delivered`` is sparse: only receivers with at least one delivery
    appear as keys.  Inboxes are immutable, and arrivals all heard by the
    same receivers are one inbox they share.  When ``presorted`` is true
    the arrivals are already in wire order (sender asc, one round), so
    the per-receiver delivery sort is skipped.
    """
    if ledger is not None and ledger.filters_arrivals:
        hearers = ledger.hearers
        arriving = [(item, hearers(item.sender, to)) for item, to in arriving]
    if presorted and arriving:
        audience = arriving[0][1]
        if all(to is audience for _, to in arriving):
            return dict.fromkeys(audience, tuple([item for item, _ in arriving]))
    delivered: Dict[ProcessId, List[Any]] = defaultdict(list)
    for item, to in arriving:
        for receiver in to:
            delivered[receiver].append(item)
    if not presorted:
        for inbox in delivered.values():
            inbox.sort(key=_DELIVERY_ORDER)
    return {receiver: tuple(inbox) for receiver, inbox in delivered.items()}


def update_phase(
    protocol: SyncProtocol,
    n: int,
    bus: EventBus,
    round_no: int,
    states: Dict[ProcessId, Optional[Dict[str, Any]]],
    delivered: Mapping[ProcessId, Sequence[Any]],
    crashed: Container[ProcessId] = (),
    crashing_now: Container[ProcessId] = (),
) -> None:
    """Apply transitions and narrate the committed states.

    ``crashed`` may or may not already include ``crashing_now`` (the
    simulated loop folds after this phase, the live one before it).
    """
    wants_state_commit = bus.wants_state_commit
    for pid in range(n):
        if pid in crashing_now:
            states[pid] = None
            if wants_state_commit:
                bus.on_state_commit(pid, round_no, None)
            continue
        if pid in crashed:
            continue
        new_state = protocol.update(pid, states[pid], delivered.get(pid, ()))
        if not isinstance(new_state, dict) or CLOCK_KEY not in new_state:
            raise ProtocolError(
                f"{protocol.name}: update() for process {pid} must return a "
                f"dict containing the round variable ({CLOCK_KEY!r})"
            )
        states[pid] = new_state
        if wants_state_commit:
            bus.on_state_commit(pid, round_no, new_state)
