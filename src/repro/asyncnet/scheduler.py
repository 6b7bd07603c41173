"""Discrete-event scheduler for asynchronous protocols.

Processes are reactive state machines: the scheduler calls
:meth:`AsyncProtocol.on_tick` at each local step and
:meth:`AsyncProtocol.on_message` at each delivery, passing a
:class:`ProcessContext` through which the handler reads/writes its
state, sends messages, and queries the Eventually-Weak failure-detector
oracle.  Unlike the synchronous engine's pure-functional transitions,
handlers mutate ``ctx.state`` in place — the conventional event-driven
idiom.

Like the synchronous engine, the scheduler is built on the simulation
kernel (:mod:`repro.kernel`): faults may be supplied through the
classic ``crash_times``/``corruption``/``gst`` knobs or as one unified
:class:`~repro.kernel.faults.FaultPlan`, and the run is narrated to an
observer bus (sends, deliveries, crashes, corruption, state commits,
samples).  The :class:`AsyncTrace` is rebuilt from that event stream by
an :class:`~repro.kernel.recorders.AsyncTraceRecorder` — all but its two
traffic counts, which the event loop tallies itself, so that a send or
a delivery is narrated (an :class:`AsyncMessage` built, a bus call made)
only when one of the caller's ``observers`` subscribes to it.

Asynchrony knobs:

- per-process speed factors and per-tick jitter (unbounded *relative*
  speeds across processes);
- per-message random delays, drawn from a wider distribution before
  the *global stabilization time* (GST) and a bounded one after it;
- crash schedule: a crashed process takes no further steps and
  receives nothing.

Determinism: everything random is derived from one seed, so runs are
exactly reproducible.
"""

from __future__ import annotations

import heapq
import itertools
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.kernel.corruptions import apply_corruption
from repro.kernel.events import AsyncMessage, EventBus, FaultEvent, FaultKind, Observer
from repro.kernel.faults import FaultPlan
from repro.kernel.recorders import AsyncTraceRecorder
from repro.kernel.snapshot import UNPROVEN, copy_payload, prove_payload
from repro.kernel.topology import normalize_topology
from repro.util.rng import make_rng
from repro.util.validation import require, require_process_count

__all__ = ["AsyncProtocol", "AsyncScheduler", "AsyncTrace", "ProcessContext"]

ProcessId = int


class AsyncProtocol(ABC):
    """An asynchronous, message-driven protocol."""

    name: str = "async-protocol"

    @abstractmethod
    def initial_state(self, pid: int, n: int) -> Dict[str, Any]:
        """The specified ("good") initial state."""

    @abstractmethod
    def on_tick(self, ctx: "ProcessContext") -> None:
        """One local step: guarded actions, periodic re-sends, timeouts."""

    @abstractmethod
    def on_message(self, ctx: "ProcessContext", sender: int, payload: Any) -> None:
        """Handle one delivered message."""

    def output(self, state: Mapping[str, Any]) -> Any:
        """The externally observable output sampled by the scheduler.

        E.g. a failure detector returns its suspect set; a consensus
        protocol returns its decision log.  Must be cheap and built
        from immutable pieces (it is stored in the trace).
        """
        return None

    def arbitrary_state(self, pid: int, n: int, rng) -> Dict[str, Any]:
        """An arbitrary state in the protocol's state space (corruption)."""
        return self.initial_state(pid, n)


class ProcessContext:
    """The face a protocol handler sees: its state, clock, and network."""

    __slots__ = ("_scheduler", "pid", "n", "state")

    def __init__(self, scheduler: "AsyncScheduler", pid: int):
        self._scheduler = scheduler
        self.pid = pid
        self.n = scheduler.n
        #: ``scheduler.states[pid]``: mutated in place by handlers, rebound
        #: by the scheduler when a crash or a corruption replaces it.
        self.state: Optional[Dict[str, Any]] = scheduler.states[pid]

    @property
    def time(self) -> float:
        """Current virtual time (read-only; handlers cannot set timers
        beyond their regular tick cadence)."""
        return self._scheduler.now

    def send(self, dest: int, payload: Any) -> None:
        """Send one message; it will arrive after an arbitrary delay."""
        if not 0 <= dest < self.n:
            raise ValueError(
                f"process {self.pid} sent to process {dest!r}, but n = {self.n}"
            )
        self._scheduler._fan_out(self.pid, (dest,), payload)

    def broadcast(self, payload: Any) -> None:
        """Send along my current out-edges (every process, including
        self, on the default complete topology)."""
        scheduler = self._scheduler
        scheduler._fan_out(self.pid, scheduler._broadcast_targets(self.pid), payload)

    def weak_suspects(self) -> FrozenSet[int]:
        """Query the Eventually-Weak failure-detector oracle (◇W).

        Returns the set of processes the oracle currently tells *this*
        process to suspect.  Empty when no oracle is configured.
        """
        oracle = self._scheduler.oracle
        if oracle is None:
            return frozenset()
        return oracle.suspects(self.pid, self._scheduler.now)


@dataclass
class AsyncTrace:
    """Everything recorded from one asynchronous run."""

    n: int
    duration: float
    #: (time, {pid: output}) at the sampling cadence; crashed pids absent.
    samples: List[Tuple[float, Dict[int, Any]]] = field(default_factory=list)
    final_states: Dict[int, Optional[Dict[str, Any]]] = field(default_factory=dict)
    crashed: FrozenSet[int] = frozenset()
    messages_sent: int = 0
    deliveries: int = 0

    @property
    def correct(self) -> FrozenSet[int]:
        return frozenset(range(self.n)) - self.crashed

    def outputs_over_time(self, pid: int) -> List[Tuple[float, Any]]:
        """The sampled output series of one process."""
        series = []
        for time, outputs in self.samples:
            if pid in outputs:
                series.append((time, outputs[pid]))
        return series


class AsyncScheduler:
    """Runs one asynchronous execution and records an :class:`AsyncTrace`.

    Parameters
    ----------
    protocol:
        The protocol every process runs.
    n:
        System size.
    seed:
        Master seed; all delays/jitters derive from it.
    tick_interval:
        Mean local-step period.  Each process gets a private speed
        factor in ``[0.5, 1.5]`` and each tick is jittered ±20%, so
        relative speeds vary without bound over time.
    delay:
        (lo, hi) post-GST message delay bounds.
    pre_gst_delay_max:
        Upper delay bound before GST (defaults to ``4 * hi``): the
        "unbounded" early asynchrony, finite so every message is
        eventually delivered (reliable channels).
    gst:
        Global stabilization time; ``0.0`` makes the whole run stable.
    crash_times:
        ``pid -> time``: crash schedule (crash faults only, per the
        paper's Section 3).
    oracle:
        The ◇W oracle answering :meth:`ProcessContext.weak_suspects`.
    corruption:
        A corruption plan applied to the initial states (systemic
        failure).  Duck-typed from :mod:`repro.sync.corruption`.
    sample_interval:
        Cadence at which outputs are recorded into the trace.
    duplicate_probability:
        Probability that a message is delivered *twice* (with
        independent delays).  Real networks duplicate; protocols built
        here are expected to be idempotent, and tests exercise that.
    fault_plan:
        A unified :class:`~repro.kernel.faults.FaultPlan` (the kernel's
        substrate-independent fault description), supplying the crash
        schedule, initial and mid-run corruption, and GST.  Mutually
        exclusive with ``crash_times``/``corruption`` (and overrides
        ``gst``).
    observers:
        Extra :class:`~repro.kernel.events.Observer` instances attached
        to the run's event bus alongside the trace recorder.
    topology:
        Communication :class:`~repro.kernel.topology.Topology`; a
        handler's ``broadcast`` goes to its current out-edges only
        (``ctx.send`` stays point-to-point).  Defaults to the complete
        graph, which is normalized away.  A churn schedule on the
        fault plan wraps the topology in a ``DynamicTopology``, with
        the dynamic round taken as ``max(1, ceil(now))`` — the same
        time→round mapping the fault plan uses for crashes.
    """

    def __init__(
        self,
        protocol: AsyncProtocol,
        n: int,
        seed: int = 0,
        tick_interval: float = 1.0,
        delay: Tuple[float, float] = (0.05, 0.5),
        pre_gst_delay_max: Optional[float] = None,
        gst: float = 0.0,
        crash_times: Optional[Mapping[int, float]] = None,
        oracle: Optional[Any] = None,
        corruption: Optional[Any] = None,
        sample_interval: float = 2.0,
        duplicate_probability: float = 0.0,
        fault_plan: Optional[FaultPlan] = None,
        observers: Sequence[Observer] = (),
        topology: Optional[Any] = None,
    ):
        require_process_count(n)
        require(tick_interval > 0, "tick_interval must be positive")
        require(0 < delay[0] <= delay[1], f"bad delay bounds {delay}")
        require(
            0.0 <= duplicate_probability <= 1.0,
            f"duplicate_probability must be in [0, 1], got {duplicate_probability}",
        )
        mid_corruptions: Dict[float, Any] = {}
        if fault_plan is not None:
            require(
                crash_times is None and corruption is None,
                "pass either fault_plan or crash_times/corruption, not both",
            )
            view = fault_plan.to_async()
            crash_times = view.crash_times
            corruption = view.corruption
            mid_corruptions = dict(view.mid_corruptions)
            gst = view.gst
        self._topology = normalize_topology(
            n, topology, fault_plan.churn if fault_plan is not None else None
        )
        self._duplicate_probability = duplicate_probability
        self.protocol = protocol
        self.n = n
        self.gst = gst
        self.oracle = oracle
        self.now = 0.0
        self._rng = make_rng(seed, f"async:{protocol.name}")
        self._tick_interval = tick_interval
        self._delay = delay
        self._pre_gst_delay_max = (
            pre_gst_delay_max if pre_gst_delay_max is not None else 4 * delay[1]
        )
        self._sample_interval = sample_interval
        self._crash_times = dict(crash_times or {})
        for pid in self._crash_times:
            require(
                isinstance(pid, int) and 0 <= pid < n,
                f"crash schedule names process {pid!r}, but n = {n}",
            )
        self._mid_corruptions = mid_corruptions
        self._speed = {
            pid: self._rng.uniform(0.5, 1.5) for pid in range(n)
        }

        self._recorder = AsyncTraceRecorder()
        self._bus = EventBus((self._recorder, *observers))
        self._messages_sent = 0
        self._bus.on_run_start(n, protocol)

        states: Dict[int, Optional[Dict[str, Any]]] = {
            pid: protocol.initial_state(pid, n) for pid in range(n)
        }
        if corruption is not None:
            states = self._corrupt(corruption, states, time=0.0)
        self.states = states

        self._crashed: set = set()
        #: (time, seq, dest, sender, payload, sent_at) for a delivery, else
        #: (time, seq, kind, data); seq is unique, so ties break by push order.
        self._queue: List[Tuple[Any, ...]] = []
        self._next_seq = itertools.count(1).__next__
        self._contexts = [ProcessContext(self, pid) for pid in range(n)]

    # -- event plumbing ------------------------------------------------------

    def _push(self, time: float, kind: str, data: Any) -> None:
        heapq.heappush(self._queue, (time, self._next_seq(), kind, data))

    def _corrupt(
        self,
        plan: Any,
        states: Dict[int, Optional[Dict[str, Any]]],
        time: float,
    ) -> Dict[int, Optional[Dict[str, Any]]]:
        """Apply one corruption plan and narrate which memories it touched.

        Shared with the synchronous engine and the live network runtime
        (:func:`repro.kernel.corruptions.apply_corruption`).
        """
        return apply_corruption(self._bus, plan, self.protocol, states, self.n, time)

    def _broadcast_targets(self, pid: int):
        """Destinations of ``pid``'s broadcast right now."""
        if self._topology is None:
            return range(self.n)
        return self._topology.receivers(pid, max(1, math.ceil(self.now)))

    def _fan_out(self, sender: int, dests: Iterable[int], payload: Any) -> None:
        """Queue ``payload`` for every destination: ``send`` and ``broadcast``.

        The payload is proved immutable once for the whole fan-out and
        then shared by every queued delivery; one that cannot be proved
        is defensively copied per delivery, here at enqueue time.  Per
        destination the seeded RNG gives the duplicate draw, then one
        delay draw per copy — an order every golden digest pins, so a
        copy for a process that has already crashed (a crash is
        permanent: it could only be dropped on arrival) is counted,
        narrated and drawn for like any other, and just not queued.
        """
        now = self.now
        shared = prove_payload(payload)
        bus = self._bus
        wants_send = bus.wants_send
        duplicate_probability = self._duplicate_probability
        random = self._rng.random
        lo, hi = self._delay
        if now < self.gst:
            hi = self._pre_gst_delay_max
        span = hi - lo
        crashed = self._crashed
        queue = self._queue
        next_seq = self._next_seq
        push = heapq.heappush
        sent = 0
        for dest in dests:
            sent += 1
            if wants_send:
                bus.on_send(
                    AsyncMessage(
                        sender=sender, receiver=dest, payload=payload, sent_time=now
                    ),
                    now,
                )
            copies = 1
            if duplicate_probability and random() < duplicate_probability:
                copies = 2
            if dest in crashed:  # a dead letter is drawn for, never queued
                for _ in range(copies):
                    random()
                continue
            for _ in range(copies):
                # lo + span * random() is what rng.uniform(lo, hi) computes.
                body = copy_payload(payload) if shared is UNPROVEN else shared
                push(queue, (now + (lo + span * random()), next_seq(), dest, sender, body, now))
        self._messages_sent += sent

    # -- the run ----------------------------------------------------------------

    def run(
        self,
        max_time: float,
        stop_condition: Optional[Callable[["AsyncScheduler"], bool]] = None,
    ) -> AsyncTrace:
        """Execute until ``max_time`` (or the stop condition) and trace it."""
        require(max_time > 0, "max_time must be positive")

        random = self._rng.random
        period = [self._tick_interval * self._speed[pid] for pid in range(self.n)]
        # Every tick is jittered by rng.uniform(0.8, 1.2), spelled out as
        # the lo + (hi - lo) * random() it computes to save the loop a call.
        jitter_lo, jitter_span = 0.8, 1.2 - 0.8
        for pid in range(self.n):
            self._push(period[pid] * (jitter_lo + jitter_span * random()), "tick", pid)
        for pid, time in self._crash_times.items():
            self._push(time, "crash", pid)
        for time in sorted(self._mid_corruptions):
            self._push(time, "corrupt", self._mid_corruptions[time])
        self._push(self._sample_interval, "sample", None)

        bus = self._bus
        wants_state_commit = bus.wants_state_commit
        wants_deliver = bus.wants_deliver
        queue = self._queue
        pop, push = heapq.heappop, heapq.heappush
        next_seq = self._next_seq
        crashed = self._crashed
        contexts = self._contexts
        on_tick, on_message = self.protocol.on_tick, self.protocol.on_message
        deliveries = 0
        while queue:
            event = pop(queue)
            time = event[0]
            if time > max_time:
                break
            self.now = time
            if len(event) == 6:
                _time, _seq, dest, sender, payload, sent_at = event
                if dest in crashed:  # its receiver crashed in flight
                    continue
                deliveries += 1
                if wants_deliver:
                    bus.on_deliver(
                        AsyncMessage(
                            sender=sender,
                            receiver=dest,
                            payload=payload,
                            sent_time=sent_at,
                        ),
                        time,
                    )
                on_message(contexts[dest], sender, payload)
                if wants_state_commit:
                    bus.on_state_commit(dest, time, self.states[dest])
            elif event[2] == "tick":
                pid = event[3]
                if pid in crashed:
                    continue
                on_tick(contexts[pid])
                if wants_state_commit:
                    bus.on_state_commit(pid, time, self.states[pid])
                push(
                    queue,
                    (
                        time + period[pid] * (jitter_lo + jitter_span * random()),
                        next_seq(),
                        "tick",
                        pid,
                    ),
                )
            elif event[2] == "sample":
                outputs = {
                    pid: self.protocol.output(state)
                    for pid, state in self.states.items()
                    if state is not None
                }
                bus.on_sample(time, outputs)
                self._push(time + self._sample_interval, "sample", None)
            elif event[2] == "crash":
                pid = event[3]
                crashed.add(pid)
                self.states[pid] = contexts[pid].state = None
                bus.on_fault(
                    FaultEvent(kind=FaultKind.CRASH, time=time, pid=pid)
                )
                if wants_state_commit:
                    bus.on_state_commit(pid, time, None)
            elif event[2] == "corrupt":
                self.states = self._corrupt(event[3], self.states, time)
                for context in contexts:
                    context.state = self.states[context.pid]
            if stop_condition is not None and stop_condition(self):
                break

        bus.on_run_end(max_time, self.states)
        return self._recorder.trace(self._messages_sent, deliveries)
