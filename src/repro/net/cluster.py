"""Live cluster supervisor: the paper's protocols over a real transport.

:func:`run_live_sync` is the live counterpart of
:func:`repro.sync.engine.run_sync`: same protocol objects, same unified
:class:`~repro.kernel.faults.FaultPlan`, same observer bus and recorded
:class:`~repro.histories.history.ExecutionHistory` — but the messages
cross an actual transport (asyncio queues or loopback TCP sockets), and
the faults are injected at the wire by a
:class:`~repro.net.interposer.WireInterposer` instead of inside a
simulation loop.  The cluster replays the engine's round structure
faithfully — plan, round-start snapshot, send phase, wire settling,
fault narration, delivery, update, bookkeeping — so the recorded
history is value-comparable with the simulator's on the same plan
(:mod:`repro.net.conformance` asserts exactly that).

Two pacing disciplines:

- ``barrier`` (default, lossless): the transport's drain barrier closes
  each round — every copy posted (including wire-delayed ones) is in
  its destination inbox before collection.  This is the conformance
  mode.
- ``timeout``: each round closes after ``round_timeout`` wall seconds.
  Copies still in flight are *lost to the round* and dropped as stale
  when they land — real timeout-paced lossiness, outside the engine's
  semantics, for experiments that want it.

:func:`run_detector_live` is the live counterpart of
:class:`~repro.asyncnet.scheduler.AsyncScheduler` for the Fig 4
detector/consensus stack: per-process tick and receive tasks against a
:class:`~repro.net.host.LiveClock` (virtual time scaled onto wall
time), crash and corruption timers, a sampling task, and a
:class:`~repro.kernel.recorders.LiveTraceRecorder` rebuilding the
:class:`~repro.asyncnet.scheduler.AsyncTrace` from the event stream.

Both runners take a ``deadline`` (wall seconds): a watchdog that
cancels the run, shuts the transport down, and raises
:class:`LiveDeadlineExceeded` — a hung live cluster fails loudly
instead of wedging a test suite.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.histories.history import CLOCK_KEY, ExecutionHistory, Message
from repro.kernel.corruptions import apply_corruption
from repro.kernel.events import EventBus, FaultEvent, FaultKind, Observer
from repro.kernel.faults import FaultPlan
from repro.kernel.recorders import HistoryRecorder, LiveTraceRecorder
from repro.kernel.snapshot import snapshot_states
from repro.kernel.topology import Topology, normalize_topology, round_edges
from repro.net.host import DetectorHost, LiveClock, ProcessHost
from repro.net.interposer import WireInterposer
from repro.net.transport import Transport, make_transport
from repro.sync.engine import StopCondition, start_states, update_phase
from repro.util.rng import make_rng
from repro.util.validation import require, require_positive, require_process_count

__all__ = [
    "LiveDeadlineExceeded",
    "LiveRunResult",
    "live_run_sync",
    "run_detector_live",
    "run_live_sync",
]

ProcessId = int


class LiveDeadlineExceeded(RuntimeError):
    """The live run blew its wall-clock deadline and was shut down."""


@dataclass
class LiveRunResult:
    """Everything produced by one live synchronous run.

    The same shape as :class:`~repro.sync.engine.SyncRunResult`, plus
    the transport the run used — so experiment code can treat simulated
    and live results uniformly.
    """

    protocol: Any
    n: int
    history: Optional[ExecutionHistory]
    final_states: Dict[ProcessId, Optional[Dict[str, Any]]]
    faulty: frozenset
    transport: str
    stopped_early: bool = False
    executed_rounds: int = 0

    def final_clocks(self) -> Dict[ProcessId, Optional[int]]:
        """Round variables after the last round (None = crashed)."""
        return {
            pid: None if state is None else state[CLOCK_KEY]
            for pid, state in self.final_states.items()
        }


async def _with_deadline(coroutine, deadline: Optional[float], what: str):
    if deadline is None:
        return await coroutine
    try:
        return await asyncio.wait_for(coroutine, timeout=deadline)
    except asyncio.TimeoutError:
        raise LiveDeadlineExceeded(
            f"{what} exceeded its {deadline}s wall-clock deadline"
        ) from None


# ---------------------------------------------------------------------------
# Round-paced (synchronous) mode
# ---------------------------------------------------------------------------


async def live_run_sync(
    protocol: Any,
    n: int,
    rounds: int,
    fault_plan: Optional[FaultPlan] = None,
    transport: str = "inproc",
    pacing: str = "barrier",
    round_timeout: float = 0.05,
    initial_states: Optional[Dict[ProcessId, Dict[str, Any]]] = None,
    stop_condition: Optional[StopCondition] = None,
    first_round: int = 1,
    observers: Sequence[Observer] = (),
    record_history: bool = True,
    deadline: Optional[float] = None,
    topology: Optional[Topology] = None,
) -> LiveRunResult:
    """Async entry point; see :func:`run_live_sync` for the parameters."""
    require_process_count(n)
    require_positive(rounds, "rounds")
    require(pacing in ("barrier", "timeout"), f"unknown pacing {pacing!r}")
    return await _with_deadline(
        _live_sync_body(
            protocol,
            n,
            rounds,
            fault_plan,
            transport,
            pacing,
            round_timeout,
            initial_states,
            stop_condition,
            first_round,
            observers,
            record_history,
            topology,
        ),
        deadline,
        f"live {transport} run of {getattr(protocol, 'name', protocol)}",
    )


async def _live_sync_body(
    protocol,
    n,
    rounds,
    fault_plan,
    transport_kind,
    pacing,
    round_timeout,
    initial_states,
    stop_condition,
    first_round,
    observers,
    record_history,
    topology=None,
) -> LiveRunResult:
    if fault_plan is not None:
        view = fault_plan.to_sync()
        adversary = view.adversary
        corruption = view.corruption
        mid_run = dict(view.mid_run_corruptions)
        wire = fault_plan.wire
    else:
        adversary, corruption, mid_run, wire = None, None, {}, None

    topology = normalize_topology(
        n, topology, fault_plan.churn if fault_plan is not None else None
    )

    recorder = HistoryRecorder() if record_history else None
    bus = EventBus(((recorder, *observers) if recorder else tuple(observers)))
    bus.on_run_start(n, protocol, first_round)

    states = start_states(protocol, n, initial_states)
    if corruption is not None:
        states = apply_corruption(
            bus, corruption, protocol, states, n, time=first_round - 1
        )

    fabric: Transport = make_transport(transport_kind, n)
    await fabric.start()
    interposer = WireInterposer(n, bus, adversary=adversary, wire=wire)
    hosts = [
        ProcessHost(pid, protocol, n, fabric.endpoint(pid), interposer)
        for pid in range(n)
    ]

    wants_round_start = bus.wants_round_start
    wants_topology = bus.wants_topology
    wants_deliver = bus.wants_deliver
    wants_round_end = bus.wants_round_end

    stopped_early = False
    last_round = first_round
    try:
        for round_no in range(first_round, first_round + rounds):
            last_round = round_no
            if round_no in mid_run:
                states = apply_corruption(
                    bus, mid_run[round_no], protocol, states, n, time=round_no
                )

            edges = None if topology is None else round_edges(topology, round_no)
            interposer.begin_round(round_no, edges)
            if wants_round_start:
                bus.on_round_start(round_no, snapshot_states(states))
            if edges is not None and wants_topology:
                bus.on_topology(round_no, edges)

            for pid in sorted(interposer.alive):
                hosts[pid].send_phase(round_no, states[pid])

            # Let the wire settle: the barrier guarantees losslessness,
            # the timeout realizes bounded-wait pacing (late copies are
            # dropped as stale on collection).
            if pacing == "barrier":
                await fabric.drain()
            else:
                await asyncio.sleep(round_timeout)

            crashed_now = interposer.finish_round()

            delivered: Dict[ProcessId, List[Message]] = {}
            for pid in sorted(interposer.alive):
                inbox = [
                    Message(src, pid, round_no, body)
                    for src, body in hosts[pid].collect(round_no)
                ]
                if inbox:
                    delivered[pid] = inbox
            if wants_deliver:
                bus.on_deliveries(delivered, round_no)

            update_phase(
                protocol, n, bus, round_no, states, delivered,
                interposer.crashed, crashed_now,
            )

            if wants_round_end:
                bus.on_round_end(round_no)

            if stop_condition is not None and stop_condition(states, round_no):
                stopped_early = True
                break
    finally:
        await fabric.stop()

    final_states = {pid: states[pid] for pid in range(n)}
    bus.on_run_end(last_round, final_states)
    history = recorder.history() if recorder else None
    return LiveRunResult(
        protocol=protocol,
        n=n,
        history=history,
        final_states=final_states,
        faulty=history.faulty() if history is not None else interposer.faulty_so_far,
        transport=transport_kind,
        stopped_early=stopped_early,
        executed_rounds=last_round - first_round + 1,
    )


def run_live_sync(
    protocol: Any,
    n: int,
    rounds: int,
    fault_plan: Optional[FaultPlan] = None,
    transport: str = "inproc",
    pacing: str = "barrier",
    round_timeout: float = 0.05,
    initial_states: Optional[Dict[ProcessId, Dict[str, Any]]] = None,
    stop_condition: Optional[StopCondition] = None,
    first_round: int = 1,
    observers: Sequence[Observer] = (),
    record_history: bool = True,
    deadline: Optional[float] = None,
    topology: Optional[Topology] = None,
) -> LiveRunResult:
    """Run a synchronous protocol on a live transport (blocking wrapper).

    Parameters mirror :func:`repro.sync.engine.run_sync` where they
    overlap; the live-specific ones:

    transport:
        ``"inproc"`` (asyncio queues) or ``"tcp"`` (loopback sockets).
    pacing:
        ``"barrier"`` — lossless drain barrier per round (conformance
        mode) — or ``"timeout"`` — rounds close after ``round_timeout``
        wall seconds and late copies are lost.
    deadline:
        Wall-clock watchdog for the whole run; on expiry the cluster is
        shut down and :class:`LiveDeadlineExceeded` raised.
    topology:
        Communication :class:`~repro.kernel.topology.Topology`; each
        host's send phase fans out along its current out-edges only.
        Defaults to the complete graph (normalized away, exactly as in
        the engine); a churn schedule on the fault plan wraps it in a
        ``DynamicTopology``.

    Faults come exclusively as a unified
    :class:`~repro.kernel.faults.FaultPlan` (there is no legacy
    adversary/corruption argument pair here), including optional
    :class:`~repro.kernel.faults.WireFaults` extras that simulators
    ignore.
    """
    return asyncio.run(
        live_run_sync(
            protocol,
            n,
            rounds,
            fault_plan=fault_plan,
            transport=transport,
            pacing=pacing,
            round_timeout=round_timeout,
            initial_states=initial_states,
            stop_condition=stop_condition,
            first_round=first_round,
            observers=observers,
            record_history=record_history,
            deadline=deadline,
            topology=topology,
        )
    )


# ---------------------------------------------------------------------------
# Event-driven (asynchronous) mode — the Fig 4 stack
# ---------------------------------------------------------------------------


async def live_run_detector(
    protocol: Any,
    n: int,
    duration: float,
    fault_plan: Optional[FaultPlan] = None,
    oracle: Any = None,
    transport: str = "inproc",
    tick_interval: float = 1.0,
    sample_interval: float = 2.0,
    time_scale: float = 0.02,
    seed: int = 0,
    observers: Sequence[Observer] = (),
    deadline: Optional[float] = None,
    topology: Optional[Topology] = None,
):
    """Async entry point; see :func:`run_detector_live`."""
    require_process_count(n)
    require(duration > 0, "duration must be positive")
    return await _with_deadline(
        _live_detector_body(
            protocol,
            n,
            duration,
            fault_plan,
            oracle,
            transport,
            tick_interval,
            sample_interval,
            time_scale,
            seed,
            observers,
            topology,
        ),
        deadline,
        f"live {transport} detector run of {getattr(protocol, 'name', protocol)}",
    )


async def _live_detector_body(
    protocol,
    n,
    duration,
    fault_plan,
    oracle,
    transport_kind,
    tick_interval,
    sample_interval,
    time_scale,
    seed,
    observers,
    topology=None,
):
    if fault_plan is not None:
        view = fault_plan.to_async()
        crash_times = view.crash_times
        corruption = view.corruption
        mid_corruptions = dict(view.mid_corruptions)
        wire = fault_plan.wire
    else:
        crash_times, corruption, mid_corruptions, wire = {}, None, {}, None

    topology = normalize_topology(
        n, topology, fault_plan.churn if fault_plan is not None else None
    )

    recorder = LiveTraceRecorder()
    bus = EventBus((recorder, *observers))
    bus.on_run_start(n, protocol)

    states: Dict[ProcessId, Optional[Dict[str, Any]]] = {
        pid: protocol.initial_state(pid, n) for pid in range(n)
    }
    if corruption is not None:
        states = apply_corruption(bus, corruption, protocol, states, n, time=0.0)

    fabric: Transport = make_transport(transport_kind, n)
    await fabric.start()
    interposer = WireInterposer(n, bus, wire=wire, crash_times=crash_times)
    clock = LiveClock(time_scale)
    hosts = [
        DetectorHost(
            pid,
            protocol,
            n,
            fabric.endpoint(pid),
            interposer,
            clock,
            bus,
            states,
            make_rng(seed, f"live-host:{pid}"),
            tick_interval=tick_interval,
            oracle=oracle,
            topology=topology,
        )
        for pid in range(n)
    ]

    async def crash_timer(pid: ProcessId, at: float) -> None:
        await clock.sleep_until(at)
        interposer.mark_crashed(pid)
        states[pid] = None
        bus.on_fault(FaultEvent(kind=FaultKind.CRASH, time=at, pid=pid))
        if bus.wants_state_commit:
            bus.on_state_commit(pid, at, None)

    async def corruption_timer(at: float, plan) -> None:
        await clock.sleep_until(at)
        rewritten = apply_corruption(bus, plan, protocol, states, n, time=at)
        for pid in range(n):
            states[pid] = rewritten[pid]

    async def sampler() -> None:
        at = sample_interval
        while at <= duration:
            await clock.sleep_until(at)
            outputs = {
                pid: protocol.output(state)
                for pid, state in states.items()
                if state is not None
            }
            bus.on_sample(at, outputs)
            at += sample_interval

    clock.start()
    tasks = [
        *(asyncio.create_task(host.tick_loop()) for host in hosts),
        *(asyncio.create_task(host.recv_loop()) for host in hosts),
        *(
            asyncio.create_task(crash_timer(pid, at))
            for pid, at in sorted(crash_times.items())
        ),
        *(
            asyncio.create_task(corruption_timer(at, plan))
            for at, plan in sorted(mid_corruptions.items())
        ),
        asyncio.create_task(sampler()),
    ]
    sleeper = asyncio.create_task(clock.sleep_until(duration))
    try:
        watched = {sleeper, *tasks}
        while True:
            done, pending = await asyncio.wait(
                watched, return_when=asyncio.FIRST_COMPLETED
            )
            for task in done:
                error = task.exception()
                if error is not None:
                    raise error
            if sleeper in done:
                break
            watched = pending
    finally:
        sleeper.cancel()
        for task in tasks:
            task.cancel()
        await asyncio.gather(sleeper, *tasks, return_exceptions=True)
        await fabric.stop()

    bus.on_run_end(duration, states)
    return recorder.trace()


def run_detector_live(
    protocol: Any,
    n: int,
    duration: float,
    fault_plan: Optional[FaultPlan] = None,
    oracle: Any = None,
    transport: str = "inproc",
    tick_interval: float = 1.0,
    sample_interval: float = 2.0,
    time_scale: float = 0.02,
    seed: int = 0,
    observers: Sequence[Observer] = (),
    deadline: Optional[float] = None,
    topology: Optional[Topology] = None,
):
    """Run an asynchronous protocol live; returns its ``AsyncTrace``.

    The live counterpart of
    :class:`~repro.asyncnet.scheduler.AsyncScheduler`: per-process tick
    and receive tasks paced by a :class:`~repro.net.host.LiveClock`
    (``time_scale`` wall seconds per virtual time unit), the plan's
    crash schedule fired by timers, the ◇W ``oracle`` queried at
    virtual time, and outputs sampled every ``sample_interval`` virtual
    units.  Message timing comes from the real transport (plus optional
    :class:`~repro.kernel.faults.WireFaults` extras) rather than a
    seeded delay distribution, so traces are *statistically* comparable
    with the simulator's, and property verdicts — completeness,
    accuracy — are the conformance currency (see
    :mod:`repro.net.conformance`).
    """
    return asyncio.run(
        live_run_detector(
            protocol,
            n,
            duration,
            fault_plan=fault_plan,
            oracle=oracle,
            transport=transport,
            tick_interval=tick_interval,
            sample_interval=sample_interval,
            time_scale=time_scale,
            seed=seed,
            observers=observers,
            deadline=deadline,
            topology=topology,
        )
    )
