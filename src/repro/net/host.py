"""Process hosts: the protocol-facing side of the live runtime.

A *host* owns one process: it runs the protocol's code against a
transport :class:`~repro.net.transport.Endpoint`, with every outgoing
copy filtered through the :class:`~repro.net.interposer.WireInterposer`.
Two drivers for the two protocol models:

- :class:`ProcessHost` drives a
  :class:`~repro.sync.protocol.SyncProtocol` under round pacing: the
  cluster opens a round, each host runs its send phase (one broadcast,
  fanned out by the interposer), the transport's
  drain barrier (or a timeout, in ``timeout`` pacing) closes the wire,
  and each host collects its inbox and applies the transition function.
  Collection deduplicates by sender — the round layer's answer to
  wire-level duplication — and discards stale copies from earlier
  rounds (possible under timeout pacing, impossible under the barrier).
- :class:`DetectorHost` drives an
  :class:`~repro.asyncnet.scheduler.AsyncProtocol` (the Fig 4 detector/
  consensus stack) event-style: a periodic tick task (retransmission
  timers) and a receive task, against a :class:`LiveClock` that maps the
  protocol's virtual time onto scaled wall-clock time.  The host's
  :class:`NetContext` presents the exact
  :class:`~repro.asyncnet.scheduler.ProcessContext` surface — ``state``,
  ``time``, ``send``/``broadcast``, ``weak_suspects`` — so protocol
  implementations run unmodified on either substrate.

Wire bodies are small dicts (``src``/``round``/``payload`` for round
mode, ``src``/``t``/``payload`` for event mode); the payload inside is
exactly what the protocol handed to its send hook, round-tripped
through the tagged-JSON codec by the transport.
"""

from __future__ import annotations

import asyncio
import math
import time as _time
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Tuple

from repro.kernel.events import AsyncMessage, EventBus
from repro.kernel.snapshot import copy_payload
from repro.net.interposer import WireInterposer
from repro.net.transport import Endpoint
from repro.util.validation import require

__all__ = ["DetectorHost", "LiveClock", "NetContext", "ProcessHost"]

ProcessId = int


class LiveClock:
    """Virtual protocol time mapped onto wall-clock time.

    ``time_scale`` is the wall-clock duration of one virtual time unit:
    with ``time_scale=0.02`` a Fig 4 run to virtual time 50 takes one
    wall second.  All sleeps are absolute (``sleep_until``) so timer
    drift never accumulates.
    """

    def __init__(self, time_scale: float = 1.0):
        require(time_scale > 0, "time_scale must be positive")
        self.time_scale = time_scale
        self._start: Optional[float] = None

    def start(self) -> None:
        self._start = _time.monotonic()

    def now(self) -> float:
        """Current virtual time."""
        assert self._start is not None, "clock not started"
        return (_time.monotonic() - self._start) / self.time_scale

    async def sleep_until(self, virtual_time: float) -> None:
        """Sleep until the given virtual time (no-op if already past)."""
        remaining = (virtual_time - self.now()) * self.time_scale
        if remaining > 0:
            await asyncio.sleep(remaining)

    async def sleep(self, virtual_delta: float) -> None:
        await self.sleep_until(self.now() + virtual_delta)


class ProcessHost:
    """One synchronous process under round pacing."""

    def __init__(
        self,
        pid: ProcessId,
        protocol: Any,
        n: int,
        endpoint: Endpoint,
        interposer: WireInterposer,
    ):
        self.pid = pid
        self.protocol = protocol
        self.n = n
        self.endpoint = endpoint
        self.interposer = interposer

    def send_phase(self, round_no: int, state: Dict[str, Any]) -> None:
        """Broadcast this round's payload via the wire.

        Mirrors the engine's send phase: one ``protocol.send`` call, a
        ``None`` payload means silence, and the interposer's ledger
        decides which copies (along the round's out-edges) are posted.
        Copies the interposer drops never touch the transport.
        """
        payload = self.protocol.send(self.pid, state)
        if payload is None:
            return
        for dst, body, delay in self.interposer.broadcast(
            self.pid, round_no, copy_payload(payload)
        ):
            self.endpoint.post(
                dst, {"src": self.pid, "round": round_no, "body": body}, delay=delay
            )

    def collect(self, round_no: int) -> List[Tuple[ProcessId, Any]]:
        """Drain the inbox; return this round's copies as (sender, payload).

        Deduplicated by sender (first copy wins — the round layer's
        defense against wire duplication) and sorted by sender, which is
        the engine's delivery order for a single-round wire.  Copies
        tagged with an earlier round are stale timeout-pacing leftovers
        and are dropped; a copy from a *future* round would mean the
        pacing layer is broken, so it is a loud error.
        """
        by_sender: Dict[ProcessId, Any] = {}
        for envelope in self.endpoint.drain_ready():
            src, sent_round = envelope["src"], envelope["round"]
            require(
                sent_round <= round_no,
                f"process {self.pid} received a round-{sent_round} copy "
                f"while collecting round {round_no}: pacing violated",
            )
            if sent_round == round_no and src not in by_sender:
                by_sender[src] = envelope["body"]
        return sorted(by_sender.items())


class NetContext:
    """The :class:`ProcessContext` surface, backed by the live cluster."""

    def __init__(self, host: "DetectorHost"):
        self._host = host
        self.pid = host.pid

    @property
    def n(self) -> int:
        return self._host.n

    @property
    def time(self) -> float:
        return self._host.clock.now()

    @property
    def state(self) -> Dict[str, Any]:
        return self._host.states[self.pid]

    def send(self, dest: int, payload: Any) -> None:
        self._host.send(dest, payload)

    def broadcast(self, payload: Any) -> None:
        for dest in self._host.broadcast_targets():
            self.send(dest, payload)

    def weak_suspects(self) -> FrozenSet[int]:
        oracle = self._host.oracle
        if oracle is None:
            return frozenset()
        return oracle.suspects(self.pid, self._host.clock.now())


class DetectorHost:
    """One asynchronous process: periodic ticks + message reactions.

    ``states`` is the cluster's shared pid → state dict (``None`` marks
    a crashed process); the host reads and writes its own slot through
    it, exactly as :class:`~repro.asyncnet.scheduler.AsyncScheduler`
    does with its ``states`` attribute.  Tick cadence replicates the
    scheduler's asynchrony model: a private speed factor in
    ``[0.5, 1.5]`` and ±20% per-tick jitter, drawn from a seeded rng.
    """

    def __init__(
        self,
        pid: ProcessId,
        protocol: Any,
        n: int,
        endpoint: Endpoint,
        interposer: WireInterposer,
        clock: LiveClock,
        bus: EventBus,
        states: Dict[ProcessId, Optional[Dict[str, Any]]],
        rng,
        tick_interval: float = 1.0,
        oracle: Any = None,
        on_commit: Optional[Callable[[ProcessId], None]] = None,
        topology: Any = None,
    ):
        self.pid = pid
        self.protocol = protocol
        self.n = n
        self.endpoint = endpoint
        self.interposer = interposer
        self.clock = clock
        self.bus = bus
        self.states = states
        self.oracle = oracle
        self.topology = topology
        self._tick_interval = tick_interval
        self._speed = rng.uniform(0.5, 1.5)
        self._rng = rng
        self._ctx = NetContext(self)
        self._on_commit = on_commit

    @property
    def crashed(self) -> bool:
        return self.pid in self.interposer.crashed

    def broadcast_targets(self):
        """Current out-edges (dynamic round = ``max(1, ceil(now))``)."""
        if self.topology is None:
            return range(self.n)
        return self.topology.receivers(self.pid, max(1, math.ceil(self.clock.now())))

    def send(self, dest: int, payload: Any) -> None:
        """Protocol-initiated send: narrate, filter, post."""
        now = self.clock.now()
        if self.bus.wants_send:
            self.bus.on_send(
                AsyncMessage(
                    sender=self.pid, receiver=dest, payload=payload, sent_time=now
                ),
                now,
            )
        for final_dst, body, delay in self.interposer.route_async(
            self.pid, dest, payload
        ):
            self.endpoint.post(
                final_dst, {"src": self.pid, "t": now, "body": body}, delay=delay
            )

    def _next_tick_delay(self) -> float:
        return self._tick_interval * self._speed * self._rng.uniform(0.8, 1.2)

    async def tick_loop(self) -> None:
        """Periodic local steps (the protocol's retransmission timers)."""
        while True:
            await self.clock.sleep(self._next_tick_delay())
            if self.crashed:
                return
            self.protocol.on_tick(self._ctx)
            self._commit()

    async def recv_loop(self) -> None:
        """React to each delivered message."""
        while True:
            envelope = await self.endpoint.recv()
            if self.crashed:
                return
            sender, body = envelope["src"], envelope["body"]
            if self.bus.wants_deliver:
                self.bus.on_deliver(
                    AsyncMessage(
                        sender=sender,
                        receiver=self.pid,
                        payload=body,
                        sent_time=envelope["t"],
                    ),
                    self.clock.now(),
                )
            self.protocol.on_message(self._ctx, sender, body)
            self._commit()

    def _commit(self) -> None:
        if self.bus.wants_state_commit:
            self.bus.on_state_commit(self.pid, self.clock.now(), self.states[self.pid])
        if self._on_commit is not None:
            self._on_commit(self.pid)
