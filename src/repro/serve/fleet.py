"""Worker fleets: sharded sweep execution behind one bounded queue.

A :class:`WorkerFleet` executes :class:`Shard` s — ``(worker ref,
ordered task slice)`` units of one request — without ever blocking the
serving event loop and without ever touching the persistent *fork* pool
of :mod:`repro.experiments.base` (forking a process that owns an event
loop's helper threads can deadlock the child; the server therefore
builds its parallelism from threads and freshly ``exec``-ed processes
only, and :meth:`WorkerFleet.start` tears any pre-existing fork pool
down defensively).

Two fabrics, one contract:

- :class:`ThreadFleet` (``kind="inproc"``) — a thread pool inside the
  server process.  Every shard's result still round-trips the
  :mod:`repro.net.framing` wire format, so both fleets carry
  byte-identical encodings and a codec infidelity cannot hide behind
  the in-process fast path (the same honesty rule as
  :class:`repro.net.transport.InProcessTransport`).
- :class:`ProcessFleet` (``kind="tcp"``) — freshly spawned worker
  processes (``python -m repro.serve.worker``) connected back over
  loopback TCP, speaking length-prefixed tagged-JSON frames (the
  :mod:`repro.net.framing` stack wholesale).  A worker that dies
  mid-shard is detected by its connection dropping; the shard is
  retried **once** on a respawned worker, then failed.  A spawned
  worker that never dials back (:data:`CONNECT_TIMEOUT_S`) fails the
  shard in hand with :class:`WorkerCrashed` — the pump itself keeps
  running and respawns for the next shard, so no request ever hangs on
  a permanently lost worker slot.

Backpressure is the bounded submit queue: :meth:`WorkerFleet.submit`
awaits when every worker is busy and the queue is full, which suspends
the producing request handler — no unbounded buffering anywhere.

Deterministic worker *errors* (the pure worker raised) are never
retried: a pure function of the task would fail again, so the shard
fails immediately with the error message attached.
"""

from __future__ import annotations

import asyncio
import os
import secrets
import subprocess
import sys
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from concurrent.futures import ThreadPoolExecutor

from repro.cache.store import _resolve_worker
from repro.net.framing import FrameDecoder, FrameError, encode_frame
from repro.serve.worker import WORKER_MAX_FRAME, ShardFailed, execute_tasks

__all__ = [
    "ProcessFleet",
    "Shard",
    "ShardFailed",
    "ThreadFleet",
    "WorkerCrashed",
    "WorkerFleet",
    "execute_tasks",
    "make_fleet",
]

_READ_CHUNK = 1 << 16


class WorkerCrashed(Exception):
    """The shard's worker died twice (original + one retry)."""


@dataclass
class Shard:
    """One dispatchable slice of a request's miss tasks."""

    worker_ref: str
    namespace: str
    indices: Tuple[int, ...]
    tasks: Tuple[Any, ...]
    backend: str = "sync"
    future: "asyncio.Future[List[Any]]" = field(repr=False, default=None)  # type: ignore[assignment]
    attempts: int = 0
    cancelled: bool = False


class WorkerFleet:
    """Shared contract: bounded submit queue + per-worker pump tasks."""

    kind = "abstract"

    def __init__(self, workers: int = 2, queue_depth: Optional[int] = None):
        if workers < 1:
            raise ValueError("fleet needs at least one worker")
        self.workers = workers
        self._queue_depth = queue_depth if queue_depth is not None else workers * 4
        self._queue: Optional[asyncio.Queue] = None
        self._retries: deque = deque()
        self._pumps: List[asyncio.Task] = []
        self._stopping = False
        self.executed_tasks = 0
        self.restarts = 0
        #: Called with ("task-executed"|"task-retried"|"worker-restart",
        #: count, detail) — detail carries the shard's backend for
        #: task-executed, None otherwise.
        self.on_event: Optional[Callable[[str, int, Optional[str]], None]] = None

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        # The serving loop must never own a fork pool (see module doc);
        # tear down any pool a caller forked before the loop existed.
        from repro.experiments.base import shutdown_pool

        shutdown_pool()
        self._stopping = False
        self._queue = asyncio.Queue(maxsize=self._queue_depth)
        await self._start_workers()
        self._pumps = [
            asyncio.get_running_loop().create_task(
                self._pump(slot), name=f"serve-fleet-{self.kind}-{slot}"
            )
            for slot in range(self.workers)
        ]

    async def stop(self) -> None:
        self._stopping = True
        for pump in self._pumps:
            pump.cancel()
        for pump in self._pumps:
            try:
                await pump
            except (asyncio.CancelledError, Exception):
                pass
        self._pumps = []
        await self._stop_workers()
        # Fail anything still queued so no caller waits forever.
        pending = list(self._retries)
        self._retries.clear()
        if self._queue is not None:
            while True:
                try:
                    pending.append(self._queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
        for shard in pending:
            if shard.future is not None and not shard.future.done():
                shard.future.set_exception(WorkerCrashed("fleet stopped"))

    # -- submission ----------------------------------------------------------

    async def submit(self, shard: Shard) -> None:
        """Enqueue one shard; awaits (backpressure) when the queue is full."""
        assert self._queue is not None, "fleet not started"
        if shard.future is None:
            shard.future = asyncio.get_running_loop().create_future()
        await self._queue.put(shard)

    @property
    def queue_depth(self) -> int:
        depth = len(self._retries)
        if self._queue is not None:
            depth += self._queue.qsize()
        return depth

    def describe(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "workers": self.workers,
            "queue_depth": self.queue_depth,
            "executed_tasks": self.executed_tasks,
            "restarts": self.restarts,
        }

    def _emit(self, kind: str, count: int = 1, detail: Optional[str] = None) -> None:
        if self.on_event is not None:
            self.on_event(kind, count, detail)

    async def _next_shard(self) -> Shard:
        if self._retries:
            return self._retries.popleft()
        assert self._queue is not None
        return await self._queue.get()

    def _finish(self, shard: Shard, outcomes: List[Any]) -> None:
        self.executed_tasks += len(shard.tasks)
        self._emit("task-executed", len(shard.tasks), shard.backend)
        if not shard.future.done():
            shard.future.set_result(outcomes)

    def _fail(self, shard: Shard, error: Exception) -> None:
        self._emit("task-failed", len(shard.tasks))
        if not shard.future.done():
            shard.future.set_exception(error)

    def _crashed(self, shard: Shard) -> None:
        """Crash path: retry once on another worker, then fail."""
        shard.attempts += 1
        if shard.attempts > 1:
            self._fail(
                shard,
                WorkerCrashed(
                    f"worker died twice executing {shard.worker_ref} "
                    f"(tasks {shard.indices[0]}..{shard.indices[-1]})"
                ),
            )
        else:
            self._emit("task-retried", len(shard.tasks))
            self._retries.append(shard)

    # -- per-fabric hooks ----------------------------------------------------

    async def _start_workers(self) -> None:
        pass

    async def _stop_workers(self) -> None:
        pass

    async def _pump(self, slot: int) -> None:
        raise NotImplementedError


def _execute_shard(
    worker_ref: str, tasks: Sequence[Any], backend: str = "sync"
) -> Tuple[List[Any], str]:
    """Resolve the worker and run the slice (thread-fleet executor body)."""
    worker = _resolve_worker(worker_ref)
    if worker is None:
        raise ShardFailed(f"cannot resolve sweep worker {worker_ref!r}")
    return execute_tasks(worker, tasks, backend)


class ThreadFleet(WorkerFleet):
    """In-process execution on a thread pool (the default fabric)."""

    kind = "inproc"

    def __init__(self, workers: int = 2, queue_depth: Optional[int] = None):
        super().__init__(workers, queue_depth)
        self._executor: Optional[ThreadPoolExecutor] = None

    async def _start_workers(self) -> None:
        self._executor = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="serve-worker"
        )

    async def _stop_workers(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None

    async def _pump(self, slot: int) -> None:
        loop = asyncio.get_running_loop()
        while True:
            shard = await self._next_shard()
            if shard.cancelled:
                if not shard.future.done():
                    shard.future.cancel()
                continue
            try:
                outcomes, used = await loop.run_in_executor(
                    self._executor,
                    _run_shard_framed,
                    shard.worker_ref,
                    shard.tasks,
                    shard.backend,
                )
            except asyncio.CancelledError:
                raise
            except Exception as error:
                self._fail(shard, ShardFailed(str(error)))
                continue
            shard.backend = used  # count what actually ran, not the ask
            self._finish(shard, outcomes)


def _run_shard_framed(
    worker_ref: str, tasks: Sequence[Any], backend: str = "sync"
) -> Tuple[List[Any], str]:
    """Execute and round-trip the result through the real wire format."""
    outcomes, used = _execute_shard(worker_ref, tasks, backend)
    (decoded,) = FrameDecoder(max_frame=1 << 26).feed(
        encode_frame({"outcomes": list(outcomes), "backend": used}, max_frame=1 << 26)
    )
    return decoded["outcomes"], decoded["backend"]


#: How long a spawned worker may take to connect back before the shard
#: waiting on it is failed (instance-overridable for tests).
CONNECT_TIMEOUT_S = 30.0

#: How long a terminated worker may take to exit before it is killed.
REAP_GRACE_S = 5.0


async def _reap(proc: subprocess.Popen) -> None:
    """Terminate ``proc`` and wait for it without blocking the event loop:
    poll through :data:`REAP_GRACE_S`, then kill it.  A worker that is
    replaced or given up on is always waited for, so no ``Popen`` is
    dropped while its process still runs."""
    if proc.poll() is None:
        proc.terminate()
    deadline = time.monotonic() + REAP_GRACE_S
    while proc.poll() is None:
        if time.monotonic() >= deadline:
            proc.kill()
            proc.wait(timeout=REAP_GRACE_S)  # a killed process exits at once
            return
        await asyncio.sleep(0.01)


class ProcessFleet(WorkerFleet):
    """Spawned worker processes over loopback TCP framed JSON.

    Frame vocabulary (all :mod:`repro.net.framing` codec values)::

        hello   {token, slot, pid}            worker → server
        shard   {id, worker, namespace,       server → worker
                 backend, tasks}
        result  {id, outcomes, backend}       worker → server
        error   {id, message}                 worker → server
        shutdown {}                           server → worker
    """

    kind = "tcp"

    def __init__(self, workers: int = 2, queue_depth: Optional[int] = None):
        super().__init__(workers, queue_depth)
        self._server: Optional[asyncio.AbstractServer] = None
        self._secret = secrets.token_hex(8)
        self._conn_waiters: Dict[int, asyncio.Future] = {}
        self._procs: Dict[int, subprocess.Popen] = {}
        self._next_shard_id = 0
        self.connect_timeout_s = CONNECT_TIMEOUT_S

    @property
    def port(self) -> int:
        assert self._server is not None, "fleet not started"
        return self._server.sockets[0].getsockname()[1]

    async def _start_workers(self) -> None:
        self._server = await asyncio.start_server(
            self._on_worker_connect, "127.0.0.1", 0
        )

    async def _stop_workers(self) -> None:
        for waiter in self._conn_waiters.values():
            if not waiter.done():
                waiter.cancel()
        self._conn_waiters.clear()
        await asyncio.gather(*map(_reap, self._procs.values()))
        self._procs.clear()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    def _spawn(self, slot: int) -> subprocess.Popen:
        env = dict(os.environ)
        # Workers only execute; all caching is parent-side (the same
        # contract run_sweep's fork pool honors), and a worker must
        # never consult the remote tier (it may *be* the remote tier).
        env["REPRO_CACHE"] = "0"
        env.pop("REPRO_CACHE_REMOTE", None)
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.serve.worker",
                "--connect",
                f"127.0.0.1:{self.port}",
                "--token",
                self._secret,
                "--slot",
                str(slot),
            ],
            env=env,
            stdin=subprocess.DEVNULL,
        )
        self._procs[slot] = proc
        return proc

    async def _retire(self, slot: int) -> None:
        """Reap the slot's process before a respawn takes its place.  It
        stays in ``_procs`` until it is reaped, so a stop that cancels the
        wait still reaps it."""
        proc = self._procs.get(slot)
        if proc is not None:
            await _reap(proc)
            if self._procs.get(slot) is proc:
                del self._procs[slot]

    async def _on_worker_connect(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Read the hello frame and hand the streams to the slot's pump."""
        decoder = FrameDecoder(WORKER_MAX_FRAME)
        hello = None
        try:
            while hello is None:
                data = await reader.read(_READ_CHUNK)
                if not data:
                    writer.close()
                    return
                frames = decoder.feed(data)
                if frames:
                    hello = frames[0]
        except (FrameError, ConnectionError):
            writer.close()
            return
        if (
            not isinstance(hello, dict)
            or hello.get("kind") != "hello"
            or hello.get("token") != self._secret
        ):
            writer.close()
            return
        waiter = self._conn_waiters.get(hello.get("slot"))
        if waiter is None or waiter.done():
            writer.close()
            return
        waiter.set_result((reader, writer, decoder))

    async def _await_worker(self, slot: int):
        """Spawn the slot's process and wait for it to dial back."""
        loop = asyncio.get_running_loop()
        waiter: asyncio.Future = loop.create_future()
        self._conn_waiters[slot] = waiter
        self._spawn(slot)
        try:
            return await asyncio.wait_for(waiter, timeout=self.connect_timeout_s)
        except asyncio.TimeoutError:
            # The process never dialed back; reap it so it cannot linger
            # (a late dial-back finds no waiter and is closed anyway).
            await self._retire(slot)
            raise
        finally:
            self._conn_waiters.pop(slot, None)

    async def _pump(self, slot: int) -> None:
        # The worker is spawned lazily, per shard in hand: a connect
        # timeout then costs that one shard (WorkerCrashed), never the
        # pump task — a dead pump would strand its queue slice and hang
        # deadline-less requests forever.
        conn = None  # (reader, writer, decoder) once a worker dialed back
        try:
            while True:
                shard = await self._next_shard()
                if shard.cancelled:
                    if not shard.future.done():
                        shard.future.cancel()
                    continue
                if conn is None:
                    try:
                        conn = await self._await_worker(slot)
                    except asyncio.TimeoutError:
                        self._fail(
                            shard,
                            WorkerCrashed(
                                f"worker slot {slot} failed to connect within "
                                f"{self.connect_timeout_s:g}s"
                            ),
                        )
                        continue
                reader, writer, decoder = conn
                shard_id = self._next_shard_id
                self._next_shard_id += 1
                try:
                    writer.write(
                        encode_frame(
                            {
                                "kind": "shard",
                                "id": shard_id,
                                "worker": shard.worker_ref,
                                "namespace": shard.namespace,
                                "backend": shard.backend,
                                "tasks": list(shard.tasks),
                            },
                            WORKER_MAX_FRAME,
                        )
                    )
                    await writer.drain()
                    reply = await self._read_frame(reader, decoder)
                except asyncio.CancelledError:
                    raise
                except (FrameError, ConnectionError, EOFError, OSError):
                    reply = None
                if reply is None:  # the worker died mid-shard
                    self.restarts += 1
                    self._emit("worker-restart")
                    self._crashed(shard)
                    writer.close()
                    await self._retire(slot)
                    conn = None  # the retried shard reconnects on dequeue
                    continue
                if reply.get("kind") == "result" and reply.get("id") == shard_id:
                    # The worker reports the backend that actually ran
                    # (a fallback executed as "sync" regardless of ask).
                    shard.backend = reply.get("backend", shard.backend)
                    self._finish(shard, list(reply["outcomes"]))
                elif reply.get("kind") == "error":
                    self._fail(shard, ShardFailed(str(reply.get("message"))))
                else:
                    self._fail(
                        shard, ShardFailed(f"unexpected worker frame {reply!r}")
                    )
        finally:
            if conn is not None:
                _reader, writer, _decoder = conn
                try:
                    writer.write(encode_frame({"kind": "shutdown"}, WORKER_MAX_FRAME))
                    await writer.drain()
                except (ConnectionError, OSError, RuntimeError):
                    pass
                writer.close()

    @staticmethod
    async def _read_frame(reader: asyncio.StreamReader, decoder: FrameDecoder):
        """Next frame from the worker (None on clean EOF)."""
        while True:
            data = await reader.read(_READ_CHUNK)
            if not data:
                decoder.eof()  # raises FrameError on a truncated frame
                return None
            frames = decoder.feed(data)
            if frames:
                return frames[0]


def make_fleet(
    kind: str, workers: int = 2, queue_depth: Optional[int] = None
) -> WorkerFleet:
    """Fleet factory keyed by the config-facing name."""
    if kind == "inproc":
        return ThreadFleet(workers, queue_depth)
    if kind == "tcp":
        return ProcessFleet(workers, queue_depth)
    raise ValueError(f"unknown fleet kind {kind!r} (expected 'inproc' or 'tcp')")
