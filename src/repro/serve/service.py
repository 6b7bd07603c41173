"""The sweep service: cache partition, fleet dispatch, ordered streams.

:class:`SweepService` glues the layers together: the HTTP front-end
(:mod:`repro.serve.httpd`) parses requests, the catalog
(:mod:`repro.serve.catalog`) names the work, the content-addressed
store (:mod:`repro.cache`) answers what has already run, and a worker
fleet (:mod:`repro.serve.fleet`) executes the misses.  The request
handler mirrors :func:`repro.experiments.base.run_sweep` exactly —
partition tasks into hits and misses, dispatch only the misses, emit
outcomes **in input order** — so a served sweep is byte-identical to a
local one by construction.

Routes::

    GET  /v1/experiments   the servable surface catalog
    GET  /v1/stats         request/task/cache/fleet/connection counters
    GET  /v1/cache/<key>   one store entry as a tagged-JSON frame
                           (the remote cache tier; never pickle)
    POST /v1/sweep         ND-JSON stream of sweep outcomes
    POST /v1/explore       ND-JSON stream (one exploration summary)

Robustness contract (each verified by ``tests/serve``):

- a per-request deadline truncates the stream with an explicit
  ``end.truncated`` marker after the partial results;
- a client that disconnects mid-stream cancels its pending shards (the
  HTTP layer cancels the producer; the ``finally`` here does the rest);
- :meth:`SweepService.stop` drains: in-flight requests finish (up to
  the drain timeout), new ones answer 503;
- every lifecycle step is narrated as a kernel
  :class:`~repro.kernel.events.ServeEvent` through the service's
  :class:`~repro.kernel.events.EventBus` — the bundled
  :class:`~repro.serve.metrics.ServeMetrics` observer is merely the
  counter ``GET /v1/stats`` happens to report.
"""

from __future__ import annotations

import asyncio
import math
import time
from typing import Any, AsyncIterator, Dict, List, Optional, Tuple

from repro.cache import CanonicalizationError, active_cache
from repro.cache.store import RunCache
from repro.experiments.base import shutdown_pool
from repro.kernel.events import EventBus, Observer, ServeEvent
from repro.serve.catalog import (
    EXPLORE_NAMESPACE,
    EXPLORE_WORKER_REF,
    Catalog,
    default_catalog,
)
from repro.serve.fleet import (
    Shard,
    ShardFailed,
    WorkerCrashed,
    WorkerFleet,
    make_fleet,
)
from repro.serve.httpd import (
    HttpError,
    HttpRequest,
    HttpServer,
    Response,
    StreamResponse,
    json_response,
    split_path,
)
from repro.serve.metrics import ServeMetrics
from repro.serve.protocol import (
    MAX_BODY_BYTES,
    MAX_TASKS,
    encode_stream_line,
    end_line,
    error_line,
    header_line,
    outcome_line,
    parse_explore_request,
    parse_sweep_request,
)

__all__ = ["SweepService"]

#: Sentinel for "no outcome yet" in the ordered result array.
_PENDING = object()

#: How long :meth:`SweepService.stop` waits for in-flight requests.
DEFAULT_DRAIN_S = 5.0

#: Cache partition and write-through run on the event loop (the store
#: is not thread-safe); yield to the loop every this many tasks so a
#: 10,000-task request cannot starve concurrent streams or /v1/stats.
YIELD_EVERY = 128


class _Job:
    """One request's dispatchable form, sweep and explore alike."""

    __slots__ = ("namespace", "worker_ref", "tasks", "cacheable", "deadline_s", "backend")

    def __init__(self, namespace, worker_ref, tasks, cacheable, deadline_s, backend="sync"):
        self.namespace = namespace
        self.worker_ref = worker_ref
        self.tasks = tasks
        self.cacheable = cacheable
        self.deadline_s = deadline_s
        self.backend = backend


class SweepService:
    """The wired-up service; ``start()`` binds, ``stop()`` drains."""

    def __init__(
        self,
        catalog: Optional[Catalog] = None,
        fleet: Optional[WorkerFleet] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        fleet_kind: str = "inproc",
        workers: int = 2,
        max_body: int = MAX_BODY_BYTES,
        max_tasks: int = MAX_TASKS,
        observers: Tuple[Observer, ...] = (),
        cache: Optional[RunCache] = None,
    ):
        self.catalog = catalog if catalog is not None else default_catalog()
        self.fleet = fleet if fleet is not None else make_fleet(fleet_kind, workers)
        self.metrics = ServeMetrics()
        self.bus = EventBus((self.metrics,) + tuple(observers))
        self.http = HttpServer(self._handle, host=host, port=port, max_body=max_body)
        self.max_tasks = max_tasks
        self._active = 0
        self._request_seq = 0
        self._stopping = False
        self._idle = asyncio.Event()
        self._idle.set()
        #: An explicit store pins the server to one RunCache (tests,
        #: embedding); None follows the process-wide active_cache().
        self._explicit_cache = cache
        self._subscribed_cache: Optional[RunCache] = None

    # -- lifecycle -----------------------------------------------------------

    @property
    def port(self) -> int:
        return self.http.port

    @property
    def url(self) -> str:
        return f"http://{self.http.host}:{self.port}"

    async def start(self) -> None:
        shutdown_pool()  # the serving loop never coexists with a fork pool
        self._stopping = False
        await self.fleet.start()
        self.fleet.on_event = lambda kind, count, detail=None: self.bus.on_serve(
            ServeEvent(kind=kind, count=count, detail=detail)
        )
        await self.http.start()

    async def stop(self, drain_s: float = DEFAULT_DRAIN_S) -> None:
        """Drain: finish in-flight requests, then tear the stack down."""
        self._stopping = True
        try:
            await asyncio.wait_for(self._idle.wait(), timeout=drain_s)
        except asyncio.TimeoutError:
            pass
        await self.http.stop()
        await self.fleet.stop()
        cache = self._explicit_cache if self._explicit_cache is not None else active_cache()
        if cache is not None:
            cache.flush()

    def _cache(self) -> Optional[RunCache]:
        """The store the server answers from, wired for serving.

        The metrics observer is attached once, and ``consult_remote``
        is cleared: the server *is* the remote tier, so the store it
        answers from must never itself consult one (recursion).
        """
        cache = self._explicit_cache if self._explicit_cache is not None else active_cache()
        if cache is not None and cache is not self._subscribed_cache:
            cache.consult_remote = False
            cache.subscribe(self.metrics)
            self._subscribed_cache = cache
        return cache

    # -- routing -------------------------------------------------------------

    async def _handle(self, request: HttpRequest) -> Any:
        parts = split_path(request.path)
        if self._stopping:
            raise HttpError(503, "draining", "server is shutting down")
        if parts == ("v1", "experiments") and request.method == "GET":
            return json_response(self.catalog.describe())
        if parts == ("v1", "stats") and request.method == "GET":
            return json_response(
                self.metrics.snapshot(self.fleet.describe(), self.http.counters())
            )
        if len(parts) == 3 and parts[:2] == ("v1", "cache") and request.method == "GET":
            return self._cache_entry(parts[2])
        if parts == ("v1", "sweep") and request.method == "POST":
            return self._stream_response(self._sweep_job(request.body), "sweep")
        if parts == ("v1", "explore") and request.method == "POST":
            return self._stream_response(self._explore_job(request.body), "explore")
        if parts[:1] == ("v1",) and request.method not in ("GET", "POST"):
            raise HttpError(405, "bad-method", f"{request.method} not supported")
        raise HttpError(404, "not-found", f"no route for {request.method} {request.path}")

    def _sweep_job(self, body: bytes) -> _Job:
        parsed = parse_sweep_request(body, self.catalog, self.max_tasks)
        surface = self.catalog.get(parsed.experiment)
        # The batched backend caches under its own namespace — the same
        # ``@array`` isolation run_sweep(backend="array") applies — so
        # reference and batched outcomes never answer for each other.
        namespace = surface.namespace
        if parsed.backend == "array":
            namespace = f"{namespace}@array"
        return _Job(
            namespace=namespace,
            worker_ref=surface.worker_ref,
            tasks=parsed.tasks,
            cacheable=surface.cacheable and not parsed.no_cache,
            deadline_s=parsed.deadline_s,
            backend=parsed.backend,
        )

    def _explore_job(self, body: bytes) -> _Job:
        parsed = parse_explore_request(body)
        return _Job(
            namespace=EXPLORE_NAMESPACE,
            worker_ref=EXPLORE_WORKER_REF,
            tasks=(parsed.task,),
            cacheable=not parsed.no_cache,
            deadline_s=parsed.deadline_s,
        )

    def _cache_entry(self, key: str) -> Response:
        """The remote-tier read: one entry by content key, as a wire frame.

        Entries leave this process in the :mod:`repro.net.framing`
        codec (:meth:`RunCache.entry_wire`), never as pickle — a client
        must not have to unpickle bytes it received over the network.
        """
        self.bus.on_serve(ServeEvent(kind="remote-entry-request", detail=key[:16]))
        cache = self._cache()
        entry = None
        if cache is not None and key.isalnum():
            entry = cache.entry_wire(key)
        if entry is None:
            raise HttpError(404, "no-entry", f"no cache entry {key[:64]!r}")
        self.bus.on_serve(ServeEvent(kind="remote-entry-hit", detail=key[:16]))
        return Response(body=entry, content_type="application/octet-stream")

    # -- the streaming core --------------------------------------------------

    def _stream_response(self, job: _Job, endpoint: str) -> StreamResponse:
        return StreamResponse(lines=self._stream(job, endpoint))

    async def _stream(self, job: _Job, endpoint: str) -> AsyncIterator[bytes]:
        """The ordered ND-JSON stream for one request, in ready batches."""
        started = time.monotonic()
        self._active += 1
        self._idle.clear()
        self.bus.on_serve(
            ServeEvent(kind="request-start", namespace=job.namespace, detail=endpoint)
        )
        status = "ok"
        try:
            async for batch in self._run_job(job, started):
                yield batch
        except asyncio.CancelledError:
            status = "cancelled"
            raise
        except GeneratorExit:
            status = "cancelled"
            raise
        except Exception as error:  # a service bug; narrate, then re-raise
            status = "error"
            self.bus.on_serve(
                ServeEvent(
                    kind="request-error",
                    namespace=job.namespace,
                    detail=f"{type(error).__name__}: {error}",
                )
            )
            raise
        finally:
            self._active -= 1
            if self._active == 0:
                self._idle.set()
            if status == "cancelled":
                self.bus.on_serve(
                    ServeEvent(kind="request-cancelled", namespace=job.namespace)
                )
            self.bus.on_serve(
                ServeEvent(kind="request-end", namespace=job.namespace, detail=endpoint)
            )
            self.metrics.observe_latency(time.monotonic() - started)

    async def _run_job(self, job: _Job, started: float) -> AsyncIterator[bytes]:
        tasks = job.tasks
        total = len(tasks)
        deadline = None if job.deadline_s is None else started + job.deadline_s

        # 1. Cache partition — the run_sweep split, served from the store.
        cache = self._cache() if job.cacheable else None
        results: List[Any] = [_PENDING] * total
        keys: List[Optional[str]] = [None] * total
        hits = 0
        if cache is not None:
            for index, task in enumerate(tasks):
                if index and index % YIELD_EVERY == 0:
                    await asyncio.sleep(0)
                try:
                    key = cache.key(job.namespace, job.worker_ref, task)
                except CanonicalizationError:
                    continue
                keys[index] = key
                hit, outcome = cache.get(key, job.namespace)
                if hit:
                    results[index] = outcome
                    hits += 1
        miss_indices = [i for i in range(total) if results[i] is _PENDING]
        if hits:
            self.bus.on_serve(
                ServeEvent(kind="task-cached", namespace=job.namespace, count=hits)
            )
        if miss_indices:
            self.bus.on_serve(
                ServeEvent(
                    kind="task-dispatch",
                    namespace=job.namespace,
                    count=len(miss_indices),
                )
            )
        self._request_seq += 1
        # One yield per batch of ready lines: the header with the leading hits,
        # then what each shard makes ready, the end line joined to the last.
        batch = [encode_stream_line(header_line(self._request_seq, job.namespace, total, hits))]

        # 2. Shard the misses (contiguous in index order, so awaiting
        #    shards in submission order yields outcomes in input order).
        shards = self._make_shards(job, miss_indices, tasks)
        submitter = (
            asyncio.get_running_loop().create_task(self._submit_all(shards))
            if shards
            else None
        )

        executed = 0
        pointer = 0  # next index to emit

        def ready_lines():
            nonlocal pointer
            while pointer < total and results[pointer] is not _PENDING:
                yield encode_stream_line(
                    outcome_line(
                        pointer,
                        tasks[pointer],
                        results[pointer],
                        pointer not in miss_set,
                    )
                )
                pointer += 1

        def end(**flags) -> bytes:
            return encode_stream_line(
                end_line(
                    completed=pointer,
                    total=total,
                    cache_hits=hits,
                    executed=executed,
                    elapsed_s=time.monotonic() - started,
                    **flags,
                )
            )

        miss_set = set(miss_indices)
        try:
            batch += ready_lines()  # leading cache hits
            for shard in shards:
                yield b"".join(batch)
                batch = []
                remaining = None if deadline is None else deadline - time.monotonic()
                try:
                    # The pre-check must raise *inside* this try: an
                    # expiry landing between shards takes the same
                    # truncated-end path as one landing mid-await.
                    # asyncio.wait binds no task, unlike wait_for (see httpd).
                    if remaining is not None and remaining <= 0:
                        raise asyncio.TimeoutError
                    await asyncio.wait((shard.future,), timeout=remaining)
                    if not shard.future.done():
                        raise asyncio.TimeoutError
                    outcomes = shard.future.result()
                except asyncio.TimeoutError:
                    self.bus.on_serve(
                        ServeEvent(kind="request-truncated", namespace=job.namespace)
                    )
                    yield end(truncated=True)
                    return
                except (ShardFailed, WorkerCrashed) as error:
                    code = (
                        "worker-crashed"
                        if isinstance(error, WorkerCrashed)
                        else "worker-error"
                    )
                    yield encode_stream_line(error_line(code, str(error))) + end(failed=True)
                    return
                executed += len(shard.tasks)
                for offset, (index, outcome) in enumerate(zip(shard.indices, outcomes)):
                    if offset and offset % YIELD_EVERY == 0:
                        await asyncio.sleep(0)
                    results[index] = outcome
                    if cache is not None and keys[index] is not None:
                        cache.put(
                            keys[index],
                            outcome,
                            namespace=job.namespace,
                            worker=job.worker_ref,
                            point=tasks[index],
                        )
                batch += ready_lines()
            batch.append(end())
            yield b"".join(batch)
        finally:
            if submitter is not None and not submitter.done():
                submitter.cancel()
                try:
                    await submitter
                except (asyncio.CancelledError, Exception):
                    pass
            for shard in shards:
                if not shard.future.done():
                    shard.cancelled = True  # pumps drop it on dequeue
                    shard.future.cancel()

    def _make_shards(self, job: _Job, miss_indices, tasks) -> List[Shard]:
        """Contiguous slices of the misses, sized for retry granularity."""
        if not miss_indices:
            return []
        loop = asyncio.get_running_loop()
        per_shard = max(1, math.ceil(len(miss_indices) / (self.fleet.workers * 4)))
        shards = []
        for start in range(0, len(miss_indices), per_shard):
            chunk = miss_indices[start : start + per_shard]
            shard = Shard(
                worker_ref=job.worker_ref,
                namespace=job.namespace,
                indices=tuple(chunk),
                tasks=tuple(tasks[i] for i in chunk),
                backend=job.backend,
            )
            shard.future = loop.create_future()
            shards.append(shard)
        return shards

    async def _submit_all(self, shards: List[Shard]) -> None:
        """Feed the fleet queue; backpressure suspends *this* task only."""
        for shard in shards:
            if shard.cancelled:
                continue
            await self.fleet.submit(shard)

    # -- introspection (tests, CLI) -----------------------------------------

    def describe(self) -> Dict[str, Any]:
        return {
            "url": self.url,
            "experiments": list(self.catalog.ids()),
            "fleet": self.fleet.describe(),
        }
