"""Simulation-as-a-service: the repo's sweeps behind an asyncio HTTP API.

Every simulation here is a pure function of its task tuple, and the
content-addressed run cache (:mod:`repro.cache`) already knows which of
them have run anywhere.  This package turns that pair of facts into a
service: ``POST /v1/sweep`` canonicalizes each requested (point, seed)
to its cache key, answers hits straight from the store, shards the
misses across a worker fleet, and streams outcomes back **in input
order** as ND-JSON — byte-identical to a local
:func:`repro.experiments.base.run_sweep` of the same tasks.  The shared
store doubles as a read-through **remote cache tier**
(:mod:`repro.cache.remote`): with ``REPRO_CACHE_REMOTE=<url>`` set, any
local run consults the service before executing.

Layer map (each module's docstring carries its contract):

====================== ==================================================
:mod:`~repro.serve.protocol`  request validation, stream-line vocabulary
:mod:`~repro.serve.catalog`   which sweeps are servable, and as what
:mod:`~repro.serve.httpd`     minimal asyncio HTTP/1.1 front-end
:mod:`~repro.serve.fleet`     thread and subprocess worker fabrics
:mod:`~repro.serve.worker`    the spawned worker process entry point
:mod:`~repro.serve.service`   cache partition + ordered stream assembly
:mod:`~repro.serve.metrics`   kernel-event narration → ``GET /v1/stats``
:mod:`~repro.serve.client`    stdlib client (CLI, tests, benchmark)
:mod:`~repro.serve.runner`    background-thread harness for embedding
====================== ==================================================

CLI: ``python -m repro.serve serve|request|stats|smoke`` (see
``docs/serve.md``).
"""

from repro._lazy import lazy_surface

__all__ = [
    "Catalog",
    "ProcessFleet",
    "ProtocolError",
    "ServeClient",
    "ServeError",
    "ServerThread",
    "StreamSummary",
    "SweepService",
    "SweepSurface",
    "ThreadFleet",
    "WorkerFleet",
    "default_catalog",
    "make_fleet",
]

__getattr__, __dir__ = lazy_surface(
    __name__,
    {
        ".catalog": ("Catalog", "SweepSurface", "default_catalog"),
        ".client": ("ServeClient", "ServeError"),
        ".fleet": ("ProcessFleet", "ThreadFleet", "WorkerFleet", "make_fleet"),
        ".protocol": ("ProtocolError", "StreamSummary"),
        ".runner": ("ServerThread",),
        ".service": ("SweepService",),
    },
)
