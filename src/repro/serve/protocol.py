"""Request/response vocabulary of the serving API.

The service speaks two wire dialects:

- **Client-facing**: plain HTTP/1.1 with JSON bodies.  Streaming
  endpoints (``POST /v1/sweep``, ``POST /v1/explore``) reply with
  ND-JSON — one JSON object per line, one chunk per batch of ready
  lines (boundaries carry no meaning; one write when none is pending).
  Tasks and outcomes inside stream lines are carried in the tagged
  codec of :mod:`repro.net.framing` (``encode_value``/``decode_value``)
  so tuples, sets, and non-string-keyed dicts survive the trip and a
  served sweep decodes to *byte-identical* outcomes versus a local
  :func:`repro.experiments.base.run_sweep`.
- **Worker-facing**: length-prefixed frames over TCP, reusing the
  :mod:`repro.net.framing` stack wholesale (see
  :mod:`repro.serve.fleet` and :mod:`repro.serve.worker`).

This module owns the client-facing half: parsing and validating request
bodies into typed requests, the structured-error shape every failure
maps to, and the stream-line constructors, so the service and the
client agree on one schema by construction.

Stream-line vocabulary (``kind`` field):

=============== ========================================================
``header``       request accepted: task count, cache-hit count
``outcome``      one task's result, in input order (``index`` ascending)
``error``        the request failed mid-stream; a final ``end`` follows
``end``          terminal line: completed/executed/hit counts, elapsed
                 seconds, and ``truncated: true`` when a deadline cut
                 the sweep short (partial results precede it)
=============== ========================================================
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.net.framing import decode_value, encode_value

__all__ = [
    "MAX_BODY_BYTES",
    "MAX_TASKS",
    "ExploreRequest",
    "ProtocolError",
    "SweepRequest",
    "decode_stream_line",
    "encode_stream_line",
    "end_line",
    "error_body",
    "error_line",
    "header_line",
    "outcome_line",
    "parse_explore_request",
    "parse_sweep_request",
]

#: Default ceiling on one request body (the HTTP layer enforces it).
MAX_BODY_BYTES = 8 << 20

#: Default ceiling on tasks per request (points × seeds).
MAX_TASKS = 10_000

#: Deadlines are clamped into (0, MAX_DEADLINE_S].
MAX_DEADLINE_S = 600.0


class ProtocolError(ValueError):
    """A request violated the API contract; maps to a structured error.

    ``code`` is a stable machine-readable slug, ``status`` the HTTP
    status the front-end answers with.
    """

    def __init__(self, code: str, message: str, status: int = 400):
        super().__init__(message)
        self.code = code
        self.status = status

    def body(self) -> Dict[str, Any]:
        return error_body(self.code, str(self))


def error_body(code: str, message: str) -> Dict[str, Any]:
    """The structured-error JSON shape shared by every failure path."""
    return {"error": {"code": code, "message": message}}


@dataclass(frozen=True)
class SweepRequest:
    """One validated ``POST /v1/sweep`` body.

    ``tasks`` is the expanded, ordered work list (one tuple per
    point × seed, exactly what the experiment's own ``run_sweep`` call
    would build), ready for cache-key computation and dispatch.
    """

    experiment: str
    points: Tuple[Tuple[Any, ...], ...]
    seeds: Tuple[int, ...]
    tasks: Tuple[Any, ...]
    deadline_s: Optional[float] = None
    no_cache: bool = False
    #: Execution backend: "sync" (reference engine) or "array" (batched
    #: vectorized engine, falling back loudly per run_sweep semantics).
    backend: str = "sync"


@dataclass(frozen=True)
class ExploreRequest:
    """One validated ``POST /v1/explore`` body (a single-task job)."""

    target: str
    budget: int
    seed: int
    mode: str
    deadline_s: Optional[float] = None
    no_cache: bool = False

    @property
    def task(self) -> Tuple[str, int, int, str]:
        return (self.target, self.budget, self.seed, self.mode)


def _parse_body(raw: bytes) -> Dict[str, Any]:
    try:
        body = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as error:
        raise ProtocolError("bad-json", f"request body is not valid JSON: {error}")
    if not isinstance(body, dict):
        raise ProtocolError("bad-json", "request body must be a JSON object")
    return body


def _reject_unknown(body: Dict[str, Any], allowed: Sequence[str]) -> None:
    unknown = sorted(set(body) - set(allowed))
    if unknown:
        raise ProtocolError(
            "unknown-field",
            f"unknown request field(s) {', '.join(unknown)}; "
            f"allowed: {', '.join(allowed)}",
        )


def _parse_deadline(body: Dict[str, Any]) -> Optional[float]:
    deadline = body.get("deadline_s")
    if deadline is None:
        return None
    if not isinstance(deadline, (int, float)) or isinstance(deadline, bool):
        raise ProtocolError("bad-deadline", "deadline_s must be a number of seconds")
    if deadline <= 0:
        raise ProtocolError("bad-deadline", "deadline_s must be positive")
    return min(float(deadline), MAX_DEADLINE_S)


def _parse_seeds(body: Dict[str, Any]) -> Tuple[int, ...]:
    seeds = body.get("seeds", 1)
    if isinstance(seeds, bool):
        raise ProtocolError("bad-seeds", "seeds must be an int count or a list of ints")
    if isinstance(seeds, int):
        if seeds < 1:
            raise ProtocolError("bad-seeds", "seed count must be >= 1")
        return tuple(range(seeds))
    if isinstance(seeds, list) and seeds and all(
        isinstance(s, int) and not isinstance(s, bool) for s in seeds
    ):
        return tuple(seeds)
    raise ProtocolError("bad-seeds", "seeds must be an int count or a non-empty list of ints")


def parse_sweep_request(
    raw: bytes, catalog, max_tasks: int = MAX_TASKS
) -> SweepRequest:
    """Validate one sweep body against the surface catalog.

    ``catalog`` is the :class:`repro.serve.catalog.Catalog` holding the
    servable sweep surfaces; the surface validates point shapes and
    builds the canonical per-(point, seed) task tuples.
    """
    body = _parse_body(raw)
    _reject_unknown(
        body, ("experiment", "points", "seeds", "deadline_s", "no_cache", "backend")
    )

    experiment = body.get("experiment")
    if not isinstance(experiment, str) or not experiment:
        raise ProtocolError("bad-experiment", "experiment must be a non-empty string")
    surface = catalog.get(experiment)  # raises ProtocolError("unknown-experiment")

    raw_points = body.get("points")
    if raw_points is None:
        points = surface.default_points
    else:
        if not isinstance(raw_points, list) or not raw_points:
            raise ProtocolError("bad-points", "points must be a non-empty list")
        points = tuple(surface.coerce_point(point) for point in raw_points)

    seeds = _parse_seeds(body)
    if len(points) * len(seeds) > max_tasks:
        raise ProtocolError(
            "too-many-tasks",
            f"{len(points)} point(s) x {len(seeds)} seed(s) = "
            f"{len(points) * len(seeds)} tasks exceeds the {max_tasks}-task limit",
            status=413,
        )
    tasks = tuple(surface.build_task(point, seed) for point in points for seed in seeds)

    no_cache = body.get("no_cache", False)
    if not isinstance(no_cache, bool):
        raise ProtocolError("bad-no-cache", "no_cache must be a boolean")
    backend = body.get("backend", "sync")
    if backend not in ("sync", "array"):
        raise ProtocolError(
            "bad-backend", "backend must be 'sync' or 'array'"
        )
    return SweepRequest(
        experiment=experiment,
        points=points,
        seeds=seeds,
        tasks=tasks,
        deadline_s=_parse_deadline(body),
        no_cache=no_cache,
        backend=backend,
    )


def parse_explore_request(
    raw: bytes, max_budget: int = 5_000
) -> ExploreRequest:
    """Validate one ``POST /v1/explore`` body."""
    from repro.explore.targets import TARGETS

    body = _parse_body(raw)
    _reject_unknown(body, ("target", "budget", "seed", "mode", "deadline_s", "no_cache"))

    target = body.get("target")
    if not isinstance(target, str) or target not in TARGETS:
        raise ProtocolError(
            "unknown-target",
            f"unknown exploration target {target!r}; known: {', '.join(sorted(TARGETS))}",
            status=404 if isinstance(target, str) else 400,
        )
    budget = body.get("budget", 200)
    if not isinstance(budget, int) or isinstance(budget, bool) or budget < 1:
        raise ProtocolError("bad-budget", "budget must be a positive integer")
    if budget > max_budget:
        raise ProtocolError(
            "bad-budget", f"budget {budget} exceeds the {max_budget} limit", status=413
        )
    seed = body.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ProtocolError("bad-seed", "seed must be an integer")
    mode = body.get("mode", "auto")
    if mode not in ("auto", "enumerate", "sample"):
        raise ProtocolError("bad-mode", "mode must be auto, enumerate, or sample")
    no_cache = body.get("no_cache", False)
    if not isinstance(no_cache, bool):
        raise ProtocolError("bad-no-cache", "no_cache must be a boolean")
    return ExploreRequest(
        target=target,
        budget=budget,
        seed=seed,
        mode=mode,
        deadline_s=_parse_deadline(body),
        no_cache=no_cache,
    )


# ---------------------------------------------------------------------------
# Stream lines
# ---------------------------------------------------------------------------


def encode_stream_line(obj: Dict[str, Any]) -> bytes:
    """One ND-JSON line (UTF-8, newline-terminated)."""
    return (json.dumps(obj, separators=(",", ":"), ensure_ascii=False) + "\n").encode(
        "utf-8"
    )


def decode_stream_line(line: bytes) -> Dict[str, Any]:
    """Invert :func:`encode_stream_line` (client side)."""
    return json.loads(line.decode("utf-8"))


def header_line(request_id: int, namespace: str, tasks: int, cached: int) -> Dict[str, Any]:
    return {
        "kind": "header",
        "request_id": request_id,
        "namespace": namespace,
        "tasks": tasks,
        "cached": cached,
    }


def outcome_line(index: int, task: Any, outcome: Any, cached: bool) -> Dict[str, Any]:
    return {
        "kind": "outcome",
        "index": index,
        "task": encode_value(task),
        "outcome": encode_value(outcome),
        "cached": cached,
    }


def decode_outcome_line(line: Dict[str, Any]) -> Tuple[int, Any, Any, bool]:
    """``(index, task, outcome, cached)`` with codec values restored."""
    return (
        line["index"],
        decode_value(line["task"]),
        decode_value(line["outcome"]),
        line["cached"],
    )


def error_line(code: str, message: str) -> Dict[str, Any]:
    return {"kind": "error", **error_body(code, message)["error"], "code": code}


def end_line(
    completed: int,
    total: int,
    cache_hits: int,
    executed: int,
    elapsed_s: float,
    truncated: bool = False,
    failed: bool = False,
) -> Dict[str, Any]:
    return {
        "kind": "end",
        "completed": completed,
        "total": total,
        "cache_hits": cache_hits,
        "executed": executed,
        "elapsed_s": round(elapsed_s, 6),
        "truncated": truncated,
        "failed": failed,
    }


@dataclass
class StreamSummary:
    """Client-side accumulator over one response stream."""

    header: Optional[Dict[str, Any]] = None
    outcomes: List[Any] = field(default_factory=list)
    tasks: List[Any] = field(default_factory=list)
    errors: List[Dict[str, Any]] = field(default_factory=list)
    end: Optional[Dict[str, Any]] = None

    def feed(self, line: Dict[str, Any]) -> None:
        kind = line.get("kind")
        if kind == "header":
            self.header = line
        elif kind == "outcome":
            index, task, outcome, _cached = decode_outcome_line(line)
            if index != len(self.outcomes):
                raise ProtocolError(
                    "out-of-order",
                    f"stream emitted index {index}, expected {len(self.outcomes)}",
                )
            self.tasks.append(task)
            self.outcomes.append(outcome)
        elif kind == "error":
            self.errors.append(line)
        elif kind == "end":
            self.end = line
        else:
            raise ProtocolError("bad-line", f"unknown stream line kind {kind!r}")

    @property
    def ok(self) -> bool:
        return (
            self.end is not None
            and not self.errors
            and not self.end.get("failed")
            and not self.end.get("truncated")
        )

    @property
    def truncated(self) -> bool:
        return bool(self.end and self.end.get("truncated"))
