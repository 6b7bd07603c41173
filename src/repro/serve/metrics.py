"""Serving metrics: kernel-event narration folded into ``/v1/stats``.

The service never increments a counter directly.  Every lifecycle step
is emitted as a kernel :class:`~repro.kernel.events.ServeEvent` through
an :class:`~repro.kernel.events.EventBus` (and every store access
already rides :class:`~repro.kernel.events.CacheEvent`); the bundled
:class:`ServeMetrics` observer folds both streams into the counters
``GET /v1/stats`` reports.  Tests — and operators embedding the service
— can subscribe their own observers to the same bus and see the exact
same narration.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Any, Dict, Optional

from repro.kernel.events import CacheEvent, Observer, ServeEvent

__all__ = ["ServeMetrics", "percentile"]


def percentile(sorted_values, fraction: float) -> Optional[float]:
    """Nearest-rank percentile of an ascending sequence (None if empty)."""
    if not sorted_values:
        return None
    rank = max(0, min(len(sorted_values) - 1, round(fraction * (len(sorted_values) - 1))))
    return sorted_values[rank]


class ServeMetrics(Observer):
    """Counters + a latency ring, fed exclusively by kernel events."""

    def __init__(self, latency_window: int = 2048):
        self.started_at = time.monotonic()
        self.requests_total = 0
        self.requests_active = 0
        self.requests_by_endpoint: Dict[str, int] = {}
        self.requests_errors = 0
        self.requests_cancelled = 0
        self.requests_truncated = 0
        self.tasks_total = 0
        self.tasks_cache_hits = 0
        self.tasks_executed = 0
        self.tasks_executed_by_backend: Dict[str, int] = {}
        self.tasks_retried = 0
        self.tasks_failed = 0
        self.worker_restarts = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_stores = 0
        self.remote_entry_requests = 0
        self.remote_entry_hits = 0
        self._latencies = deque(maxlen=latency_window)

    # -- kernel hooks --------------------------------------------------------

    def on_serve(self, event: ServeEvent) -> None:
        kind = event.kind
        if kind == "request-start":
            self.requests_total += event.count
            self.requests_active += event.count
            self.requests_by_endpoint[event.detail] = (
                self.requests_by_endpoint.get(event.detail, 0) + event.count
            )
        elif kind == "request-end":
            self.requests_active -= event.count
        elif kind == "request-error":
            self.requests_errors += event.count
        elif kind == "request-cancelled":
            self.requests_cancelled += event.count
        elif kind == "request-truncated":
            self.requests_truncated += event.count
        elif kind == "task-dispatch":
            self.tasks_total += event.count
        elif kind == "task-cached":
            self.tasks_total += event.count
            self.tasks_cache_hits += event.count
        elif kind == "task-executed":
            self.tasks_executed += event.count
            backend = event.detail or "sync"
            self.tasks_executed_by_backend[backend] = (
                self.tasks_executed_by_backend.get(backend, 0) + event.count
            )
        elif kind == "task-retried":
            self.tasks_retried += event.count
        elif kind == "task-failed":
            self.tasks_failed += event.count
        elif kind == "worker-restart":
            self.worker_restarts += event.count
        elif kind == "remote-entry-request":
            self.remote_entry_requests += event.count
        elif kind == "remote-entry-hit":
            self.remote_entry_hits += event.count

    def on_cache(self, event: CacheEvent) -> None:
        if event.kind == "hit":
            self.cache_hits += 1
        elif event.kind == "miss":
            self.cache_misses += 1
        elif event.kind == "store":
            self.cache_stores += 1

    # -- direct feeds (not event-shaped) -------------------------------------

    def observe_latency(self, seconds: float) -> None:
        self._latencies.append(seconds)

    # -- reporting -----------------------------------------------------------

    @property
    def hit_ratio(self) -> Optional[float]:
        if not self.tasks_total:
            return None
        return self.tasks_cache_hits / self.tasks_total

    def snapshot(
        self,
        fleet: Optional[Dict[str, Any]] = None,
        connections: Optional[Dict[str, int]] = None,
    ) -> Dict[str, Any]:
        ordered = sorted(self._latencies)
        ratio = self.hit_ratio
        return {
            "uptime_s": round(time.monotonic() - self.started_at, 3),
            "requests": {
                "total": self.requests_total,
                "active": self.requests_active,
                "by_endpoint": dict(sorted(self.requests_by_endpoint.items())),
                "errors": self.requests_errors,
                "cancelled": self.requests_cancelled,
                "truncated": self.requests_truncated,
            },
            "tasks": {
                "total": self.tasks_total,
                "cache_hits": self.tasks_cache_hits,
                "executed": self.tasks_executed,
                "executed_by_backend": dict(sorted(self.tasks_executed_by_backend.items())),
                "retried": self.tasks_retried,
                "failed": self.tasks_failed,
                "hit_ratio": None if ratio is None else round(ratio, 4),
            },
            "latency_ms": {
                "count": len(ordered),
                "p50": _ms(percentile(ordered, 0.50)),
                "p99": _ms(percentile(ordered, 0.99)),
            },
            "cache": {
                "hits": self.cache_hits,
                "misses": self.cache_misses,
                "stores": self.cache_stores,
                "remote_entry_requests": self.remote_entry_requests,
                "remote_entry_hits": self.remote_entry_hits,
            },
            "fleet": fleet or {},
            "connections": connections or {},
        }


def _ms(seconds: Optional[float]) -> Optional[float]:
    return None if seconds is None else round(seconds * 1000.0, 3)
