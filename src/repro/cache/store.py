"""The disk-backed run cache with an in-memory LRU front.

Layout under the cache root::

    objects/<aa>/<key>.pkl   one entry per cached simulation outcome
    stats.json               cumulative access counters (see below)

An entry is a pickled dict carrying the namespace, the worker's
``module:qualname``, the code fingerprint its key was computed under,
the original point, and the outcome — enough to *re-execute* the
simulation (``verify``) and to attribute disk usage per namespace
(``stats``), not just to answer lookups.

Writes are buffered in the parent process (workers return outcomes;
only the parent touches the cache) and flushed in batches with
atomic ``os.replace`` renames, so a crashed run never leaves a torn
entry.  :func:`repro.experiments.base.shutdown_pool` and an ``atexit``
hook both flush, which also folds this process's access counters into
``stats.json`` — that file is how separate invocations (cold CI run,
warm CI run) compare executed-simulation counts.

Every access is narrated as a kernel
:class:`~repro.kernel.events.CacheEvent` through an
:class:`~repro.kernel.events.EventBus`, so hit/miss/byte counters ride
the same observer machinery as the simulation events;
:class:`CacheStatsObserver` is the bundled counter, and callers may
:meth:`RunCache.subscribe` their own observers.
"""

from __future__ import annotations

import io
import json
import os
import pickle
import shutil
import tempfile
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple, Union

from repro.cache.digest import code_fingerprint, digest_key, worker_ref
from repro.kernel.events import CacheEvent, EventBus, Observer
from repro.net.framing import FrameDecoder, FrameError, encode_frame
from repro.util.rng import make_rng

__all__ = [
    "CacheStats",
    "CacheStatsObserver",
    "RunCache",
    "VerifyReport",
]

#: Fixed pickle protocol so entry bytes are stable across interpreters
#: new enough for the repo (>= 3.9).
PICKLE_PROTOCOL = 4

#: Entry-dict schema version (independent of the key schema).
ENTRY_SCHEMA = 1

#: Ceiling on one remote-tier wire frame (matches the serve worker
#: protocol's cap).  Pickle never crosses the network — entries travel
#: as tagged-JSON frames (:mod:`repro.net.framing`) because unpickling
#: bytes a remote peer controls would be arbitrary code execution.
ENTRY_WIRE_MAX = 1 << 26

_COUNTER_FIELDS = (
    "hits",
    "misses",
    "stores",
    "bytes_read",
    "bytes_written",
    "executed_sync",
    "executed_array",
    "executed_fallback",
)


@dataclass
class CacheStats:
    """Access counters; ``misses`` == simulations actually executed.

    ``executed_sync`` / ``executed_array`` break the executed count
    down by engine backend (reference vs batched array path) so warm
    and cold behavior stays auditable per backend; they are reported by
    :func:`repro.experiments.base.run_sweep`, which knows how each miss
    was actually run.  ``executed_fallback`` counts the subset of
    ``executed_sync`` that an array-backed sweep *wanted* to batch but
    could not (no twin, ineligible point, or a refused shard) — a
    nonzero value in an all-array workload is the audit trail of the
    fallback ``RuntimeWarning``.
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    executed_sync: int = 0
    executed_array: int = 0
    executed_fallback: int = 0

    @property
    def executed(self) -> int:
        """Simulations this process had to run (cache could not answer)."""
        return self.misses

    def as_dict(self) -> Dict[str, int]:
        data = {name: getattr(self, name) for name in _COUNTER_FIELDS}
        data["executed"] = self.executed
        return data

    def delta_since(self, earlier: "CacheStats") -> "CacheStats":
        return CacheStats(
            **{
                name: getattr(self, name) - getattr(earlier, name)
                for name in _COUNTER_FIELDS
            }
        )

    def snapshot(self) -> "CacheStats":
        return CacheStats(**{name: getattr(self, name) for name in _COUNTER_FIELDS})

    def __bool__(self) -> bool:
        return any(getattr(self, name) for name in _COUNTER_FIELDS)


class CacheStatsObserver(Observer):
    """Kernel observer that folds :class:`CacheEvent` s into counters.

    Alongside the process-wide totals, accesses are attributed to their
    event's namespace in ``by_namespace`` (flush events carry no
    namespace and stay global-only), so the ``@verify`` proof plane,
    the EXPLORE namespaces, and the serving tiers stay distinguishable
    in ``python -m repro.cache stats``.
    """

    def __init__(self) -> None:
        self.stats = CacheStats()
        self.by_namespace: Dict[str, CacheStats] = {}

    def _bucket(self, event: CacheEvent) -> Optional[CacheStats]:
        if not event.namespace:
            return None
        bucket = self.by_namespace.get(event.namespace)
        if bucket is None:
            bucket = self.by_namespace[event.namespace] = CacheStats()
        return bucket

    def on_cache(self, event: CacheEvent) -> None:
        # NB: CacheStats is falsy while all-zero, so bucket tests must
        # be identity checks or the namespace's first event vanishes.
        bucket = self._bucket(event)
        if event.kind == "hit":
            self.stats.hits += 1
            self.stats.bytes_read += event.nbytes
            if bucket is not None:
                bucket.hits += 1
                bucket.bytes_read += event.nbytes
        elif event.kind == "miss":
            self.stats.misses += 1
            if bucket is not None:
                bucket.misses += 1
        elif event.kind == "store":
            self.stats.stores += 1
            self.stats.bytes_written += event.nbytes
            if bucket is not None:
                bucket.stores += 1
                bucket.bytes_written += event.nbytes


@dataclass
class VerifyReport:
    """The outcome of re-executing a sample of cached entries."""

    checked: int = 0
    #: Entries whose re-execution did not reproduce the stored outcome
    #: byte-for-byte: (key, worker ref) pairs.  Any entry here means the
    #: cache (or the determinism contract) is broken.
    mismatches: List[Tuple[str, str]] = field(default_factory=list)
    #: Entries written under a different code fingerprint; unreachable
    #: through current keys, so skipped rather than re-executed.
    stale: int = 0
    #: Entries whose worker could not be imported (e.g. a test-local
    #: closure); skipped.
    unresolvable: int = 0

    @property
    def ok(self) -> bool:
        return not self.mismatches


def _resolve_worker(ref: str) -> Optional[Callable]:
    """Import ``module:qualname`` back into a callable (None if gone)."""
    module_name, _, qualname = ref.partition(":")
    if not module_name or not qualname or "<locals>" in qualname:
        return None
    import importlib

    try:
        obj: Any = importlib.import_module(module_name)
        for part in qualname.split("."):
            obj = getattr(obj, part)
    except (ImportError, AttributeError):
        return None
    return obj if callable(obj) else None


class RunCache:
    """Content-addressed store for deterministic simulation outcomes."""

    def __init__(
        self,
        root: Union[str, Path],
        memory_entries: int = 4096,
        flush_every: int = 64,
    ):
        self.root = Path(root)
        #: Whether misses may consult the ``REPRO_CACHE_REMOTE`` tier.
        #: :mod:`repro.serve` clears this on the store it answers from —
        #: the serving side of the tier must never also be a client of
        #: it (recursion), whatever the environment says.
        self.consult_remote = True
        self._memory: "OrderedDict[str, bytes]" = OrderedDict()
        self._memory_entries = max(0, memory_entries)
        self._flush_every = max(1, flush_every)
        self._pending: Dict[str, bytes] = {}
        self._stats_observer = CacheStatsObserver()
        self._extra_observers: Tuple[Observer, ...] = ()
        self._bus = EventBus((self._stats_observer,))
        self._persisted = CacheStats()
        self._persisted_ns: Dict[str, CacheStats] = {}

    # -- observers -----------------------------------------------------------

    @property
    def stats(self) -> CacheStats:
        """This process's counters (cumulative counters live in stats.json)."""
        return self._stats_observer.stats

    def subscribe(self, observer: Observer) -> None:
        """Fan cache events out to ``observer`` as well."""
        self._extra_observers += (observer,)
        self._bus = EventBus((self._stats_observer,) + self._extra_observers)

    def note_executed(self, backend: str, count: int) -> None:
        """Attribute ``count`` executed simulations to ``backend``.

        Called by sweep drivers after actually running cache misses, so
        the per-backend split (``executed_sync`` / ``executed_array``)
        lands in the same persisted counters as hits and misses.
        """
        if count <= 0:
            return
        stats = self._stats_observer.stats
        if backend == "array":
            stats.executed_array += count
        else:
            stats.executed_sync += count

    def note_fallback(self, count: int) -> None:
        """Count array-backed sweep points that fell back to ``run_sync``.

        These points also land in ``executed_sync`` once the reference
        path runs them; this counter records *why* they were sync in an
        array-backed sweep, surfacing silent batched-coverage gaps in
        ``python -m repro.cache stats``.
        """
        if count <= 0:
            return
        self._stats_observer.stats.executed_fallback += count

    def _emit(self, kind: str, namespace: str, key: str, nbytes: int) -> None:
        self._bus.on_cache(
            CacheEvent(kind=kind, namespace=namespace, key=key, nbytes=nbytes)
        )

    # -- keys ----------------------------------------------------------------

    def key(self, namespace: str, worker: Union[str, Callable], point: object) -> str:
        """The content-addressed key for one (namespace, worker, point).

        Raises :class:`~repro.cache.digest.CanonicalizationError` for
        uncacheable points; callers fall back to plain execution.
        """
        return digest_key(namespace, worker, point, code_fingerprint())

    def _path(self, key: str) -> Path:
        return self.root / "objects" / key[:2] / f"{key}.pkl"

    # -- lookups and stores --------------------------------------------------

    def get(self, key: str, namespace: str = "") -> Tuple[bool, Any]:
        """``(True, outcome)`` on a hit, ``(False, None)`` on a miss."""
        entry_bytes = self._memory.get(key)
        if entry_bytes is not None:
            self._memory.move_to_end(key)
        else:
            entry_bytes = self._pending.get(key)
        fresh = entry_bytes is None
        if fresh:
            try:
                entry_bytes = self._path(key).read_bytes()
            except OSError:
                entry_bytes = self._fetch_remote(key)
                if entry_bytes is None:
                    self._emit("miss", namespace, key, 0)
                    return False, None
        try:
            entry = pickle.loads(entry_bytes)
        except Exception:
            entry = None
        if not (
            isinstance(entry, dict)
            and entry.get("schema") == ENTRY_SCHEMA
            and "outcome" in entry
        ):
            # A torn or foreign file at the key's path: treat as a miss;
            # the subsequent put overwrites it atomically.
            self._emit("miss", namespace, key, 0)
            return False, None
        if fresh:
            self._remember(key, entry_bytes)
        self._emit("hit", namespace, key, len(entry_bytes))
        return True, entry["outcome"]

    def _fetch_remote(self, key: str) -> Optional[bytes]:
        """Consult the read-through remote tier on a local disk miss.

        Returns a validated entry, decoded from its wire frame and
        re-pickled *locally* (written through to the pending buffer so
        it persists on the next flush), or None.  The tier is opt-in
        (``REPRO_CACHE_REMOTE``) and fails silently — see
        :mod:`repro.cache.remote` for the latch policy.
        """
        if not self.consult_remote:
            return None
        from repro.cache import remote

        raw = remote.fetch_entry(key)
        if raw is None:
            return None
        # The wire form is one tagged-JSON frame, never pickle: remote
        # bytes are untrusted and must not reach pickle.loads.
        try:
            decoder = FrameDecoder(ENTRY_WIRE_MAX)
            frames = decoder.feed(raw)
            decoder.eof()
        except FrameError:
            return None
        if len(frames) != 1:
            return None
        entry = frames[0]
        if (
            not isinstance(entry, dict)
            or entry.get("schema") != ENTRY_SCHEMA
            or entry.get("fingerprint") != code_fingerprint()
        ):
            return None  # foreign or stale entry: not trustworthy here
        try:
            entry_bytes = pickle.dumps(entry, PICKLE_PROTOCOL)
        except Exception:
            return None
        self._pending[key] = entry_bytes
        if len(self._pending) >= self._flush_every:
            self.flush()
        return entry_bytes

    def entry_bytes(self, key: str) -> Optional[bytes]:
        """The raw pickled entry for ``key``, or None — without events.

        Checks the LRU front, the write-back buffer, and disk.  Local
        use only; the network-facing form is :meth:`entry_wire`.
        """
        entry_bytes = self._memory.get(key)
        if entry_bytes is None:
            entry_bytes = self._pending.get(key)
        if entry_bytes is not None:
            return entry_bytes
        try:
            return self._path(key).read_bytes()
        except OSError:
            return None

    def entry_wire(self, key: str) -> Optional[bytes]:
        """The entry as one tagged-JSON wire frame, or None — no events.

        Serves ``GET /v1/cache/<key>`` (:mod:`repro.serve`): the remote
        tier speaks the :mod:`repro.net.framing` codec so clients never
        unpickle network bytes, and it bypasses events because the
        *caller's* counters are what a read-through is accounted under.
        An entry whose value cannot survive the codec round-trip is
        simply not servable (None → 404 → the client executes locally).
        """
        raw = self.entry_bytes(key)
        if raw is None:
            return None
        try:
            return encode_frame(pickle.loads(raw), ENTRY_WIRE_MAX)
        except Exception:
            return None

    def put(
        self,
        key: str,
        outcome: Any,
        namespace: str,
        worker: Union[str, Callable],
        point: object,
    ) -> bool:
        """Buffer one outcome for write-back; False if unpicklable."""
        entry = {
            "schema": ENTRY_SCHEMA,
            "namespace": namespace,
            "worker": worker_ref(worker),
            "fingerprint": code_fingerprint(),
            "point": point,
            "outcome": outcome,
        }
        try:
            entry_bytes = pickle.dumps(entry, PICKLE_PROTOCOL)
        except Exception:
            return False
        self._pending[key] = entry_bytes
        self._remember(key, entry_bytes)
        self._emit("store", namespace, key, len(entry_bytes))
        if len(self._pending) >= self._flush_every:
            self.flush()
        return True

    def _remember(self, key: str, entry_bytes: bytes) -> None:
        if self._memory_entries <= 0:
            return
        self._memory[key] = entry_bytes
        self._memory.move_to_end(key)
        while len(self._memory) > self._memory_entries:
            self._memory.popitem(last=False)

    @property
    def pending_writes(self) -> int:
        return len(self._pending)

    # -- persistence ---------------------------------------------------------

    def flush(self) -> int:
        """Write buffered entries to disk; returns how many were written.

        Also folds this process's counter deltas into ``stats.json`` so
        hit/miss/executed totals survive across invocations.
        """
        written = 0
        if self._pending:
            for key, entry_bytes in self._pending.items():
                path = self._path(key)
                path.parent.mkdir(parents=True, exist_ok=True)
                self._atomic_write(path, entry_bytes)
                written += 1
            self._pending.clear()
            self._emit("flush", "", "", written)
        self._persist_stats()
        return written

    @staticmethod
    def _atomic_write(path: Path, data: bytes) -> None:
        fd, tmp_name = tempfile.mkstemp(
            prefix=path.name, suffix=".tmp", dir=str(path.parent)
        )
        try:
            with io.open(fd, "wb") as handle:
                handle.write(data)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    def _stats_path(self) -> Path:
        return self.root / "stats.json"

    def _persist_stats(self) -> None:
        delta = self.stats.delta_since(self._persisted)
        if not delta:
            return
        path = self._stats_path()
        counters: Dict[str, int] = {}
        namespaces: Dict[str, Dict[str, int]] = {}
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
            if isinstance(data.get("counters"), dict):
                counters = {
                    name: int(value)
                    for name, value in data["counters"].items()
                    if isinstance(value, int)
                }
            if isinstance(data.get("namespaces"), dict):
                namespaces = {
                    str(ns): {
                        name: int(value)
                        for name, value in bucket.items()
                        if isinstance(value, int)
                    }
                    for ns, bucket in data["namespaces"].items()
                    if isinstance(bucket, dict)
                }
        except (OSError, ValueError):
            pass
        for name in _COUNTER_FIELDS:
            counters[name] = counters.get(name, 0) + getattr(delta, name)
        counters["executed"] = counters.get("misses", 0)
        for ns, stats in self._stats_observer.by_namespace.items():
            ns_delta = stats.delta_since(
                self._persisted_ns.get(ns, CacheStats())
            )
            if not ns_delta:
                continue
            bucket = namespaces.setdefault(ns, {})
            # Backend splits (executed_sync/executed_array) are global
            # counters; only the access fields are attributed per
            # namespace.
            for name in ("hits", "misses", "stores", "bytes_read", "bytes_written"):
                bucket[name] = bucket.get(name, 0) + getattr(ns_delta, name)
            bucket["executed"] = bucket.get("misses", 0)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"counters": counters, "namespaces": namespaces}
        self._atomic_write(
            path,
            (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode("utf-8"),
        )
        self._persisted = self.stats.snapshot()
        self._persisted_ns = {
            ns: stats.snapshot()
            for ns, stats in self._stats_observer.by_namespace.items()
        }

    def persisted_counters(self) -> Dict[str, int]:
        """The cumulative counters recorded in ``stats.json`` (may be {})."""
        try:
            data = json.loads(self._stats_path().read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return {}
        counters = data.get("counters")
        return counters if isinstance(counters, dict) else {}

    def persisted_namespace_counters(self) -> Dict[str, Dict[str, int]]:
        """Cumulative per-namespace access counters from ``stats.json``.

        Unlike :meth:`summary` (a disk inventory of what is currently
        stored), these count *accesses over time* — hits, misses, and
        stores attributed to the namespace that made them, surviving
        across invocations.
        """
        try:
            data = json.loads(self._stats_path().read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return {}
        namespaces = data.get("namespaces")
        if not isinstance(namespaces, dict):
            return {}
        return {
            str(ns): bucket
            for ns, bucket in namespaces.items()
            if isinstance(bucket, dict)
        }

    # -- maintenance ---------------------------------------------------------

    def entries(self) -> Iterator[Tuple[str, Path]]:
        """Every on-disk entry as ``(key, path)``, sorted by key."""
        objects = self.root / "objects"
        if not objects.is_dir():
            return
        for path in sorted(objects.glob("*/*.pkl")):
            yield path.stem, path

    def clear(self) -> int:
        """Remove every entry (and the stats file); returns entry count."""
        removed = sum(1 for _ in self.entries())
        shutil.rmtree(self.root / "objects", ignore_errors=True)
        try:
            self._stats_path().unlink()
        except OSError:
            pass
        self._memory.clear()
        self._pending.clear()
        self._persisted = self.stats.snapshot()
        self._persisted_ns = {
            ns: stats.snapshot()
            for ns, stats in self._stats_observer.by_namespace.items()
        }
        return removed

    def summary(self) -> Dict[str, Any]:
        """Disk-side inventory: entry/byte totals, split per namespace."""
        entries = 0
        disk_bytes = 0
        namespaces: Dict[str, Dict[str, int]] = {}
        stale = 0
        current = code_fingerprint()
        for _key, path in self.entries():
            try:
                raw = path.read_bytes()
                entry = pickle.loads(raw)
            except Exception:
                continue
            entries += 1
            disk_bytes += len(raw)
            bucket = namespaces.setdefault(
                str(entry.get("namespace", "?")), {"entries": 0, "bytes": 0}
            )
            bucket["entries"] += 1
            bucket["bytes"] += len(raw)
            if entry.get("fingerprint") != current:
                stale += 1
        return {
            "entries": entries,
            "disk_bytes": disk_bytes,
            "stale_entries": stale,
            "namespaces": namespaces,
        }

    # -- verification --------------------------------------------------------

    def verify(self, sample: int = 10, seed: int = 0) -> VerifyReport:
        """Re-execute a deterministic sample of entries and compare bytes.

        Only entries written under the *current* code fingerprint are
        candidates (anything else is unreachable via current keys and is
        counted as ``stale``).  A mismatch means a cached outcome no
        longer reproduces — the alarm this command exists to raise.
        """
        self.flush()
        report = VerifyReport()
        current = code_fingerprint()
        candidates: List[Tuple[str, Dict[str, Any]]] = []
        for key, path in self.entries():
            try:
                entry = pickle.loads(path.read_bytes())
            except Exception:
                report.mismatches.append((key, "<unreadable entry>"))
                continue
            if entry.get("fingerprint") != current:
                report.stale += 1
                continue
            candidates.append((key, entry))
        if sample and len(candidates) > sample:
            rng = make_rng(seed, "cache:verify")
            candidates = sorted(rng.sample(candidates, sample))
        for key, entry in candidates:
            ref = str(entry.get("worker", ""))
            fn = _resolve_worker(ref)
            if fn is None:
                report.unresolvable += 1
                continue
            fresh = fn(entry["point"])
            report.checked += 1
            stored = pickle.dumps(entry["outcome"], PICKLE_PROTOCOL)
            if pickle.dumps(fresh, PICKLE_PROTOCOL) != stored:
                report.mismatches.append((key, ref))
        return report
