"""Unit tests for the content-addressed run cache (repro.cache).

Covers the canonical byte encoding, the code fingerprint, the
disk-backed store with its LRU front, the ``run_sweep(cache=...)``
integration, fingerprint invalidation, ``verify``, and the
``shutdown_pool`` flush guarantee.
"""

from __future__ import annotations

import dataclasses
import enum
import pickle

import pytest

import repro.cache
import repro.cache.digest as digest_module
from repro.cache import RunCache, cached_call
from repro.cache.digest import (
    CanonicalizationError,
    canonical_bytes,
    code_fingerprint,
    digest_key,
    worker_ref,
)
from repro.cache.store import PICKLE_PROTOCOL
from repro.experiments.base import run_sweep, shutdown_pool
from repro.kernel.events import CacheEvent, Observer


def _square(point):
    """Module-level worker: pure, picklable, re-importable for verify."""
    return {"point": point, "squared": point * point}


def _negate(point):
    return -point


class _Color(enum.Enum):
    RED = 1
    BLUE = 2


@dataclasses.dataclass(frozen=True)
class _Point:
    x: int
    y: int


class _Jsonable:
    def __init__(self, payload):
        self.payload = payload

    def to_jsonable(self):
        return {"payload": self.payload}


# -- canonical encoding ------------------------------------------------------


def test_canonical_bytes_distinguishes_scalar_types():
    values = [None, True, False, 1, 1.0, "1", b"1", 0, ""]
    encodings = [canonical_bytes(v) for v in values]
    assert len(set(encodings)) == len(encodings)


def test_canonical_bytes_distinguishes_container_types():
    assert canonical_bytes([1, 2]) != canonical_bytes((1, 2))
    assert canonical_bytes([1, 2]) != canonical_bytes([2, 1])
    assert canonical_bytes({"a": 1}) != canonical_bytes({"a": 2})


def test_canonical_bytes_is_order_insensitive_where_semantics_are():
    assert canonical_bytes({"a": 1, "b": 2}) == canonical_bytes({"b": 2, "a": 1})
    assert canonical_bytes({3, 1, 2}) == canonical_bytes({2, 3, 1})
    assert canonical_bytes(frozenset({1, 2})) == canonical_bytes(frozenset({2, 1}))


def test_canonical_bytes_handles_enums_dataclasses_and_jsonables():
    assert canonical_bytes(_Color.RED) != canonical_bytes(_Color.BLUE)
    assert canonical_bytes(_Point(1, 2)) != canonical_bytes(_Point(2, 1))
    assert canonical_bytes(_Jsonable("a")) != canonical_bytes(_Jsonable("b"))
    # Same declarative content encodes identically across instances.
    assert canonical_bytes(_Point(1, 2)) == canonical_bytes(_Point(1, 2))


def test_canonical_bytes_rejects_foreign_objects():
    with pytest.raises(CanonicalizationError):
        canonical_bytes(object())
    with pytest.raises(CanonicalizationError):
        canonical_bytes({"ok": object()})


def test_digest_key_varies_with_every_component():
    base = digest_key("NS", _square, (1, 2), "fp")
    assert digest_key("OTHER", _square, (1, 2), "fp") != base
    assert digest_key("NS", _negate, (1, 2), "fp") != base
    assert digest_key("NS", _square, (1, 3), "fp") != base
    assert digest_key("NS", _square, (1, 2), "fp2") != base
    # Same inputs, same key (stable across calls).
    assert digest_key("NS", _square, (1, 2), "fp") == base


def test_worker_ref_round_trips_strings_and_callables():
    assert worker_ref("m:f") == "m:f"
    assert worker_ref(_square) == f"{_square.__module__}:_square"


# -- code fingerprint --------------------------------------------------------


def test_code_fingerprint_changes_when_source_changes(tmp_path):
    tree = tmp_path / "pkg"
    tree.mkdir()
    (tree / "a.py").write_text("x = 1\n", encoding="utf-8")
    first = code_fingerprint(tree)
    assert first == code_fingerprint(tree)  # stable on an unchanged tree
    (tree / "a.py").write_text("x = 2\n", encoding="utf-8")
    assert code_fingerprint(tree) != first
    (tree / "b.py").write_text("", encoding="utf-8")  # new file also counts
    assert code_fingerprint(tree) != first


# -- the store ---------------------------------------------------------------


def test_runcache_put_get_flush_and_reload(tmp_path):
    cache = RunCache(tmp_path / "c")
    key = cache.key("NS", _square, 3)
    hit, _ = cache.get(key, "NS")
    assert not hit
    assert cache.put(key, _square(3), namespace="NS", worker=_square, point=3)
    hit, value = cache.get(key, "NS")
    assert hit and value == {"point": 3, "squared": 9}
    assert cache.pending_writes == 1
    assert cache.flush() == 1
    assert cache.pending_writes == 0

    # A fresh instance (new process, same disk) answers from disk.
    fresh = RunCache(tmp_path / "c")
    hit, value = fresh.get(key, "NS")
    assert hit and value == {"point": 3, "squared": 9}


def test_runcache_lru_front_survives_eviction_via_disk(tmp_path):
    cache = RunCache(tmp_path / "c", memory_entries=2, flush_every=1)
    keys = []
    for point in range(5):
        key = cache.key("NS", _square, point)
        cache.put(key, _square(point), namespace="NS", worker=_square, point=point)
        keys.append(key)
    assert len(cache._memory) == 2  # LRU front stays bounded
    hit, value = cache.get(keys[0], "NS")  # evicted from memory, on disk
    assert hit and value == {"point": 0, "squared": 0}


def test_runcache_stats_and_events(tmp_path):
    class Collector(Observer):
        def __init__(self):
            self.events = []

        def on_cache(self, event: CacheEvent) -> None:
            self.events.append(event)

    cache = RunCache(tmp_path / "c")
    collector = Collector()
    cache.subscribe(collector)
    key = cache.key("NS", _square, 7)
    cache.get(key, "NS")
    cache.put(key, _square(7), namespace="NS", worker=_square, point=7)
    cache.get(key, "NS")
    cache.flush()
    assert cache.stats.misses == 1
    assert cache.stats.hits == 1
    assert cache.stats.stores == 1
    assert cache.stats.executed == 1
    assert cache.stats.bytes_read > 0 and cache.stats.bytes_written > 0
    kinds = [event.kind for event in collector.events]
    assert kinds == ["miss", "store", "hit", "flush"]
    assert all(event.namespace == "NS" for event in collector.events[:3])


@pytest.mark.parametrize(
    "foreign", [[1, 2, 3], {"schema": 1, "point": 3}], ids=["list", "no-outcome"]
)
def test_runcache_parseable_foreign_entry_is_a_miss(tmp_path, foreign):
    class Collector(Observer):
        def __init__(self):
            self.kinds = []

        def on_cache(self, event: CacheEvent) -> None:
            self.kinds.append(event.kind)

    cache = RunCache(tmp_path / "c")
    collector = Collector()
    cache.subscribe(collector)
    key = cache.key("NS", _square, 3)
    path = cache._path(key)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(pickle.dumps(foreign, PICKLE_PROTOCOL))
    assert cache.get(key, "NS") == (False, None)
    assert collector.kinds == ["miss"]
    assert key not in cache._memory  # foreign bytes are never remembered
    assert cache.put(key, _square(3), namespace="NS", worker=_square, point=3)
    assert cache.get(key, "NS") == (True, {"point": 3, "squared": 9})
    cache.flush()
    assert RunCache(tmp_path / "c").get(key, "NS") == (True, {"point": 3, "squared": 9})


def test_runcache_persisted_counters_accumulate(tmp_path):
    root = tmp_path / "c"
    for _ in range(2):
        cache = RunCache(root)
        key = cache.key("NS", _square, 1)
        hit, _ = cache.get(key, "NS")
        if not hit:
            cache.put(key, _square(1), namespace="NS", worker=_square, point=1)
        cache.flush()
    counters = RunCache(root).persisted_counters()
    assert counters["misses"] == 1  # only the first invocation executed
    assert counters["hits"] == 1
    assert counters["executed"] == counters["misses"]


def test_runcache_persisted_counters_split_by_namespace(tmp_path):
    root = tmp_path / "c"
    for _ in range(2):
        cache = RunCache(root)
        for ns, worker in (("explore:thing", _square), ("verify:thing@verify", _negate)):
            key = cache.key(ns, worker, 1)
            hit, _ = cache.get(key, ns)
            if not hit:
                cache.put(key, worker(1), namespace=ns, worker=worker, point=1)
        cache.flush()
    by_ns = RunCache(root).persisted_namespace_counters()
    assert set(by_ns) == {"explore:thing", "verify:thing@verify"}
    for bucket in by_ns.values():
        assert bucket["misses"] == 1  # cold run executed
        assert bucket["hits"] == 1  # warm run was a lookup
        assert bucket["stores"] == 1
        assert bucket["executed"] == bucket["misses"]
    # Per-namespace access counters sum to the global ones.
    counters = RunCache(root).persisted_counters()
    for field in ("hits", "misses", "stores"):
        assert counters[field] == sum(b[field] for b in by_ns.values())


def test_runcache_clear_resets_namespace_baselines(tmp_path):
    cache = RunCache(tmp_path / "c", flush_every=1)
    key = cache.key("NS", _square, 1)
    cache.put(key, _square(1), namespace="NS", worker=_square, point=1)
    cache.clear()
    # clear() wipes stats.json and resets the per-namespace baselines:
    # a post-clear store starts the counters over, without re-adding
    # the pre-clear delta.
    key2 = cache.key("NS", _square, 2)
    cache.put(key2, _square(2), namespace="NS", worker=_square, point=2)
    cache.flush()
    by_ns = cache.persisted_namespace_counters()
    assert by_ns["NS"]["stores"] == 1  # only the post-clear store


def test_runcache_clear_removes_everything(tmp_path):
    cache = RunCache(tmp_path / "c", flush_every=1)
    key = cache.key("NS", _square, 1)
    cache.put(key, _square(1), namespace="NS", worker=_square, point=1)
    assert cache.clear() == 1
    assert list(cache.entries()) == []
    hit, _ = cache.get(key, "NS")
    assert not hit


def test_runcache_summary_reports_namespaces(tmp_path):
    cache = RunCache(tmp_path / "c", flush_every=1)
    for point in range(3):
        key = cache.key("A", _square, point)
        cache.put(key, _square(point), namespace="A", worker=_square, point=point)
    key = cache.key("B", _negate, 1)
    cache.put(key, _negate(1), namespace="B", worker=_negate, point=1)
    summary = cache.summary()
    assert summary["entries"] == 4
    assert summary["stale_entries"] == 0
    assert summary["namespaces"]["A"]["entries"] == 3
    assert summary["namespaces"]["B"]["entries"] == 1


# -- run_sweep integration ---------------------------------------------------


def test_run_sweep_cache_partitions_hits_and_misses(tmp_path):
    repro.cache.configure(root=tmp_path / "c")
    cache = repro.cache.get_cache()
    points = [1, 2, 3, 4]
    cold = run_sweep(_square, points, jobs=1, cache="NS")
    assert cold == [_square(p) for p in points]
    assert cache.stats.misses == 4 and cache.stats.hits == 0

    warm = run_sweep(_square, points, jobs=1, cache="NS")
    assert warm == cold
    assert cache.stats.misses == 4 and cache.stats.hits == 4

    # A half-overlapping sweep executes only the new points.
    mixed = run_sweep(_square, [3, 4, 5, 6], jobs=1, cache="NS")
    assert mixed == [_square(p) for p in [3, 4, 5, 6]]
    assert cache.stats.misses == 6 and cache.stats.hits == 6


def test_run_sweep_on_outcome_is_ordered_and_complete(tmp_path):
    repro.cache.configure(root=tmp_path / "c")
    run_sweep(_square, [2, 4], jobs=1, cache="NS")  # pre-warm two points
    seen = []
    outcomes = run_sweep(
        _square,
        [1, 2, 3, 4],
        jobs=1,
        cache="NS",
        on_outcome=lambda index, point, outcome: seen.append((index, point, outcome)),
    )
    assert [index for index, _, _ in seen] == [0, 1, 2, 3]
    assert [outcome for _, _, outcome in seen] == outcomes


def test_run_sweep_uncacheable_points_bypass_cache(tmp_path):
    repro.cache.configure(root=tmp_path / "c")
    cache = repro.cache.get_cache()

    class Opaque:
        value = 5

    results = run_sweep(lambda point: point.value, [Opaque()], jobs=1, cache="NS")
    assert results == [5]
    assert cache.stats.misses == 0 and cache.stats.stores == 0


def test_run_sweep_without_cache_namespace_never_touches_cache(tmp_path):
    repro.cache.configure(root=tmp_path / "c")
    cache = repro.cache.get_cache()
    run_sweep(_square, [1, 2], jobs=1)
    assert not cache.stats


def test_fingerprint_change_invalidates_entries(tmp_path, monkeypatch):
    repro.cache.configure(root=tmp_path / "c")
    cache = repro.cache.get_cache()
    run_sweep(_square, [1], jobs=1, cache="NS")
    assert cache.stats.misses == 1

    monkeypatch.setattr(digest_module, "_DEFAULT_FINGERPRINT", "0" * 64)
    run_sweep(_square, [1], jobs=1, cache="NS")
    assert cache.stats.misses == 2  # same point, new fingerprint: re-executed
    assert cache.stats.hits == 0
    cache.flush()
    assert cache.summary()["stale_entries"] == 1  # the pre-edit entry


def test_shutdown_pool_flushes_pending_cache_writes(tmp_path):
    repro.cache.configure(root=tmp_path / "c")
    cache = repro.cache.get_cache()
    run_sweep(_square, [1, 2, 3], jobs=1, cache="NS")
    assert cache.pending_writes == 3
    shutdown_pool()
    assert cache.pending_writes == 0
    assert len(list(cache.entries())) == 3


# -- cached_call and toggles -------------------------------------------------


def test_cached_call_memoizes_and_respects_disable(tmp_path):
    repro.cache.configure(root=tmp_path / "c")
    cache = repro.cache.get_cache()
    assert cached_call("NS", _square, 5) == _square(5)
    assert cached_call("NS", _square, 5) == _square(5)
    assert cache.stats.misses == 1 and cache.stats.hits == 1

    repro.cache.disable()
    assert cached_call("NS", _square, 5) == _square(5)
    assert cache.stats.hits == 1  # disabled: executed, no cache traffic
    repro.cache.enable()
    assert cached_call("NS", _square, 5) == _square(5)
    assert cache.stats.hits == 2


def test_cache_enabled_reads_environment(tmp_path, monkeypatch):
    repro.cache.configure(root=tmp_path / "c")
    assert repro.cache.cache_enabled()
    monkeypatch.setenv("REPRO_CACHE", "0")
    assert not repro.cache.cache_enabled()
    assert repro.cache.active_cache() is None
    monkeypatch.setenv("REPRO_CACHE", "off")
    assert not repro.cache.cache_enabled()
    monkeypatch.setenv("REPRO_CACHE", "1")
    assert repro.cache.cache_enabled()


# -- verify ------------------------------------------------------------------


def test_verify_passes_on_honest_entries(tmp_path):
    repro.cache.configure(root=tmp_path / "c")
    cache = repro.cache.get_cache()
    run_sweep(_square, [1, 2, 3], jobs=1, cache="NS")
    report = cache.verify(sample=0)
    assert report.ok
    assert report.checked == 3
    assert report.stale == 0


def test_verify_catches_a_corrupted_outcome(tmp_path):
    repro.cache.configure(root=tmp_path / "c")
    cache = repro.cache.get_cache()
    run_sweep(_square, [1, 2], jobs=1, cache="NS")
    cache.flush()

    key, path = next(iter(cache.entries()))
    entry = pickle.loads(path.read_bytes())
    entry["outcome"] = {"point": -1, "squared": -1}  # lie about the outcome
    path.write_bytes(pickle.dumps(entry, PICKLE_PROTOCOL))
    cache._memory.clear()  # force the disk read

    report = cache.verify(sample=0)
    assert not report.ok
    assert [mismatch_key for mismatch_key, _ in report.mismatches] == [key]
