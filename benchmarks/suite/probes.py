"""Micro-probes: per-layer numbers no workload span can give.

A probe times one public primitive in isolation (a snapshot, a frame
encode, the fixed cost of one ``run_array`` call).  Probes are the same
whatever the workload, run after the traced passes with the wrappers
removed, and report the median of several repetitions.  A probe whose
target no longer exists yields ``None`` for its metrics and one note —
never a crash.
"""

from __future__ import annotations

import time
import warnings
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

import harness


def _median_s(fn: Callable[[], Any], repeats: int) -> float:
    """Median wall seconds of ``fn()`` over ``repeats`` calls (after one warm call)."""
    fn()
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - started)
    return harness.median(samples)


def _per_call_s(fn: Callable[[], Any], number: int, repeats: int = 5) -> float:
    """Median seconds per call when one call is too short to time alone."""

    def batch() -> None:
        for _ in range(number):
            fn()

    return _median_s(batch, repeats) / number


def _noop_worker(point: int) -> int:
    return point


# ---------------------------------------------------------------------------


def probe_experiments(smoke: bool, workdir: Path) -> Dict[str, float]:
    import repro.experiments.base as base

    points = list(range(200))
    sequential = _median_s(lambda: base.run_sweep(_noop_worker, points, jobs=1), 5)
    try:
        pooled = _median_s(lambda: base.run_sweep(_noop_worker, points[:24], jobs=2), 3 if smoke else 7)
    finally:
        base.shutdown_pool()
    return {
        "experiments.dispatch_us_per_point": sequential / len(points) * 1e6,
        "experiments.pool_roundtrip_ms": pooled * 1e3,
    }


def probe_sync(smoke: bool, workdir: Path) -> Dict[str, float]:
    from repro.core.rounds import RoundAgreementProtocol
    from repro.sync.adversary import FaultMode, RandomAdversary
    from repro.sync.corruption import RandomCorruption
    from repro.sync.engine import run_sync

    n, rounds = 8, 40

    def recorded() -> None:
        run_sync(RoundAgreementProtocol(), n=n, rounds=rounds)

    def streaming() -> None:
        run_sync(RoundAgreementProtocol(), n=n, rounds=rounds, record_history=False)

    def faulty() -> None:
        run_sync(
            RoundAgreementProtocol(), n=n, rounds=rounds,
            adversary=RandomAdversary(n=n, f=2, mode=FaultMode.GENERAL_OMISSION, rate=0.4, seed=7),
            corruption=RandomCorruption(seed=7),
        )

    repeats = 3 if smoke else 9
    per_round = {
        name: _median_s(fn, repeats) / rounds * 1e6
        for name, fn in (("recorded", recorded), ("streaming", streaming), ("faulty", faulty))
    }
    return {
        "sync.round_recorded_us": per_round["recorded"],
        "sync.round_streaming_us": per_round["streaming"],
        "sync.round_faulty_us": per_round["faulty"],
        "sync.recorded_over_streaming": per_round["recorded"] / per_round["streaming"],
    }


def probe_kernel(smoke: bool, workdir: Path) -> Dict[str, float]:
    from repro.kernel import snapshot

    n, depth = 8, 24
    view = tuple(tuple((peer, r + peer) for peer in range(n)) for r in range(depth))
    states = {
        pid: {"clock": depth, "inner": {"view": view, "round": depth, "decision": None}, "n": n}
        for pid in range(n)
    }
    payload = (0, view)

    def cold() -> None:
        snapshot.clear_caches()
        snapshot.snapshot_states(states)

    number = 20 if smoke else 200
    return {
        "kernel.snapshot_hot_us": _per_call_s(lambda: snapshot.snapshot_states(states), number) * 1e6,
        "kernel.snapshot_cold_us": _per_call_s(cold, max(5, number // 10)) * 1e6,
        "kernel.copy_payload_us": _per_call_s(lambda: snapshot.copy_payload(payload), number * 5) * 1e6,
    }


def probe_array(smoke: bool, workdir: Path) -> Dict[str, Any]:
    import repro.array as array
    import repro.experiments.base as base
    from repro.kernel.faults import FaultPlan
    from repro.kernel.topology import GridTopology, RingTopology
    from repro.protocols.unison import MinUnison
    from repro.serve.catalog import default_catalog
    from repro.sync.corruption import RandomCorruption
    from repro.sync.engine import run_sync

    def plans(lanes: int) -> List[FaultPlan]:
        return [FaultPlan(initial_corruption=RandomCorruption(seed=s)) for s in range(lanes)]

    ring_n, ring_rounds = (2_000, 12) if smoke else (100_000, 24)
    ring = RingTopology(ring_n)

    def ring_call(rounds: int) -> float:
        started = time.perf_counter()
        array.run_array(
            MinUnison(), ring_n, rounds, fault_plans=plans(2), topology=ring,
            backend="numpy", chunk=1 << 14,
        )
        return time.perf_counter() - started

    ring_call(1)
    repeats = 1 if smoke else 2
    fixed = harness.median([ring_call(1) for _ in range(repeats)])
    full = harness.median([ring_call(ring_rounds) for _ in range(repeats)])
    out: Dict[str, Any] = {
        "array.fixed_ms": fixed * 1e3,
        "array.per_round_ms": (full - fixed) / (ring_rounds - 1) * 1e3,
        "array.fixed_share": fixed / full,
    }

    side = 20 if smoke else 100
    grid, grid_n, grid_rounds = GridTopology(side, side), side * side, 40
    started = time.perf_counter()
    array.run_array(MinUnison(), grid_n, grid_rounds, fault_plans=plans(4), topology=grid, backend="numpy")
    array_rate = grid_n * grid_rounds * 4 / (time.perf_counter() - started)
    sync_rounds = 3
    started = time.perf_counter()
    run_sync(
        MinUnison(), n=grid_n, rounds=sync_rounds, corruption=RandomCorruption(seed=0),
        topology=grid, record_history=False,
    )
    sync_rate = grid_n * sync_rounds / (time.perf_counter() - started)
    out["array.speedup_vs_sync"] = array_rate / sync_rate

    try:
        small = GridTopology(32, 32)
        seconds = _median_s(
            lambda: array.run_array(
                MinUnison(), 1024, 72, fault_plans=plans(2), topology=small, backend="python"
            ),
            1 if smoke else 3,
        )
        out["array.python_grid1024_proc_rounds_per_s"] = 1024 * 72 * 2 / seconds
    except (ValueError, array.ArrayBackendUnavailable) as error:
        out["array.python_grid1024_proc_rounds_per_s"] = None
        out["note"] = f"pure-Python array plane unavailable ({error})"

    # The forged-unison twin through run_sweep's batched routing.  (The
    # catalog surface appends a second seed to these points, so the
    # tasks are spelled out here in the worker's own (kind, n, seed) form.)
    worker = default_catalog().get("ARRAY-TWINS").worker
    tasks = [("forged-unison", 8, seed) for seed in range(4)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        seconds = _median_s(lambda: base.run_sweep(worker, tasks, jobs=1, backend="array"), 3)
    out["array.forged_unison_ms"] = seconds * 1e3
    out["array.fallbacks"] = sum(
        1 for w in caught if issubclass(w.category, RuntimeWarning) and "fall back" in str(w.message)
    )
    return out


def probe_cache(smoke: bool, workdir: Path) -> Dict[str, float]:
    import repro
    from repro.cache.digest import code_fingerprint
    from repro.cache.store import RunCache

    root = workdir / "probe-store"
    writer = RunCache(root)
    points = [(4, False, seed) for seed in range(64)]
    keys = [writer.key("PROBE", "probes:_noop_worker", point) for point in points]
    for key, point in zip(keys, points):
        writer.put(key, (True, True, 24.0, 28.0), namespace="PROBE", worker="probes:_noop_worker", point=point)
    writer.flush()

    def disk_reads() -> None:
        reader = RunCache(root)  # a fresh LRU: every get goes to disk
        for key in keys:
            reader.get(key, "PROBE")

    tree = Path(repro.__file__).resolve().parent  # an explicit root is never memoized
    return {
        "cache.get_disk_us": _median_s(disk_reads, 3 if smoke else 7) / len(keys) * 1e6,
        "cache.code_fingerprint_ms": _median_s(lambda: code_fingerprint(tree), 3) * 1e3,
    }


def probe_serve(smoke: bool, workdir: Path) -> Dict[str, float]:
    from repro.serve.client import ServeClient
    from repro.serve.runner import ServerThread

    requests = 30 if smoke else 200
    with ServerThread(fleet_kind="inproc", workers=2) as server:
        client = ServeClient(server.url)

        def p50_ms(call: Callable[[], Any]) -> float:
            call()
            samples = []
            for _ in range(requests):
                started = time.perf_counter()
                call()
                samples.append(time.perf_counter() - started)
            return harness.median(samples) * 1e3

        floor = p50_ms(client.stats)
        echo = p50_ms(
            lambda: client.sweep("SERVE-DEBUG", points=[["echo", 0]], seeds=[0], no_cache=True)
        )
    return {"serve.httpd.floor_ms": floor, "serve.echo_roundtrip_ms": echo}


def probe_net(smoke: bool, workdir: Path) -> Dict[str, float]:
    from repro.net.framing import FrameDecoder, encode_frame

    value = {"outcomes": [(True, True, 24.0, 28.0)] * 4, "backend": "sync"}
    frame = encode_frame(value)
    number = 200 if smoke else 2000
    return {
        "net.frame_encode_us": _per_call_s(lambda: encode_frame(value), number) * 1e6,
        "net.frame_decode_us": _per_call_s(lambda: FrameDecoder().feed(frame), number) * 1e6,
    }


#: (probe, the metrics it owns) — the names let a failed probe null them.
PROBES: Tuple[Tuple[Callable[..., Dict[str, Any]], Tuple[str, ...]], ...] = (
    (probe_experiments, ("experiments.dispatch_us_per_point", "experiments.pool_roundtrip_ms")),
    (
        probe_sync,
        (
            "sync.round_recorded_us", "sync.round_streaming_us", "sync.round_faulty_us",
            "sync.recorded_over_streaming",
        ),
    ),
    (probe_kernel, ("kernel.snapshot_hot_us", "kernel.snapshot_cold_us", "kernel.copy_payload_us")),
    (
        probe_array,
        (
            "array.fixed_ms", "array.per_round_ms", "array.fixed_share", "array.speedup_vs_sync",
            "array.python_grid1024_proc_rounds_per_s", "array.forged_unison_ms", "array.fallbacks",
        ),
    ),
    (probe_cache, ("cache.get_disk_us", "cache.code_fingerprint_ms")),
    (probe_serve, ("serve.httpd.floor_ms", "serve.echo_roundtrip_ms")),
    (probe_net, ("net.frame_encode_us", "net.frame_decode_us")),
)


def run_probes(smoke: bool, workdir: Path) -> Tuple[Dict[str, Any], List[str]]:
    """Every probe's metrics, plus a note per probe that could not run."""
    values: Dict[str, Any] = {}
    notes: List[str] = []
    for probe, names in PROBES:
        try:
            result = probe(smoke, workdir)
        except (ImportError, AttributeError, TypeError) as error:
            # The plane this probe times was moved or removed.
            notes.append(f"probe {probe.__name__}: {type(error).__name__}: {error}")
            result = {}
        note = result.pop("note", None)
        if note:
            notes.append(note)
        for name in names:
            values[name] = result.get(name)
    return values, notes
