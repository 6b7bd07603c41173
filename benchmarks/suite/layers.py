"""Per-layer metrics: what each is, and how a traced run computes it.

Three sources feed the table: the span summary of the traced passes
(``span``), facts the workload's own untraced passes report
(``pass`` — exact counts, per-case rates, ``/v1/stats`` deltas), and the
micro-probes (``probe``).  A span metric of a layer the workload never
enters is a true zero (no calls, no busy time); a metric whose span or
probe no longer resolves is ``None``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Set

import harness
import spans

#: (name, unit, better, source).  ``BENCHMARK.json``'s ``per_layer`` list
#: is this table without the last column (``test_suite.py`` holds them equal).
PER_LAYER = (
    ("experiments.dispatch_us_per_point", "us", "lower", "probe"),
    ("experiments.self_share", "ratio", "lower", "span"),
    ("experiments.pool_roundtrip_ms", "ms", "lower", "probe"),
    ("sync.run_ms_per_call", "ms", "lower", "span"),
    ("sync.busy_share", "ratio", "lower", "span"),
    ("sync.round_recorded_us", "us", "lower", "probe"),
    ("sync.round_streaming_us", "us", "lower", "probe"),
    ("sync.round_faulty_us", "us", "lower", "probe"),
    ("sync.recorded_over_streaming", "ratio", "lower", "probe"),
    ("kernel.snapshot_hot_us", "us", "lower", "probe"),
    ("kernel.snapshot_cold_us", "us", "lower", "probe"),
    ("kernel.copy_payload_us", "us", "lower", "probe"),
    ("core.ftss_check_ms", "ms", "lower", "span"),
    ("core.busy_share", "ratio", "lower", "span"),
    ("histories.coterie_ms", "ms", "lower", "span"),
    ("analysis.stabilization_ms", "ms", "lower", "span"),
    ("asyncnet.run_ms_per_call", "ms", "lower", "span"),
    ("asyncnet.busy_share", "ratio", "lower", "span"),
    ("asyncnet.sim_time_per_wall_s", "1/s", "higher", "span"),
    ("detectors.property_check_ms", "ms", "lower", "span"),
    ("array.grid1e4_proc_rounds_per_s", "1/s", "higher", "pass"),
    ("array.ring1e5_proc_rounds_per_s", "1/s", "higher", "pass"),
    ("array.fixed_ms", "ms", "lower", "probe"),
    ("array.per_round_ms", "ms", "lower", "probe"),
    ("array.fixed_share", "ratio", "lower", "probe"),
    ("array.speedup_vs_sync", "ratio", "higher", "probe"),
    ("array.python_grid1024_proc_rounds_per_s", "1/s", "higher", "probe"),
    ("array.forged_unison_ms", "ms", "lower", "probe"),
    ("array.fallbacks", "count", "lower", "probe"),
    ("verify.streaming_ms_per_plan", "ms", "lower", "span"),
    ("verify.confirm_ms_per_plan", "ms", "lower", "span"),
    ("verify.judge_share", "ratio", "lower", "span"),
    ("verify.frontier_self_share", "ratio", "lower", "span"),
    ("verify.states_per_s", "1/s", "higher", "pass"),
    ("verify.dedup_hit_ratio", "ratio", "higher", "pass"),
    ("verify.examined", "count", "lower", "pass"),
    ("explore.enumerate_dedupe_ms", "ms", "lower", "span"),
    ("explore.symmetry_dropped", "count", "higher", "pass"),
    ("cache.key_us", "us", "lower", "span"),
    ("cache.get_lru_us", "us", "lower", "span"),
    ("cache.get_disk_us", "us", "lower", "probe"),
    ("cache.put_us", "us", "lower", "span"),
    ("cache.flush_ms", "ms", "lower", "span"),
    ("cache.code_fingerprint_ms", "ms", "lower", "probe"),
    ("cache.hits", "count", "higher", "pass"),
    ("cache.misses", "count", "lower", "pass"),
    ("cache.stores", "count", "lower", "pass"),
    ("cache.executed", "count", "lower", "pass"),
    ("serve.protocol.parse_us", "us", "lower", "span"),
    ("serve.protocol.encode_line_us", "us", "lower", "span"),
    ("serve.client.decode_us_per_line", "us", "lower", "span"),
    ("serve.httpd.floor_ms", "ms", "lower", "probe"),
    ("serve.echo_roundtrip_ms", "ms", "lower", "probe"),
    ("serve.service.self_ms_per_request", "ms", "lower", "span"),
    ("serve.fleet.execute_ms_per_shard", "ms", "lower", "span"),
    ("serve.cold_overhead_ms_per_task", "ms", "lower", "pass"),
    ("serve.cold_overhead_share", "ratio", "lower", "pass"),
    ("serve.request_p99_ms", "ms", "lower", "pass"),
    ("serve.executed", "count", "lower", "pass"),
    ("serve.retried", "count", "lower", "pass"),
    ("serve.failed", "count", "lower", "pass"),
    ("serve.hit_ratio", "ratio", "higher", "pass"),
    ("net.frame_encode_us", "us", "lower", "probe"),
    ("net.frame_decode_us", "us", "lower", "probe"),
    ("suite.latency_samples_per_pass", "count", "higher", "pass"),
    ("suite.unattributed_share", "ratio", "lower", "span"),
    ("suite.trace_overhead_share", "ratio", "lower", "span"),
)

#: Counts that must repeat exactly between two runs of one commit and seed.
EXACT_COUNTS = (
    "verify.examined", "verify.dedup_hit_ratio", "explore.symmetry_dropped",
    "cache.hits", "cache.misses", "cache.stores", "cache.executed",
    "serve.executed", "serve.retried", "serve.failed", "serve.hit_ratio",
    "array.fallbacks",
)

#: Pass facts copied through under their own name (last untraced pass).
_PASS_FACTS = (
    "cache.hits", "cache.misses", "cache.stores", "cache.executed",
    "serve.executed", "serve.retried", "serve.failed", "serve.hit_ratio",
)


def compute(
    summary: Dict[str, Any],
    unresolved: Set[str],
    reference: Sequence[Any],
    traced: Sequence[Any],
    same_config: Sequence[Any],
    probe_values: Dict[str, Any],
) -> Dict[str, Optional[float]]:
    """Every per-layer metric of one traced run.

    ``reference`` are the untraced passes in the end-to-end
    configuration, ``traced`` the passes with spans on, ``same_config``
    the untraced passes in the traced passes' configuration (the same
    objects as ``reference`` except for the serving workloads, whose
    traced passes host the server in-process).
    """
    rows, wall = summary["rows"], summary["wall_s"]
    shares = spans.layer_shares(summary)

    def field(name: str, key: str) -> float:
        return rows.get(name, {}).get(key, 0)

    def resolved(*names: str) -> bool:
        return not any(name in unresolved for name in names)

    def per_call(*names: str, scale: float) -> Optional[float]:
        """Inclusive time of ``names`` per call of the first, scaled."""
        if not resolved(*names):
            return None
        calls = field(names[0], "calls")
        return sum(field(n, "total_s") for n in names) / calls * scale if calls else 0.0

    def share(layer: str, *names: str) -> Optional[float]:
        return shares.get(layer, 0.0) if resolved(*names) else None

    def self_share(name: str) -> Optional[float]:
        if not resolved(name):
            return None
        return field(name, "self_s") / wall if wall else 0.0

    last = reference[-1].extras if reference else {}
    out: Dict[str, Optional[float]] = dict(probe_values)

    out["experiments.self_share"] = self_share("experiments.run_sweep")
    out["sync.run_ms_per_call"] = per_call("sync.run_sync", scale=1e3)
    out["sync.busy_share"] = share("sync", "sync.run_sync")
    out["core.ftss_check_ms"] = per_call("core.ftss_check", scale=1e3)
    out["core.busy_share"] = share("core", "core.ftss_check")
    out["histories.coterie_ms"] = per_call("histories.coterie_timeline", scale=1e3)
    out["analysis.stabilization_ms"] = per_call("analysis.empirical_stabilization", scale=1e3)
    out["asyncnet.run_ms_per_call"] = per_call("asyncnet.run", scale=1e3)
    out["asyncnet.busy_share"] = share("asyncnet", "asyncnet.run")
    sim_s = field("asyncnet.run", "total_s")
    out["asyncnet.sim_time_per_wall_s"] = (
        None if not resolved("asyncnet.run")
        else field("asyncnet.run", "count") / sim_s if sim_s else 0.0
    )
    out["detectors.property_check_ms"] = per_call(
        "detectors.strong_completeness", "detectors.eventual_weak_accuracy", scale=1e3
    )

    for case in ("grid1e4", "ring1e5"):
        seconds = sum(p.extras.get("case_s", {}).get(case, 0.0) for p in reference)
        work = sum(p.extras.get("case_ops", {}).get(case, 0) for p in reference)
        out[f"array.{case}_proc_rounds_per_s"] = work / seconds if seconds else 0.0

    out["verify.streaming_ms_per_plan"] = per_call("verify.streaming_verdict", scale=1e3)
    out["verify.confirm_ms_per_plan"] = per_call("verify.confirm_verdict", scale=1e3)
    judged = field("verify.streaming_verdict", "total_s") + field("verify.confirm_verdict", "total_s")
    out["verify.judge_share"] = (
        None if not resolved("verify.streaming_verdict", "verify.confirm_verdict")
        else judged / wall if wall else 0.0
    )
    out["verify.frontier_self_share"] = self_share("verify.explicit_verify")
    visited = sum(p.extras.get("states_visited", 0) for p in reference)
    out["verify.states_per_s"] = visited / sum(p.wall_s for p in reference) if visited else 0.0
    out["verify.dedup_hit_ratio"] = last.get("dedup_hit_ratio", 0.0)
    out["verify.examined"] = last.get("examined", 0)
    out["explore.symmetry_dropped"] = last.get("symmetry_dropped", 0)
    out["explore.enumerate_dedupe_ms"] = (
        None if not resolved("explore.enumerate_space")
        else field("explore.enumerate_space", "total_s") / max(1, len(traced)) * 1e3
    )

    out["cache.key_us"] = per_call("cache.key", scale=1e6)
    out["cache.get_lru_us"] = per_call("cache.get", scale=1e6)
    out["cache.put_us"] = per_call("cache.put", scale=1e6)
    out["cache.flush_ms"] = per_call("cache.flush", scale=1e3)
    for name in _PASS_FACTS:
        out[name] = last.get(name, 0)

    out["serve.protocol.parse_us"] = per_call("serve.protocol.parse_sweep_request", scale=1e6)
    out["serve.protocol.encode_line_us"] = per_call("serve.protocol.encode_stream_line", scale=1e6)
    out["serve.client.decode_us_per_line"] = per_call("serve.client.decode_stream_line", scale=1e6)
    requests = field("suite.request", "calls")
    served = field("serve.service.stream", "calls") > 0
    out["serve.service.self_ms_per_request"] = (
        None if not resolved("serve.service.stream")
        else field("serve.service.stream", "self_s") / requests * 1e3 if served and requests else 0.0
    )
    out["serve.fleet.execute_ms_per_shard"] = per_call("serve.fleet.execute_tasks", scale=1e3)
    for name in ("serve.cold_overhead_ms_per_task", "serve.cold_overhead_share"):
        values = [p.extras[name] for p in reference if name in p.extras]
        out[name] = harness.median(values) if values else 0.0
    # The one tail the suite reports: p99 over every request of the
    # every-task-hits passes, while enough samples lie beyond it.
    hits = sorted(
        ms for p in reference if p.extras.get("serve.hit_ratio") == 1.0 for ms in p.latencies_ms
    )
    enough = harness.samples_beyond(len(hits), 99) >= harness.MIN_SAMPLES_BEYOND
    out["serve.request_p99_ms"] = harness.percentile(hits, 99) if enough else 0.0

    out["suite.latency_samples_per_pass"] = len(reference[-1].latencies_ms) if reference else 0
    out["suite.unattributed_share"] = shares.get(spans.UNATTRIBUTED, 0.0)
    base_rate = harness.median([p.ops / p.wall_s for p in same_config])
    traced_rate = harness.median([p.ops / p.wall_s for p in traced])
    out["suite.trace_overhead_share"] = 1.0 - traced_rate / base_rate
    return {name: out.get(name) for name, _unit, _better, _source in PER_LAYER}


def layer_rows(summary: Dict[str, Any]) -> List[List[Any]]:
    """The per-span table of a traced run: calls, inclusive, self, share."""
    wall = summary["wall_s"]
    ordered = sorted(summary["rows"].items(), key=lambda item: -item[1]["self_s"])
    return [
        [name, row["calls"], row["total_s"], row["self_s"], row["self_s"] / wall if wall else 0.0]
        for name, row in ordered
    ]
