"""One workload, measured in its own fresh process.

Run shape: import the program, set up (several times — the median
set-up body is reported), one untimed warm-up pass, then timed passes
of identical work until ``--seconds`` of measured time have gone by.
Every request is reported at its floor over the passes (see README).
``--trace 1`` replaces the timed passes with a few untraced and traced
ones plus the micro-probes and reports the per-layer metrics instead.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any, Dict, List

import harness
import layers
import probes
import spans
from workloads import WORKLOADS, Pass, ServeWorkload

MIN_PASSES = 3
SETUP_REPEATS = 3
#: Untraced and traced passes of a ``--trace 1`` run, interleaved.
TRACE_PAIRS = 2


def _setup(workload, repeats: int) -> float:
    """Set up ``repeats`` times; the median body, with the last one left standing."""
    bodies = []
    for attempt in range(repeats):
        started = time.perf_counter()
        workload.setup()
        bodies.append(time.perf_counter() - started)
        if attempt < repeats - 1:
            workload.teardown()
    return harness.median(bodies)


def _fold(passes: List[Pass]) -> Dict[str, Any]:
    """Attempted/failed/digest over passes; differing digests fail their pass."""
    attempted = sum(p.ops for p in passes)
    failed = 0
    for p in passes:
        failed += p.ops if p.digest != passes[0].digest else p.failed
    return {
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0,
        "outcome_digest": passes[0].digest,
        "digest_stable": all(p.digest == passes[0].digest for p in passes),
    }


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
        spawned_at: float, workdir: Path) -> Dict[str, Any]:
    tracer = spans.Tracer()
    workload = WORKLOADS[name](seed, smoke, workdir, tracer)
    workload.load()
    startup_s = time.time() - spawned_at  # interpreter start + imports
    try:
        body_s = _setup(workload, 1 if (smoke or trace) else SETUP_REPEATS)
        warmup_s = 0.0
        if not smoke:
            started = time.perf_counter()
            workload.reset()
            workload.run_pass()
            warmup_s = time.perf_counter() - started
        setup_s = startup_s + body_s + warmup_s
        if trace:
            result = _traced(workload, tracer, smoke, workdir)
        else:
            result = _timed(workload, seconds, smoke)
        result["setup_s"] = setup_s
        result["setup_parts_s"] = {"startup": startup_s, "body": body_s, "warmup": warmup_s}
    finally:
        workload.teardown()
    result.update(workload=name, seed=seed, smoke=smoke, op=workload.op)
    return result


def request_floors(passes: List[Pass]) -> Dict[int, float]:
    """Per distinct request, the floor of its latencies over every execution."""
    seen: Dict[int, List[float]] = {}
    for p in passes:
        ids = [request for loop in p.loops() for request in loop]
        for request, latency in zip(ids, p.latencies_ms):
            seen.setdefault(request, []).append(latency)
    return {request: harness.floor(values) for request, values in seen.items()}


def _timed(workload, seconds: float, smoke: bool) -> Dict[str, Any]:
    passes: List[Pass] = []
    measured = 0.0
    while True:
        workload.reset()
        passes.append(workload.run_pass())
        measured += passes[-1].wall_s
        if smoke or (len(passes) >= MIN_PASSES and measured >= seconds):
            break
    # Passes repeat identical requests, and another tenant of the box
    # only ever slows one down, so each request is taken at its floor;
    # a pass is as long as its slowest closed loop of such requests.
    floors = request_floors(passes)
    loops = passes[0].loops()
    pass_floor_s = max(sum(floors[request] for request in loop) for loop in loops) / 1000.0
    scheduled = sorted(floors[request] for loop in loops for request in loop)
    result = _fold(passes)
    result["end_to_end"] = {
        "throughput_per_s": passes[0].ops / pass_floor_s,
        "latency_p50_ms": harness.percentile(scheduled, 50),
        "latency_p90_ms": harness.percentile(scheduled, 90),
        "cpu_s_per_kop": harness.floor([p.cpu_s / p.ops * 1000.0 for p in passes]),
        "peak_rss_mb": workload.peak_rss_mb(),
    }
    result["passes"] = {
        "count": len(passes),
        "wall_s": [p.wall_s for p in passes],
        "ops": [p.ops for p in passes],
        "throughput_per_s": [p.ops / p.wall_s for p in passes],
        "cpu_s_per_kop": [p.cpu_s / p.ops * 1000.0 for p in passes],
        "failed": [p.failed for p in passes],
        "latencies_ms": [p.latencies_ms for p in passes],
        "loops": loops,
    }
    executions = len(passes) * len(scheduled) // len(floors)
    result["latency"] = {
        "distinct_requests": len(floors),
        "executions_per_request": executions,
        "requests_per_pass": len(scheduled),
    }
    return result


def _traced(workload, tracer: spans.Tracer, smoke: bool, workdir: Path) -> Dict[str, Any]:
    # The serving workloads' wrappers can only see a server hosted in
    # this process; their tracing overhead is taken against an untraced
    # pass of that same configuration, everything else against the
    # end-to-end configuration (passes of which still run, for the
    # counters only the real server reports).
    inproc = isinstance(workload, ServeWorkload)
    pairs = 1 if smoke else TRACE_PAIRS
    every: List[Pass] = []

    def one_pass(**kwargs) -> Pass:
        workload.reset()
        every.append(workload.run_pass(**kwargs))
        return every[-1]

    same_config: List[Pass] = []
    traced: List[Pass] = []
    for _ in range(pairs):
        same_config.append(one_pass(inproc=inproc))
        tracer.install()
        tracer.recording = True
        try:
            traced.append(one_pass(inproc=inproc))
        finally:
            tracer.recording = False
            tracer.uninstall()
    reference = [one_pass() for _ in range(pairs)] if inproc else same_config
    summary = spans.summarize(tracer.spans, [w for p in traced for w in p.windows])
    probe_values, probe_notes = probes.run_probes(smoke, workdir)
    result = _fold(every)
    result["per_layer"] = layers.compute(
        summary, set(tracer.unresolved), reference, traced, same_config, probe_values
    )
    result["notes"] = sorted(tracer.unresolved.values()) + probe_notes
    result["trace"] = {
        "wall_s": summary["wall_s"],
        "rows": layers.layer_rows(summary),
        "layer_shares": spans.layer_shares(summary),
        "spans": spans.export(tracer.spans, traced[0].windows[0][0]),
        "span_fields": ["name", "start_us", "end_us", "parent", "op", "thread", "count"],
    }
    return result
