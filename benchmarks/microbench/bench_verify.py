"""Verification-plane microbenchmarks: the proof plane must stay exhaustible.

Two claims gate CI (``benchmarks/compare.py``, 25% band), both exact
and machine-independent.  The explicit engine's canonical-state
frontier dedup keeps doing real work — ``dedup_hit_ratio`` is a
property of the space (state hashes collide across plans because most
plans revisit the same clock configurations), so a drop means the
canonicalization or digest changed, not that the machine got slower.
And a plan is executed once — ``runs_per_plan`` counts engine runs
(``run_sync`` calls) per plan examined (1.0; it was 2.0 while each judge ran the plan
for itself), so a second execution cannot creep back unnoticed.
``states_per_sec`` and the wall-clock column are informational: they
track the engine's throughput across machines but are too noisy to gate.

The cache is disabled for the timed region — this benchmark measures
the engine, not the memoization layer (``bench_cache.py`` owns that).

Usage::

    PYTHONPATH=src python benchmarks/microbench/bench_verify.py [--quick] [--out PATH]
"""

from __future__ import annotations

import argparse
import time

if __package__ in (None, ""):
    from _harness import best_per_call, emit, us
else:
    from ._harness import best_per_call, emit, us

import repro.cache
from repro.analysis.report import ExperimentReport
from repro.kernel.events import EventBus
from repro.verify import verify


def _verify_fig1_smoke():
    from repro.verify.targets import get_verify_target

    return verify(
        "fig1", space=get_verify_target("fig1").smoke_space, jobs=1
    )


def _count_runs(fn):
    """``(engine runs, fn())``: every ``run_sync`` builds one bus and
    announces itself on it once, whatever name it was called through."""
    runs = 0
    on_run_start = EventBus.on_run_start

    def counting(self, *args):
        nonlocal runs
        runs += 1
        return on_run_start(self, *args)

    EventBus.on_run_start = counting
    try:
        result = fn()
    finally:
        EventBus.on_run_start = on_run_start
    return runs, result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="fewer batches")
    parser.add_argument("--out", default=None, help="output JSON path")
    args = parser.parse_args()
    repeat = 2 if args.quick else 3

    repro.cache.disable()
    per_call_s = best_per_call(_verify_fig1_smoke, 1, repeat)

    start = time.perf_counter()
    result = _verify_fig1_smoke()
    elapsed = time.perf_counter() - start
    frontier = result.frontier
    states_per_sec = frontier.states_visited / elapsed if elapsed > 0 else 0.0
    runs, counted = _count_runs(_verify_fig1_smoke)

    report = ExperimentReport(
        experiment_id="VERIFY-BENCH",
        title="Verification-plane microbenchmarks",
        claim=(
            "exhausting the fig1 smoke space stays cheap: each plan is "
            "executed once for both judges and the canonical-state frontier "
            "dedup keeps collapsing revisited clock configurations "
            "(runs_per_plan and dedup_hit_ratio are machine-independent)"
        ),
        headers=[
            "benchmark",
            "per_call_us",
            "states_per_sec",
            "dedup_hit_ratio",
            "runs_per_plan",
        ],
    )
    report.add_row(
        "explicit/fig1-smoke",
        us(per_call_s),
        round(states_per_sec),
        round(frontier.dedup_hit_ratio, 4),
        round(runs / counted.examined, 4),
    )
    emit(report, out=args.out)


if __name__ == "__main__":
    main()
