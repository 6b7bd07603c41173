"""Verification-plane microbenchmarks: the proof plane must stay exhaustible.

Two claims gate CI (``benchmarks/compare.py``, 25% band), both exact
and machine-independent.  The explicit engine's canonical-state
frontier dedup keeps doing real work — ``dedup_hit_ratio`` is a
property of the space (state hashes collide across plans because most
plans revisit the same clock configurations), so a drop means the
canonicalization or digest changed, not that the machine got slower.
And each distinct transition is stepped once —
``rounds_stepped_per_plan_round`` counts fresh calls of the engine's
round function (``repro.sync.engine.step_round``) over the rounds of
every plan examined, so a walk that stops sharing filed rounds (1.0
would be a full execution per plan) cannot creep back unnoticed; lower
is better.  ``states_per_sec`` and the wall-clock column are
informational: they track the engine's throughput across machines but
are too noisy to gate.

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
from repro.sync import engine
from repro.verify import verify
from repro.verify.explicit import enumerate_space
from repro.verify.targets import get_verify_target

TARGET = get_verify_target("fig1")


def _verify_fig1_smoke():
    return verify("fig1", space=TARGET.smoke_space, jobs=1)


def _count_steps(fn):
    """``(fresh round-function calls, fn())``: a walk's misses and every
    ``run_sync`` round alike go through ``engine.step_round``."""
    steps = 0
    step_round = engine.step_round

    def counting(*args, **kwargs):
        nonlocal steps
        steps += 1
        return step_round(*args, **kwargs)

    engine.step_round = counting
    try:
        result = fn()
    finally:
        engine.step_round = step_round
    return steps, result


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
    steps, counted = _count_steps(_verify_fig1_smoke)
    specs, _raw, _dropped = enumerate_space(TARGET.smoke_space, TARGET.symmetric)
    assert len(specs) == counted.examined

    report = ExperimentReport(
        experiment_id="VERIFY-BENCH",
        title="Verification-plane microbenchmarks",
        claim=(
            "exhausting the fig1 smoke space stays cheap: each distinct "
            "transition is stepped once, however many plans reach it, and "
            "the canonical-state frontier dedup keeps collapsing revisited "
            "clock configurations (rounds_stepped_per_plan_round and "
            "dedup_hit_ratio are machine-independent)"
        ),
        headers=[
            "benchmark",
            "per_call_us",
            "states_per_sec",
            "dedup_hit_ratio",
            "rounds_stepped_per_plan_round",
        ],
    )
    report.add_row(
        "explicit/fig1-smoke",
        us(per_call_s),
        round(states_per_sec),
        round(frontier.dedup_hit_ratio, 4),
        round(steps / sum(spec.rounds for spec in specs), 4),
    )
    emit(report, out=args.out)


if __name__ == "__main__":
    main()
