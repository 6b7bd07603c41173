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
is better.  ``nodes_per_plan_round`` counts the rounds the walk
actually walked — one per (round, configuration, remaining fault
script) node — over the same plan-rounds: a plan that reaches a node
another plan walked takes the rest of its run by reference, so 1.0
would be chains that never merge.  Two more exact counts gate the
sharing of what plans have in common beyond their rounds, on the fig1
plans with a mid-run corruption (the ones whose Definition 2.4
obligation is a proper suffix, so many plans reach one obligation):
``judged_per_plan`` counts Definition 2.4 evaluations
(``repro.core.solvability.ftss_check``) per plan examined, and
``corruptions_applied_per_plan`` the corruption plans the walk actually
applied rather than found filed.  Both fall when obligations and
corruptions are shared; a walk that judges or corrupts every plan
afresh reads 1.0 and at least 1.0.  ``monitor_steps_per_plan_round``
counts the streaming checker's steps — one per distinct (node, monitor
state) the judged obligations fold through — over the plan-rounds: a
fold that stops sharing merged chains climbs towards the rounds every
obligation covers.
``states_per_sec`` and the wall-clock column are informational: they
track the engine's throughput across machines but are too noisy to
gate.

The cache is disabled for the timed region — this benchmark measures
the engine, not the memoization layer (``bench_cache.py`` owns that).

Usage::

    PYTHONPATH=src python benchmarks/microbench/bench_verify.py [--quick] [--out PATH]
"""

from __future__ import annotations

import argparse
import time
from dataclasses import replace

if __package__ in (None, ""):
    from _harness import best_per_call, emit, us
else:
    from ._harness import best_per_call, emit, us

import repro.cache
from repro.analysis.report import ExperimentReport
from repro.core import solvability
from repro.sync import engine
from repro.verify import explicit, verify
from repro.verify.explicit import enumerate_space
from repro.verify.targets import get_verify_target

TARGET = get_verify_target("fig1")

#: The fig1 plans with a systemic failure in round 3 (1,274 plans).
MID_RUN_SPACE = replace(TARGET.space, corruption_round_choices=((3,),))


def _verify_fig1_smoke():
    return verify("fig1", space=TARGET.smoke_space, jobs=1)


def _verify_fig1_mid_run():
    return verify("fig1", space=MID_RUN_SPACE, jobs=1)


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


def _count_sharing(fn):
    """``(ftss_check calls, corruption plans applied, rounds walked,
    monitor steps, fn())`` for one explicit verification, read off the
    walks it makes."""
    calls, walks = 0, []
    ftss_check, chain_walk = solvability.ftss_check, explicit.ChainWalk

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return ftss_check(*args, **kwargs)

    class KeptWalk(chain_walk):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            walks.append(self)

    solvability.ftss_check, explicit.ChainWalk = counting, KeptWalk
    try:
        result = fn()
    finally:
        solvability.ftss_check, explicit.ChainWalk = ftss_check, chain_walk
    corrupted = sum(walk.table.corrupted for walk in walks)
    walked = sum(walk.walked for walk in walks)
    return calls, corrupted, walked, sum(walk.monitor_steps for walk in walks), result


def _row(report, name, fn, space, repeat):
    per_call_s = best_per_call(fn, 1, repeat)
    start = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - start
    frontier = result.frontier
    states_per_sec = frontier.states_visited / elapsed if elapsed > 0 else 0.0
    steps, counted = _count_steps(fn)
    judged, corrupted, walked, monitor_steps, shared = _count_sharing(fn)
    specs, _raw, _dropped = enumerate_space(space, TARGET.symmetric)
    assert len(specs) == counted.examined == shared.examined
    plan_rounds = sum(spec.rounds for spec in specs)
    report.add_row(
        name,
        us(per_call_s),
        round(states_per_sec),
        round(frontier.dedup_hit_ratio, 4),
        round(steps / plan_rounds, 4),
        round(walked / plan_rounds, 4),
        round(judged / len(specs), 4),
        round(corrupted / len(specs), 4),
        round(monitor_steps / plan_rounds, 4),
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="fewer batches")
    parser.add_argument("--out", default=None, help="output JSON path")
    args = parser.parse_args()
    repeat = 2 if args.quick else 3

    repro.cache.disable()
    report = ExperimentReport(
        experiment_id="VERIFY-BENCH",
        title="Verification-plane microbenchmarks",
        claim=(
            "exhausting the fig1 spaces stays cheap: each distinct "
            "transition is stepped once, each distinct (round, "
            "configuration, remaining fault script) node walked once, each "
            "distinct corruption applied once, each distinct obligation "
            "judged once and each distinct (node, monitor state) stepped "
            "once, however many plans reach it, and the canonical-state "
            "frontier dedup keeps collapsing revisited clock configurations "
            "(the last six columns are machine-independent)"
        ),
        headers=[
            "benchmark",
            "per_call_us",
            "states_per_sec",
            "dedup_hit_ratio",
            "rounds_stepped_per_plan_round",
            "nodes_per_plan_round",
            "judged_per_plan",
            "corruptions_applied_per_plan",
            "monitor_steps_per_plan_round",
        ],
    )
    _row(report, "explicit/fig1-smoke", _verify_fig1_smoke, TARGET.smoke_space, repeat)
    _row(report, "explicit/fig1-mid-run", _verify_fig1_mid_run, MID_RUN_SPACE, repeat)
    emit(report, out=args.out)


if __name__ == "__main__":
    main()
