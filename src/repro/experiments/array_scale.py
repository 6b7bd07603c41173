"""ARRAY-SCALE: the batched engine at population scale.

Two claims, both out of the reference engine's honest reach:

1. **Throughput** — the batched NumPy backend sustains ≥ 50× the
   reference engine's processes/sec at n = 10^4 (the BENCH_ARRAY
   microbenchmark records the committed numbers; this experiment
   re-measures a fast inline sample so the claim is checked wherever
   the experiment runs, and skips the ratio check when NumPy is absent
   — the pure-Python data plane is a correctness fallback, not a
   performance claim).
2. **Diameter law at scale** — min-rule unison started from randomly
   corrupted clocks stabilizes within the graph diameter on ring and
   grid topologies at n = 10^4, where one *seed* of the reference
   engine would cost tens of CI seconds.  The sweep itself runs
   through ``run_sweep(backend="array")``, exercising the batched
   routing, the ``@array`` cache namespace, and the per-backend
   executed counters end to end.

The worker/batch pair here is also the reference implementation of the
``array_batch`` / ``array_eligible`` / ``estimate_cost`` worker
contract documented in ``docs/array.md``.
"""

from __future__ import annotations

import math
import time
from functools import lru_cache
from typing import List, Optional, Tuple

from repro.analysis.report import ExperimentReport
from repro.experiments.base import Expectations, ExperimentResult, run_sweep
from repro.kernel.faults import FaultPlan
from repro.kernel.topology import GridTopology, RingTopology, Topology
from repro.protocols.unison import MinUnison
from repro.sync.corruption import RandomCorruption
from repro.sync.engine import run_sync
from repro.util.rng import sweep_seed

FAMILIES = ("ring", "grid")

#: Throughput floor for the NumPy data plane vs the reference engine.
FULL_SPEEDUP_FLOOR = 50.0
#: Fast mode runs tiny systems where fixed overheads dominate; the bar
#: only asserts the batched path is not a regression in disguise.
FAST_SPEEDUP_FLOOR = 3.0

Task = Tuple[str, int, int]  # (family, n, seed)


def make_topology(family: str, n: int) -> Topology:
    if family == "ring":
        return RingTopology(n)
    if family == "grid":
        side = int(math.isqrt(n))
        if side * side != n:
            raise ValueError(f"grid family needs a square n, got {n}")
        return GridTopology(side, side)
    raise ValueError(f"unknown topology family {family!r}")


@lru_cache(maxsize=None)
def rounds_for(family: str, n: int) -> int:
    """Diameter plus slack: enough for the law, no scale padding.

    Memoised: sizing and costing every task of a sweep point builds its
    graph once per process, not once per call."""
    return make_topology(family, n).diameter() + 10


def _corruption(family: str, n: int, seed: int) -> RandomCorruption:
    return RandomCorruption(
        seed=sweep_seed("ARRAY-SCALE", f"{family}:n={n}:corruption", seed)
    )


def _measure(task: Task) -> Tuple[int, int]:
    """Reference fallback: one (stabilization, diameter) measurement."""
    family, n, seed = task
    topology = make_topology(family, n)
    result = run_sync(
        MinUnison(),
        n=n,
        rounds=rounds_for(family, n),
        corruption=_corruption(family, n, seed),
        topology=topology,
    )
    last = 0
    for rh in result.history:
        clocks = {r.clock_before for r in rh.records if r.clock_before is not None}
        if len(clocks) > 1:
            last = rh.round_no
    return last, topology.diameter()


def _measure_batch(tasks: List[Task]) -> List[Tuple[int, int]]:
    """Batched twin of :func:`_measure`: all seeds of a point per pass.

    Grouping by (family, n) keeps each :func:`run_array` call one
    topology with one lane per seed; ``measure_disagreement`` replaces
    the history scan (same definition: last round whose start-of-round
    live clocks differ), so no history is materialized at n = 10^4+.
    """
    from repro.array import run_array

    groups = {}
    for index, (family, n, seed) in enumerate(tasks):
        groups.setdefault((family, n), []).append((index, seed))
    outcomes: List[Optional[Tuple[int, int]]] = [None] * len(tasks)
    for (family, n), members in groups.items():
        topology = make_topology(family, n)
        plans = [
            FaultPlan(initial_corruption=_corruption(family, n, seed))
            for _index, seed in members
        ]
        result = run_array(
            MinUnison(),
            n,
            rounds_for(family, n),
            fault_plans=plans,
            topology=topology,
            measure_disagreement=True,
        )
        diameter = topology.diameter()
        for lane, (index, _seed) in enumerate(members):
            last = result.last_disagreement[lane] or 0
            outcomes[index] = (last, diameter)
    return outcomes


def _estimate_cost(task: Task) -> float:
    family, n, _seed = task
    return float(n) * rounds_for(family, n)


_measure.array_batch = _measure_batch
_measure.estimate_cost = _estimate_cost


def measure_throughput(n: int, lanes: int, rounds: int) -> Tuple[float, float]:
    """(array processes/sec, reference processes/sec) at one grid point."""
    from repro.array import run_array

    topology = make_topology("grid", n)
    plans = [
        FaultPlan(initial_corruption=_corruption("grid", n, seed))
        for seed in range(lanes)
    ]
    start = time.perf_counter()
    run_array(MinUnison(), n, rounds, fault_plans=plans, topology=topology)
    array_pps = n * rounds * lanes / (time.perf_counter() - start)

    reference_rounds = min(rounds, 10)
    start = time.perf_counter()
    run_sync(
        MinUnison(),
        n=n,
        rounds=reference_rounds,
        corruption=_corruption("grid", n, 0),
        topology=topology,
        record_history=False,
    )
    reference_pps = n * reference_rounds / (time.perf_counter() - start)
    return array_pps, reference_pps


def run(fast: bool = False, jobs: Optional[int] = None) -> ExperimentResult:
    from repro.array import has_numpy, run_array

    if fast:
        sizes = {"ring": (400,), "grid": (400,)}
        seeds = range(2)
        bench_n, bench_lanes, bench_rounds = 400, 4, 60
        speedup_floor = FAST_SPEEDUP_FLOOR
    else:
        sizes = {"ring": (10_000,), "grid": (10_000,)}
        seeds = range(3)
        bench_n, bench_lanes, bench_rounds = 10_000, 4, 60
        speedup_floor = FULL_SPEEDUP_FLOOR

    expect = Expectations()
    report = ExperimentReport(
        experiment_id="ARRAY-SCALE",
        title="Batched array engine: unison diameter law at n = 10^4+",
        claim=(
            "the vectorized backend preserves the diameter law four "
            "orders of magnitude past the reference engine, at >= 50x "
            "its throughput"
        ),
        headers=["family", "n", "diameter", "seeds", "worst stabilization"],
    )

    tasks = [
        (family, n, seed)
        for family in FAMILIES
        for n in sizes[family]
        for seed in seeds
    ]
    outcomes = dict(
        zip(tasks, run_sweep(_measure, tasks, jobs, cache="ARRAY-SCALE", backend="array"))
    )
    for family in FAMILIES:
        for n in sizes[family]:
            rows = [outcomes[(family, n, seed)] for seed in seeds]
            worst = max(stab for stab, _diam in rows)
            diameter = rows[0][1]
            report.add_row(family, n, diameter, len(rows), worst)
            expect.check(
                all(stab <= diam for stab, diam in rows),
                f"{family} n={n}: stabilization exceeded the diameter",
            )
            expect.check(
                worst > 0,
                f"{family} n={n}: corruption never produced disagreement "
                "(measurement is vacuous)",
            )

    array_pps, reference_pps = measure_throughput(bench_n, bench_lanes, bench_rounds)
    speedup = array_pps / reference_pps if reference_pps else float("inf")
    report.add_row(
        "throughput",
        bench_n,
        "-",
        bench_lanes,
        f"{array_pps:,.0f} proc/s ({speedup:.0f}x ref)",
    )
    if has_numpy():
        expect.check(
            speedup >= speedup_floor,
            f"array/reference speedup {speedup:.1f}x below the "
            f"{speedup_floor:.0f}x floor at n={bench_n}",
        )

    # The ceiling point: one million processes per lane through the
    # chunked lane executor.  Ring-10^6 has diameter 5x10^5, so the
    # diameter law is out of reach here by construction; the claim is
    # that the run *completes* inside bounded per-round temporaries
    # while disagreement is still live (full mode + NumPy only — the
    # committed memory numbers live in BENCH_ARRAY.json).
    if not fast and has_numpy():
        ceiling_n, ceiling_lanes, ceiling_rounds = 1_000_000, 2, 6
        topology = make_topology("ring", ceiling_n)
        plans = [
            FaultPlan(initial_corruption=_corruption("ring", ceiling_n, seed))
            for seed in range(ceiling_lanes)
        ]
        start = time.perf_counter()
        ceiling = run_array(
            MinUnison(),
            ceiling_n,
            ceiling_rounds,
            fault_plans=plans,
            topology=topology,
            measure_disagreement=True,
            chunk=1 << 14,
        )
        ceiling_pps = (
            ceiling_n * ceiling_rounds * ceiling_lanes
            / (time.perf_counter() - start)
        )
        report.add_row(
            "ceiling/ring (chunked)",
            ceiling_n,
            topology.diameter(),
            ceiling_lanes,
            f"{ceiling_pps:,.0f} proc/s",
        )
        expect.check(
            all(
                (ceiling.last_disagreement[lane] or 0) > 0
                for lane in range(ceiling_lanes)
            ),
            "ceiling run at n=10^6 measured no disagreement "
            "(corruption did not register; measurement is vacuous)",
        )
    return ExperimentResult(report=report, failures=expect.failures)
