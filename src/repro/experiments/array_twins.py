"""ARRAY-TWINS: the batched twins beyond unison, end to end.

The array plane started as a unison accelerator; this experiment pins
down the three hard cases that used to fall back to the reference
engine, and runs each of them through ``run_sweep(backend="array")``
so the routing, the ``@array`` cache namespace, and the per-backend
executed counters are exercised on every kind:

- ``phase-queen`` — Berman–Garay PhaseQueen consensus under the
  :class:`~repro.core.canonical.CanonicalRunner`, with one crash fault
  per seed: the batched ballot/queen fold must reproduce agreement
  among the survivors (n > 4f).
- ``detector`` — the heartbeat-◇P + Figure 4-◇S
  :class:`~repro.detectors.stack.DetectorStack` under a crash plus
  arbitrary initial corruption: every survivor must converge on the
  crashed process's ``dead`` verdict (strong completeness) through the
  batched suspect-matrix twin.
- ``forged-unison`` — min-rule unison with a payload-forging Byzantine
  adversary: the dense forgery path keeps the lanes on the array
  engine (forged copies patched with the reference transition) instead
  of refusing the plan.

The integration test asserts the sharp end: a sweep over these points
executes with ``executed_array == len(points)`` and a zero fallback
counter — no kind silently drops to the reference engine.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.analysis.report import ExperimentReport
from repro.core.canonical import CanonicalRunner
from repro.detectors.stack import DetectorStack
from repro.experiments.base import Expectations, ExperimentResult, run_sweep
from repro.kernel.faults import FaultPlan
from repro.kernel.topology import RingTopology, Topology
from repro.protocols.phaseking import PhaseQueenConsensus
from repro.protocols.unison import MinUnison
from repro.sync.adversary import ByzantineAdversary
from repro.sync.corruption import RandomCorruption
from repro.sync.engine import run_sync
from repro.util.rng import sweep_seed

KINDS = ("phase-queen", "detector", "forged-unison")

Task = Tuple[str, int, int]  # (kind, n, seed)

#: One crash fault per PhaseQueen lane; n > 4f keeps agreement intact.
PQ_F = 1
#: The detector stack's bounded-stabilization cap (small, so the crash
#: verdict lands well inside the run).
DETECTOR_TIMEOUT = 4


def _rounds(kind: str) -> int:
    if kind == "phase-queen":
        return 2 * (PQ_F + 1)
    return 12


def _protocol(kind: str, n: int):
    if kind == "phase-queen":
        proposals = [i % 2 for i in range(n)]
        return CanonicalRunner(PhaseQueenConsensus(f=PQ_F, n=n, proposals=proposals))
    if kind == "detector":
        return DetectorStack(initial_timeout=1, max_timeout=DETECTOR_TIMEOUT)
    if kind == "forged-unison":
        return MinUnison()
    raise ValueError(f"unknown twin kind {kind!r}")


def _topology(kind: str, n: int) -> Optional[Topology]:
    return RingTopology(n) if kind == "forged-unison" else None


def _forge(rng, payload):
    """The Byzantine lie: drag the clock down so min-rule swallows it."""
    return (payload if isinstance(payload, int) else 0) - rng.randrange(0, 3)


def _plan(kind: str, n: int, seed: int) -> FaultPlan:
    base = sweep_seed("ARRAY-TWINS", f"{kind}:n={n}", seed)
    victim = seed % n
    if kind == "phase-queen":
        return FaultPlan(crashes={victim: 1.0 + (seed % _rounds(kind))})
    if kind == "detector":
        return FaultPlan(
            crashes={victim: 2.0},
            initial_corruption=RandomCorruption(seed=base),
        )
    return FaultPlan(
        omissions=ByzantineAdversary(n, 1, _forge, rate=0.5, seed=base),
        initial_corruption=RandomCorruption(seed=base + 1),
    )


def _survivors(kind: str, n: int, seed: int) -> List[int]:
    plan = _plan(kind, n, seed)
    return [pid for pid in range(n) if pid not in plan.crashes]


def _outcome_from_states(kind, n, seed, final_states) -> Tuple[int, int]:
    """The per-kind measurement, shared by both engines' readouts."""
    live = _survivors(kind, n, seed)
    if kind == "phase-queen":
        decisions = [final_states[pid]["inner"]["decision"] for pid in live]
        decided = [d for d in decisions if d is not None]
        return len(set(decided)), len(decided)
    # detector: how many survivors hold the victim's ``dead`` verdict.
    victim = seed % n
    suspected_by = sum(
        1 for pid in live if victim in DetectorStack.suspects(final_states[pid])
    )
    return suspected_by, len(live)


def _measure(task: Task) -> Tuple[int, int]:
    """Reference fallback: one point on the plain engine."""
    kind, n, seed = task
    result = run_sync(
        _protocol(kind, n),
        n=n,
        rounds=_rounds(kind),
        fault_plan=_plan(kind, n, seed),
        topology=_topology(kind, n),
    )
    if kind == "forged-unison":
        last = 0
        for rh in result.history:
            clocks = {r.clock_before for r in rh.records if r.clock_before is not None}
            if len(clocks) > 1:
                last = rh.round_no
        return last, _rounds(kind)
    return _outcome_from_states(kind, n, seed, result.final_states)


def _measure_batch(tasks: List[Task]) -> List[Tuple[int, int]]:
    """Batched twin of :func:`_measure`: one run_array call per kind."""
    from repro.array import run_array

    groups = {}
    for index, (kind, n, seed) in enumerate(tasks):
        groups.setdefault((kind, n), []).append((index, seed))
    outcomes: List[Optional[Tuple[int, int]]] = [None] * len(tasks)
    for (kind, n), members in groups.items():
        disagreement = kind == "forged-unison"
        result = run_array(
            _protocol(kind, n),
            n,
            _rounds(kind),
            fault_plans=[_plan(kind, n, seed) for _index, seed in members],
            topology=_topology(kind, n),
            measure_disagreement=disagreement,
        )
        for lane, (index, seed) in enumerate(members):
            if disagreement:
                outcomes[index] = (
                    result.last_disagreement[lane] or 0,
                    _rounds(kind),
                )
            else:
                outcomes[index] = _outcome_from_states(
                    kind, n, seed, result.final_states(lane)
                )
    return outcomes


def _estimate_cost(task: Task) -> float:
    _kind, n, _seed = task
    return float(n) * _rounds(task[0])


_measure.array_batch = _measure_batch
_measure.estimate_cost = _estimate_cost


def tasks_for(seeds) -> List[Task]:
    return [
        (kind, n, seed)
        for kind, n in (("phase-queen", 5), ("detector", 6), ("forged-unison", 8))
        for seed in seeds
    ]


def run(fast: bool = False, jobs: Optional[int] = None) -> ExperimentResult:
    seeds = range(2) if fast else range(4)
    tasks = tasks_for(seeds)

    expect = Expectations()
    report = ExperimentReport(
        experiment_id="ARRAY-TWINS",
        title="Batched twins: PhaseQueen, the detector stack, forged unison",
        claim=(
            "consensus, failure detection, and Byzantine-forged runs "
            "keep their reference-engine verdicts on the array plane"
        ),
        headers=["kind", "n", "seeds", "verdict"],
    )

    outcomes = dict(
        zip(
            tasks,
            run_sweep(_measure, tasks, jobs, cache="ARRAY-TWINS", backend="array"),
        )
    )
    for kind, n in (("phase-queen", 5), ("detector", 6), ("forged-unison", 8)):
        rows = [outcomes[(kind, n, seed)] for seed in seeds]
        if kind == "phase-queen":
            ok = all(distinct == 1 and decided == len(_survivors(kind, n, seed))
                     for (distinct, decided), seed in zip(rows, seeds))
            verdict = "all survivors agree"
            expect.check(ok, f"{kind}: survivors disagreed or failed to decide")
        elif kind == "detector":
            ok = all(suspected_by == live for suspected_by, live in rows)
            verdict = "crash verdict converges"
            expect.check(ok, f"{kind}: a survivor missed the crash verdict")
        else:
            ok = all(last > 0 for last, _rounds_run in rows)
            verdict = "forgeries register as disagreement"
            expect.check(ok, f"{kind}: forgeries never produced disagreement")
        report.add_row(kind, n, len(rows), verdict if ok else "FAILED")
    return ExperimentResult(report=report, failures=expect.failures)
