"""Simulator↔live conformance checking.

The live runtime's correctness claim is *substrate transparency*: one
seeded :class:`~repro.kernel.faults.FaultPlan` driven through the
synchronous engine and through a live cluster must yield the same
paper-level verdicts.  This module operationalizes that claim at three
strengths:

1. **History identity** (synchronous runs, barrier pacing): the
   :class:`~repro.kernel.recorders.HistoryRecorder` attached to the
   live bus must rebuild an :class:`ExecutionHistory` *value-equal* to
   the simulator's — same snapshots, same wire, same deliveries, same
   deviation flags, round by round.  Everything downstream (faulty
   sets, coteries, stabilization measurements) is a function of the
   history, so identity here is the strongest possible parity.
2. **Definition verdicts**: :func:`repro.core.solvability
   .check_definition` (``ft``/``ss``/``tentative``/``ftss``) must
   return the same ``holds`` and the same rendered violations on both
   histories.  Checked separately from (1) so a *symmetric* history
   bug — one that corrupts both substrates alike — still has to get
   past the paper's own predicates.
3. **Property verdicts** (asynchronous runs): live timing is real, so
   Fig 4 traces cannot match sample-for-sample.  Conformance there is
   verdict-level: strong completeness and eventual weak accuracy
   (:mod:`repro.detectors.properties`) must hold/fail identically, and
   the crash sets must match.

Because adversaries and corruption plans are *stateful* (e.g.
:class:`~repro.sync.adversary.RandomAdversary` consumes its rng across
rounds), every run gets a **fresh plan from a factory**; determinism
comes from the seeds inside, not from object reuse.

Streaming checkers from the exploration engine
(:mod:`repro.explore.checkers`) ride along as independent oracles: the
same checker class is attached to the simulated and the live bus, and
their verdicts must agree — exercising the PR 2 observer surface
against a live event stream.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.solvability import DefinitionVerdict, check_definition
from repro.histories.history import ExecutionHistory, Message
from repro.net.cluster import run_detector_live, run_live_sync
from repro.sync.engine import run_sync

__all__ = [
    "DetectorConformance",
    "SyncConformance",
    "SyncReference",
    "compute_sync_reference",
    "histories_equal",
    "history_digest",
    "verify_detector_conformance",
    "verify_sync_conformance",
]

#: Factory returning a fresh FaultPlan (or None) per run.
PlanFactory = Callable[[], Any]


def histories_equal(
    left: Optional[ExecutionHistory], right: Optional[ExecutionHistory]
) -> bool:
    """Value equality of two histories, round record by round record.

    ``ExecutionHistory`` deliberately has no ``__eq__`` (identity
    semantics for hashing); its rounds are frozen dataclasses, so tuple
    comparison gives deep value equality including message payloads.
    """
    if left is None or right is None:
        return left is right
    return tuple(left) == tuple(right)


def _plain(obj: Any) -> Any:
    """Convert history content to plain JSON-able structures, stably."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return repr(obj)
    if isinstance(obj, Message):
        return ["msg", obj.sender, obj.receiver, obj.sent_round, _plain(obj.payload)]
    if isinstance(obj, Mapping):
        return {
            str(k): _plain(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))
        }
    if isinstance(obj, (frozenset, set)):
        return sorted((_plain(x) for x in obj), key=repr)
    if isinstance(obj, (list, tuple)):
        return [_plain(x) for x in obj]
    raise TypeError(f"no canonical form for {type(obj)!r}")


def history_digest(history: Optional[ExecutionHistory]) -> Optional[str]:
    """Canonical content digest of a history (None-safe).

    Two histories are value-equal iff their digests match: the digest
    covers every record field plus the per-round edge sets, so it is a
    faithful proxy for :func:`histories_equal` that survives caching
    (a 64-char hex string instead of an object graph).  It reads every
    copy, so this is where a record's ``Message`` tuples do get built.
    """
    if history is None:
        return None
    rounds = []
    for rh in history:
        rounds.append(
            {
                "round_no": rh.round_no,
                "edges": _plain(rh.edges),
                "records": [
                    {
                        "pid": rec.pid,
                        "state_before": _plain(rec.state_before),
                        "clock_before": rec.clock_before,
                        "sent": _plain(rec.sent),
                        "delivered": _plain(rec.delivered),
                        "crashed": rec.crashed,
                        "omitted_sends": _plain(rec.omitted_sends),
                        "omitted_receives": _plain(rec.omitted_receives),
                        "forged_sends": _plain(rec.forged_sends),
                    }
                    for rec in rh.records
                ],
            }
        )
    blob = json.dumps(rounds, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class SyncConformance:
    """One transport's parity report for a synchronous scenario."""

    transport: str
    history_equal: bool
    sim_verdict: DefinitionVerdict
    live_verdict: DefinitionVerdict
    sim_checker: Optional[Any] = None  # SpecVerdict when a checker rode along
    live_checker: Optional[Any] = None

    @property
    def verdicts_equal(self) -> bool:
        return (
            self.sim_verdict.holds == self.live_verdict.holds
            and self.sim_verdict.violations == self.live_verdict.violations
        )

    @property
    def checkers_agree(self) -> bool:
        if self.sim_checker is None or self.live_checker is None:
            return self.sim_checker is self.live_checker
        return self.sim_checker.holds == self.live_checker.holds

    @property
    def passed(self) -> bool:
        return self.history_equal and self.verdicts_equal and self.checkers_agree

    def failures(self) -> List[str]:
        out = []
        if not self.history_equal:
            out.append(f"{self.transport}: live history diverges from simulation")
        if not self.verdicts_equal:
            out.append(
                f"{self.transport}: {self.sim_verdict.definition} verdict differs "
                f"(sim holds={self.sim_verdict.holds}, "
                f"live holds={self.live_verdict.holds})"
            )
        if not self.checkers_agree:
            out.append(f"{self.transport}: streaming checker verdicts differ")
        return out


@dataclass(frozen=True)
class SyncReference:
    """The engine-side half of a sync conformance check, cache-portable.

    Everything :func:`verify_sync_conformance` compares a live run
    against, reduced to plain values: the reference history's content
    digest, the definition verdict, and (when a streaming checker rode
    along) the checker's ``holds``.  Because the reference is pure data
    it can be memoized by the run cache — but *only* the simulated
    side: live runs must always execute for the parity check to mean
    anything (a cached live verdict would mask live-runtime drift).
    """

    definition: str
    history_digest: Optional[str]
    verdict_holds: bool
    verdict_violations: Tuple[str, ...] = ()
    checker_holds: Optional[bool] = None

    @property
    def holds(self) -> bool:  # lets the reference stand in for a checker
        return bool(self.checker_holds)

    @property
    def violations(self) -> Tuple[str, ...]:  # stand in for a DefinitionVerdict
        return self.verdict_violations

    def to_jsonable(self) -> Dict[str, Any]:
        return {
            "definition": self.definition,
            "history_digest": self.history_digest,
            "verdict_holds": self.verdict_holds,
            "verdict_violations": list(self.verdict_violations),
            "checker_holds": self.checker_holds,
        }

    @classmethod
    def from_jsonable(cls, data: Mapping) -> "SyncReference":
        return cls(
            definition=str(data["definition"]),
            history_digest=data.get("history_digest"),
            verdict_holds=bool(data["verdict_holds"]),
            verdict_violations=tuple(data.get("verdict_violations", ())),
            checker_holds=data.get("checker_holds"),
        )


class _ReferenceVerdict:
    """A :class:`DefinitionVerdict`-shaped view of a cached reference."""

    def __init__(self, reference: SyncReference):
        self.definition = reference.definition
        self.holds = reference.verdict_holds
        self.violations = reference.verdict_violations


def compute_sync_reference(
    protocol_factory: Callable[[], Any],
    n: int,
    rounds: int,
    plan_factory: PlanFactory,
    problem: Any,
    definition: str = "ftss",
    stabilization_time: int = 0,
    checker_factory: Optional[Callable[[], Any]] = None,
) -> SyncReference:
    """Run the simulated side once and distill it into a reference."""
    checker = checker_factory() if checker_factory else None
    sim = run_sync(
        protocol_factory(),
        n=n,
        rounds=rounds,
        fault_plan=plan_factory(),
        observers=(checker,) if checker else (),
    )
    verdict = check_definition(definition, sim.history, problem, stabilization_time)
    return SyncReference(
        definition=definition,
        history_digest=history_digest(sim.history),
        verdict_holds=verdict.holds,
        verdict_violations=tuple(verdict.violations),
        checker_holds=checker.verdict().holds if checker else None,
    )


def verify_sync_conformance(
    protocol_factory: Callable[[], Any],
    n: int,
    rounds: int,
    plan_factory: PlanFactory,
    problem: Any,
    definition: str = "ftss",
    stabilization_time: int = 0,
    transports: Sequence[str] = ("inproc", "tcp"),
    checker_factory: Optional[Callable[[], Any]] = None,
    deadline: Optional[float] = None,
    reference: Optional[SyncReference] = None,
) -> Tuple[List[SyncConformance], Any, List[Any]]:
    """Run one scenario simulated and live; report parity per transport.

    Returns ``(reports, sim_result, live_results)`` so callers can mine
    the runs further (stabilization measurements, message stats).
    ``checker_factory`` builds a fresh streaming checker (an observer
    with a ``verdict()`` method) per run; one instance watches the
    simulation and one each live run, and their verdicts must agree.

    When ``reference`` is given (a memoized
    :func:`compute_sync_reference` result) the simulated side is not
    re-run: live histories are compared against the reference digest
    and live verdicts against the reference verdict, and the returned
    ``sim_result`` is ``None``.  The live runs themselves always
    execute — only the deterministic engine side is cacheable.
    """
    if reference is not None:
        sim = None
        sim_digest = reference.history_digest
        sim_verdict: Any = _ReferenceVerdict(reference)
        sim_spec: Any = reference if reference.checker_holds is not None else None
    else:
        sim_checker = checker_factory() if checker_factory else None
        sim = run_sync(
            protocol_factory(),
            n=n,
            rounds=rounds,
            fault_plan=plan_factory(),
            observers=(sim_checker,) if sim_checker else (),
        )
        sim_digest = None
        sim_verdict = check_definition(
            definition, sim.history, problem, stabilization_time
        )
        sim_spec = sim_checker.verdict() if sim_checker else None

    reports: List[SyncConformance] = []
    live_results: List[Any] = []
    for transport in transports:
        live_checker = checker_factory() if checker_factory else None
        live = run_live_sync(
            protocol_factory(),
            n=n,
            rounds=rounds,
            fault_plan=plan_factory(),
            transport=transport,
            observers=(live_checker,) if live_checker else (),
            deadline=deadline,
        )
        live_results.append(live)
        if sim is not None:
            history_equal = histories_equal(sim.history, live.history)
        else:
            history_equal = history_digest(live.history) == sim_digest
        reports.append(
            SyncConformance(
                transport=transport,
                history_equal=history_equal,
                sim_verdict=sim_verdict,
                live_verdict=check_definition(
                    definition, live.history, problem, stabilization_time
                ),
                sim_checker=sim_spec,
                live_checker=live_checker.verdict() if live_checker else None,
            )
        )
    return reports, sim, live_results


@dataclass
class DetectorConformance:
    """One transport's verdict-level parity for the Fig 4 stack."""

    transport: str
    sim_completeness: bool
    sim_accuracy: bool
    live_completeness: bool
    live_accuracy: bool
    crashed_equal: bool

    @property
    def passed(self) -> bool:
        return (
            self.crashed_equal
            and self.sim_completeness == self.live_completeness
            and self.sim_accuracy == self.live_accuracy
        )

    def failures(self) -> List[str]:
        out = []
        if not self.crashed_equal:
            out.append(f"{self.transport}: live crash set differs from simulation")
        if self.sim_completeness != self.live_completeness:
            out.append(
                f"{self.transport}: strong completeness differs "
                f"(sim={self.sim_completeness}, live={self.live_completeness})"
            )
        if self.sim_accuracy != self.live_accuracy:
            out.append(
                f"{self.transport}: eventual weak accuracy differs "
                f"(sim={self.sim_accuracy}, live={self.live_accuracy})"
            )
        return out


def verify_detector_conformance(
    protocol_factory: Callable[[], Any],
    n: int,
    duration: float,
    plan_factory: PlanFactory,
    oracle_factory: Callable[[], Any],
    seed: int = 0,
    transports: Sequence[str] = ("inproc", "tcp"),
    sample_interval: float = 2.0,
    tick_interval: float = 1.0,
    time_scale: float = 0.01,
    deadline: Optional[float] = None,
) -> Tuple[List[DetectorConformance], Any, List[Any]]:
    """Fig 4 parity: ◇S property verdicts, simulated vs live.

    The simulation runs the discrete-event scheduler to virtual
    ``duration``; each live run covers the same virtual span at
    ``time_scale`` wall seconds per unit.  Sample times differ (real
    timing), so the comparison is on property *verdicts* — the paper's
    Theorem 5 claims — not on traces.
    """
    from repro.asyncnet.scheduler import AsyncScheduler
    from repro.detectors.properties import (
        eventual_weak_accuracy,
        strong_completeness,
    )

    sim_trace = AsyncScheduler(
        protocol_factory(),
        n,
        seed=seed,
        oracle=oracle_factory(),
        sample_interval=sample_interval,
        tick_interval=tick_interval,
        fault_plan=plan_factory(),
    ).run(max_time=duration)
    sim_sc = strong_completeness(sim_trace)
    sim_ewa = eventual_weak_accuracy(sim_trace)

    reports: List[DetectorConformance] = []
    live_traces: List[Any] = []
    for transport in transports:
        live_trace = run_detector_live(
            protocol_factory(),
            n,
            duration,
            fault_plan=plan_factory(),
            oracle=oracle_factory(),
            transport=transport,
            tick_interval=tick_interval,
            sample_interval=sample_interval,
            time_scale=time_scale,
            seed=seed,
            deadline=deadline,
        )
        live_traces.append(live_trace)
        live_sc = strong_completeness(live_trace)
        live_ewa = eventual_weak_accuracy(live_trace)
        reports.append(
            DetectorConformance(
                transport=transport,
                sim_completeness=sim_sc.holds,
                sim_accuracy=sim_ewa.holds,
                live_completeness=live_sc.holds,
                live_accuracy=live_ewa.holds,
                crashed_equal=sim_trace.crashed == live_trace.crashed,
            )
        )
    return reports, sim_trace, live_traces
