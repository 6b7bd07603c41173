"""The unified fault plane: one plan, two substrates.

The paper's whole point is that process failures and systemic failures
belong to one framework, in synchronous and asynchronous systems alike
(Definition 2.4 covers both; Figures 1–3 are synchronous, Figure 4
asynchronous).  Before this module the reproduction kept two disjoint
fault vocabularies: the synchronous engine took an
:class:`~repro.sync.adversary.Adversary` plus
:class:`~repro.sync.corruption.CorruptionPlan`, the asynchronous
scheduler its own ``crash_times``/``gst`` knobs.  A :class:`FaultPlan`
subsumes all of them, so any fault scenario can be aimed at either
substrate:

- ``crashes``: pid → time.  The sync engine crashes the process at
  round ``max(1, ceil(time))`` (a clean crash: its final broadcast
  reaches nobody); the async scheduler stops it at virtual time
  ``time``.  Either way the *crash set* is identical.
- ``omissions``: an arbitrary process-failure adversary (send/receive
  omission, forgery).  Synchronous-only — the paper's asynchronous
  model (Section 3) admits crash failures only, so translating a plan
  with omissions to the async substrate is a loud error.
- ``initial_corruption`` / ``mid_corruptions``: systemic failures —
  arbitrary state corruption at start or at time t (sync: start of
  round ``max(1, ceil(t))``; async: at virtual time ``t``).
- ``gst``: the asynchrony knob (global stabilization time); ignored by
  the perfectly synchronous substrate.

``to_sync()`` / ``to_async()`` produce the substrate-specific views the
engines consume; both :func:`repro.sync.engine.run_sync` and
:class:`repro.asyncnet.scheduler.AsyncScheduler` accept a
``fault_plan=`` argument directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, FrozenSet, Mapping, Optional, Sequence

from repro.kernel.delivery import quiet
from repro.sync.adversary import Adversary, RoundFaultPlan

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.kernel.topology import ChurnSchedule
from repro.sync.corruption import CorruptionPlan
from repro.util.validation import require

__all__ = [
    "AsyncFaultView",
    "ComposedAdversary",
    "CrashScheduleAdversary",
    "FaultPlan",
    "SyncFaultView",
    "WireFaults",
]

ProcessId = int


def _sync_round(time: float) -> int:
    """The actual round at which a fault scheduled for ``time`` lands."""
    return max(1, math.ceil(time))


class CrashScheduleAdversary(Adversary):
    """Crashes each scheduled process at its round, delivering nothing.

    The synchronous realization of a :class:`FaultPlan` crash schedule:
    a clean crash (empty survivor set) at round ``max(1, ceil(time))``,
    mirroring the async scheduler, where a crash at ``time`` simply
    stops the process before its next step.
    """

    def __init__(self, crashes: Mapping[ProcessId, float]):
        super().__init__(f=len(dict(crashes)))
        self._by_round: Dict[int, list] = {}
        for pid, time in crashes.items():
            self._by_round.setdefault(_sync_round(time), []).append(pid)

    def plan_round(self, round_no, alive, faulty_so_far) -> RoundFaultPlan:
        pids = self._by_round.get(round_no, ())
        return RoundFaultPlan(
            crashes={pid: frozenset() for pid in pids if pid in alive}
        )


class ComposedAdversary(Adversary):
    """Merges the per-round plans of several adversaries.

    Later parts never override earlier ones: for a pid targeted twice,
    the first part's entry wins (a crash always trumps — the engine
    ignores omissions of a crashing process anyway).
    """

    def __init__(self, parts: Sequence[Adversary], f: Optional[int] = None):
        super().__init__(f=sum(p.f for p in parts) if f is None else f)
        self._parts = tuple(parts)

    def plan_round(self, round_no, alive, faulty_so_far) -> RoundFaultPlan:
        plans = [part.plan_round(round_no, alive, faulty_so_far) for part in self._parts]
        active = [plan for plan in plans if not quiet(plan)]
        if len(active) <= 1:  # nothing to merge
            return active[0] if active else RoundFaultPlan()
        merged = RoundFaultPlan()
        for plan in active:
            for pid, survivors in plan.crashes.items():
                merged.crashes.setdefault(pid, survivors)
            for pid, dropped in plan.send_omissions.items():
                merged.send_omissions.setdefault(pid, dropped)
            for pid, dropped in plan.receive_omissions.items():
                merged.receive_omissions.setdefault(pid, dropped)
            for pid, lies in plan.forgeries.items():
                merged.forgeries.setdefault(pid, lies)
        return merged


@dataclass(frozen=True)
class SyncFaultView:
    """What the synchronous engine consumes from a :class:`FaultPlan`."""

    adversary: Optional[Adversary]
    corruption: Optional[CorruptionPlan]
    mid_run_corruptions: Dict[int, CorruptionPlan]


@dataclass(frozen=True)
class AsyncFaultView:
    """What the asynchronous scheduler consumes from a :class:`FaultPlan`."""

    crash_times: Dict[ProcessId, float]
    corruption: Optional[CorruptionPlan]
    mid_corruptions: Dict[float, CorruptionPlan]
    gst: float


@dataclass(frozen=True)
class WireFaults:
    """Wire-level asynchrony knobs for substrates with a real wire.

    The simulated substrates model message-level asynchrony internally
    (the sync engine through a :class:`~repro.sync.delays.DelayModel`,
    the async scheduler through its delay distribution and
    ``duplicate_probability``), so these knobs are consumed only by the
    live network runtime's interposer
    (:mod:`repro.net.interposer`), where they become actual wall-clock
    delays and duplicated frames on the transport.  ``to_sync()`` /
    ``to_async()`` ignore them — a plan that carries wire faults still
    translates to the simulators, which realize their own asynchrony.

    Attributes
    ----------
    delay:
        ``(lo, hi)`` uniform per-copy delivery delay, in the substrate's
        wall-clock seconds (before any cluster time scaling).
    duplication:
        Probability that a copy is delivered twice (independent delays).
    seed:
        Seed for the interposer's delay/duplication draws.
    """

    delay: "tuple" = (0.0, 0.0)
    duplication: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        lo, hi = self.delay
        require(0.0 <= lo <= hi, f"bad wire delay bounds {self.delay}")
        require(
            0.0 <= self.duplication <= 1.0,
            f"duplication must be in [0, 1], got {self.duplication}",
        )


@dataclass(frozen=True)
class FaultPlan:
    """One fault scenario, aimable at either substrate.

    Attributes
    ----------
    crashes:
        ``pid -> time`` crash schedule (both substrates).
    omissions:
        A process-failure adversary for omission/forgery campaigns
        (synchronous substrate only; the paper's async model is
        crash-only).
    initial_corruption:
        Systemic failure applied to the initial states.
    mid_corruptions:
        ``time -> plan``: systemic failures during execution.
    gst:
        Global stabilization time (asynchronous substrate only).
    f:
        Explicit fault budget; defaults to ``len(crashes)`` plus the
        omission adversary's budget.
    wire:
        Optional :class:`WireFaults` — extra wire-level delay and
        duplication, realized only by the live network runtime (the
        simulators model asynchrony through their own knobs and ignore
        this field).
    churn:
        Optional :class:`~repro.kernel.topology.ChurnSchedule` of
        join/leave/partition/heal events.  Engines read it directly
        (not via the views) and wrap the run's topology in a
        :class:`~repro.kernel.topology.DynamicTopology`.  Churn is a
        *topology* change, not a process failure: detached processes
        keep executing and never enter the faulty set, so the churn
        schedule does not count against the budget ``f``.
    """

    crashes: Mapping[ProcessId, float] = field(default_factory=dict)
    omissions: Optional[Adversary] = None
    initial_corruption: Optional[CorruptionPlan] = None
    mid_corruptions: Mapping[float, CorruptionPlan] = field(default_factory=dict)
    gst: float = 0.0
    f: Optional[int] = None
    wire: Optional[WireFaults] = None
    churn: Optional["ChurnSchedule"] = None

    @property
    def crash_set(self) -> FrozenSet[ProcessId]:
        """The processes this plan crashes (identical in both views)."""
        return frozenset(self.crashes)

    @property
    def budget(self) -> int:
        """The fault budget ``f`` this plan requires."""
        if self.f is not None:
            return self.f
        return len(self.crashes) + (self.omissions.f if self.omissions else 0)

    def corruption_rounds(self) -> "list[int]":
        """Actual rounds at which mid-run corruption lands (sync view)."""
        return sorted(_sync_round(t) for t in self.mid_corruptions)

    def to_sync(self) -> SyncFaultView:
        """Translate to the synchronous engine's fault vocabulary."""
        parts: list = []
        if self.crashes:
            parts.append(CrashScheduleAdversary(self.crashes))
        if self.omissions is not None:
            parts.append(self.omissions)
        if not parts:
            adversary: Optional[Adversary] = None
        elif len(parts) == 1 and self.f is None:
            adversary = parts[0]
        else:
            adversary = ComposedAdversary(parts, f=self.budget)
        mid: Dict[int, CorruptionPlan] = {}
        for time, plan in self.mid_corruptions.items():
            round_no = _sync_round(time)
            require(
                round_no not in mid,
                f"two mid-run corruptions land on sync round {round_no}; "
                f"schedule them at least one round apart",
            )
            mid[round_no] = plan
        return SyncFaultView(
            adversary=adversary,
            corruption=self.initial_corruption,
            mid_run_corruptions=mid,
        )

    def to_async(self) -> AsyncFaultView:
        """Translate to the asynchronous scheduler's fault vocabulary."""
        require(
            self.omissions is None,
            "omission adversaries have no asynchronous realization: the "
            "paper's async model (Section 3) admits crash failures only",
        )
        return AsyncFaultView(
            crash_times={pid: float(t) for pid, t in self.crashes.items()},
            corruption=self.initial_corruption,
            mid_corruptions={float(t): p for t, p in self.mid_corruptions.items()},
            gst=self.gst,
        )
