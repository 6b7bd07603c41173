"""Substrate-independent application + narration of systemic failures.

Every substrate that hosts protocol state — the synchronous engine, the
asynchronous scheduler, and the live network runtime — applies
:class:`~repro.sync.corruption.CorruptionPlan`-shaped plans the same
way: rewrite the states, then narrate one
:class:`~repro.kernel.events.FaultEvent` of kind ``corruption`` for
each process whose memory actually changed.  This helper is that shared
step, so the three substrates cannot drift in how corruption is
diffed or reported.

Narration diffs only the plan's reported candidate pids (see
``CorruptionPlan.touched_pids``) instead of every process's full state;
plans that do not report candidates (duck-typed externals) fall back to
the full O(n x state) diff.  When nothing on the bus listens for fault
events the diff is skipped entirely.  :func:`corruption_faults` is that
diff on its own, for a host that files the events instead of narrating
them (the proof plane's walk, :mod:`repro.verify.walk`).
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional

from repro.kernel.events import EventBus, FaultEvent, FaultKind

__all__ = ["apply_corruption", "corruption_faults"]


def apply_corruption(
    bus: EventBus,
    plan: Any,
    protocol: Any,
    states: Mapping[int, Optional[Dict[str, Any]]],
    n: int,
    time: float,
) -> Dict[int, Optional[Dict[str, Any]]]:
    """Apply one corruption plan and narrate which memories it touched."""
    corrupted = plan.corrupt(protocol, states, n)
    if bus.wants_fault:
        for fault in corruption_faults(plan, states, corrupted, n, time):
            bus.on_fault(fault)
    return corrupted


def corruption_faults(
    plan: Any,
    states: Mapping[int, Optional[Dict[str, Any]]],
    corrupted: Mapping[int, Optional[Dict[str, Any]]],
    n: int,
    time: float,
) -> List[FaultEvent]:
    """One ``corruption`` event per candidate pid whose memory changed
    from ``states`` to ``corrupted``, in pid order."""
    candidates = getattr(plan, "touched_pids", lambda s, c: None)(states, n)
    if candidates is None:
        pids = range(n)
    else:
        pids = sorted(pid for pid in candidates if 0 <= pid < n)
    return [
        FaultEvent(kind=FaultKind.CORRUPTION, time=time, pid=pid)
        for pid in pids
        if corrupted.get(pid) != states.get(pid)
    ]
