"""Coteries (paper, Definition 2.3) and their evolution over prefixes.

    The coterie of ``H`` with protocol ``Π`` is the set of processes
    ``p`` such that for **all** correct processes ``q``: ``p ->_H q``.

Correctness here is relative to the prefix being examined: a process
that has not yet deviated counts as correct, which is what lets a
lurking faulty process "reveal itself" later and change the coterie —
the paper's de-stabilizing event.

Key structural fact used throughout the library (and verified by
property tests): **the coterie is monotone non-decreasing in the prefix
length.**  Knowledge sets only grow, and the correct set only shrinks
(each removal weakens the ∀-quantifier), so once a process enters the
coterie it never leaves.  Stable-coterie windows are therefore exactly
the runs between coterie-growth events, which makes Definition 2.4
checkable by scanning maximal constant runs (:mod:`.stability`).
"""

from __future__ import annotations

from typing import FrozenSet, List

from repro.histories.causality import CausalityTracker
from repro.histories.history import ExecutionHistory, ProcessId

__all__ = ["coterie", "coterie_timeline"]


def coterie(history: ExecutionHistory) -> FrozenSet[ProcessId]:
    """``coterie_Π(H)`` for a finished history.

    Processes ``p`` such that ``p ->_H q`` for every process ``q`` that
    is correct in ``H``.  If every process is faulty in ``H`` the
    ∀-condition is vacuous and the coterie is the full process set.
    """
    return coterie_timeline(history)[-1]


def coterie_timeline(history: ExecutionHistory) -> List[FrozenSet[ProcessId]]:
    """The coterie of every prefix of ``history``.

    Element ``i`` is ``coterie_Π(prefix of length i+1)``.  Computed in a
    single pass: knowledge sets are maintained incrementally and the
    cumulative deviator set gives each prefix's correct set.

    A history is immutable and compared by identity, so the pass runs
    once per :class:`ExecutionHistory` object and every judge of that
    history (``ftss_check``, ``empirical_stabilization``, the stability
    scan, the trace formatter) shares it; each caller gets its own list.
    Slices are new objects and compute their own.
    """
    timeline = history._coterie_timeline
    if timeline is None:
        timeline = history._coterie_timeline = tuple(_compute_timeline(history))
    return list(timeline)


def _compute_timeline(history: ExecutionHistory) -> List[FrozenSet[ProcessId]]:
    tracker = CausalityTracker(history.n)
    everyone = frozenset(history.processes)
    faulty_so_far: set = set()
    timeline: List[FrozenSet[ProcessId]] = []

    for round_history in history:
        tracker.advance(round_history)
        faulty_so_far |= round_history.deviators()
        correct = everyone - faulty_so_far
        if not correct:
            timeline.append(everyone)
            continue
        members = set(everyone)
        for q in correct:
            members &= tracker.know(q)
            if not members:
                break
        timeline.append(frozenset(members))
    return timeline
