"""Lamport happened-before over recorded histories.

The paper writes ``p ->_H q`` when some event executed by ``p``
happened-before (in Lamport's sense [Lam78]) some event executed by
``q`` in history ``H``.  For round-based executions with recorded
deliveries this reduces to reachability through the delivery graph, and
can be maintained incrementally with one *knowledge set* per process:

    ``know[q]`` = the set of processes ``p`` with ``p ->_H q`` so far.

Update rule, applied once per round in order:

- a process that takes any step this round influences itself
  (and the paper additionally guarantees every process receives its own
  broadcast), so ``q ∈ know[q]`` once ``q`` has acted;
- when ``q`` receives a message sent by ``u`` *this* round, everything
  that had influenced ``u`` by the **end of the previous round** — plus
  ``u`` itself — now influences ``q``.  Influence received by ``u``
  later in the same round does *not* flow through the send, because
  within a round every send event precedes every receive event.

Crashed processes stop accumulating influence (they execute no further
events), but the influence they exerted earlier persists — exactly the
behaviour needed for the paper's Theorem 1/3 scenarios, where a faulty
process's single revealed message drags its stale influence into the
coterie.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Dict, FrozenSet, List, Tuple

from repro.histories.history import Broadcast, ExecutionHistory, ProcessId, RoundHistory

__all__ = [
    "CausalityTracker",
    "advance_knowledge",
    "happened_before",
    "knowledge_timeline",
    "learn",
    "shared",
]


@lru_cache(maxsize=1 << 12)
def shared(pids: FrozenSet[ProcessId]) -> FrozenSet[ProcessId]:
    """One instance per set of pids, so that the many states a walk
    keeps share the sets they hold alike."""
    return pids


@lru_cache(maxsize=None)
def _everyone(n: int) -> FrozenSet[ProcessId]:
    return shared(frozenset(range(n)))


def advance_knowledge(
    know: Tuple[FrozenSet[ProcessId], ...],
    round_history: RoundHistory,
    carried: Callable[[ProcessId, int], FrozenSet[ProcessId]],
) -> Tuple[FrozenSet[ProcessId], ...]:
    """The influence sets ``know`` (by pid, as the previous round left
    them) after one more round, by the update rule above.

    A copy sent this round carries its sender's ``know``; one sent in an
    earlier round carries ``carried(sender, sent_round)``, the sender's
    set as that round began.  Pure: an unchanged ``know`` is returned as
    it is.
    """
    round_no = round_history.round_no
    everyone = _everyone(len(know))
    learned = None
    for record in round_history.records:
        pid = record.pid
        mine = know[pid]
        if mine is everyone:
            continue
        grown = set(mine)
        if record.state_before is not None or record.sent or record.delivered:
            grown.add(pid)  # program order: an acting process influences itself
        # A set holding every process has nothing left to learn.  The test
        # is against the process set, not its size: a hand-built history
        # may name a sender outside ``0 .. n-1`` (one reaching a process
        # that knows all n changes no happened-before answer about one).
        if grown != everyone:
            for message in record.heard:  # sender and sent_round: no Message is built
                sender, sent = message.sender, message.sent_round
                grown.add(sender)
                grown |= know[sender] if sent == round_no else carried(sender, sent)
        if grown == everyone:
            grown = everyone
        elif len(grown) == len(mine):
            continue
        if learned is None:
            learned = list(know)
        learned[pid] = frozenset(grown)
    return know if learned is None else tuple(learned)


_NOBODY: FrozenSet[ProcessId] = frozenset()


def learn(know: tuple, late: tuple, round_history: RoundHistory) -> Tuple[tuple, tuple]:
    """``(know, late)`` after one more round, as the small value a
    monitor keeps (:mod:`repro.analysis.stabilization`).

    A crashed process's set is cleared: it neither sends nor counts for
    a coterie again.  Instead of every round's snapshot, ``late`` holds
    what a copy not yet heard carries: ``(sent round, sender, the
    sender's set as that round began, who may still hear it)``.  An
    entry goes once all it waits for have crashed or know what it
    carries (hearing it then adds only the sender, whom it names).
    Under perfect synchrony a copy is heard in its own round or never,
    so no entry is ever read there.
    """
    round_no, records = round_history.round_no, round_history.records

    def carried(sender: ProcessId, sent: int) -> FrozenSet[ProcessId]:
        return next((k for s, p, k, _ in late if (s, p) == (sent, sender)), _NOBODY)

    learned = advance_knowledge(know, round_history, carried)
    if learned is not know or any(r.crashed and learned[r.pid] for r in records):
        learned = tuple([_NOBODY if r.crashed else shared(k) for r, k in zip(records, learned)])
    everyone = _everyone(len(know))
    alive = [k for r, k in zip(records, learned) if not r.crashed]
    known = everyone if all(k is everyone for k in alive) else alive[0].intersection(*alive[1:])
    for record in records:  # a copy of what everyone alive knows carries nothing
        if record.wire and not know[record.pid] <= known:
            for item in record.wire:
                receivers = item.receivers if type(item) is Broadcast else (item.receiver,)
                late += ((round_no, record.pid, know[record.pid], receivers),)
    if late:
        late = tuple(
            (sent, sender, carries, left)
            for sent, sender, carries, waiting in late
            if (left := frozenset([q for q in waiting if not (records[q].crashed or carries <= learned[q])]))
        )
    return learned, late


class CausalityTracker:
    """Incrementally maintains ``know[q] = {p : p ->_H q}`` round by round.

    The synchronous engine can feed rounds as they are produced;
    analyses over a finished history use :func:`knowledge_timeline`.

    Messages may be delivered in a later round than they were sent (the
    not-perfectly-synchronized engine mode): the influence a message
    transfers is the sender's knowledge *at send time*, so the tracker
    keeps per-round snapshots and looks up ``message.sent_round``.  A
    message sent before the tracked window contributes only its
    sender's identity (a sound under-approximation for sliced
    histories).
    """

    def __init__(self, n: int):
        self._n = n
        #: know-sets as of the end of each folded round, for send-time lookups.
        self._round_snapshots: List[Tuple[FrozenSet[ProcessId], ...]] = []
        self._first_round: "int | None" = None

    @property
    def n(self) -> int:
        return self._n

    def _current(self) -> Tuple[FrozenSet[ProcessId], ...]:
        snapshots = self._round_snapshots
        return snapshots[-1] if snapshots else (frozenset(),) * self._n

    def know(self, pid: ProcessId) -> FrozenSet[ProcessId]:
        """The current influence set of ``pid`` (who happened-before it)."""
        return self._current()[pid]

    def snapshot(self) -> Dict[ProcessId, FrozenSet[ProcessId]]:
        return dict(enumerate(self._current()))

    def _knowledge_at_send(self, sender: ProcessId, sent_round: int) -> FrozenSet:
        """The sender's influence set just before its send in ``sent_round``.

        Within a round every send precedes every receive, so the send
        carries the knowledge held at the *end of the previous round*.
        """
        if self._first_round is None:
            return frozenset()
        index = sent_round - self._first_round - 1
        if index < 0:
            return frozenset()
        index = min(index, len(self._round_snapshots) - 1)
        return self._round_snapshots[index][sender]

    def advance(self, round_history: RoundHistory) -> None:
        """Fold one round's events into the knowledge sets."""
        records = round_history.records
        if len(records) != self._n:
            raise ValueError(
                f"round covers {len(records)} processes, tracker covers {self._n}"
            )
        if self._first_round is None:
            self._first_round = round_history.round_no
        assert round_history.round_no - self._first_round == len(self._round_snapshots)
        self._round_snapshots.append(
            advance_knowledge(self._current(), round_history, self._knowledge_at_send)
        )

    def happened_before(self, p: ProcessId, q: ProcessId) -> bool:
        """``p ->_H q`` over the rounds advanced so far."""
        return p in self.know(q)


def knowledge_timeline(
    history: ExecutionHistory,
) -> List[Dict[ProcessId, FrozenSet[ProcessId]]]:
    """Knowledge sets after each round of ``history``.

    Element ``i`` is the snapshot after folding rounds
    ``first_round .. first_round + i`` — i.e. the knowledge sets of the
    ``(i+1)``-prefix of ``history``.
    """
    tracker = CausalityTracker(history.n)
    timeline = []
    for round_history in history:
        tracker.advance(round_history)
        timeline.append(tracker.snapshot())
    return timeline


def happened_before(history: ExecutionHistory, p: ProcessId, q: ProcessId) -> bool:
    """``p ->_H q`` for a finished history (one-shot convenience)."""
    tracker = CausalityTracker(history.n)
    for round_history in history:
        tracker.advance(round_history)
    return tracker.happened_before(p, q)
