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

from typing import Dict, FrozenSet, List

from repro.histories.history import ExecutionHistory, ProcessId, RoundHistory

__all__ = ["CausalityTracker", "knowledge_timeline", "happened_before"]


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
        self._everyone: FrozenSet[ProcessId] = frozenset(range(n))
        self._know: List[set] = [set() for _ in range(n)]
        self._acted: List[bool] = [False] * n
        #: know-sets as of the end of each folded round, for send-time lookups.
        self._round_snapshots: List[List[FrozenSet[ProcessId]]] = []
        self._first_round: "int | None" = None

    @property
    def n(self) -> int:
        return self._n

    def know(self, pid: ProcessId) -> FrozenSet[ProcessId]:
        """The current influence set of ``pid`` (who happened-before it)."""
        return frozenset(self._know[pid])

    def snapshot(self) -> Dict[ProcessId, FrozenSet[ProcessId]]:
        return {pid: frozenset(s) for pid, s in enumerate(self._know)}

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
        if round_history.n != self._n:
            raise ValueError(
                f"round covers {round_history.n} processes, tracker covers {self._n}"
            )
        if self._first_round is None:
            self._first_round = round_history.round_no
        # Influence available at the *start* of this round, i.e. as the
        # previous round left it: know-sets change nowhere else.
        before = (
            self._round_snapshots[-1]
            if self._round_snapshots
            else [frozenset()] * self._n
        )
        current_index = round_history.round_no - self._first_round
        everyone = self._everyone

        for record in round_history.records:
            pid = record.pid
            know = self._know[pid]
            took_step = (
                record.state_before is not None
                or bool(record.sent)
                or bool(record.delivered)
            )
            if took_step:
                # Program order: an acting process influences itself.
                know.add(pid)
                self._acted[pid] = True
            if know == everyone:
                # Know-sets only grow, so one that already holds every
                # process has nothing left to learn from its deliveries.
                # The test is against the process set itself, not its
                # size: a hand-built history may name a sender outside
                # ``0 .. n-1``, and n ids are not necessarily *the* n.
                # (Such an id reaching a process that already knows all
                # n is not recorded: it changes no happened-before answer
                # about a process.)
                continue
            for message in record.heard:  # sender and sent_round: no Message is built
                sender = message.sender
                know.add(sender)
                if message.sent_round == round_history.round_no:
                    know |= before[sender]
                else:
                    know |= self._knowledge_at_send(sender, message.sent_round)

        assert current_index == len(self._round_snapshots)
        self._round_snapshots.append([frozenset(s) for s in self._know])

    def happened_before(self, p: ProcessId, q: ProcessId) -> bool:
        """``p ->_H q`` over the rounds advanced so far."""
        return p in self._know[q]


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
