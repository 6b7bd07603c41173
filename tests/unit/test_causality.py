"""Unit tests for repro.histories.causality (Lamport happened-before)."""

from repro.histories.causality import (
    CausalityTracker,
    happened_before,
    knowledge_timeline,
)
from repro.histories.history import ExecutionHistory, Message, RoundHistory

from tests.conftest import broadcast_round, make_record


def silent_round(round_no, n, senders_to_receivers):
    """A round in which only the listed (sender -> receivers) deliveries occur.

    Every live process still self-delivers (the paper guarantees own
    broadcasts are received).
    """
    records = []
    for pid in range(n):
        deliveries = [
            Message(sender=pid, receiver=pid, sent_round=round_no, payload=None)
        ]
        sent = [Message(sender=pid, receiver=pid, sent_round=round_no, payload=None)]
        for (s, r) in senders_to_receivers:
            if r == pid and s != pid:
                deliveries.append(
                    Message(sender=s, receiver=pid, sent_round=round_no, payload=None)
                )
            if s == pid and r != pid:
                sent.append(
                    Message(sender=pid, receiver=r, sent_round=round_no, payload=None)
                )
        records.append(
            make_record(pid, clock=round_no, sent=sent, delivered=deliveries)
        )
    return RoundHistory(round_no=round_no, records=tuple(records))


class TestCausalityTracker:
    def test_self_influence_after_first_round(self):
        tracker = CausalityTracker(2)
        tracker.advance(silent_round(1, 2, []))
        assert tracker.happened_before(0, 0)
        assert tracker.happened_before(1, 1)

    def test_direct_message_creates_edge(self):
        tracker = CausalityTracker(2)
        tracker.advance(silent_round(1, 2, [(0, 1)]))
        assert tracker.happened_before(0, 1)
        assert not tracker.happened_before(1, 0)

    def test_transitive_two_hops(self):
        tracker = CausalityTracker(3)
        tracker.advance(silent_round(1, 3, [(0, 1)]))
        tracker.advance(silent_round(2, 3, [(1, 2)]))
        assert tracker.happened_before(0, 2)

    def test_no_same_round_relay(self):
        # Within one round every send precedes every receive, so a
        # chain 0->1 and 1->2 in the SAME round must NOT yield 0->2.
        tracker = CausalityTracker(3)
        tracker.advance(silent_round(1, 3, [(0, 1), (1, 2)]))
        assert tracker.happened_before(0, 1)
        assert tracker.happened_before(1, 2)
        assert not tracker.happened_before(0, 2)

    def test_influence_is_permanent(self):
        tracker = CausalityTracker(2)
        tracker.advance(silent_round(1, 2, [(0, 1)]))
        tracker.advance(silent_round(2, 2, []))
        assert tracker.happened_before(0, 1)

    def test_saturated_process_learns_nothing_more_and_says_the_same(self):
        # After two full rounds everyone knows everyone; further rounds
        # take the shortcut and must leave every answer as it was.
        tracker = CausalityTracker(3)
        for round_no in (1, 2, 3, 4):
            tracker.advance(broadcast_round(round_no, [round_no] * 3))
            assert tracker.snapshot() == {pid: frozenset({0, 1, 2}) for pid in range(3)}

    def test_n_ids_are_not_necessarily_the_n_processes(self):
        # ``Message`` does not bound ``sender`` by n.  Round 5 brings
        # process 0 a late copy from an id outside the system: it then
        # knows n ids, {0, 1, 7}, without knowing process 2 — which it
        # must still learn of in round 6.
        n = 3
        own = [Message(pid, pid, 5, None) for pid in range(n)]
        round_five = RoundHistory(
            round_no=5,
            records=(
                make_record(
                    0,
                    sent=[own[0]],
                    delivered=[own[0], Message(1, 0, 5, None), Message(7, 0, 4, None)],
                ),
                make_record(1, sent=[own[1], Message(1, 0, 5, None)], delivered=[own[1]]),
                make_record(2, sent=[own[2]], delivered=[own[2]]),
            ),
        )
        tracker = CausalityTracker(n)
        tracker.advance(round_five)
        assert tracker.know(0) == frozenset({0, 1, 7})
        tracker.advance(silent_round(6, n, [(2, 0)]))
        assert tracker.know(0) == frozenset({0, 1, 2, 7})
        assert tracker.happened_before(2, 0)

    def test_mismatched_round_size_raises(self):
        tracker = CausalityTracker(3)
        import pytest

        with pytest.raises(ValueError):
            tracker.advance(broadcast_round(1, [1, 1]))


class TestKnowledgeTimeline:
    def test_one_snapshot_per_round(self):
        h = ExecutionHistory([silent_round(1, 2, []), silent_round(2, 2, [(0, 1)])])
        timeline = knowledge_timeline(h)
        assert len(timeline) == 2
        assert 0 not in timeline[0][1]
        assert 0 in timeline[1][1]

    def test_snapshots_are_independent(self):
        h = ExecutionHistory([silent_round(1, 2, []), silent_round(2, 2, [(0, 1)])])
        timeline = knowledge_timeline(h)
        # mutating protection: earlier snapshots unaffected by later rounds
        assert timeline[0][1] == frozenset({1})


class TestHappenedBefore:
    def test_full_broadcast_connects_everyone(self):
        h = ExecutionHistory([broadcast_round(1, [1, 1, 1])])
        for p in range(3):
            for q in range(3):
                assert happened_before(h, p, q)

    def test_crashed_process_exerts_no_influence(self):
        h = ExecutionHistory([broadcast_round(1, [1, None, 1])])
        assert not happened_before(h, 1, 0)
