"""Unit tests for repro.histories.coterie (Definition 2.3)."""

import importlib

from repro.histories.coterie import coterie, coterie_timeline
from repro.histories.history import ExecutionHistory, Message, RoundHistory
from repro.histories.stability import is_coterie_monotone, stable_windows

from tests.conftest import broadcast_round, make_record


def hidden_process_round(round_no, n, hidden):
    """All-to-all broadcast except `hidden`, which omits all sends and
    receives (it still self-delivers)."""
    records = []
    for pid in range(n):
        if pid == hidden:
            own = Message(sender=pid, receiver=pid, sent_round=round_no, payload=round_no)
            records.append(
                make_record(
                    pid,
                    clock=round_no,
                    sent=[own],
                    delivered=[own],
                    omitted_sends=set(range(n)) - {pid},
                    omitted_receives=set(range(n)) - {pid},
                )
            )
            continue
        sent = [
            Message(sender=pid, receiver=q, sent_round=round_no, payload=round_no)
            for q in range(n)
            if q != hidden
        ]
        delivered = [
            Message(sender=q, receiver=pid, sent_round=round_no, payload=round_no)
            for q in range(n)
            if q != hidden
        ]
        records.append(make_record(pid, clock=round_no, sent=sent, delivered=delivered))
    return RoundHistory(round_no=round_no, records=tuple(records))


class TestCoterie:
    def test_full_broadcast_everyone_in_coterie(self):
        h = ExecutionHistory([broadcast_round(1, [1, 1, 1])])
        assert coterie(h) == frozenset({0, 1, 2})

    def test_hidden_faulty_process_excluded(self):
        h = ExecutionHistory([hidden_process_round(1, 3, hidden=2)])
        assert coterie(h) == frozenset({0, 1})

    def test_reveal_admits_process(self):
        # Hidden for 2 rounds, then a full broadcast round: the hidden
        # process reaches everyone and joins.
        h = ExecutionHistory(
            [
                hidden_process_round(1, 3, hidden=2),
                hidden_process_round(2, 3, hidden=2),
                broadcast_round(3, [3, 3, 3]),
            ]
        )
        timeline = coterie_timeline(h)
        assert timeline[0] == frozenset({0, 1})
        assert timeline[1] == frozenset({0, 1})
        assert timeline[2] == frozenset({0, 1, 2})

    def test_all_faulty_coterie_is_everyone(self):
        # If every process has deviated the for-all-correct condition is
        # vacuous; the coterie degenerates to the full set.
        rh = RoundHistory(
            1,
            (
                make_record(0, omitted_sends=[1]),
                make_record(1, omitted_sends=[0]),
            ),
        )
        h = ExecutionHistory([rh])
        assert coterie(h) == frozenset({0, 1})

    def test_crashed_process_leaves_coterie_frozen(self):
        # A process that broadcast in round 1 then crashed stays in the
        # coterie (monotonicity): its early influence reached everyone.
        h = ExecutionHistory(
            [broadcast_round(1, [1, 1, 1]), broadcast_round(2, [2, None, 2])]
        )
        assert 1 in coterie(h)

    def test_timeline_length_matches_history(self):
        h = ExecutionHistory([broadcast_round(r, [r, r]) for r in range(1, 6)])
        assert len(coterie_timeline(h)) == 5


def revealing_history():
    """Process 3 hides for three rounds, then joins; 7 rounds in all."""
    return ExecutionHistory(
        [hidden_process_round(r, 4, hidden=3) for r in (1, 2, 3)]
        + [broadcast_round(r, [r] * 4) for r in (4, 5, 6, 7)]
    )


def from_scratch(history):
    """The timeline of an equal history that nobody has asked about yet."""
    return coterie_timeline(ExecutionHistory(list(history)))


class TestTimelineMemo:
    """One pass per history object; callers cannot see (or spoil) the memo."""

    def test_second_call_is_equal_but_independent(self):
        h = revealing_history()
        first = coterie_timeline(h)
        second = coterie_timeline(h)
        assert first == second and first is not second
        first[0] = frozenset({99})
        first.append(frozenset())
        assert coterie_timeline(h) == second == from_scratch(h)
        assert [w.members for w in stable_windows(h)] == [
            frozenset({0, 1, 2}),
            frozenset({0, 1, 2, 3}),
        ]
        assert coterie(h) == frozenset({0, 1, 2, 3})

    def test_the_pass_runs_once_per_history_object(self, monkeypatch):
        # (``repro.histories.coterie`` the attribute is the function.)
        coterie_module = importlib.import_module("repro.histories.coterie")
        passes = []
        real = coterie_module.CausalityTracker

        def counting(n):
            passes.append(n)
            return real(n)

        monkeypatch.setattr(coterie_module, "CausalityTracker", counting)
        h = revealing_history()
        coterie_timeline(h), stable_windows(h), is_coterie_monotone(h), coterie(h)
        assert len(passes) == 1
        coterie_timeline(h.prefix(3))
        assert len(passes) == 2

    def test_slices_compute_their_own(self):
        h = revealing_history()
        whole = coterie_timeline(h)
        for k in range(1, len(h) + 1):
            prefix = h.prefix(k)
            assert coterie_timeline(prefix) == from_scratch(prefix) == whole[:k]
            assert coterie_timeline(prefix)[-1] == whole[k - 1]
        for k in range(len(h)):
            suffix = h.suffix(k)
            assert coterie_timeline(suffix) == from_scratch(suffix)
        for first, last in [(2, 5), (4, 4), (3, 7)]:
            window = h.window(first, last)
            assert coterie_timeline(window) == from_scratch(window)
        # A suffix that starts after the reveal never saw process 3 hide.
        assert coterie_timeline(h.suffix(3))[0] == frozenset({0, 1, 2, 3})
        assert whole[0] == frozenset({0, 1, 2})
