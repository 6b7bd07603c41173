"""Unit tests for repro.histories.history."""

import pytest

from repro.histories.history import (
    ExecutionHistory,
    Message,
    ProcessRoundRecord,
    RoundHistory,
    renumber,
)

from tests.conftest import broadcast_round, make_record


class TestMessage:
    def test_construction(self):
        m = Message(sender=0, receiver=1, sent_round=3, payload="x")
        assert (m.sender, m.receiver, m.sent_round, m.payload) == (0, 1, 3, "x")

    def test_rejects_nonpositive_round(self):
        with pytest.raises(ValueError):
            Message(sender=0, receiver=1, sent_round=0, payload=None)

    def test_rejects_negative_pids(self):
        with pytest.raises(ValueError):
            Message(sender=-1, receiver=0, sent_round=1, payload=None)

    def test_frozen(self):
        m = Message(sender=0, receiver=1, sent_round=1, payload="x")
        with pytest.raises(AttributeError):
            m.payload = "y"


class TestProcessRoundRecord:
    def test_clean_record_not_deviated(self):
        assert not make_record(0).deviated

    def test_crash_is_deviation(self):
        assert make_record(0, crashed=True).deviated

    def test_send_omission_is_deviation(self):
        assert make_record(0, omitted_sends=[1]).deviated

    def test_receive_omission_is_deviation(self):
        assert make_record(0, omitted_receives=[2]).deviated

    def test_corrupted_state_is_not_deviation(self):
        # The paper: a process following its protocol from a corrupted
        # state is NOT faulty.
        record = make_record(0, clock=999999, state={"clock": 999999, "junk": 1})
        assert not record.deviated


class TestRoundHistory:
    def test_records_must_be_indexed_by_pid(self):
        with pytest.raises(ValueError, match="indexed by pid"):
            RoundHistory(round_no=1, records=(make_record(1), make_record(0)))

    def test_deviators(self):
        rh = RoundHistory(
            round_no=1,
            records=(make_record(0), make_record(1, omitted_sends=[0])),
        )
        assert rh.deviators() == frozenset({1})

    def test_n(self):
        rh = broadcast_round(1, [1, 1, 1])
        assert rh.n == 3


class TestExecutionHistory:
    def _history(self, rounds=4, n=3):
        return ExecutionHistory(
            [broadcast_round(r, [r] * n) for r in range(1, rounds + 1)]
        )

    def test_requires_consecutive_rounds(self):
        with pytest.raises(ValueError, match="consecutive"):
            ExecutionHistory([broadcast_round(1, [1, 1]), broadcast_round(3, [1, 1])])

    def test_requires_nonempty(self):
        with pytest.raises(ValueError):
            ExecutionHistory([])

    def test_requires_constant_n(self):
        with pytest.raises(ValueError, match="same process set"):
            ExecutionHistory([broadcast_round(1, [1, 1]), broadcast_round(2, [1, 1, 1])])

    def test_len_and_bounds(self):
        h = self._history(rounds=4)
        assert len(h) == 4
        assert (h.first_round, h.last_round) == (1, 4)

    def test_round_lookup(self):
        h = self._history()
        assert h.round(2).round_no == 2
        with pytest.raises(KeyError):
            h.round(99)

    def test_prefix_suffix_partition(self):
        h = self._history(rounds=5)
        prefix, suffix = h.prefix(2), h.suffix(2)
        assert len(prefix) == 2 and len(suffix) == 3
        assert prefix.last_round + 1 == suffix.first_round

    def test_prefix_bounds_validated(self):
        h = self._history(rounds=3)
        with pytest.raises(ValueError):
            h.prefix(0)
        with pytest.raises(ValueError):
            h.prefix(4)

    def test_window_preserves_round_numbers(self):
        h = self._history(rounds=5)
        w = h.window(2, 4)
        assert (w.first_round, w.last_round) == (2, 4)
        assert len(w) == 3

    def test_window_bounds_validated(self):
        h = self._history(rounds=3)
        with pytest.raises(ValueError):
            h.window(0, 2)
        with pytest.raises(ValueError):
            h.window(2, 9)

    def test_concat_roundtrip(self):
        h = self._history(rounds=5)
        again = h.prefix(2).concat(h.suffix(2))
        assert len(again) == 5
        assert again.last_round == 5

    def test_faulty_accumulates(self):
        rounds = [
            RoundHistory(1, (make_record(0), make_record(1, omitted_sends=[0]))),
            RoundHistory(2, (make_record(0), make_record(1))),
        ]
        h = ExecutionHistory(rounds)
        assert h.faulty() == frozenset({1})
        assert h.correct() == frozenset({0})

    def test_faulty_by_round_is_cumulative(self):
        rounds = [
            RoundHistory(1, (make_record(0), make_record(1, omitted_sends=[0]))),
            RoundHistory(2, (make_record(0, omitted_receives=[1]), make_record(1))),
        ]
        h = ExecutionHistory(rounds)
        assert h.faulty_by_round() == [frozenset({1}), frozenset({0, 1})]

    def test_clocks_and_crash_clock(self):
        rounds = [
            RoundHistory(
                1,
                (
                    make_record(0, clock=7),
                    make_record(1, clock=None, state=None, crashed=True),
                ),
            )
        ]
        h = ExecutionHistory(rounds)
        assert h.clocks(1) == {0: 7, 1: None}
        assert h.clock(0, 1) == 7

    def test_message_counts(self):
        h = self._history(rounds=2, n=3)
        # each of 3 live processes broadcasts to 3, both rounds
        assert h.messages_sent() == 2 * 3 * 3
        assert h.messages_delivered() == 2 * 3 * 3


class TestRenumber:
    def test_renumber_suffix_starts_at_one(self):
        h = ExecutionHistory([broadcast_round(r, [1, 1]) for r in range(1, 5)])
        suffix = h.suffix(2)
        fresh = renumber(suffix)
        assert fresh.first_round == 1
        assert len(fresh) == len(suffix)

    def test_renumber_keeps_the_topology(self):
        from repro.kernel.topology import ChurnEvent, ChurnSchedule, RingTopology
        from repro.kernel.faults import FaultPlan
        from repro.protocols.unison import MinUnison
        from repro.sync.engine import run_sync

        ring = run_sync(MinUnison(), 5, 4, topology=RingTopology(5)).history
        churn = run_sync(
            MinUnison(), 5, 4, topology=RingTopology(5),
            fault_plan=FaultPlan(churn=ChurnSchedule((ChurnEvent(2, "leave", pids=(3,)),))),
        ).history
        for history in (ring, churn):
            assert all(rh.edges is not None for rh in history)
            assert list(renumber(history, history.first_round)) == list(history)
            shifted = renumber(history.suffix(1), 7)
            assert [rh.edges for rh in shifted] == [rh.edges for rh in history.suffix(1)]
        assert churn.round(1).edges != churn.round(2).edges
        # the complete graph stays the pre-topology history: no edges at all
        complete = run_sync(MinUnison(), 5, 4).history
        assert all(rh.edges is None for rh in renumber(complete, 3))
        assert list(renumber(complete, complete.first_round)) == list(complete)


class TestMalformedHistoriesStillSayWhy:
    """The checks format their message only once they have failed."""

    def test_round_history_names_the_slot(self):
        with pytest.raises(ValueError) as error:
            RoundHistory(round_no=1, records=(make_record(0), make_record(2), make_record(1)))
        assert str(error.value) == "records must be indexed by pid; slot 1 holds pid 2"
        with pytest.raises(ValueError) as error:
            RoundHistory(round_no=0, records=(make_record(0),))
        assert str(error.value) == "round_no must be a positive integer, got 0"

    def test_execution_history_names_the_gap(self):
        with pytest.raises(ValueError) as error:
            ExecutionHistory([broadcast_round(r, [1, 1]) for r in (1, 2, 4)])
        assert str(error.value) == "rounds must be consecutive: 2 then 4"
        with pytest.raises(ValueError) as error:  # sizes are checked before gaps
            ExecutionHistory([broadcast_round(1, [1, 1]), broadcast_round(3, [1, 1, 1])])
        assert str(error.value) == "all round histories must cover the same process set"
        with pytest.raises(ValueError) as error:
            ExecutionHistory([])
        assert str(error.value) == "an execution history needs at least one round"
