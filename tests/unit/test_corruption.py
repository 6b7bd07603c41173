"""Unit tests for repro.sync.corruption."""

from repro.detectors.stack import DetectorStack
from repro.histories.history import CLOCK_KEY
from repro.protocols.unison import MinUnison
from repro.sync.corruption import (
    ClockSkewCorruption,
    ExplicitCorruption,
    NoCorruption,
    RandomCorruption,
)


def fresh_states(protocol, n):
    return {pid: protocol.initial_state(pid, n) for pid in range(n)}


class TestNoCorruption:
    def test_identity(self, round_agreement):
        states = fresh_states(round_agreement, 3)
        out = NoCorruption().corrupt(round_agreement, states, 3)
        assert out == states

    def test_copies_not_aliases(self, round_agreement):
        states = fresh_states(round_agreement, 2)
        out = NoCorruption().corrupt(round_agreement, states, 2)
        out[0][CLOCK_KEY] = 999
        assert states[0][CLOCK_KEY] == 1

    def test_preserves_crashed(self, round_agreement):
        states = {0: {"clock": 1}, 1: None}
        out = NoCorruption().corrupt(round_agreement, states, 2)
        assert out[1] is None


class TestExplicitCorruption:
    def test_overrides_selected(self, round_agreement):
        plan = ExplicitCorruption({1: {"clock": 42}})
        out = plan.corrupt(round_agreement, fresh_states(round_agreement, 3), 3)
        assert out[1][CLOCK_KEY] == 42
        assert out[0][CLOCK_KEY] == 1

    def test_never_revives_crashed(self, round_agreement):
        plan = ExplicitCorruption({1: {"clock": 42}})
        out = plan.corrupt(round_agreement, {0: {"clock": 1}, 1: None}, 2)
        assert out[1] is None


class TestRandomCorruption:
    def test_deterministic(self, round_agreement):
        states = fresh_states(round_agreement, 4)
        a = RandomCorruption(seed=5).corrupt(round_agreement, states, 4)
        b = RandomCorruption(seed=5).corrupt(round_agreement, states, 4)
        assert a == b

    def test_different_seeds_differ(self, round_agreement):
        states = fresh_states(round_agreement, 4)
        a = RandomCorruption(seed=5).corrupt(round_agreement, states, 4)
        b = RandomCorruption(seed=6).corrupt(round_agreement, states, 4)
        assert a != b

    def test_victims_restriction(self, round_agreement):
        states = fresh_states(round_agreement, 4)
        out = RandomCorruption(seed=5, victims=frozenset({2})).corrupt(
            round_agreement, states, 4
        )
        for pid in (0, 1, 3):
            assert out[pid] == states[pid]

    def test_uses_protocol_state_space(self, round_agreement):
        # Round agreement's arbitrary states are clock-only dicts.
        out = RandomCorruption(seed=1).corrupt(
            round_agreement, fresh_states(round_agreement, 3), 3
        )
        for state in out.values():
            assert set(state) == {CLOCK_KEY}

    def test_skips_crashed(self, round_agreement):
        out = RandomCorruption(seed=1).corrupt(round_agreement, {0: None, 1: {"clock": 1}}, 2)
        assert out[0] is None

    def test_column_form_names_the_victims_and_draws_the_same_values(self, round_agreement):
        plan = RandomCorruption(seed=5, victims=frozenset({0, 2, 3, 9}))
        states = {**fresh_states(round_agreement, 5), 3: None}
        pids, columns = plan.corrupt_columns(round_agreement, [0, 1, 2, 4], 5)
        assert list(pids) == [0, 2] and list(columns) == [CLOCK_KEY]
        out = plan.corrupt(round_agreement, states, 5)
        assert [out[pid][CLOCK_KEY] for pid in pids] == list(columns[CLOCK_KEY])

    def test_column_form_is_not_offered_without_a_bulk_twin(self):
        detector = DetectorStack(initial_timeout=1, max_timeout=4)
        assert RandomCorruption(seed=5).corrupt_columns(detector, range(3), 3) is None
        for plan in (NoCorruption(), ExplicitCorruption({}), ClockSkewCorruption({})):
            assert plan.corrupt_columns(detector, range(3), 3) is None

    def test_redefining_the_single_draw_orphans_the_inherited_bulk_twin(self):
        class Descending(MinUnison):
            def arbitrary_state(self, pid, n, rng):
                return {CLOCK_KEY: -pid}

        plan = RandomCorruption(seed=5)
        out = plan.corrupt(Descending(), fresh_states(MinUnison(), 3), 3)
        assert out == {0: {CLOCK_KEY: 0}, 1: {CLOCK_KEY: -1}, 2: {CLOCK_KEY: -2}}
        assert plan.corrupt_columns(Descending(), range(3), 3) is None


class TestClockSkewCorruption:
    def test_installs_absolute_clocks(self, round_agreement):
        plan = ClockSkewCorruption({0: 100, 2: 7})
        out = plan.corrupt(round_agreement, fresh_states(round_agreement, 3), 3)
        assert out[0][CLOCK_KEY] == 100
        assert out[1][CLOCK_KEY] == 1
        assert out[2][CLOCK_KEY] == 7

    def test_preserves_other_fields(self, round_agreement):
        states = {0: {"clock": 1, "x": "keep"}}
        out = ClockSkewCorruption({0: 9}).corrupt(round_agreement, states, 1)
        assert out[0] == {"clock": 9, "x": "keep"}
