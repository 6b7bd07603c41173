"""Unit tests for the simulation kernel: snapshots, fault plans, sweeps."""

import pytest

from repro.experiments.base import default_jobs, run_sweep
from repro.kernel import events, snapshot
from repro.kernel import (
    ComposedAdversary,
    CrashScheduleAdversary,
    FaultPlan,
    copy_payload,
    snapshot_state,
    snapshot_states,
)
from repro.kernel.events import EventBus, Observer
from repro.sync.adversary import FaultMode, RandomAdversary
from repro.sync.corruption import RandomCorruption
from repro.util.rng import sweep_seed


class TestSnapshot:
    def test_immutable_values_shared(self):
        # On a fresh cache the first-proven instance is its own canonical,
        # so the snapshot shares it by identity (interning could otherwise
        # canonicalize to an equal tuple proven earlier in the session).
        snapshot.clear_caches()
        state = {"clock": 3, "label": "x", "pair": (1, 2)}
        snap = snapshot_state(state)
        assert snap == state
        assert snap is not state
        assert snap["pair"] is state["pair"]

    def test_nested_mutables_copied(self):
        state = {"log": [[1], [2]], "inner": {"seen": {0, 1}}}
        snap = snapshot_state(state)
        snap["log"][0].append(99)
        snap["inner"]["seen"].add(7)
        assert state["log"][0] == [1]
        assert state["inner"]["seen"] == {0, 1}

    def test_none_state_preserved(self):
        assert snapshot_states({0: None, 1: {"clock": 1}})[0] is None

    def test_tuple_with_mutable_element_copied(self):
        state = {"mix": (1, [2, 3])}
        snap = snapshot_state(state)
        snap["mix"][1].append(4)
        assert state["mix"][1] == [2, 3]

    def test_copy_payload_isolates(self):
        payload = {"votes": [1, 2]}
        copied = copy_payload(payload)
        copied["votes"].append(3)
        assert payload["votes"] == [1, 2]

    def test_frozen_dataclass_of_immutables_shared(self):
        import dataclasses

        @dataclasses.dataclass(frozen=True)
        class Mark:
            round_no: int
            tags: tuple

        state = {"mark": Mark(round_no=3, tags=(1, 2))}
        snap = snapshot_state(state)
        assert snap["mark"] is state["mark"]

    def test_frozen_dataclass_with_mutable_field_copied(self):
        import dataclasses

        @dataclasses.dataclass(frozen=True)
        class Journal:
            entries: list

        state = {"journal": Journal(entries=[1])}
        snap = snapshot_state(state)
        assert snap["journal"] is not state["journal"]
        snap["journal"].entries.append(2)
        assert state["journal"].entries == [1]

    def test_slots_only_value_copied(self):
        class Cell:
            __slots__ = ("items_",)

            def __init__(self, items_):
                self.items_ = items_

        state = {"cell": Cell([1, 2])}
        snap = snapshot_state(state)
        assert snap["cell"] is not state["cell"]
        snap["cell"].items_.append(3)
        assert state["cell"].items_ == [1, 2]

    def test_non_mapping_state_rejected_loudly(self):
        class SlotState:
            __slots__ = ("clock",)

            def __init__(self):
                self.clock = 1

        with pytest.raises(TypeError, match="must be a mapping"):
            snapshot_state(SlotState())

    def test_aliasing_deepcopy_rejected_loudly(self):
        class Shared:
            def __init__(self):
                self.log = []

            def __deepcopy__(self, memo):
                return self  # an aliasing copy: exactly what must not leak

        with pytest.raises(TypeError, match="share mutable state"):
            snapshot_state({"bad": Shared()})


class TestFaultPlan:
    def test_crash_set_identical_across_views(self):
        plan = FaultPlan(crashes={0: 2.0, 3: 7.5})
        assert plan.crash_set == frozenset({0, 3})
        assert frozenset(plan.to_async().crash_times) == plan.crash_set

    def test_sync_round_lands_at_ceil(self):
        adversary = CrashScheduleAdversary({1: 2.3})
        plan = adversary.plan_round(3, alive=frozenset({0, 1, 2}), faulty_so_far=frozenset())
        assert 1 in plan.crashes
        assert adversary.plan_round(2, frozenset({0, 1, 2}), frozenset()).crashes == {}

    def test_budget_defaults_to_crashes_plus_omissions(self):
        omissions = RandomAdversary(n=5, f=2, mode=FaultMode.SEND_OMISSION, rate=0.5, seed=0)
        plan = FaultPlan(crashes={0: 1.0}, omissions=omissions)
        assert plan.budget == 3

    def test_omissions_have_no_async_realization(self):
        omissions = RandomAdversary(n=5, f=1, mode=FaultMode.SEND_OMISSION, rate=0.5, seed=0)
        with pytest.raises(ValueError):
            FaultPlan(omissions=omissions).to_async()

    def test_colliding_mid_corruptions_rejected(self):
        plan = FaultPlan(
            mid_corruptions={
                4.2: RandomCorruption(seed=1),
                4.8: RandomCorruption(seed=2),
            }
        )
        with pytest.raises(ValueError):
            plan.to_sync()

    def test_composed_adversary_first_part_wins(self):
        first = CrashScheduleAdversary({0: 1.0})
        second = RandomAdversary(n=3, f=1, mode=FaultMode.SEND_OMISSION, rate=1.0, seed=0)
        composed = ComposedAdversary([first, second])
        plan = composed.plan_round(1, frozenset({0, 1, 2}), frozenset())
        assert plan.crashes == {0: frozenset()}
        assert composed.f == 2


def _square(task):
    return task * task


class TestRunSweep:
    def test_sequential_matches_input_order(self):
        assert run_sweep(_square, [3, 1, 2], jobs=1) == [9, 1, 4]

    def test_parallel_matches_sequential(self):
        points = list(range(8))
        assert run_sweep(_square, points, jobs=4) == run_sweep(_square, points, jobs=1)

    def test_empty_points(self):
        assert run_sweep(_square, [], jobs=4) == []

    def test_default_jobs_reads_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert default_jobs() == 3
        monkeypatch.setenv("REPRO_JOBS", "not-a-number")
        assert default_jobs() == 1
        monkeypatch.delenv("REPRO_JOBS")
        assert default_jobs() == 1


class TestSweepSeed:
    def test_deterministic_and_point_separated(self):
        assert sweep_seed("FIG1", "n=4,f=1", 0) == sweep_seed("FIG1", "n=4,f=1", 0)
        assert sweep_seed("FIG1", "n=4,f=1", 0) != sweep_seed("FIG1", "n=6,f=2", 0)
        assert sweep_seed("FIG1", "n=4,f=1", 0) != sweep_seed("FIG2", "n=4,f=1", 0)
        assert sweep_seed("FIG1", "n=4,f=1", 0) != sweep_seed("FIG1", "n=4,f=1", 1)


class _FaultListener(Observer):
    def on_fault(self, fault):
        pass


class _WireListener(_FaultListener):
    """Subscribes to sends in the batch form only, on top of its parent's hook."""

    def on_sends(self, messages, time):
        pass


def _wanted(bus):
    return {hook for hook in events._FLAGGED_HOOKS if getattr(bus, f"wants_{hook}")}


class TestBusSubscriptionMemo:
    """Which hooks a class overrides is worked out once per class."""

    def test_reflection_runs_once_per_observer_class(self, monkeypatch):
        class Fresh(Observer):
            def on_round_end(self, round_no):
                pass

        inspected = []
        overrides = events._overrides

        def counting(cls, method):
            inspected.append(cls)
            return overrides(cls, method)

        monkeypatch.setattr(events, "_overrides", counting)
        first = EventBus((Fresh(),))
        assert set(inspected) == {Fresh}
        del inspected[:]
        for _ in range(3):
            again = EventBus((Fresh(), Fresh()))
            assert _wanted(again) == _wanted(first) == {"round_end"}
        assert inspected == []

    def test_subclass_is_not_answered_from_its_parent(self):
        assert _wanted(EventBus((_FaultListener(),))) == {"fault"}
        bus = EventBus((_FaultListener(), _WireListener()))
        assert _wanted(bus) == {"fault", "send"}
        # The batch form alone subscribes, and only the subscriber is forwarded to.
        assert [type(o) for o in bus._send_observers] == [_WireListener]
        assert bus._deliver_observers == ()

    def test_nested_buses_are_inspected_per_instance(self):
        # Every bus is an EventBus: a per-class answer would make these equal.
        faults = EventBus((_FaultListener(),))
        wires = EventBus((_WireListener(),))
        nothing = EventBus(())
        assert _wanted(EventBus((faults,))) == {"fault"}
        assert _wanted(EventBus((wires,))) == {"fault", "send"}
        assert _wanted(EventBus((nothing,))) == set()
        assert _wanted(EventBus((nothing, faults))) == {"fault"}
