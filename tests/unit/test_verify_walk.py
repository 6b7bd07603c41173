"""The walk's table of filed rounds: exact keys, private steps, one call.

A table hit hands a plan the records, faults and next configuration
another plan's round produced — or the configuration and faults another
plan's corruption produced, or the verdicts another plan's obligation
received — so everything here is about when two may be taken for one:
only when their keys are exactly equal, only within one verification,
and never in a way that lets protocol code reach what the table holds.  (``test_verify_joint.py`` holds the
walk's answers to a ``run_sync`` per plan.)
"""

import copy
import enum
import os
import threading
from collections import OrderedDict, namedtuple
from dataclasses import replace

import pytest

import repro.cache
from repro.experiments.base import shutdown_pool
from repro.core import solvability
from repro.core.rounds import RoundAgreementProtocol
from repro.explore.space import ComposedCorruption, PlanSpec
from repro.explore.targets import SYNC_CLAIMS, SyncClaim
from repro.kernel.corruptions import apply_corruption
from repro.kernel.delivery import Liveness
from repro.kernel.events import EventBus, Observer
from repro.kernel.recorders import HistoryRecorder
from repro.sync import engine
from repro.sync.adversary import RoundFaultPlan
from repro.sync.corruption import ClockSkewCorruption, RandomCorruption
from repro.sync.protocol import SyncProtocol
from repro.verify import VERIFY_TARGETS, verify
from repro.verify import walk as walk_module
from repro.verify.explicit import enumerate_space
from repro.verify.targets import confirm_verdict, judge_plan, streaming_verdict
from repro.verify.walk import RoundTable, current_table, shared_table, walk
from repro.workloads.scenarios import ConsensusDeadlockCorruption
from repro.workloads.spaces import VERIFY_FIG1_SMOKE_SPACE


class Carry(SyncProtocol):
    """Keeps whatever ``value`` it starts with; the clock ticks."""

    name = "carry"

    def initial_state(self, pid, n):
        return {"clock": 1, "value": 1}

    def send(self, pid, state):
        return state["clock"]

    def update(self, pid, state, delivered):
        return {"clock": state["clock"] + 1, "value": state["value"]}


def _configuration(table, value):
    states = {pid: {"clock": 1, "value": value} for pid in range(2)}
    return table.configuration(states, Liveness(2))


# -- exact keys ----------------------------------------------------------------


@pytest.mark.parametrize(
    "a, b",
    [
        (1, True),
        (0, False),
        ((1, 2), [1, 2]),
        (frozenset({1}), {1}),
        ({"x": 1}, OrderedDict(x=1)),
        ({"x": (1,)}, {"x": [1]}),
        ({"x": 1, "y": 2}, {"y": 2, "x": 1}),
    ],
    ids=[
        "1-True", "0-False", "tuple-list", "frozenset-set", "dict-subclass", "nested",
        "field-order",
    ],
)
def test_configurations_that_differ_only_in_type_or_order_never_share_an_entry(a, b):
    table = RoundTable()
    first, second = _configuration(table, a), _configuration(table, b)
    assert first is not second
    assert first.index != second.index or first.index is None


@pytest.mark.parametrize(
    "value",
    [1.0, namedtuple("Pair", "x y")(1, 2), enum.IntEnum("Level", "LOW")(1), OrderedDict(x=1)],
    ids=["float", "namedtuple", "IntEnum", "dict-subclass"],
)
def test_a_value_the_key_does_not_spell_out_is_stepped_never_looked_up(value):
    table = RoundTable()
    config = _configuration(table, value)
    assert config.index is None
    assert _configuration(table, value) is not config
    plan = RoundFaultPlan()
    table.step(Carry(), 2, 1, config, plan, None)
    table.step(Carry(), 2, 1, config, plan, None)
    assert table.stepped == 2


def test_a_round_is_filed_once_per_exact_key():
    table, protocol, plan = RoundTable(), Carry(), RoundFaultPlan()
    ints, bools = _configuration(table, 1), _configuration(table, True)
    first = table.step(protocol, 2, 1, ints, plan, None)
    assert table.step(protocol, 2, 1, ints, RoundFaultPlan(), None) is first
    assert table.stepped == 1
    other = table.step(protocol, 2, 1, bools, plan, None)
    assert table.stepped == 2
    assert type(first.after.states[0]["value"]) is int
    assert type(other.after.states[0]["value"]) is bool
    assert type(other.filed.records[0].state_before["value"]) is bool


def test_fault_keys_hold_only_int_pids_and_no_forgeries():
    from repro.verify.walk import _fault_key

    assert _fault_key(RoundFaultPlan()) == ()
    crash = _fault_key(RoundFaultPlan(crashes={1: frozenset({0})}))
    assert crash == _fault_key(RoundFaultPlan(crashes={1: {0}}))  # sets either way
    assert _fault_key(RoundFaultPlan(crashes={True: frozenset()})) is None
    assert _fault_key(RoundFaultPlan(send_omissions={0: frozenset({True})})) is None
    forged = RoundFaultPlan(forgeries={0: {1: lambda payload: payload}})
    assert _fault_key(forged) is None


# -- private steps ---------------------------------------------------------------


class InPlace(SyncProtocol):
    """Mutates the state it is handed and returns it (a protocol the
    engine's contract forbids, and the table must survive)."""

    name = "in-place"

    def initial_state(self, pid, n):
        return {"clock": 1, "heard": []}

    def send(self, pid, state):
        return state["clock"]

    def update(self, pid, state, delivered):
        state["clock"] = max(m.payload for m in delivered) + 1
        state["heard"].append(len(delivered))
        return state


def test_a_protocol_that_mutates_its_state_leaves_the_table_untouched():
    claim = SyncClaim(at=1, protocol=InPlace, judge=lambda history, spec, at: None)
    specs, _raw, _dropped = enumerate_space(VERIFY_FIG1_SMOKE_SPACE, symmetric=False)
    table, kept = RoundTable(), {}
    for spec in specs:
        recorder = HistoryRecorder()
        walk(claim, spec, (recorder,), table)
        assert list(recorder.history()) == list(claim.run(spec).history)
        for config in table._configurations.values():
            kept.setdefault(id(config), (config, copy.deepcopy(config.states)))
        for config, states in kept.values():
            assert config.states == states
    assert table.stepped < sum(spec.rounds for spec in specs)


def test_a_rider_the_walk_cannot_narrate_to_is_refused():
    class CountsSends(Observer):
        def on_sends(self, messages, time):
            pass

    claim = SYNC_CLAIMS["fig1"]
    with pytest.raises(TypeError, match="HistoryRecorder"):
        walk(claim, PlanSpec(n=2, rounds=2), (CountsSends(),), RoundTable())


# -- one table per verification -------------------------------------------------


@pytest.fixture
def uncached():
    repro.cache.disable()


def _fig1_smoke(jobs=1):
    return verify("fig1", space=VERIFY_TARGETS["fig1"].smoke_space, jobs=jobs)


def test_a_protocol_changed_between_two_verifications_is_seen_by_the_second(
    uncached, monkeypatch
):
    assert _fig1_smoke().proved
    monkeypatch.setattr(
        RoundAgreementProtocol,
        "update",
        lambda self, pid, state, delivered: {"clock": state["clock"] + 1 + pid},
    )
    assert _fig1_smoke().refuted


def test_no_table_outlives_its_verification(uncached):
    _fig1_smoke()
    assert walk_module._SCOPE.table is None
    assert current_table() is not current_table()  # outside a call: fresh each time
    with shared_table() as table:
        assert current_table() is table
        with shared_table() as inner:
            assert current_table() is inner
        assert current_table() is table
    assert walk_module._SCOPE.table is None


def test_the_table_in_scope_belongs_to_one_thread():
    seen = []
    with shared_table() as table:
        thread = threading.Thread(target=lambda: seen.append(current_table()))
        thread.start()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert len(seen) == 1 and seen[0] is not table


def test_a_process_forked_inside_a_verification_drops_the_table():
    with shared_table():
        child = os.fork()
        if child == 0:  # pragma: no cover - the child reports by exit status
            os._exit(0 if walk_module._SCOPE.table is None else 1)
        _pid, status = os.waitpid(child, 0)
    assert os.waitstatus_to_exitcode(status) == 0


def test_outcomes_are_identical_across_jobs(uncached):
    try:
        alone, pooled = _fig1_smoke(jobs=1), _fig1_smoke(jobs=2)
    finally:
        shutdown_pool()  # no fork pool left behind for later event loops
    assert alone == pooled


# -- corruption and verdicts, filed once ----------------------------------------


class RedrawnCorruption(RandomCorruption):
    """A subclass may draw differently than its parent: never keyed."""

    def corrupt(self, protocol, states, n):
        return {pid: None if s is None else {**s, "clock": 7} for pid, s in states.items()}


def _start(table, n=3):
    return table.configuration(engine.start_states(Carry(), n), Liveness(n))


@pytest.mark.parametrize(
    "plan",
    [ConsensusDeadlockCorruption(seed=3), RedrawnCorruption(seed=3)],
    ids=["no-key", "subclass"],
)
def test_a_plan_without_an_exact_key_is_applied_every_time(plan):
    assert plan.exact_key() is None
    table = RoundTable()
    config = _start(table)
    first = table.corrupt(plan, Carry(), 3, config, 2)
    second = table.corrupt(plan, Carry(), 3, config, 2)
    assert table.corrupted == 2
    assert first[0].states == second[0].states and first[1] == second[1]


def _composed():
    return ComposedCorruption([RandomCorruption(seed=3), ClockSkewCorruption({1: 9})])


def test_a_keyed_plan_is_applied_once_per_configuration_and_time():
    table, plan = RoundTable(), _composed()
    config = _start(table)
    first = table.corrupt(plan, Carry(), 3, config, 2)
    assert table.corrupt(_composed(), Carry(), 3, config, 2) is first  # an equal plan
    assert table.corrupted == 1
    table.corrupt(plan, Carry(), 3, config, 3)  # the faults carry the time
    table.corrupt(plan, Carry(), 3, first[0], 2)
    assert table.corrupted == 3


@pytest.mark.parametrize(
    "a, b",
    [
        (RandomCorruption(seed=3), RandomCorruption(seed=4)),
        (
            RandomCorruption(seed=3, victims=frozenset({0})),
            RandomCorruption(seed=3, victims=frozenset({1})),
        ),
        (RandomCorruption(seed=3), RandomCorruption(seed=3, victims=frozenset({0, 1, 2}))),
        (ClockSkewCorruption({0: 2}), ClockSkewCorruption({0: True})),
    ],
    ids=["seed", "victims", "all-vs-named", "int-vs-bool-skew"],
)
def test_plans_that_differ_in_seed_or_victims_never_share_an_entry(a, b):
    assert a.exact_key() != b.exact_key() or b.exact_key() is None
    table = RoundTable()
    config = _start(table)
    table.corrupt(a, Carry(), 3, config, 1)
    table.corrupt(b, Carry(), 3, config, 1)
    assert table.corrupted == 2


class FaultLog(Observer):
    def __init__(self):
        self.faults = []

    def on_fault(self, fault):
        self.faults.append(fault)


@pytest.mark.parametrize(
    "plan",
    [
        RandomCorruption(seed=5),
        RandomCorruption(seed=5, victims=frozenset({2, 0})),
        ClockSkewCorruption({2: 1, 0: 4}),  # pid 2 keeps its clock: no fault
        ComposedCorruption([RandomCorruption(seed=5), ClockSkewCorruption({1: 9})]),
    ],
    ids=["random", "victims", "skew", "composed"],
)
def test_a_filed_corruption_narrates_what_apply_corruption_does(plan):
    table, protocol = RoundTable(), RoundAgreementProtocol()
    states = engine.start_states(protocol, 3)  # every clock at 1
    config = table.configuration(states, Liveness(3))
    log = FaultLog()
    expected = apply_corruption(
        EventBus((log,)), plan, protocol, copy.deepcopy(states), 3, time=4
    )
    for _ in range(2):  # a miss, then a hit
        after, faults = table.corrupt(plan, protocol, 3, config, 4)
        assert list(faults) == log.faults
        assert after.states == expected
    assert table.corrupted == 1


def test_each_fig1_obligation_is_judged_once_and_every_plan_keeps_its_verdicts(
    uncached, monkeypatch
):
    target, claim = VERIFY_TARGETS["fig1"], SYNC_CLAIMS["fig1"]
    specs, _raw, _dropped = enumerate_space(target.space, target.symmetric)
    ftss_check, calls, obligations = solvability.ftss_check, [], []

    def counted(*args):
        calls.append(1)
        return ftss_check(*args)

    def spy(history, spec, at):
        obligations.append(claim.obligation(history, spec))
        return claim.judge(history, spec, at)

    monkeypatch.setattr(solvability, "ftss_check", counted)
    monkeypatch.setitem(SYNC_CLAIMS, "fig1", replace(claim, judge=spy))
    with shared_table():
        pairs = [judge_plan(target, target.default_at, spec) for spec in specs]
    distinct = {tuple(map(id, obligation)) for obligation in obligations}
    assert len(calls) == len(distinct) < len(specs)
    for spec, pair in list(zip(specs, pairs))[::97]:
        assert pair == (
            streaming_verdict(target, target.default_at, spec),
            confirm_verdict(target, target.default_at, spec),
        )
