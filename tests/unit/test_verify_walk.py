"""The walk's table of filed rounds: exact keys, private steps, one call.

A table hit hands a plan the records, faults and next configuration
another plan's round produced, so everything here is about when two
rounds may be taken for one: only when their keys are exactly equal,
only within one verification, and never in a way that lets protocol
code reach what the table holds.  (``test_verify_joint.py`` holds the
walk's answers to a ``run_sync`` per plan.)
"""

import copy
import enum
import os
import threading
from collections import OrderedDict, namedtuple

import pytest

import repro.cache
from repro.experiments.base import shutdown_pool
from repro.core.rounds import RoundAgreementProtocol
from repro.explore.space import PlanSpec
from repro.explore.targets import SYNC_CLAIMS, SyncClaim
from repro.kernel.delivery import Liveness
from repro.kernel.events import Observer
from repro.kernel.recorders import HistoryRecorder
from repro.sync.adversary import RoundFaultPlan
from repro.sync.protocol import SyncProtocol
from repro.verify import VERIFY_TARGETS, verify
from repro.verify import walk as walk_module
from repro.verify.explicit import enumerate_space
from repro.verify.walk import RoundTable, current_table, shared_table, walk
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
