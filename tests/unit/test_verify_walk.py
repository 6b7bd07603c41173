"""The walk's chains and its table of filed rounds: exact keys, private
steps, one call.

A node hands a plan the rest of the run another plan walked from it, a
table hit the records, faults and next configuration another plan's
round produced — or the configuration and faults another plan's
corruption produced, or the verdicts another plan's obligation
received — so everything here is about when two may be taken for one:
only when their keys are exactly equal, only within one verification,
and never in a way that lets protocol code reach what the table holds.
(``test_verify_joint.py`` holds the walk's answers to a ``run_sync`` per
plan.)
"""

import copy
import dataclasses
import enum
import gc
import threading
import weakref
from collections import OrderedDict, namedtuple
from dataclasses import replace

import pytest

import repro.cache
from repro.experiments.base import shutdown_pool
from repro.core import solvability
from repro.core.rounds import RoundAgreementProtocol
from repro.explore.space import ChurnSpec, ComposedCorruption, OmissionSpec, PlanSpec
from repro.explore.targets import SYNC_CLAIMS, SyncClaim
from repro.kernel.corruptions import apply_corruption
from repro.kernel.delivery import Liveness
from repro.kernel.events import EventBus, Observer
from repro.sync import engine
from repro.sync.adversary import RoundFaultPlan
from repro.sync.corruption import ClockSkewCorruption, RandomCorruption
from repro.sync.protocol import SyncProtocol
from repro.verify import VERIFY_TARGETS, verify
from repro.verify import walk as walk_module
from repro.verify.explicit import enumerate_space
from repro.verify.targets import confirm_verdict, streaming_verdict
from repro.verify.walk import ChainWalk, RoundTable, _root_key, _script_key
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
    judged = []
    claim = SyncClaim(
        at=1, protocol=InPlace, judge=lambda history, spec, at: judged.append((spec, history))
    )
    specs, _raw, _dropped = enumerate_space(VERIFY_FIG1_SMOKE_SPACE, symmetric=False)
    chains, kept = ChainWalk(claim, 1), {}
    for spec in specs:
        chains.judge(spec)
        table = chains.table
        for config in table._configurations.values():
            kept.setdefault(id(config), (config, copy.deepcopy(config.states)))
        for config, states in kept.values():
            assert config.states == states
    assert judged
    for spec, history in judged:
        assert list(history) == list(claim.run(spec).history)
    assert table.stepped < sum(spec.rounds for spec in specs)


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


def test_no_table_outlives_its_verification(uncached, monkeypatch):
    tables = []

    class Kept(RoundTable):
        def __init__(self):
            super().__init__()
            tables.append(weakref.ref(self))

    monkeypatch.setattr(walk_module, "RoundTable", Kept)
    _fig1_smoke()
    gc.collect()
    assert len(tables) == 1 and tables[0]() is None


def test_the_table_in_scope_belongs_to_one_thread(uncached):
    """Each verification walks chains of its own: two at once, in two
    threads, answer as one alone does."""
    alone, seen = _fig1_smoke(), []
    threads = [threading.Thread(target=lambda: seen.append(_fig1_smoke())) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    assert seen == [alone, alone]


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
    chains = ChainWalk(replace(claim, judge=spy), target.default_at)
    pairs = [chains.judge(spec) for spec in specs]
    distinct = {tuple(map(id, obligation)) for obligation in obligations}
    assert len(calls) == len(obligations) == len(distinct) < len(specs)
    for spec, pair in list(zip(specs, pairs))[::97]:
        assert pair == (
            streaming_verdict(target, target.default_at, spec),
            confirm_verdict(target, target.default_at, spec),
        )


# -- chains that merge ------------------------------------------------------------


def _chain(chains, spec):
    """The nodes of ``spec``'s run, from its first round to its end."""
    node = chains._node(1, chains._root(spec), chains._script(spec))
    nodes = [node]
    while node.next is not None:
        node = node.next
        nodes.append(node)
    return nodes


def _apart(claim, at, spec):
    """Both verdicts of ``spec`` off ``run_sync``, one judge at a time."""
    confirm = claim.confirm(spec, at)
    return claim.streaming(spec, at), confirm


#: fig1 plans with a systemic failure in round 3 (smoke-sized).
FIG1_MID_RUN = replace(
    VERIFY_FIG1_SMOKE_SPACE, corruption_choices=(False, True), corruption_round_choices=((3,),)
)


class FloatRounds(RoundAgreementProtocol):
    """Figure 1 on float clocks: no configuration has an exact key."""

    def initial_state(self, pid, n):
        return {"clock": 1.0}


@pytest.mark.parametrize(
    "untableable, space, private_through",
    [
        # No random draw: it would replace the float clocks with int
        # ones.  An int skew does too, in round 1 (max(1.0, 7) + 1 == 8).
        ("float-state", replace(VERIFY_FIG1_SMOKE_SPACE, corruption_choices=(False,)), 1),
        ("unkeyed-corruption", FIG1_MID_RUN, 3),
    ],
    ids=["float-state", "unkeyed-corruption"],
)
def test_a_plan_the_keys_cannot_hold_walks_unshared_and_answers_alike(
    untableable, space, private_through, monkeypatch
):
    claim = SYNC_CLAIMS["fig1"]
    specs, _raw, _dropped = enumerate_space(space, symmetric=False)
    keyed = ChainWalk(claim, 1)
    for spec in specs:
        keyed.judge(spec)
    if untableable == "float-state":
        claim = replace(claim, protocol=FloatRounds)
    else:  # every corruption is applied afresh, so no script before it has a key
        monkeypatch.setattr(RandomCorruption, "exact_key", lambda self: None)
    chains = ChainWalk(claim, 1)
    for spec in specs:
        assert chains.judge(spec) == _apart(claim, 1, spec)
    # Private up to where a key holds again, shared from there on.
    assert min(node.round_no for node in chains._nodes.values()) == private_through + 1
    assert chains.walked > keyed.walked


def test_plans_that_differ_after_a_round_share_no_node_up_to_it_but_merge_after():
    early, late = (
        PlanSpec(n=3, rounds=8, omissions=(OmissionSpec(0, "general", first, first),))
        for first in (4, 5)
    )
    chains = ChainWalk(SYNC_CLAIMS["fig1"], 1)
    for spec in (early, late):
        chains.judge(spec)
    a, b = _chain(chains, early), _chain(chains, late)
    # The same configurations up to round 4, but different scripts left.
    assert [node.config for node in a[:4]] == [node.config for node in b[:4]]
    assert not {id(node) for node in a[:5]} & {id(node) for node in b[:5]}
    # Once both scripts are spent, the runs meet and stay merged.
    shared = [x is y for x, y in zip(a, b)]
    assert shared[-1] and shared == sorted(shared)
    assert chains.walked < 2 * early.rounds


def test_each_node_successor_is_filed_once(uncached, monkeypatch):
    walked_serials = []
    walk_node = ChainWalk._walk

    def counted(self, node, script):
        walked_serials.append(node.serial)
        return walk_node(self, node, script)

    monkeypatch.setattr(ChainWalk, "_walk", counted)
    target = VERIFY_TARGETS["fig1"]
    specs, _raw, _dropped = enumerate_space(target.space, target.symmetric)
    chains = ChainWalk(SYNC_CLAIMS["fig1"], 1)
    first = [chains.judge(spec) for spec in specs]
    assert len(walked_serials) == len(set(walked_serials)) == len(chains._nodes)
    walked = chains.walked
    assert walked < sum(spec.rounds for spec in specs) / 2
    # A second pass over the same plans walks nothing: every first node is known.
    assert [chains.judge(spec) for spec in specs] == first
    assert chains.walked == walked and len(walked_serials) == len(chains._nodes)


def test_the_script_and_root_keys_read_every_field_a_run_depends_on():
    """Every :class:`PlanSpec` field but ``gst`` (asynchronous only) moves
    a plan's script key or its root key, so two plans that share both
    compile to the same run."""
    base = PlanSpec(n=3, rounds=6, random_corruption=True, corruption_rounds=(2,))
    changed = {
        "n": 4,
        "rounds": 7,
        "seed": 1,
        "crashes": ((1, 2),),
        "omissions": (OmissionSpec(0, "send", 1, 2),),
        "clock_skews": ((0, 3),),
        "random_corruption": False,
        "corruption_rounds": (3,),
        "churn": (ChurnSpec(2, 3),),
    }
    fields = {field.name for field in dataclasses.fields(PlanSpec)}
    assert fields - set(changed) == {"gst"}
    for name, value in changed.items():
        other = replace(base, **{name: value})
        assert (_script_key(other), _root_key(other)) != (_script_key(base), _root_key(base)), name


def test_a_judge_that_reads_the_spec_keys_its_verdicts_on_what_it_reads():
    """Plans that differ only in what the synchronous run ignores
    (``gst``) share every node; a judge that reads it anyway must not
    be answered from another plan's obligation."""
    from repro.explore.checkers import SpecVerdict

    def judge(history, spec, at):
        return SpecVerdict(checker="reads-gst", holds=spec.gst == 0)

    plans = [PlanSpec(n=3, rounds=4, gst=gst) for gst in (0, 1, 0)]
    blind = ChainWalk(SyncClaim(at=1, protocol=RoundAgreementProtocol, judge=judge), 1)
    assert [blind.judge(spec)[1].holds for spec in plans] == [True, True, True]
    claim = SyncClaim(
        at=1, protocol=RoundAgreementProtocol, judge=judge, judge_reads=lambda spec: spec.gst
    )
    chains = ChainWalk(claim, 1)
    assert [chains.judge(spec)[1].holds for spec in plans] == [True, False, True]
    assert chains.walked == blind.walked == plans[0].rounds  # one chain for all three
