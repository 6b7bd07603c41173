"""A broadcast on the wire, per-copy ``Message``s in the history.

``run_sync`` moves one ``Broadcast`` per sender and hands shared inbox
items around; its recorder files those and a record builds its ``sent``
/ ``delivered`` tuples only when somebody reads them.  Nobody reading a
history may be able to tell: ``reference_history`` below is the round
loop written out copy by copy — one ``Message`` per (sender, receiver),
records built by the plain constructor — and the recorded history must
be that one, by ``==``, ``repr`` and ``pickle``.
"""

import copy
import pickle
from collections import defaultdict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.histories.causality import knowledge_timeline
from repro.histories.history import (
    CLOCK_KEY,
    ExecutionHistory,
    Message,
    ProcessRoundRecord,
    RoundHistory,
)
from repro.kernel.topology import (
    ChurnEvent,
    ChurnSchedule,
    DynamicTopology,
    RingTopology,
    round_edges,
)
from repro.sync.adversary import ScriptedAdversary
from repro.sync.delays import RandomDelay
from repro.sync.engine import run_sync
from repro.sync.protocol import SyncProtocol
from tests.property.test_prop_delivery import fault_scripts, lying_plan

FIELDS = tuple(ProcessRoundRecord.__dataclass_fields__)


class Gossip(SyncProtocol):
    """Remembers what it heard; tries to vandalise every inbox it is handed."""

    name = "gossip"

    def __init__(self, silent=frozenset()):
        self.silent = silent  # (pid, round) pairs that broadcast nothing
        self.vandalised = 0

    def initial_state(self, pid, n):
        return {CLOCK_KEY: 1, "heard": ()}

    def send(self, pid, state):
        if (pid, state[CLOCK_KEY]) in self.silent:
            return None
        return ["true", pid, state[CLOCK_KEY]]  # mutable: a lie must hit a private copy

    def update(self, pid, state, delivered):
        for vandalise in (
            lambda: delivered.append(None),
            lambda: delivered.clear(),
            lambda: delivered.__setitem__(0, None),
            lambda: delivered.sort(key=id),
        ):
            try:
                vandalise()
            except (AttributeError, TypeError):
                continue
            self.vandalised += 1
        heard = tuple((m.sender, m.sent_round, repr(m.payload)) for m in delivered)
        return {CLOCK_KEY: state[CLOCK_KEY] + 1, "heard": heard}


def reference_history(protocol, n, plans, topology, delay):
    """``(history, copies still in flight)`` by a literal per-copy loop."""
    states = {pid: protocol.initial_state(pid, n) for pid in range(n)}
    crashed, in_flight, rounds = set(), {}, []
    for round_no, plan in enumerate(plans, start=1):
        edges = None if topology is None else round_edges(topology, round_no)
        crashing = {p for p in plan.crashes if p not in crashed}
        dead = crashed | crashing
        before = copy.deepcopy(states)
        sent, arriving = defaultdict(list), []
        omitted_sends, omitted_receives, forged = (defaultdict(set) for _ in range(3))
        for j in range(n):
            if j in crashed:
                continue
            payload = protocol.send(j, states[j])
            if payload is None:
                continue
            for i in range(n):
                if edges is not None and i not in edges[j]:
                    continue
                if j in crashing:
                    if i not in plan.crashes[j]:
                        continue
                elif i != j and i in plan.send_omissions.get(j, ()):
                    omitted_sends[j].add(i)
                    continue
                body = copy.deepcopy(payload)
                if i != j and i in (plan.forgeries.get(j) or {}):
                    body = plan.forgeries[j][i](body)
                    forged[j].add(i)
                message = Message(j, i, round_no, body)
                sent[j].append(message)
                extra = 0 if delay is None else delay.extra_rounds(round_no, j, i)
                due = arriving if extra == 0 else in_flight.setdefault(round_no + extra, [])
                due.append(message)
        arriving += in_flight.pop(round_no, [])
        delivered = defaultdict(list)
        for message in arriving:
            i, j = message.receiver, message.sender
            if i in dead:
                continue
            if i != j and j in plan.receive_omissions.get(i, ()):
                omitted_receives[i].add(j)
                continue
            delivered[i].append(message)
        records = []
        for pid in range(n):
            delivered[pid].sort(key=lambda m: (m.sender, m.sent_round))
            if pid in crashed:
                record = ProcessRoundRecord(pid, None, None, crashed=True)
            elif pid in crashing:
                record = ProcessRoundRecord(
                    pid, before[pid], before[pid][CLOCK_KEY], sent=tuple(sent[pid]), crashed=True
                )
            else:
                record = ProcessRoundRecord(
                    pid,
                    before[pid],
                    before[pid][CLOCK_KEY],
                    tuple(sent[pid]),
                    tuple(delivered[pid]),
                    False,
                    frozenset(omitted_sends[pid]),
                    frozenset(omitted_receives[pid]),
                    frozenset(forged[pid]),
                )
            records.append(record)
        rounds.append(RoundHistory(round_no, tuple(records), edges))
        for pid in range(n):
            if pid in crashing:
                states[pid] = None
            elif pid not in crashed:
                states[pid] = protocol.update(pid, states[pid], tuple(delivered[pid]))
        crashed |= crashing
    return ExecutionHistory(rounds), sum(len(late) for late in in_flight.values())


def topology_of(shape, n):
    if shape == "complete":
        return None
    if shape == "ring":
        return RingTopology(n)
    churn = ChurnSchedule(
        (
            ChurnEvent(2, "leave", pids=(0,)),
            ChurnEvent(3, "partition", groups=(frozenset({0, 1}),)),
            ChurnEvent(4, "join", pids=(0,)),
        )
    )
    return DynamicTopology(RingTopology(n), churn)


def recorded_and_reference(n, scripts, shape, silent, delay_seed):
    """The history ``run_sync`` records, its protocol, and the reference's answer."""

    def plans():  # mutators are stateful: each side scripts its own
        return [lying_plan(script, []) for script in scripts]

    def delay():  # and so is a delay model
        return None if delay_seed is None else RandomDelay(delay_seed, p_late=0.4)

    protocol = Gossip(silent)
    result = run_sync(
        protocol,
        n,
        len(scripts),
        adversary=ScriptedAdversary(n, dict(enumerate(plans(), start=1))),
        topology=topology_of(shape, n),
        delay_model=delay(),
    )
    want, in_flight = reference_history(
        Gossip(silent), n, plans(), topology_of(shape, n), delay()
    )
    return result.history, protocol, want, in_flight


def assert_indistinguishable(got, want):
    """``got`` came off the wire, ``want`` from the per-copy loop."""
    # the column readers first, while nothing has been read yet
    assert got.messages_sent() == want.messages_sent()
    assert got.messages_delivered() == want.messages_delivered()
    assert knowledge_timeline(got) == knowledge_timeline(want)
    # reading one record (last to first, delivered before sent) changes no other
    for rh in reversed(list(got)):
        for rec in reversed(rh.records):
            delivered, sent = rec.delivered, rec.sent
            assert type(sent) is tuple and type(delivered) is tuple
            assert all(type(m) is Message and m.sender == rec.pid for m in sent)
            assert all(type(m) is Message and m.receiver == rec.pid for m in delivered)
            assert rec.sent is sent and rec.delivered is delivered  # built once
            assert [(m.sender, m.sent_round, m.payload) for m in rec.heard] == [
                (m.sender, m.sent_round, m.payload) for m in delivered
            ]
    assert list(got) == list(want) and list(want) == list(got)
    assert repr(list(got)) == repr(list(want))
    clone = pickle.loads(pickle.dumps(got))
    assert list(clone) == list(want) and repr(list(clone)) == repr(list(want))
    for rh in clone:  # a pickle carries the nine fields and nothing that was filed
        assert all(tuple(vars(rec)) == FIELDS for rec in rh.records)


@st.composite
def runs(draw):
    n = draw(st.integers(min_value=2, max_value=5))
    scripts = draw(st.lists(fault_scripts(n), min_size=1, max_size=5))
    shape = draw(st.sampled_from(["complete", "ring", "churn"]))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(1, len(scripts)))
    silent = frozenset(draw(st.sets(pairs, max_size=3)))
    delay_seed = draw(st.one_of(st.none(), st.integers(0, 20)))
    return n, scripts, shape, silent, delay_seed


@settings(max_examples=200, deadline=None)
@given(args=runs())
def test_recorded_history_is_the_per_copy_one(args):
    got, protocol, want, _ = recorded_and_reference(*args)
    assert_indistinguishable(got, want)
    assert protocol.vandalised == 0  # every inbox is immutable, the shared one included


def test_every_fault_kind_with_copies_left_in_flight():
    quiet = {"crashes": {}, "send": {}, "receive": {}, "lies": {}}
    scripts = [
        dict(quiet, lies={1: {0, 1, 3}}, receive={3: {1, 3, 4}}),
        dict(quiet, crashes={2: set()}, send={4: {0, 4}}),  # nobody hears 2's last words
        dict(quiet, crashes={0: {1, 2, 4}}, lies={0: {1}}),  # lies as it goes, hears nothing
        quiet,
    ]
    for shape in ("complete", "ring", "churn"):
        for delay_seed in (None, 3):
            got, protocol, want, in_flight = recorded_and_reference(
                5, scripts, shape, frozenset({(3, 2)}), delay_seed
            )
            assert_indistinguishable(got, want)
            assert protocol.vandalised == 0
            assert (in_flight > 0) == (delay_seed is not None)
    assert got.round(2).record(2).sent == () and got.round(2).record(2).crashed
    assert got.round(3).record(0).forged_sends == frozenset()  # a crasher's only charge


def test_fault_free_inboxes_are_one_shared_sequence():
    class Spy(Gossip):
        def update(self, pid, state, delivered):
            inboxes.append(delivered)
            return super().update(pid, state, delivered)

    inboxes = []
    run_sync(Spy(), 4, 1)
    assert len(inboxes) == 4 and all(box is inboxes[0] for box in inboxes)
    assert type(inboxes[0]) is tuple
