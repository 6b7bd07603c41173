"""The round ledger against a brute-force per-copy model.

``reference_round`` below is the triple loop every substrate used to
carry its own copy of (and ``verify.smt.delivered_senders`` used to *be*):
for every (sender, receiver) pair decide, copy by copy, whether it is
on the wire, whether it lies, and whether it is accepted.  It is kept
here as the reference the one kernel definition is pinned to.
"""

from collections import namedtuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel.delivery import Liveness, Probe, RoundLedger, quiet
from repro.kernel.events import EventBus, FaultKind, Observer
from repro.kernel.topology import (
    RandomTopology,
    RingTopology,
    TreeTopology,
    round_edges,
)
from repro.sync.adversary import RoundFaultPlan

Copy = namedtuple("Copy", "sender receiver payload")

ROUND = 7


class Faults(Observer):
    def __init__(self):
        self.seen = []

    def on_fault(self, fault):
        self.seen.append((fault.kind, fault.time, fault.pid, fault.targets))


def lying_plan(script, log):
    """A RoundFaultPlan from plain data; each mutator logs its call."""

    def mutator(sender, receiver):
        def lie(payload):
            log.append((sender, receiver))
            payload.append("tampered")  # must hit a private copy
            return ("lie", sender, receiver)

        return lie

    return RoundFaultPlan(
        crashes={p: frozenset(s) for p, s in script["crashes"].items()},
        send_omissions={p: frozenset(s) for p, s in script["send"].items()},
        receive_omissions={p: frozenset(s) for p, s in script["receive"].items()},
        forgeries={
            p: {r: mutator(p, r) for r in targets}
            for p, targets in script["lies"].items()
        },
    )


def reference_round(plan, n, crashed, edges, silent):
    """The per-copy model: every (sender, receiver) pair, one at a time."""
    crashing = {p for p in plan.crashes if 0 <= p < n and p not in crashed}
    dead = set(crashed) | crashing
    receivers = {}
    inboxes = {}
    omitted_sends, forged_sends, omitted_receives = {}, {}, {}
    for j in range(n):
        if j in crashed or j in silent:
            continue
        receivers[j] = []
        for i in range(n):
            if edges is not None and i not in edges[j]:
                continue
            if j in crashing:
                if i not in plan.crashes[j]:
                    continue
            elif i in plan.send_omissions.get(j, ()) and i != j:
                omitted_sends.setdefault(j, set()).add(i)
                continue
            receivers[j].append(i)
            payload = ["true", j]
            lies = plan.forgeries.get(j) or {}
            if i in lies and i != j:
                payload = lies[i](list(payload))
                forged_sends.setdefault(j, set()).add(i)
            if i in dead:
                continue
            if j in plan.receive_omissions.get(i, ()) and j != i:
                omitted_receives.setdefault(i, set()).add(j)
                continue
            inboxes.setdefault(i, []).append((j, payload))
    events = [
        (FaultKind.CRASH, ROUND, p, frozenset(plan.crashes[p])) for p in sorted(crashing)
    ]
    for p in sorted(omitted_sends.keys() | forged_sends.keys()):
        if p in omitted_sends:
            events.append((FaultKind.SEND_OMISSION, ROUND, p, frozenset(omitted_sends[p])))
        if p in forged_sends:
            events.append((FaultKind.FORGERY, ROUND, p, frozenset(forged_sends[p])))
    events += [
        (FaultKind.RECEIVE_OMISSION, ROUND, p, frozenset(omitted_receives[p]))
        for p in sorted(omitted_receives)
    ]
    return {
        "crashing": crashing,
        "receivers": receivers,
        "inboxes": inboxes,
        "omitted_sends": omitted_sends,
        "forged_sends": forged_sends,
        "omitted_receives": omitted_receives,
        "events": events,
    }


def live_with(n, crashed, faulty=()):
    live = Liveness(n)
    live.crash(crashed)
    live.faulty = live.faulty | frozenset(faulty)
    return live


def drive(ledger, live, silent):
    """What the engine and the interposer do: walk the live senders."""
    wire, receivers = [], {}
    for pid in live.alive_order:
        if pid in silent:
            continue
        receivers[pid], forged = ledger.broadcast(pid, ["true", pid])
        wire += [
            Copy(pid, r, forged[r] if r in forged else ["true", pid])
            for r in receivers[pid]
        ]
    inboxes = {
        i: [(copy.sender, copy.payload) for copy in inbox]
        for i, inbox in ledger.deliver(wire).items()
    }
    return receivers, inboxes


def narrated(ledger):
    faults = Faults()
    bus = EventBus((faults,))
    ledger.narrate_sends(bus)
    ledger.narrate_receives(bus)
    return faults.seen


@st.composite
def fault_scripts(draw, n):
    """One round's faults over pids ``0 .. n-1``, as plain data for ``lying_plan``."""
    pids = st.integers(min_value=0, max_value=n - 1)
    pid_sets = st.sets(pids, max_size=n)

    def per_pid(max_size):
        return st.dictionaries(pids, pid_sets, max_size=max_size)

    return {
        "crashes": draw(per_pid(2)),  # survivors may name dead, self, non-neighbours
        "send": draw(per_pid(3)),
        "receive": draw(per_pid(3)),
        "lies": draw(per_pid(2)),  # may address the liar itself and the dead
    }


@st.composite
def rounds(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    pids = st.integers(min_value=0, max_value=n - 1)
    shape = draw(st.sampled_from(["complete", "ring", "tree", "random"]))
    if shape == "complete":
        edges = None
    elif shape == "ring":
        edges = round_edges(RingTopology(n), 1)
    elif shape == "tree":
        edges = round_edges(TreeTopology(n), 1)
    else:
        edges = round_edges(RandomTopology(n, p=0.3, seed=draw(st.integers(0, 50))), 1)
    script = draw(fault_scripts(n))
    crashed = draw(st.sets(pids, max_size=n - 1))
    silent = draw(st.sets(pids, max_size=2))
    return n, edges, script, crashed, silent


@settings(max_examples=300, deadline=None)
@given(args=rounds())
def test_ledger_matches_the_per_copy_model(args):
    n, edges, script, crashed, silent = args
    want_calls, got_calls = [], []
    want = reference_round(lying_plan(script, want_calls), n, crashed, edges, silent)

    live = live_with(n, crashed, faulty={0})
    ledger = RoundLedger(lying_plan(script, got_calls), n, live, ROUND, edges)
    assert ledger.crashing_now == want["crashing"]
    receivers, inboxes = drive(ledger, live, silent)

    assert {p: list(r) for p, r in receivers.items()} == want["receivers"]
    assert inboxes == want["inboxes"]  # contents and per-receiver order
    assert got_calls == want_calls  # once per forged copy, (sender, receiver) asc
    assert ledger.omitted_sends == want["omitted_sends"]
    assert {p: set(f) for p, f in ledger.forged_sends.items()} == want["forged_sends"]
    assert ledger.omitted_receives == want["omitted_receives"]
    assert narrated(ledger) == want["events"]

    live.fold(ledger)
    assert live.crashed == set(crashed) | want["crashing"]
    assert live.alive_order == [p for p in range(n) if p not in live.crashed]
    assert live.alive_view == frozenset(live.alive_order)
    assert live.faulty == (
        frozenset({0})
        | live.crashed
        | want["omitted_sends"].keys()
        | want["forged_sends"].keys()
        | want["omitted_receives"].keys()
    )


@settings(max_examples=300, deadline=None)
@given(args=rounds())
def test_ledger_built_with_silent_knows_every_deviation_up_front(args):
    """The array control plane's reading: no walk over the senders."""
    n, edges, script, crashed, silent = args
    calls = []
    want = reference_round(lying_plan(script, []), n, crashed, edges, silent)
    live = live_with(n, crashed)
    ledger = RoundLedger(
        lying_plan(script, calls), n, live, ROUND, edges, silent=frozenset(silent)
    )
    assert ledger.omitted_sends == want["omitted_sends"]
    assert ledger.omitted_receives == want["omitted_receives"]
    for j in range(n):
        for i in range(n):
            assert ledger.reaches(j, i) == (i in want["receivers"].get(j, ())), (j, i)
    for pid in ledger.liars():
        ledger.broadcast(pid, ["true", pid])
    assert {p: set(f) for p, f in ledger.forged_sends.items()} == want["forged_sends"]


# -- one case per rule ---------------------------------------------------------

RING5 = round_edges(RingTopology(5), 1)  # p hears p-1, p, p+1


def ledger_for(plan, n=5, crashed=(), edges=None, silent=None):
    live = live_with(n, crashed)
    return RoundLedger(plan, n, live, ROUND, edges, silent), live


def test_quiet_plan_and_quiet_ledger():
    assert quiet(RoundFaultPlan())
    assert not quiet(RoundFaultPlan(receive_omissions={0: frozenset({1})}))
    ledger, _ = ledger_for(RoundFaultPlan())
    assert not ledger.deviants and not ledger.filters_arrivals
    assert ledger.receivers(2) == range(5)


def test_crash_survivors_are_intersected_with_the_out_edges():
    plan = RoundFaultPlan(crashes={1: frozenset({0, 1, 3})})  # 3: not a neighbour
    ledger, _ = ledger_for(plan, edges=RING5)
    assert ledger.receivers(1) == [0, 1]
    # on the complete graph the survivors are the receivers, the dead included
    ledger, _ = ledger_for(plan, crashed={3})
    assert ledger.receivers(1) == [0, 1, 3]
    assert ledger.deliver([Probe(1, 3)]) == {}


def test_send_omission_never_drops_the_senders_own_copy():
    plan = RoundFaultPlan(send_omissions={2: frozenset({1, 2, 4})})
    ledger, _ = ledger_for(plan)
    assert ledger.receivers(2) == [0, 2, 3]
    assert ledger.omitted_sends == {2: {1, 4}}


def test_omission_aimed_at_a_non_neighbour_is_not_recorded():
    plan = RoundFaultPlan(send_omissions={0: frozenset({2, 3})})
    ledger, live = ledger_for(plan, edges=RING5)
    assert ledger.receivers(0) == RING5[0]
    assert ledger.omitted_sends == {}
    live.fold(ledger)
    assert live.faulty == frozenset()


def test_omission_by_a_silent_sender_is_not_recorded():
    plan = RoundFaultPlan(
        send_omissions={0: frozenset({1})}, receive_omissions={1: frozenset({0})}
    )
    ledger, _ = ledger_for(plan, silent=frozenset({0}))
    assert ledger.omitted_sends == {} and ledger.omitted_receives == {}
    ledger, _ = ledger_for(plan, silent=frozenset())
    assert ledger.omitted_sends == {0: {1}}
    assert ledger.omitted_receives == {}  # the copy was never sent


def test_mutators_run_once_per_wire_copy_on_a_fresh_payload():
    calls = []
    script = {"crashes": {}, "send": {1: {3}}, "receive": {}, "lies": {1: {0, 1, 3, 4}}}
    ledger, _ = ledger_for(lying_plan(script, calls), crashed={4})
    payload = ["true"]
    receivers, forged = ledger.broadcast(1, payload)
    assert receivers == [0, 1, 2, 4]
    assert calls == [(1, 0), (1, 4)]  # not to itself, not the omitted copy
    assert payload == ["true"]
    assert set(ledger.forged_sends[1]) == {0, 4}  # the dead receiver's lie counts
    inboxes = ledger.deliver(Copy(1, r, forged.get(r, payload)) for r in receivers)
    assert sorted(inboxes) == [0, 1, 2]  # ... but is never heard


def test_dead_and_crashing_receivers_hear_nothing():
    plan = RoundFaultPlan(crashes={2: frozenset({0, 1, 2, 3, 4})})
    ledger, _ = ledger_for(plan, crashed={4})
    heard = ledger.deliver(Probe(s, r) for s in (0, 2) for r in range(5))
    assert sorted(heard) == [0, 1, 3]
    assert ledger.filters_arrivals


def test_receive_omission_needs_an_arrival():
    plan = RoundFaultPlan(
        send_omissions={1: frozenset({0})}, receive_omissions={0: frozenset({0, 1, 2, 4})}
    )
    ledger, live = ledger_for(plan, crashed={4})
    _, inboxes = drive(ledger, live, silent=())
    assert [s for s, _ in inboxes[0]] == [0, 3]  # its own copy is sacred
    assert ledger.omitted_receives == {0: {2}}  # 1 omitted the send, 4 is dead


def test_narration_order_is_crashes_then_sends_per_pid_then_receives():
    calls = []
    script = {
        "crashes": {4: {0}},
        "send": {2: {0}, 0: {1}},
        "receive": {3: {1}, 1: {2}},
        "lies": {0: {2}, 1: {0}},
    }
    ledger, live = ledger_for(lying_plan(script, calls))
    drive(ledger, live, silent=())
    assert [(kind, pid) for kind, _, pid, _ in narrated(ledger)] == [
        (FaultKind.CRASH, 4),
        (FaultKind.SEND_OMISSION, 0),
        (FaultKind.FORGERY, 0),
        (FaultKind.FORGERY, 1),
        (FaultKind.SEND_OMISSION, 2),
        (FaultKind.RECEIVE_OMISSION, 1),
        (FaultKind.RECEIVE_OMISSION, 3),
    ]


@pytest.mark.parametrize("later", [False, True])
def test_liveness_folds_crashers_and_deviators(later):
    plan = RoundFaultPlan(
        crashes={3: frozenset()}, receive_omissions={0: frozenset({1})}
    )
    ledger, live = ledger_for(plan, crashed={2} if later else ())
    drive(ledger, live, silent=())
    live.fold(ledger)
    dead = {2, 3} if later else {3}
    assert live.crashed == dead
    assert live.alive_order == [p for p in range(5) if p not in dead]
    assert live.faulty == frozenset(dead | {0})
