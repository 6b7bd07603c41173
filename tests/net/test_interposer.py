"""WireInterposer unit tests: plan realization, bookkeeping, wire extras."""

import pytest

from repro.kernel.events import EventBus, FaultKind, Observer
from repro.kernel.faults import WireFaults
from repro.net.interposer import WireInterposer
from repro.sync.adversary import RoundFaultPlan, ScriptedAdversary


def interposer(n=4, script=None, f=2, wire=None, recorder=None):
    bus = EventBus((recorder,) if recorder else ())
    adversary = ScriptedAdversary(f=f, script=script or {})
    return WireInterposer(n, bus, adversary=adversary, wire=wire)


class Events(Observer):
    """Minimal observer capturing fault and send events in order."""

    def __init__(self):
        self.faults = []
        self.sent = []

    def on_fault(self, fault):
        self.faults.append(fault)

    def on_send(self, message, round_no):
        self.sent.append((message.sender, message.receiver))


def route_all(ip, round_no, n=4, payload="p"):
    """Run a full all-to-all send phase; return {(src, dst): copies}."""
    out = {(src, dst): [] for src in range(n) for dst in range(n)}
    for src in range(n):
        for copy in ip.broadcast(src, round_no, payload):
            out[(src, copy[0])].append(copy)
    return out


class TestRoundMode:
    def test_clean_round_passes_everything(self):
        ip = interposer()
        assert ip.begin_round(1) == frozenset()
        copies = route_all(ip, 1)
        assert all(len(v) == 1 for v in copies.values())
        assert ip.finish_round() == frozenset()
        assert ip.faulty_so_far == frozenset()

    def test_send_omission_drops_and_records(self):
        script = {1: RoundFaultPlan(send_omissions={0: frozenset({1, 2})})}
        ip = interposer(script=script)
        ip.begin_round(1)
        copies = route_all(ip, 1)
        assert copies[(0, 1)] == [] and copies[(0, 2)] == []
        assert len(copies[(0, 3)]) == 1
        assert len(copies[(0, 0)]) == 1  # self-delivery is sacred
        ip.finish_round()
        assert ip.faulty_so_far == frozenset({0})

    def test_receive_omission_message_still_counts_as_sent(self):
        script = {1: RoundFaultPlan(receive_omissions={2: frozenset({0})})}
        events = Events()
        ip = interposer(script=script, recorder=events)
        ip.begin_round(1)
        copies = route_all(ip, 1)
        assert copies[(0, 2)] == []  # dropped at the receiver...
        ip.finish_round()
        assert (0, 2) in events.sent  # ...but it was on the wire
        assert ip.faulty_so_far == frozenset({2})

    def test_crash_partial_broadcast_then_silence(self):
        script = {2: RoundFaultPlan(crashes={1: frozenset({0})})}
        ip = interposer(script=script)
        ip.begin_round(1)
        route_all(ip, 1)
        ip.finish_round()

        assert ip.begin_round(2) == frozenset({1})
        copies = route_all(ip, 2)
        assert len(copies[(1, 0)]) == 1  # the chosen survivor
        assert copies[(1, 2)] == [] and copies[(1, 3)] == []
        assert copies[(0, 1)] == []  # a crashing process receives nothing
        assert ip.finish_round() == frozenset({1})
        assert ip.crashed == {1}
        assert ip.alive == frozenset({0, 2, 3})

        # From the next round on: total silence from the corpse.
        ip.begin_round(3)
        copies = route_all(ip, 3)
        assert copies[(1, 0)] == [] and copies[(1, 1)] == []
        assert ip.finish_round() == frozenset()

    def test_forgery_mutates_copy_not_original(self):
        payload = {"v": 1}
        script = {
            1: RoundFaultPlan(
                forgeries={0: {2: lambda p: {"v": 99}}},
            )
        }
        ip = interposer(script=script)
        ip.begin_round(1)
        bodies = {dst: body for dst, body, _ in ip.broadcast(0, 1, payload)}
        assert bodies[1] == {"v": 1}
        assert bodies[2] == {"v": 99}
        assert payload == {"v": 1}
        ip.finish_round()
        assert ip.faulty_so_far == frozenset({0})

    def test_event_narration_order_matches_engine(self):
        script = {
            1: RoundFaultPlan(
                crashes={3: frozenset()},
                send_omissions={0: frozenset({1})},
                receive_omissions={2: frozenset({1})},
            )
        }
        events = Events()
        ip = interposer(script=script, f=3, recorder=events)
        ip.begin_round(1)
        route_all(ip, 1)
        ip.finish_round()
        kinds = [f.kind for f in events.faults]
        assert kinds == [
            FaultKind.CRASH,
            FaultKind.SEND_OMISSION,
            FaultKind.RECEIVE_OMISSION,
        ]
        # Sends narrated in (sender, receiver) order, whatever the
        # concurrent arrival order was.
        assert events.sent == sorted(events.sent)

    def test_route_outside_round_is_loud(self):
        ip = interposer()
        with pytest.raises(ValueError, match="outside the current round"):
            ip.broadcast(0, 1, "p")

    def test_begin_round_twice_is_loud(self):
        ip = interposer()
        ip.begin_round(1)
        with pytest.raises(ValueError, match="inside an open round"):
            ip.begin_round(2)


class TestAsyncMode:
    def test_crash_schedule_and_marking(self):
        bus = EventBus(())
        ip = WireInterposer(3, bus, crash_times={2: 10.0})
        assert ip.crash_deadline(2) == 10.0
        assert ip.crash_deadline(0) is None
        assert ip.route_async(0, 2, "x") == [(2, "x", 0.0)]
        ip.mark_crashed(2)
        assert ip.route_async(0, 2, "x") == []
        assert ip.route_async(2, 0, "x") == []
        assert ip.faulty_so_far == frozenset({2})


class TestWireExtras:
    def test_delay_drawn_within_bounds(self):
        wire = WireFaults(delay=(0.01, 0.02), duplication=0.0, seed=1)
        ip = interposer(wire=wire)
        ip.begin_round(1)
        for (_, _), copies in route_all(ip, 1).items():
            assert len(copies) == 1
            assert 0.01 <= copies[0][2] <= 0.02
        ip.finish_round()

    def test_duplication_produces_extra_copies(self):
        wire = WireFaults(delay=(0.0, 0.0), duplication=1.0, seed=1)
        ip = interposer(wire=wire)
        ip.begin_round(1)
        copies = [c for c in ip.broadcast(0, 1, "p") if c[0] == 1]
        assert len(copies) == 2
        assert copies[0][:2] == copies[1][:2] == (1, "p")
        ip.finish_round()

    def test_wire_extras_do_not_touch_bookkeeping(self):
        wire = WireFaults(delay=(0.0, 0.001), duplication=1.0, seed=1)
        ip = interposer(wire=wire)
        ip.begin_round(1)
        route_all(ip, 1)
        ip.finish_round()
        assert ip.faulty_so_far == frozenset()
        assert ip.crashed == set()
