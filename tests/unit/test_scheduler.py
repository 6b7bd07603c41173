"""Unit tests for repro.asyncnet.scheduler."""

import pytest

from repro.asyncnet.scheduler import AsyncProtocol, AsyncScheduler
from repro.kernel.faults import FaultPlan


class PingCounter(AsyncProtocol):
    """Broadcasts 'ping' every tick; counts pings received per sender."""

    name = "ping-counter"

    def initial_state(self, pid, n):
        return {"ticks": 0, "pings": {}}

    def on_tick(self, ctx):
        ctx.state["ticks"] += 1
        ctx.broadcast(("ping", ctx.pid))

    def on_message(self, ctx, sender, payload):
        ctx.state["pings"][sender] = ctx.state["pings"].get(sender, 0) + 1

    def output(self, state):
        return state["ticks"]


class TestBasicRun:
    def test_everyone_ticks_and_talks(self):
        sched = AsyncScheduler(PingCounter(), n=3, seed=1)
        trace = sched.run(max_time=30.0)
        for pid, state in trace.final_states.items():
            assert state["ticks"] > 0
            assert set(state["pings"]) == {0, 1, 2}

    def test_deterministic(self):
        a = AsyncScheduler(PingCounter(), n=3, seed=9).run(max_time=20.0)
        b = AsyncScheduler(PingCounter(), n=3, seed=9).run(max_time=20.0)
        assert a.final_states == b.final_states
        assert a.messages_sent == b.messages_sent

    def test_seed_changes_run(self):
        a = AsyncScheduler(PingCounter(), n=3, seed=1).run(max_time=20.0)
        b = AsyncScheduler(PingCounter(), n=3, seed=2).run(max_time=20.0)
        assert a.final_states != b.final_states

    def test_speeds_differ_across_processes(self):
        trace = AsyncScheduler(PingCounter(), n=4, seed=3).run(max_time=60.0)
        ticks = [s["ticks"] for s in trace.final_states.values()]
        assert len(set(ticks)) > 1  # unbounded relative speeds in effect

    def test_sampling_cadence(self):
        sched = AsyncScheduler(PingCounter(), n=2, seed=1, sample_interval=5.0)
        trace = sched.run(max_time=21.0)
        times = [t for t, _ in trace.samples]
        assert times == [5.0, 10.0, 15.0, 20.0]

    def test_outputs_over_time(self):
        sched = AsyncScheduler(PingCounter(), n=2, seed=1, sample_interval=5.0)
        trace = sched.run(max_time=20.0)
        series = trace.outputs_over_time(0)
        assert all(isinstance(v, int) for _, v in series)
        assert [v for _, v in series] == sorted(v for _, v in series)


class TestCrashes:
    def test_crashed_process_stops(self):
        sched = AsyncScheduler(
            PingCounter(), n=3, seed=1, crash_times={2: 10.0}
        )
        trace = sched.run(max_time=50.0)
        assert trace.crashed == frozenset({2})
        assert trace.final_states[2] is None
        assert trace.correct == frozenset({0, 1})

    def test_crashed_receives_nothing_after(self):
        # samples exclude crashed processes
        sched = AsyncScheduler(
            PingCounter(), n=3, seed=1, crash_times={2: 10.0}, sample_interval=5.0
        )
        trace = sched.run(max_time=30.0)
        late = [outputs for t, outputs in trace.samples if t > 10.0]
        assert all(2 not in outputs for outputs in late)

    def test_pre_crash_messages_still_delivered(self):
        sched = AsyncScheduler(PingCounter(), n=2, seed=1, crash_times={1: 5.0})
        trace = sched.run(max_time=30.0)
        assert trace.final_states[0]["pings"].get(1, 0) > 0


class TestCorruption:
    def test_corruption_applied(self):
        from repro.sync.corruption import ExplicitCorruption

        plan = ExplicitCorruption({0: {"ticks": 999, "pings": {}}})
        sched = AsyncScheduler(PingCounter(), n=2, seed=1, corruption=plan)
        trace = sched.run(max_time=5.0)
        assert trace.final_states[0]["ticks"] >= 999


class TestValidation:
    def test_rejects_bad_delay(self):
        with pytest.raises(ValueError):
            AsyncScheduler(PingCounter(), n=2, delay=(0.0, 1.0))

    def test_rejects_tiny_system(self):
        with pytest.raises(ValueError):
            AsyncScheduler(PingCounter(), n=1)

    def test_rejects_bad_max_time(self):
        sched = AsyncScheduler(PingCounter(), n=2)
        with pytest.raises(ValueError):
            sched.run(max_time=0)

    @pytest.mark.parametrize("dest", [-1, 4])
    def test_send_rejects_a_destination_that_is_no_process(self, dest):
        # -1 used to reach process n - 1 through contexts[-1], and n died
        # with a bare IndexError inside run(), far from the sender.
        class Stray(PingCounter):
            def on_tick(self, ctx):
                if ctx.pid == 2:
                    ctx.send(dest, ("ping", ctx.pid))

        sched = AsyncScheduler(Stray(), n=4, seed=1)
        with pytest.raises(ValueError, match=rf"process 2 sent to process {dest}, but n = 4"):
            sched.run(max_time=10.0)

    @pytest.mark.parametrize("pid", [7, -1, 4, "3"])
    def test_rejects_a_crash_of_no_process(self, pid):
        # Used to yield final_states with a phantom key, trace.crashed ==
        # {7} and four "correct" processes.
        with pytest.raises(ValueError, match=rf"crash schedule names process {pid!r}, but n = 4"):
            AsyncScheduler(PingCounter(), n=4, crash_times={pid: 1.0})
        with pytest.raises(ValueError, match="crash schedule names process"):
            AsyncScheduler(PingCounter(), n=4, fault_plan=FaultPlan(crashes={pid: 1.0}))

    def test_send_reaches_every_real_process_and_crashes_at_the_edge_are_fine(self):
        class ToLast(PingCounter):
            def on_tick(self, ctx):
                ctx.send(ctx.n - 1, ("ping", ctx.pid))
                ctx.send(0, ("ping", ctx.pid))

        trace = AsyncScheduler(ToLast(), n=4, seed=1, crash_times={3: 5.0, 0: 8.0}).run(
            max_time=20.0
        )
        assert trace.crashed == {0, 3} and trace.correct == {1, 2}
        assert trace.deliveries < trace.messages_sent


class TestStopCondition:
    def test_stops_early(self):
        sched = AsyncScheduler(PingCounter(), n=2, seed=1)
        trace = sched.run(
            max_time=1000.0,
            stop_condition=lambda s: s.now > 10.0,
        )
        assert trace.final_states[0]["ticks"] < 100


class TestWeakSuspectsWithoutOracle:
    def test_empty_when_unconfigured(self):
        captured = []

        class Probe(PingCounter):
            def on_tick(self, ctx):
                captured.append(ctx.weak_suspects())

        AsyncScheduler(Probe(), n=2, seed=1).run(max_time=3.0)
        assert captured and all(s == frozenset() for s in captured)


class ListGossip(AsyncProtocol):
    """Broadcasts one mutable list per tick, then scribbles on it; every
    receiver keeps what it was handed and scribbles on that too."""

    name = "list-gossip"

    def initial_state(self, pid, n):
        return {"ticks": 0, "inbox": []}

    def on_tick(self, ctx):
        ctx.state["ticks"] += 1
        payload = ["tick", ctx.pid, ctx.state["ticks"]]
        ctx.broadcast(payload)
        payload.append("mutated-after-send")

    def on_message(self, ctx, sender, payload):
        ctx.state["inbox"].append((tuple(payload), payload))
        payload.append(("seen-by", ctx.pid))


class TupleGossip(ListGossip):
    name = "tuple-gossip"

    def on_tick(self, ctx):
        ctx.state["ticks"] += 1
        ctx.broadcast(("tick", ctx.pid, (ctx.state["ticks"], "nested")))

    def on_message(self, ctx, sender, payload):
        ctx.state["inbox"].append(payload)


class TestDefensiveCopies:
    def received(self, trace):
        return [
            entry for state in trace.final_states.values() for entry in state["inbox"]
        ]

    def test_sender_mutation_after_send_is_invisible(self):
        trace = AsyncScheduler(ListGossip(), n=3, seed=2).run(max_time=15.0)
        received = self.received(trace)
        assert received
        for as_delivered, _kept in received:
            assert len(as_delivered) == 3 and as_delivered[0] == "tick"

    def test_receiver_mutation_reaches_nobody_else(self):
        trace = AsyncScheduler(ListGossip(), n=3, seed=2).run(max_time=15.0)
        kept = [kept for _seen, kept in self.received(trace)]
        # Each delivery is its own object, so it carries exactly one
        # scribble: that of the process it was delivered to.
        assert len({id(payload) for payload in kept}) == len(kept)
        for pid, state in trace.final_states.items():
            for _seen, payload in state["inbox"]:
                assert payload[3:] == [("seen-by", pid)]

    def test_duplicated_copies_are_independent(self):
        trace = AsyncScheduler(
            ListGossip(), n=3, seed=2, duplicate_probability=0.6
        ).run(max_time=15.0)
        assert trace.deliveries > 1.3 * sum(
            state["ticks"] for state in trace.final_states.values()
        )
        kept = [kept for _seen, kept in self.received(trace)]
        assert len({id(payload) for payload in kept}) == len(kept)
        for as_delivered, payload in self.received(trace):
            assert len(as_delivered) == 3 and len(payload) == 4

    def test_immutable_payload_arrives_as_an_equal_value(self):
        trace = AsyncScheduler(TupleGossip(), n=3, seed=2).run(max_time=15.0)
        received = self.received(trace)
        assert received
        for kind, sender, (tick, tag) in received:
            assert kind == "tick" and sender in range(3) and tag == "nested"
            assert 1 <= tick <= trace.final_states[sender]["ticks"]

    def test_point_to_point_send_is_the_one_destination_fan_out(self):
        class Ring(ListGossip):
            def on_tick(self, ctx):
                ctx.state["ticks"] += 1
                payload = ["tick", ctx.pid, ctx.state["ticks"]]
                ctx.send((ctx.pid + 1) % ctx.n, payload)
                payload.append("mutated-after-send")

        trace = AsyncScheduler(Ring(), n=3, seed=2).run(max_time=15.0)
        assert trace.messages_sent == sum(
            state["ticks"] for state in trace.final_states.values()
        )
        for pid, state in trace.final_states.items():
            assert state["inbox"]
            for as_delivered, _kept in state["inbox"]:
                assert as_delivered[:2] == ("tick", (pid - 1) % 3)
                assert len(as_delivered) == 3
