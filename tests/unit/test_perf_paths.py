"""Tests for the hot-path overhaul: interning, lean dispatch, the pool.

These pin down the *equivalence* guarantees the optimizations rely on:

- a ``record_history=False`` run reports the same faulty set and final
  states as a recorded run under crashes, omissions and mid-run
  corruption (the engine's own deviator accumulation matches
  ``history.faulty()``);
- delayed messages still in flight when the run ends are truncated;
- the interning layer (``imm``/``freeze``/``FrozenDict``) proves,
  interns and shares immutable values without changing snapshot
  semantics;
- the event bus reports capability flags that reflect which hooks its
  observers actually override;
- a round's messages narrated as one batch reach a per-message observer
  as the same calls in the same order, and a recorder fed one message
  at a time builds the same history;
- a synchronous run moves broadcasts: a recorded, judged run builds fewer
  ``Message``s than it has broadcasts and a streaming-checked one none;
- an asynchronous run builds an ``AsyncMessage`` only for a subscriber,
  counts its traffic either way, leaves no entry in the proof cache, and
  queues no copy for a process that had crashed when it was sent;
- the persistent sweep pool is reused across sweeps and keeps results
  equal to the sequential baseline;
- the explicit verify engine executes each plan once and assembles each
  executed round's records once, whichever judge reads them;
- the array wire owns the reduction: the CSR twins ask it for nothing
  but ``reduce``, bounded in-degree graphs never pay ``reduceat``, and a
  chunk budget bounds every temporary of either kernel;
- a systemic failure of a clock twin is columns end to end: no state is
  read, no dict is loaded, no per-process draw is made and a static
  topology is not re-walked; plans and twins that offer no columns keep
  the dict bridge;
- ``benchmarks/compare.py`` flags regressions and accepts improvements.
"""

import importlib.util
import pathlib
import pickle

import pytest

from repro.array import as_array_protocol, has_numpy, run_array
from repro.array import engine as array_engine
from repro.array.engine import RoundWire, _CsrGraph
from repro.array.protocols import ArrayClock, ArrayProtocol, _DenseTwin
from repro.core.canonical import CanonicalRunner
from repro.core.rounds import RoundAgreementProtocol
from repro.experiments import base as experiments_base
from repro.experiments.base import run_sweep, shutdown_pool
from repro.analysis.metrics import StreamingMessageStats, run_message_stats
from repro.histories.history import CLOCK_KEY, Message
from repro.kernel import snapshot
from repro.kernel.delivery import Liveness, RoundLedger
from repro.kernel.events import EventBus, Observer
from repro.kernel.recorders import HistoryRecorder
from repro.kernel.faults import FaultPlan
from repro.kernel.topology import (
    ExplicitTopology,
    GridTopology,
    RingTopology,
    TreeTopology,
    _StaticTopology,
    receiver_columns,
)
from repro.protocols.floodmin import FloodMinConsensus
from repro.protocols.unison import BoundedUnison, MinUnison
from repro.kernel.snapshot import (
    FrozenDict,
    copy_value,
    freeze,
    imm,
)
from repro.sync.adversary import (
    FaultMode,
    RandomAdversary,
    RoundFaultPlan,
    ScriptedAdversary,
)
from repro.sync.clock import ClockProtocol
from repro.sync.corruption import ClockSkewCorruption, RandomCorruption
from repro.sync.delays import RandomDelay, TargetedLag
from repro.sync.engine import run_sync
from repro.sync.protocol import SyncProtocol
from repro.util.rng import BLOCK_MIN_COUNT

BACKENDS = ["python"] + (["numpy"] if has_numpy() else [])


class EchoProtocol(SyncProtocol):
    name = "echo"

    def initial_state(self, pid, n):
        return {CLOCK_KEY: 1, "heard": ()}

    def send(self, pid, state):
        return pid

    def update(self, pid, state, delivered):
        heard = tuple((m.sender, m.sent_round) for m in delivered)
        return {CLOCK_KEY: state[CLOCK_KEY] + 1, "heard": heard}


def _faulty_run(record_history):
    """One eventful run: crashes + omissions + mid-run corruption."""
    return run_sync(
        EchoProtocol(),
        n=5,
        rounds=12,
        adversary=RandomAdversary(
            n=5,
            f=2,
            mode=FaultMode.GENERAL_OMISSION,
            rate=0.7,
            seed=11,
            crash_probability=0.3,
        ),
        mid_run_corruptions={4: ClockSkewCorruption({0: 99, 3: -7})},
        record_history=record_history,
    )


class TestStreamingParity:
    def test_faulty_set_and_final_states_match_recorded_run(self):
        recorded = _faulty_run(record_history=True)
        streaming = _faulty_run(record_history=False)
        assert streaming.history is None
        assert recorded.history is not None
        assert streaming.faulty == recorded.faulty
        assert streaming.faulty  # the campaign actually injected faults
        assert streaming.final_states == recorded.final_states
        assert streaming.rounds_executed == recorded.rounds_executed

    def test_parity_under_random_corruption(self):
        kwargs = dict(
            n=4,
            rounds=6,
            corruption=RandomCorruption(seed=3),
        )
        recorded = run_sync(EchoProtocol(), record_history=True, **kwargs)
        streaming = run_sync(EchoProtocol(), record_history=False, **kwargs)
        assert streaming.final_states == recorded.final_states
        assert streaming.faulty == recorded.faulty == frozenset()

    def test_parity_under_delays(self):
        def build(record_history):
            return run_sync(
                EchoProtocol(),
                n=3,
                rounds=5,
                delay_model=TargetedLag([(0, 1), (2, 1)]),
                record_history=record_history,
            )

        recorded = build(True)
        streaming = build(False)
        assert streaming.final_states == recorded.final_states
        assert streaming.faulty == recorded.faulty


class TestDelayTruncation:
    def test_in_flight_messages_dropped_at_run_end(self):
        # The 0->1 link is permanently one round late: the copy sent in
        # the final round is still in flight when the run ends and must
        # be truncated, not delivered or carried anywhere.
        res = run_sync(
            EchoProtocol(), n=2, rounds=1, delay_model=TargetedLag([(0, 1)])
        )
        assert res.final_states[1]["heard"] == ((1, 1),)
        # 4 copies hit the wire, but the lagged 0->1 copy never lands.
        assert res.history.messages_sent() == 4
        assert res.history.messages_delivered() == 3

    def test_lagged_copy_arrives_when_run_continues(self):
        res = run_sync(
            EchoProtocol(), n=2, rounds=2, delay_model=TargetedLag([(0, 1)])
        )
        # Round 2 delivers round 1's lagged copy plus round 2's on-time
        # self copy; round 2's 0->1 copy is truncated in turn.
        assert res.final_states[1]["heard"] == ((0, 1), (1, 2))


class TestInterning:
    def setup_method(self):
        snapshot.clear_caches()

    def test_equal_views_collapse_to_one_canonical(self):
        first = copy_value(("view", ((0, 1), (1, 2)), frozenset({3})))
        second = copy_value(("view", ((0, 1), (1, 2)), frozenset({3})))
        assert first == second
        assert first is second

    def test_proof_cache_hits_after_first_walk(self):
        value = tuple((pid, ("s", pid)) for pid in range(50))
        copy_value(value)
        before = snapshot.cache_stats()["proofs"]
        copy_value(value)
        assert snapshot.cache_stats()["proofs"] == before

    def test_imm_rejects_mutables(self):
        with pytest.raises(TypeError, match="not deeply immutable"):
            imm([1, 2])
        with pytest.raises(TypeError, match="not deeply immutable"):
            imm((1, [2]))

    def test_imm_returns_canonical(self):
        payload = (1, "x", (frozenset({2}), ("s", 3)))
        assert imm(payload) is copy_value((1, "x", (frozenset({2}), ("s", 3))))

    def test_freeze_converts_and_interns(self):
        frozen = freeze({"log": [1, 2], "seen": {3}, "pair": (4, [5])})
        assert isinstance(frozen, FrozenDict)
        assert frozen["log"] == (1, 2)
        assert frozen["seen"] == frozenset({3})
        assert frozen["pair"] == (4, (5,))
        assert copy_value(frozen) is frozen

    def test_freeze_rejects_unconvertible(self):
        class Opaque:
            pass

        with pytest.raises(TypeError, match="cannot convert"):
            freeze({"x": Opaque()})

    def test_frozendict_mapping_semantics(self):
        fd = FrozenDict({"a": 1, "b": 2})
        assert fd == {"a": 1, "b": 2}
        assert dict(fd) == {"a": 1, "b": 2}
        assert hash(fd) == hash(FrozenDict({"b": 2, "a": 1}))
        with pytest.raises(TypeError):
            fd["c"] = 3

    def test_frozendict_pickles(self):
        fd = FrozenDict({"a": (1, 2)})
        assert pickle.loads(pickle.dumps(fd)) == fd

    def test_generation_guard_clears_wholesale(self):
        generation = snapshot.cache_stats()["generation"]
        snapshot.clear_caches()
        stats = snapshot.cache_stats()
        assert stats["generation"] == generation + 1
        assert stats["proofs"] == 0
        assert stats["interned"] == 0

    def test_containers_of_atoms_are_proved_but_not_cached(self):
        flat = (1, "x", None, 2.5)
        assert copy_value(flat) is flat
        assert imm(frozenset({1, 2})) == frozenset({1, 2})
        stats = snapshot.cache_stats()
        assert stats["proofs"] == 0 and stats["interned"] == 0
        # One level up is still one pass: Figure 4's gossip at n = 12
        # (27 leaves) and a (pid, (clock, tag)) pair are not cached either.
        gossip = ("fd", tuple(range(12)), ("alive", "dead") * 6, frozenset({1}))
        assert copy_value(gossip) is gossip
        assert imm((3, (7, "tag"))) == (3, (7, "tag"))
        assert copy_value({"fd": [gossip]})["fd"][0] is gossip  # ... nor inside a state
        stats = snapshot.cache_stats()
        assert stats["proofs"] == 0 and stats["interned"] == 0
        # Two levels up the container is cached, and its two pairs with it
        # (a view is rebuilt from its parts every round); their flat
        # ("s", pid) items still are not.
        view, twin = (tuple((pid, ("s", pid)) for pid in range(2)) for _ in range(2))
        assert copy_value(view) is view
        stats = snapshot.cache_stats()
        assert stats["proofs"] == 3 and stats["interned"] == 3
        assert twin is not view and copy_value(twin) is view

    def test_snapshot_semantics_unchanged_by_interning(self):
        state = {"clock": 1, "log": [1, [2]], "view": ("a", ("b",))}
        snap = snapshot.snapshot_state(state)
        snap["log"][1].append(3)
        assert state["log"] == [1, [2]]
        assert snap["view"] == state["view"]


class _SendCounter(Observer):
    def __init__(self):
        self.sends = 0

    def on_send(self, message, time):
        self.sends += 1


class TestCapabilityFlags:
    def test_empty_bus_wants_nothing(self):
        bus = EventBus(())
        for hook in ("round_start", "send", "deliver", "fault",
                     "state_commit", "sample", "round_end"):
            assert getattr(bus, f"wants_{hook}") is False

    def test_overridden_hooks_detected(self):
        bus = EventBus((_SendCounter(),))
        assert bus.wants_send is True
        assert bus.wants_deliver is False
        assert bus.wants_state_commit is False

    def test_nested_bus_is_transitive(self):
        inner = EventBus((_SendCounter(),))
        outer = EventBus((inner,))
        assert outer.wants_send is True
        assert outer.wants_deliver is False

    def test_base_observer_counts_as_no_subscription(self):
        assert EventBus((Observer(),)).wants_send is False

    def test_gated_events_still_fire_for_subscribers(self):
        counter = _SendCounter()
        run_sync(EchoProtocol(), n=3, rounds=2,
                 observers=(counter,), record_history=False)
        assert counter.sends == 3 * 3 * 2


class _BatchCounter(Observer):
    """Overrides only the batch form of the two message hooks."""

    def __init__(self):
        self.wires = []
        self.inboxes = []

    def on_sends(self, messages, time):
        self.wires.append((time, list(messages)))

    def on_deliveries(self, inboxes, time):
        self.inboxes.append((time, {pid: list(box) for pid, box in inboxes.items()}))


class _Sequence(Observer):
    """Overrides only the per-message form; keeps the order it is told in."""

    def __init__(self):
        self.events = []

    def on_send(self, message, time):
        self.events.append(("send", message, time))

    def on_deliver(self, message, time):
        self.events.append(("deliver", message, time))


class _MessageByMessage(Observer):
    """Relays a run to a second recorder one message at a time, the way a
    producer that never sees a whole round (a live host) would feed it."""

    def __init__(self):
        self.recorder = HistoryRecorder()
        self.bus = EventBus((self.recorder,))

    def on_run_start(self, n, protocol, first_round=1):
        self.bus.on_run_start(n, protocol, first_round)

    def on_round_start(self, round_no, snapshots):
        self.bus.on_round_start(round_no, snapshots)

    def on_send(self, message, time):
        self.bus.on_send(message, time)

    def on_deliver(self, message, time):
        self.bus.on_deliver(message, time)

    def on_fault(self, fault):
        self.bus.on_fault(fault)

    def on_round_end(self, round_no):
        self.bus.on_round_end(round_no)


def _faulty_delayed_run(observers=(), record_history=True):
    """Crashes, omissions and corruption with some copies a round late."""
    return run_sync(
        EchoProtocol(),
        n=5,
        rounds=10,
        adversary=RandomAdversary(
            n=5,
            f=2,
            mode=FaultMode.GENERAL_OMISSION,
            rate=0.6,
            seed=13,
            crash_probability=0.2,
        ),
        corruption=RandomCorruption(seed=5),
        delay_model=RandomDelay(seed=7, p_late=0.3),
        observers=observers,
        record_history=record_history,
    )


class TestBatchNarration:
    """A round's messages travel as one batch; nobody can tell."""

    @pytest.mark.parametrize(
        "observer, send, deliver",
        [
            (_BatchCounter(), True, True),
            (_Sequence(), True, True),
            (_SendCounter(), True, False),
            (HistoryRecorder(), True, True),
            (Observer(), False, False),
        ],
    )
    def test_either_form_subscribes(self, observer, send, deliver):
        for bus in (EventBus((observer,)), EventBus((EventBus((observer,)),))):
            assert bus.wants_send is send
            assert bus.wants_deliver is deliver

    def test_batch_observer_gets_one_call_of_each_per_round(self):
        batches = _BatchCounter()
        result = _faulty_delayed_run(observers=(batches,))
        rounds = [rh.round_no for rh in result.history]
        assert [time for time, _ in batches.wires] == rounds
        assert [time for time, _ in batches.inboxes] == rounds
        for rh, (_, wire), (_, inboxes) in zip(
            result.history, batches.wires, batches.inboxes
        ):
            assert wire == [m for record in rh.records for m in record.sent]
            assert inboxes == {
                record.pid: list(record.delivered)
                for record in rh.records
                if record.delivered
            }

    def test_per_message_observer_beside_it_sees_the_old_sequence(self):
        # Per round: the wire (sender, then receiver, ascending), then the
        # deliveries (receiver ascending, each inbox in delivery order).
        sequence = _Sequence()
        result = _faulty_delayed_run(observers=(_BatchCounter(), sequence))
        expected = []
        for rh in result.history:
            for record in rh.records:
                expected += [("send", m, rh.round_no) for m in record.sent]
            for record in rh.records:
                expected += [("deliver", m, rh.round_no) for m in record.delivered]
        assert sequence.events == expected
        assert any(m.sent_round < time for kind, m, time in expected if kind == "deliver")

    def test_streaming_stats_equal_the_recorded_ones(self):
        stats = StreamingMessageStats()
        result = _faulty_delayed_run(observers=(stats,))
        assert stats.stats() == run_message_stats(result.history)
        unrecorded = StreamingMessageStats()
        _faulty_delayed_run(observers=(unrecorded,), record_history=False)
        assert unrecorded.stats() == stats.stats()

    def test_recorder_fed_message_by_message_builds_the_same_history(self):
        relay = _MessageByMessage()
        result = _faulty_delayed_run(observers=(relay,))
        assert result.faulty  # faults were injected, and ...
        assert result.history.messages_delivered() < result.history.messages_sent()
        assert list(relay.recorder.history()) == list(result.history)

    @pytest.mark.parametrize(
        "fields, text",
        [
            ((-1, 0, 1, None), "sender must be a process id, got -1"),
            ((0, -1, 1, None), "receiver must be a process id, got -1"),
            ((0, 0, 0, None), "sent_round must be a positive integer, got 0"),
            ((0, 0, True, None), "sent_round must be a positive integer, got True"),
        ],
    )
    def test_message_still_rejects_what_it_rejected(self, fields, text):
        with pytest.raises(ValueError) as error:
            Message(*fields)
        assert str(error.value) == text


class TestBroadcastWire:
    """A broadcast is one object; a ``Message`` exists once somebody reads it."""

    @pytest.fixture
    def built(self, monkeypatch):
        """Every ``Message`` constructed during the test, whoever asked."""
        built = []
        validate = Message.__post_init__

        def counting(message):
            built.append(message)
            validate(message)

        monkeypatch.setattr(Message, "__post_init__", counting)
        return built

    def test_recorded_judged_run_builds_fewer_messages_than_broadcasts(self, built):
        from repro.core.problems import ClockAgreementProblem
        from repro.core.solvability import check_definition
        from repro.experiments.fig1 import one_run

        n, rounds = 16, 40
        result = one_run(n, 5, seed=0, rounds=rounds)
        verdict = check_definition("ftss", result.history, ClockAgreementProblem(), 1)
        assert verdict.holds and result.faulty
        assert result.history.messages_sent() > n * rounds  # counted off the columns
        assert len(built) < n * rounds  # the per-copy loop built ~ n * n * rounds
        # ... and a reader gets real messages, once
        record = result.history.round(rounds).record(0)
        assert record.delivered and type(record.delivered[0]) is Message
        assert record.delivered is record.delivered

    def test_streaming_checked_run_builds_none(self, built):
        from repro.analysis.stabilization import StreamingClockStabilization

        checker = StreamingClockStabilization()
        result = run_sync(
            RoundAgreementProtocol(),
            n=8,
            rounds=20,
            adversary=RandomAdversary(
                n=8, f=3, mode=FaultMode.GENERAL_OMISSION, rate=0.4, seed=3,
                crash_probability=0.2,
            ),
            corruption=RandomCorruption(seed=4),
            observers=(checker,),
            record_history=False,
        )
        assert result.faulty and checker.result() is not None
        assert built == []  # no forgery planned: nothing the checker reads is a copy


class _Narration(Observer):
    def __init__(self):
        self.sends = []
        self.deliveries = []

    def on_send(self, message, time):
        self.sends.append((message, time))

    def on_deliver(self, message, time):
        self.deliveries.append((message, time))


class TestAsyncNarration:
    """The scheduler counts its traffic; it narrates it only on request."""

    @pytest.fixture
    def built(self, monkeypatch):
        """Every ``AsyncMessage`` the scheduler constructs during the test."""
        from repro.asyncnet import scheduler

        real = scheduler.AsyncMessage
        built = []

        def counting(**fields):
            built.append(real(**fields))
            return built[-1]

        monkeypatch.setattr(scheduler, "AsyncMessage", counting)
        return built

    @staticmethod
    def run_fig4(observers=()):
        from repro.asyncnet.oracle import WeakDetectorOracle
        from repro.asyncnet.scheduler import AsyncScheduler
        from repro.detectors.strong import StrongDetector

        crashes = {3: 10.0}
        return AsyncScheduler(
            StrongDetector(),
            4,
            seed=3,
            gst=15.0,
            crash_times=crashes,
            oracle=WeakDetectorOracle(4, crashes, gst=15.0, seed=3),
            duplicate_probability=0.1,
            observers=observers,
        ).run(max_time=40.0)

    def test_unobserved_run_builds_no_message(self, built):
        trace = self.run_fig4()
        assert built == []
        assert trace.messages_sent > 0
        assert 0 < trace.deliveries

    def test_inherited_noop_hooks_do_not_count_as_a_subscriber(self, built):
        self.run_fig4(observers=(Observer(),))
        assert built == []

    def test_send_only_subscriber_pays_for_sends_only(self, built):
        counter = _SendCounter()
        trace = self.run_fig4(observers=(counter,))
        assert counter.sends == trace.messages_sent == len(built)

    def test_narrated_sequence_matches_the_counts_and_the_run(self):
        narration = _Narration()
        trace = self.run_fig4(observers=(narration,))
        quiet = self.run_fig4()
        assert (trace.samples, trace.final_states) == (quiet.samples, quiet.final_states)
        assert len(narration.sends) == trace.messages_sent == quiet.messages_sent
        assert len(narration.deliveries) == trace.deliveries == quiet.deliveries
        for message, time in narration.sends:
            assert message.sent_time == time and message.payload[0] == "fd"
        times = [time for _message, time in narration.deliveries]
        assert times == sorted(times)
        for message, time in narration.deliveries:
            assert message.sent_time < time
        # A duplicated message is one send and two deliveries.
        sent = {(m.sender, m.receiver, m.sent_time) for m, _t in narration.sends}
        assert {(m.sender, m.receiver, m.sent_time) for m, _t in narration.deliveries} <= sent
        assert len(sent) == len(narration.sends)


class TestProofCacheStaysBounded:
    """A live process pins nothing for the asynchronous runs it serves."""

    @staticmethod
    def assert_nothing_pinned(runs):
        snapshot.clear_caches()
        generation = snapshot.cache_stats()["generation"]
        for run in runs:
            assert run().messages_sent > 0
            stats = snapshot.cache_stats()
            assert (stats["proofs"], stats["interned"]) == (0, 0)
            assert stats["generation"] == generation

    def test_fig4_runs_back_to_back_leave_no_entry(self):
        from repro.experiments import fig4

        self.assert_nothing_pinned(
            [
                lambda: fig4.one_run(4, 0, False),
                lambda: fig4.one_run(4, 1, True),
                lambda: fig4.one_run(4, 2, False),
            ]
        )

    def test_consensus_and_heartbeat_leave_no_entry(self):
        from repro.experiments import async_cons, ext_heartbeat

        self.assert_nothing_pinned(
            [
                lambda: async_cons.one_run("ss", 0, True),
                lambda: ext_heartbeat.detector_run(1, 16.0),
            ]
        )


class TestDeadLetters:
    """A copy for a process already crashed is drawn for but never queued."""

    CRASHES = {3: 10.0, 2: 20.0}
    #: FIG4 n = 4, seed 0 at duplicate_probability = 0.5, captured on the
    #: commit before dead letters stopped being queued: (trace, narration).
    DUPLICATED = (
        "34f88a5712f1e0e9f6108538635d68bd35c30cd7bd5dc125aaba8f4c9aa4ce71",
        "189a24f3f0c3b50a11656b4ab09ae5651a7e8cbf4a3cd37be6589679ba46f463",
    )

    def run_fig4(self, narration, duplicate_probability=0.0, stop_condition=None):
        from repro.asyncnet.oracle import WeakDetectorOracle
        from repro.asyncnet.scheduler import AsyncScheduler
        from repro.detectors.strong import StrongDetector
        from repro.experiments import fig4

        return AsyncScheduler(
            StrongDetector(),
            4,
            seed=0,
            gst=fig4.GST,
            crash_times=self.CRASHES,
            oracle=WeakDetectorOracle(4, self.CRASHES, gst=fig4.GST, seed=0),
            duplicate_probability=duplicate_probability,
            observers=(narration,),
        ).run(max_time=fig4.MAX_TIME, stop_condition=stop_condition)

    def test_the_heap_holds_only_copies_that_could_arrive(self):
        from tests.integration.test_async_golden import PINNED, Narration, trace_digest

        in_flight = {}

        def inspect(scheduler):
            for event in scheduler._queue:
                if len(event) == 6 and event[2] in scheduler._crashed:
                    _time, seq, dest, _sender, _payload, sent_at = event
                    # Sent while its receiver lived, or it is not here.
                    assert sent_at < self.CRASHES[dest]
                    in_flight[seq] = event
            return False

        narration = Narration()
        trace = self.run_fig4(narration, stop_condition=inspect)
        assert trace_digest(trace) == PINNED["fig4-n4-clean"]
        assert len(narration.sends) == trace.messages_sent == 2872
        assert len(narration.deliveries) == trace.deliveries == 1556
        # Sends to the dead are still narrated: 1,309 of the 2,872 copies ...
        dead = [s for s in narration.sends if self.CRASHES.get(s[1], 1e9) <= s[3]]
        assert len(dead) == 1309
        # ... a receiver that crashes in flight is still dropped on arrival.
        late = [d for d in narration.deliveries if self.CRASHES.get(d[1], 1e9) <= d[4]]
        assert late == []
        # Every copy is accounted for: 2,872 sent = 1,309 never queued
        # + 7 dropped on arrival + 1,556 delivered.
        assert len(in_flight) == 7
        assert trace.messages_sent - len(dead) - len(in_flight) == trace.deliveries

    def test_a_dead_duplicate_still_takes_both_draws(self):
        from tests.integration.test_async_golden import Narration, trace_digest

        narration = Narration()
        trace = self.run_fig4(narration, duplicate_probability=0.5)
        assert (trace_digest(trace), narration.digest()) == self.DUPLICATED


def _cube(x):
    return x * x * x


class TestPersistentPool:
    def test_pool_reused_across_sweeps(self):
        shutdown_pool()
        assert run_sweep(_cube, [1, 2, 3], jobs=2) == [1, 8, 27]
        pool = experiments_base._POOL
        assert pool is not None
        assert run_sweep(_cube, [4, 5], jobs=2) == [64, 125]
        assert experiments_base._POOL is pool
        shutdown_pool()
        assert experiments_base._POOL is None

    def test_pool_resized_on_different_jobs(self):
        shutdown_pool()
        run_sweep(_cube, [1, 2, 3, 4], jobs=2)
        first = experiments_base._POOL
        run_sweep(_cube, [1, 2, 3, 4], jobs=3)
        assert experiments_base._POOL is not first
        shutdown_pool()

    def test_parallel_matches_sequential(self):
        points = list(range(17))
        assert run_sweep(_cube, points, jobs=4) == [p**3 for p in points]
        shutdown_pool()


class TestOneStepPerDistinctRound:
    @pytest.mark.parametrize("name, smoke", [("fig1", True), ("fig3", False)])
    def test_one_walk_per_plan_and_one_assembly_per_stepped_round(
        self, monkeypatch, name, smoke
    ):
        import repro.cache
        from repro.sync import engine
        from repro.verify import get_verify_target, verify
        from repro.verify.explicit import enumerate_space
        from repro.verify.walk import ChainWalk

        target = get_verify_target(name)
        space = target.smoke_space if smoke else target.space
        specs, _raw, _dropped = enumerate_space(space, target.symmetric)

        repro.cache.disable()  # a cache hit walks nothing at all
        # Class-level counters see every plan's walk and every round
        # assembly: each plan is walked once, and only a round the table
        # lacks is stepped — and assembled — at all.
        runs, rounds, steps = [], [], []
        judge = ChainWalk.judge
        finish_round = HistoryRecorder._finish_round
        step_round = engine.step_round
        monkeypatch.setattr(
            ChainWalk, "judge", lambda self, spec: runs.append(1) or judge(self, spec)
        )
        monkeypatch.setattr(
            HistoryRecorder,
            "_finish_round",
            lambda self, round_no: rounds.append(round_no) or finish_round(self, round_no),
        )
        monkeypatch.setattr(
            engine, "step_round", lambda *args: steps.append(1) or step_round(*args)
        )
        result = verify(name, space=space, jobs=1)
        assert result.proved and not result.mismatches
        assert result.examined == len(specs)
        assert len(runs) == result.examined
        assert len(rounds) == len(steps)
        assert len(steps) < sum(spec.rounds for spec in specs)


def _log_lane_array(log, call, result):
    """Log ``(call, cells per lane)`` of a ``(lanes, cells)`` array; the 1-D
    arrays are the graph deriving its slot columns, once, not a round's
    temporaries."""
    if result.ndim == 2:
        log.append((call, result.shape[1]))
    return result


class _UfuncSpy:
    """Stands in for ``np.minimum`` / ``np.maximum`` and logs what the
    wire's reduction allocates through it."""

    def __init__(self, ufunc, log):
        self.ufunc, self.log = ufunc, log

    def __call__(self, *args, out=None, **kwargs):
        result = self.ufunc(*args, out=out, **kwargs)
        return result if out is not None else _log_lane_array(self.log, "ufunc", result)

    def reduce(self, *args, **kwargs):
        return _log_lane_array(self.log, "reduce", self.ufunc.reduce(*args, **kwargs))

    def reduceat(self, *args, **kwargs):
        return _log_lane_array(
            self.log, "reduceat", self.ufunc.reduceat(*args, **kwargs)
        )


@pytest.mark.skipif(not has_numpy(), reason="the kernels are NumPy's")
class TestWireReduce:
    @pytest.fixture
    def allocations(self, monkeypatch):
        """``(call, cells per lane)`` of every per-lane array a
        ``RoundWire.reduce`` call builds on the NumPy plane."""
        import numpy as np

        log = []

        def spied(name):
            real = getattr(np, name)

            def call(*args, **kwargs):
                return _log_lane_array(log, name, real(*args, **kwargs))

            return call

        reduce = RoundWire.reduce

        def spying_reduce(wire, column, op):
            with monkeypatch.context() as patch:
                for name in ("take", "where", "copy"):
                    patch.setattr(np, name, spied(name))
                for name in ("minimum", "maximum"):
                    patch.setattr(np, name, _UfuncSpy(getattr(np, name), log))
                return reduce(wire, column, op)

        monkeypatch.setattr(RoundWire, "reduce", spying_reduce)
        return log

    LANES = 2

    @classmethod
    def _run(cls, topology, crash=True, omit=False, **kwargs):
        """A clean crash silences a sender (``send_ok``); a send omission
        drops one copy (``keep``), in round 2 next to the crash."""
        n = topology.n
        sender = n // 4
        lost = RoundFaultPlan(
            send_omissions={sender: frozenset(topology.neighbors(sender)[:1])}
        )
        plans = [
            FaultPlan(
                crashes={n // 2: 2.0} if crash else {},
                omissions=ScriptedAdversary(1, {2: lost}) if omit else None,
                initial_corruption=RandomCorruption(seed=s),
            )
            for s in range(cls.LANES)
        ]
        return run_array(
            MinUnison(), n, 4, fault_plans=plans, topology=topology,
            backend="numpy", **kwargs,
        )

    @pytest.mark.parametrize("topology", [RingTopology(1200), GridTopology(30, 40)])
    def test_bounded_in_degree_never_pays_reduceat(self, allocations, topology):
        self._run(topology)
        calls = {call for call, _cells in allocations}
        assert "take" in calls and "reduceat" not in calls

    @pytest.mark.parametrize(
        "topology",
        [RingTopology(10_000), GridTopology(100, 100)],
        ids=["ring-10000", "grid-100x100"],
    )
    def test_a_fault_free_lattice_gathers_only_its_boundary(self, allocations, topology):
        self._run(topology, crash=False)
        _offsets, boundary, _edge = _CsrGraph(*receiver_columns(topology, 1), "numpy").shifts
        assert {call for call, _cells in allocations} == {"copy", "take"}
        # ring: its 2 wrap receivers; grid: its 396 rim receivers
        gathered = [cells for call, cells in allocations if call == "take"]
        assert max(gathered) <= boundary.size < topology.n // 8

    def test_a_tree_still_gathers(self, allocations):
        topology = TreeTopology(1200)
        assert _CsrGraph(*receiver_columns(topology, 1), "numpy").columnar
        self._run(topology, crash=False)
        assert {call for call, _cells in allocations} == {"take"}
        assert max(cells for _call, cells in allocations) == topology.n

    def test_a_star_keeps_reduceat(self, allocations):
        n = 1200
        self._run(ExplicitTopology(n, [(0, pid) for pid in range(1, n)]))
        assert "reduceat" in {call for call, _cells in allocations}

    @pytest.mark.parametrize(
        "topology, crash, omit, reduceat, chunk",
        [
            pytest.param(topology, crash, omit, reduceat, chunk, id=f"{chunk}-{kernel}")
            for kernel, topology, crash, omit, reduceat, chunks in (
                # the omission's round gathers through the keep mask
                ("column", RingTopology(1200), True, True, False, (1, 2, 3, 8, 100)),
                # a reduceat range holds at least one whole segment (in-degree <= 4)
                ("reduceat", TreeTopology(200), True, True, True, (8, 100)),
                ("slices", RingTopology(1200), False, False, False, (1, 2, 3, 8, 100)),
                # a dead sender alone keeps the slices, masked by send_ok
                ("slices+crash", RingTopology(1200), True, False, False, (1, 2, 3, 8, 100)),
            )
            for chunk in chunks
        ],
    )
    def test_no_temporary_exceeds_the_chunk_budget(
        self, allocations, topology, crash, omit, reduceat, chunk
    ):
        chunked = self._run(topology, crash, omit, chunk=chunk)
        assert allocations and max(cells for _call, cells in allocations) <= chunk
        calls = {call for call, _cells in allocations}
        assert ("reduceat" in calls) == reduceat
        assert ("where" in calls) == (crash or omit)  # a fault masks the wire
        del allocations[:]
        plain = self._run(topology, crash, omit)
        assert max(cells for _call, cells in allocations) > chunk
        assert [chunked.final_clocks(lane) for lane in range(self.LANES)] == [
            plain.final_clocks(lane) for lane in range(self.LANES)
        ]

    @pytest.mark.parametrize("backend", ["python", "numpy"])
    @pytest.mark.parametrize(
        "protocol", [MinUnison(), BoundedUnison(n=6)], ids=lambda p: p.name
    )
    def test_csr_twins_reach_the_wire_only_through_reduce(self, backend, protocol):
        class ReduceOnly:
            """All a CSR twin may know of the wire."""

            __slots__ = ("_reduce",)

            def __init__(self, wire):
                self._reduce = wire.reduce

            def reduce(self, column, op):
                return self._reduce(column, op)

        n = 6
        twin = as_array_protocol(protocol)
        graph = _CsrGraph(*receiver_columns(RingTopology(n), 1), backend)
        wire = RoundWire(backend, 1, n)
        wire.graph = graph
        states = {pid: {CLOCK_KEY: (5 * pid) % 7 - 2} for pid in range(n)}
        whole, narrow = (twin.initial_states(n, 1, backend) for _ in range(2))
        for state, seen in ((whole, wire), (narrow, ReduceOnly(wire))):
            twin.load_states(state, 0, states)
            twin.step(state, seen)
        assert twin.read_states(narrow, 0) == twin.read_states(whole, 0)
        assert twin.read_states(narrow, 0) == [
            protocol.update(
                pid,
                states[pid],
                [
                    Message(q, pid, 1, protocol.send(q, states[q]))
                    for q in sorted({(pid - 1) % n, pid, (pid + 1) % n})
                ],
            )
            for pid in range(n)
        ]


class TestColumnSetUp:
    """``run_array`` from a systemic failure, above the block threshold."""

    N = BLOCK_MIN_COUNT + 176

    @pytest.fixture
    def calls(self, monkeypatch):
        """Names of the per-process bridges an array call went through."""
        log = []

        def spy(owner, name):
            real = getattr(owner, name)

            def call(*args, **kwargs):
                log.append(name)
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, name, call)

        # the classes that define each bridge: the clock twin derived from
        # every declaration, and the bridge every dense twin shares, which
        # inherits ``load_columns``
        for owner in (ArrayClock, _DenseTwin):
            spy(owner, "read_states")
            spy(owner, "load_states")
        spy(ArrayClock, "load_columns")
        spy(ArrayProtocol, "load_columns")
        spy(_StaticTopology, "receivers")
        spy(ClockProtocol, "arbitrary_state")  # where every declaration's is derived
        return log

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize(
        "protocol",
        [MinUnison(), RoundAgreementProtocol(), BoundedUnison(n=N)],
        ids=lambda p: p.name,
    )
    def test_a_clock_twin_never_touches_a_dict(self, calls, backend, protocol):
        n = self.N
        plans = [
            FaultPlan(
                crashes={7: 2.0},
                initial_corruption=RandomCorruption(seed=lane),
                mid_corruptions={3.0: RandomCorruption(seed=9, victims=frozenset(range(5, n, 3)))},
            )
            for lane in range(2)
        ]
        result = run_array(
            protocol, n, 4, fault_plans=plans, topology=RingTopology(n), backend=backend
        )
        assert calls == ["load_columns"] * 4  # two lanes, initial and mid-run
        assert result.crashed == [frozenset({7})] * 2

    def test_an_explicit_plan_still_takes_the_dict_bridge(self, calls):
        n = self.N
        plan = FaultPlan(initial_corruption=ClockSkewCorruption({3: 40}))
        run_array(MinUnison(), n, 2, fault_plans=[plan], topology=RingTopology(n))
        assert calls == ["read_states", "load_states"]

    @pytest.mark.skipif(not has_numpy(), reason="dense twins run on NumPy only")
    def test_a_dense_twin_still_takes_the_dict_bridge(self, calls):
        n = 6
        protocol = CanonicalRunner(FloodMinConsensus(f=1, proposals=list(range(n))))
        plan = FaultPlan(initial_corruption=RandomCorruption(seed=2))
        run_array(protocol, n, 3, fault_plans=[plan], backend="numpy")
        assert calls == ["read_states", "load_states"]


class TestQuietLanes:
    """A lane whose round is quiet and whose processes all live keeps no
    ledger (``run_sync``'s rule), and the lanes of one call share one
    all-alive order and view until a crash rebinds a lane's own."""

    @pytest.fixture
    def ledgers(self, monkeypatch):
        """``(lane's Liveness, round)`` of every ledger an array call builds."""
        log = []

        class Logged(RoundLedger):
            __slots__ = ()

            def __init__(self, plan, n, live, round_no, *args):
                log.append((live, round_no))
                super().__init__(plan, n, live, round_no, *args)

        monkeypatch.setattr(array_engine, "RoundLedger", Logged)
        return log

    @pytest.mark.parametrize("record", [False, True], ids=["streaming", "recorded"])
    @pytest.mark.parametrize(
        "protocol,backend",
        [
            pytest.param(protocol, backend, id=f"{kind}-{backend}")
            for kind, protocol in (
                ("csr", MinUnison),
                (
                    "dense",
                    lambda: CanonicalRunner(
                        FloodMinConsensus(f=1, proposals=[3, 1, 4, 1, 5, 9, 2, 6])
                    ),
                ),
            )
            for backend in BACKENDS
            if kind == "csr" or backend == "numpy"  # a dense twin runs on NumPy only
        ],
    )
    def test_only_a_lane_with_a_fault_or_a_dead_process_keeps_a_ledger(
        self, ledgers, protocol, backend, record
    ):
        n, rounds = 8, 4

        def plans():
            return [
                FaultPlan(initial_corruption=RandomCorruption(seed=1)),
                FaultPlan(crashes={3: 2.0}, initial_corruption=RandomCorruption(seed=2)),
            ]

        result = run_array(
            protocol(), n, rounds, fault_plans=plans(), topology=RingTopology(n),
            backend=backend, record_history=record,
        )
        kept = [(bool(live.crashed), round_no) for live, round_no in ledgers]
        if record:
            assert kept == [(lane, r) for r in range(1, rounds + 1) for lane in (False, True)]
        else:  # lane 0 never, lane 1 from its crash on
            assert kept == [(True, r) for r in range(2, rounds + 1)]
        for lane, plan in enumerate(plans()):
            sync = run_sync(
                protocol(), n, rounds, fault_plan=plan, topology=RingTopology(n),
                record_history=False,
            )
            assert result.faulty[lane] == sync.faulty
            assert result.final_states(lane) == sync.final_states
        assert result.crashed == [frozenset(), frozenset({3})]

    def test_lanes_share_one_all_alive_view_until_a_crash(self):
        first, second = Liveness.batch(5, 2)
        assert first.alive_order is second.alive_order
        assert first.alive_view is second.alive_view
        assert first.crashed is not second.crashed
        second.crash([2])
        assert (first.alive_order, first.alive_view) == ([0, 1, 2, 3, 4], frozenset(range(5)))
        assert (second.alive_order, second.alive_view) == ([0, 1, 3, 4], frozenset({0, 1, 3, 4}))
        assert first.crashed == set() and first.faulty == frozenset()


def _load_compare():
    path = pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "compare.py"
    spec = importlib.util.spec_from_file_location("bench_compare", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _doc(**rows_by_name):
    return {
        "experiment_id": "MICRO",
        "headers": ["benchmark", "per_call_us", "speedup_vs_ref"],
        "rows": [
            {"benchmark": name, **fields} for name, fields in rows_by_name.items()
        ],
    }


class TestCompare:
    compare_mod = _load_compare()

    def test_identical_reports_pass(self):
        doc = _doc(hot={"per_call_us": 10.0, "speedup_vs_ref": 50.0})
        assert self.compare_mod.compare(doc, doc, tolerance=0.25) == []

    def test_slower_time_is_a_regression(self):
        base = _doc(hot={"per_call_us": 10.0})
        fresh = _doc(hot={"per_call_us": 14.0})
        problems = self.compare_mod.compare(base, fresh, tolerance=0.25)
        assert problems and "regressed" in problems[0]

    def test_faster_time_always_passes(self):
        base = _doc(hot={"per_call_us": 10.0})
        fresh = _doc(hot={"per_call_us": 1.0})
        assert self.compare_mod.compare(base, fresh, tolerance=0.25) == []

    def test_lower_speedup_is_a_regression(self):
        base = _doc(hot={"speedup_vs_ref": 50.0})
        fresh = _doc(hot={"speedup_vs_ref": 20.0})
        problems = self.compare_mod.compare(
            base, fresh, tolerance=0.25, fields=["speedup_vs_ref"]
        )
        assert problems and "regressed" in problems[0]

    def test_higher_speedup_passes(self):
        base = _doc(hot={"speedup_vs_ref": 50.0})
        fresh = _doc(hot={"speedup_vs_ref": 500.0})
        assert (
            self.compare_mod.compare(
                base, fresh, tolerance=0.25, fields=["speedup_vs_ref"]
            )
            == []
        )

    def test_missing_row_is_structural(self):
        base = _doc(hot={"per_call_us": 10.0}, cold={"per_call_us": 20.0})
        fresh = _doc(hot={"per_call_us": 10.0})
        problems = self.compare_mod.compare(base, fresh, tolerance=0.25)
        assert problems and "missing" in problems[0]

    def test_experiment_mismatch(self):
        base = _doc(hot={"per_call_us": 10.0})
        fresh = dict(_doc(hot={"per_call_us": 10.0}), experiment_id="E2E")
        problems = self.compare_mod.compare(base, fresh, tolerance=0.25)
        assert problems and "mismatch" in problems[0]
