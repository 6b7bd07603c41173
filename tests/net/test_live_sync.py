"""Live synchronous runs: parity with the engine, pacing, guard rails."""

import pytest

from repro.core.rounds import RoundAgreementProtocol
from repro.histories.history import CLOCK_KEY
from repro.kernel.faults import FaultPlan, WireFaults
from repro.net.cluster import LiveDeadlineExceeded, run_live_sync
from repro.net.conformance import histories_equal
from repro.sync.adversary import (
    FaultMode,
    RandomAdversary,
    RoundFaultPlan,
    ScriptedAdversary,
)
from repro.sync.corruption import RandomCorruption
from repro.sync.engine import ProtocolError, run_sync
from repro.sync.protocol import SyncProtocol

TRANSPORTS = ["inproc", "tcp"]


def scripted_plan():
    """Crash + omissions + a two-faced forgery, pinned per round."""
    script = {
        2: RoundFaultPlan(send_omissions={0: frozenset({1, 2})}),
        3: RoundFaultPlan(
            crashes={3: frozenset({0})},
            receive_omissions={1: frozenset({2})},
        ),
        5: RoundFaultPlan(forgeries={0: {2: lambda p: p + 100}}),
    }
    return FaultPlan(omissions=ScriptedAdversary(f=3, script=script))


def random_plan(n=4, wire=None):
    return FaultPlan(
        omissions=RandomAdversary(
            n=n, f=1, mode=FaultMode.GENERAL_OMISSION, rate=0.4, seed=11
        ),
        initial_corruption=RandomCorruption(seed=5),
        mid_corruptions={6.0: RandomCorruption(seed=13)},
        wire=wire,
    )


@pytest.mark.parametrize("transport", TRANSPORTS)
class TestEngineParity:
    def test_scripted_scenario_history_identical(self, transport):
        sim = run_sync(
            RoundAgreementProtocol(), n=4, rounds=8, fault_plan=scripted_plan()
        )
        live = run_live_sync(
            RoundAgreementProtocol(),
            4,
            8,
            fault_plan=scripted_plan(),
            transport=transport,
            deadline=20,
        )
        assert histories_equal(sim.history, live.history)
        assert live.faulty == sim.faulty
        assert live.final_clocks() == sim.final_clocks()

    def test_random_faults_and_corruption_history_identical(self, transport):
        sim = run_sync(
            RoundAgreementProtocol(), n=4, rounds=10, fault_plan=random_plan()
        )
        live = run_live_sync(
            RoundAgreementProtocol(),
            4,
            10,
            fault_plan=random_plan(),
            transport=transport,
            deadline=20,
        )
        assert histories_equal(sim.history, live.history)

    def test_wire_faults_leave_history_untouched(self, transport):
        """Delay + duplication below the round layer: invisible above it."""
        base = random_plan()
        wired = random_plan(
            wire=WireFaults(delay=(0.0, 0.003), duplication=0.5, seed=3)
        )
        clean = run_live_sync(
            RoundAgreementProtocol(),
            4,
            8,
            fault_plan=base,
            transport=transport,
            deadline=20,
        )
        noisy = run_live_sync(
            RoundAgreementProtocol(),
            4,
            8,
            fault_plan=wired,
            transport=transport,
            deadline=20,
        )
        assert histories_equal(clean.history, noisy.history)

    def test_fault_free_run(self, transport):
        sim = run_sync(RoundAgreementProtocol(), n=3, rounds=5)
        live = run_live_sync(
            RoundAgreementProtocol(), 3, 5, transport=transport, deadline=20
        )
        assert histories_equal(sim.history, live.history)
        assert live.faulty == frozenset()


class TestPacingAndGuards:
    def test_timeout_pacing_still_agrees_on_fast_wire(self):
        # With no injected delay every copy lands well inside the
        # window, so timeout pacing reproduces the lossless history.
        sim = run_sync(RoundAgreementProtocol(), n=3, rounds=4)
        live = run_live_sync(
            RoundAgreementProtocol(),
            3,
            4,
            pacing="timeout",
            round_timeout=0.05,
            deadline=20,
        )
        assert histories_equal(sim.history, live.history)

    def test_timeout_pacing_drops_late_copies(self):
        plan = FaultPlan(wire=WireFaults(delay=(0.2, 0.25), duplication=0.0, seed=1))
        live = run_live_sync(
            RoundAgreementProtocol(),
            3,
            3,
            fault_plan=plan,
            pacing="timeout",
            round_timeout=0.01,
            deadline=20,
        )
        # Every cross-wire copy exceeded the window: only stale drops.
        for round_history in live.history:
            for record in round_history.records:
                assert record.delivered == ()

    def test_stop_condition_short_circuits(self):
        live = run_live_sync(
            RoundAgreementProtocol(),
            3,
            50,
            stop_condition=lambda states, round_no: round_no >= 4,
            deadline=20,
        )
        assert live.stopped_early
        assert live.executed_rounds == 4

    def test_deadline_exceeded_raises(self):
        with pytest.raises(LiveDeadlineExceeded, match="deadline"):
            run_live_sync(
                RoundAgreementProtocol(),
                3,
                200,
                fault_plan=FaultPlan(
                    wire=WireFaults(delay=(0.05, 0.06), duplication=0.0, seed=1)
                ),
                deadline=0.2,
            )

    def test_bad_pacing_rejected(self):
        with pytest.raises(ValueError, match="unknown pacing"):
            run_live_sync(RoundAgreementProtocol(), 3, 2, pacing="vibes")

    def test_unknown_transport_rejected(self):
        with pytest.raises(ValueError, match="unknown transport"):
            run_live_sync(RoundAgreementProtocol(), 3, 2, transport="carrier-pigeon")

    def test_protocol_must_keep_round_variable(self):
        class Broken(SyncProtocol):
            name = "broken"

            def initial_state(self, pid, n):
                return {CLOCK_KEY: 1}

            def send(self, pid, state):
                return "x"

            def update(self, pid, state, delivered):
                return {"no_clock": True}

        with pytest.raises(ProtocolError, match="round variable") as live:
            run_live_sync(Broken(), 3, 2, deadline=20)
        # one update phase behind both loops: the two cannot word it apart
        with pytest.raises(ProtocolError) as simulated:
            run_sync(Broken(), 3, 2)
        assert str(live.value) == str(simulated.value)
