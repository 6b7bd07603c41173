"""Unit tests for the SMT engine: capability gating + pure-Python twins.

Everything above the ``z3 = pytest.importorskip`` line runs in every
environment — it pins the import-safety contract and the pure-Python
model twins against the real engine.  The solver tests at the bottom
run only where the ``smt`` extra is installed (CI's ``verify-smt`` leg).
"""

import pytest

from repro.core.rounds import RoundAgreementProtocol
from repro.explore.space import ChurnSpec, OmissionSpec, PlanSpec
from repro.kernel.topology import RingTopology
from repro.sync.engine import run_sync
from repro.verify import verify
from repro.verify.smt import (
    SMT_TARGETS,
    SmtUnavailableError,
    SmtUnsupportedError,
    concrete_clocks,
    delivered_senders,
    smt_available,
)
from repro.workloads.spaces import THM1_SPACE

TWIN_SPECS = [
    PlanSpec(n=3, rounds=6),
    PlanSpec(n=3, rounds=6, crashes=((1, 3),)),
    PlanSpec(n=2, rounds=5, crashes=((0, 1),)),
    PlanSpec(
        n=3,
        rounds=6,
        omissions=(OmissionSpec(pid=0, kind="send", first_round=2, last_round=4),),
    ),
    PlanSpec(
        n=3,
        rounds=6,
        omissions=(OmissionSpec(pid=2, kind="receive", first_round=1, last_round=6),),
    ),
    PlanSpec(
        n=2,
        rounds=7,
        omissions=(OmissionSpec(pid=0, kind="general", first_round=1, last_round=3),),
        clock_skews=((0, 2),),
    ),
    PlanSpec(n=4, rounds=5, clock_skews=((1, 9), (3, 4))),
]


# -- capability gating (runs without z3) -------------------------------------


class TestCapabilityGating:
    def test_module_imports_without_z3(self):
        # Reaching this line at all proves import-safety; the flag is
        # honest either way.
        assert smt_available() in (True, False)

    def test_unavailable_error_mentions_the_extra(self):
        message = str(SmtUnavailableError())
        assert "repro[smt]" in message
        assert "explicit" in message

    def test_smt_verify_degrades_structurally_without_z3(self):
        if smt_available():
            pytest.skip("z3 installed: the capability error cannot fire")
        with pytest.raises(SmtUnavailableError):
            verify("fig1", engine="smt")

    def test_unsupported_targets_rejected_before_solving(self):
        assert set(SMT_TARGETS) == {"fig1", "thm1"}
        with pytest.raises(SmtUnsupportedError):
            verify("fig3", engine="smt")


# -- pure-Python twins vs the real engine (runs without z3) ------------------


def engine_clock_rows(spec):
    """rows[r][pid] from an actual run_sync, clock field only."""
    result = run_sync(
        RoundAgreementProtocol(),
        n=spec.n,
        rounds=spec.rounds,
        fault_plan=spec.fault_plan(),
    )
    history = result.history
    return {
        r: {
            pid: clock
            for pid, clock in history.clocks(r).items()
            if clock is not None
        }
        for r in range(history.first_round, history.first_round + len(history))
    }


def engine_senders(spec, topology=None):
    """senders[r][i] read off an actual run_sync history."""
    history = run_sync(
        RoundAgreementProtocol(),
        n=spec.n,
        rounds=spec.rounds,
        fault_plan=spec.fault_plan(),
        topology=topology,
    ).history
    return {
        r: {
            record.pid: frozenset(m.sender for m in record.delivered)
            for record in history.round(r).records
            if not record.crashed
        }
        for r in range(1, spec.rounds)
    }


#: What the twin inherits from the kernel's ledger: topologies and churn.
INHERITED_SPECS = [
    (
        PlanSpec(
            n=5,
            rounds=6,
            crashes=((3, 3),),
            omissions=(
                # 2 is no ring neighbour of 0: that leg drops nothing
                OmissionSpec(pid=0, kind="send", first_round=2, last_round=5, targets=(1, 2)),
                OmissionSpec(pid=2, kind="receive", first_round=1, last_round=4),
            ),
        ),
        RingTopology(5),
    ),
    (
        PlanSpec(
            n=4,
            rounds=7,
            crashes=((0, 4),),
            omissions=(OmissionSpec(pid=1, kind="general", first_round=2, last_round=3),),
            churn=(ChurnSpec(pid=2, leave_round=2, rejoin_round=5),),
        ),
        None,
    ),
    (PlanSpec(n=5, rounds=6, churn=(ChurnSpec(pid=4, leave_round=3),)), RingTopology(5)),
]


class TestModelTwins:
    @pytest.mark.parametrize("spec,topology", INHERITED_SPECS)
    def test_delivered_senders_inherit_topologies_and_churn(self, spec, topology):
        assert delivered_senders(spec, topology) == engine_senders(spec, topology)

    @pytest.mark.parametrize("spec", TWIN_SPECS, ids=lambda s: repr(s.to_jsonable()))
    def test_concrete_clocks_match_run_sync(self, spec):
        assert concrete_clocks(spec) == engine_clock_rows(spec)

    def test_twins_match_across_the_thm1_space(self):
        for spec in THM1_SPACE.enumerate_plans():
            if spec.corruption_rounds or spec.random_corruption:
                continue  # seeded draws have no closed-form start row
            assert concrete_clocks(spec) == engine_clock_rows(spec)

    def test_delivered_senders_excludes_crashed_processes(self):
        spec = PlanSpec(n=3, rounds=5, crashes=((1, 2),))
        senders = delivered_senders(spec)
        # pid 1's last row is 2: it neither receives row 3+ nor feeds it.
        assert 1 not in senders[2]
        assert all(1 not in arrived for arrived in senders[2].values())
        # Round 1 it is still a live sender and receiver.
        assert 1 in senders[1]
        assert 1 in senders[1][0]

    def test_self_delivery_survives_general_omission(self):
        spec = PlanSpec(
            n=2,
            rounds=4,
            omissions=(
                OmissionSpec(pid=0, kind="general", first_round=1, last_round=4),
            ),
        )
        senders = delivered_senders(spec)
        for r in senders:
            assert 0 in senders[r][0]  # self-delivery never omitted
            assert 0 not in senders[r][1]  # send leg dropped
            assert 1 not in senders[r][0]  # receive leg dropped


# -- solver tests (only with the smt extra) ----------------------------------


@pytest.mark.skipif(not smt_available(), reason="requires the smt extra (z3-solver)")
class TestSolver:
    def test_fig1_smoke_space_proved_and_engines_agree(self):
        from repro.verify.targets import get_verify_target

        space = get_verify_target("fig1").smoke_space
        explicit = verify("fig1", space=space, engine="explicit")
        smt = verify("fig1", space=space, engine="smt")
        assert explicit.verdict == smt.verdict == "proved"
        assert smt.examined == explicit.examined

    def test_thm1_refuted_with_concrete_replayable_counterexample(self):
        from repro.verify.targets import confirm_verdict, get_verify_target

        result = verify("thm1", engine="smt")
        assert result.refuted
        assert result.counterexample is not None
        if not result.counterexample_clocks:
            target = get_verify_target("thm1")
            rerun = confirm_verdict(target, result.at, result.counterexample)
            assert not rerun.holds
