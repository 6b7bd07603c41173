"""Unit tests for the fault-plan space: enumeration, dedup, round-trips."""

import json

import pytest

from repro.explore.space import (
    OmissionSpec,
    PlanSpace,
    PlanSpec,
    canonical_key,
    dedupe,
)
from repro.workloads.spaces import FIG1_SPACE, THM1_SPACE


def small_space(**overrides):
    kwargs = dict(
        n=3,
        rounds=6,
        crash_rounds=(2,),
        max_crashes=1,
        omission_windows=((1, 3),),
        omission_kinds=("general",),
        max_omissions=1,
        skew_values=(5,),
        max_skews=1,
    )
    kwargs.update(overrides)
    return PlanSpace(**kwargs)


class TestPlanSpecValidation:
    def test_rejects_out_of_range_pid(self):
        with pytest.raises(ValueError):
            PlanSpec(n=2, rounds=4, crashes=((5, 1),))

    def test_rejects_backwards_omission_window(self):
        with pytest.raises(ValueError):
            PlanSpec(
                n=2,
                rounds=4,
                omissions=(OmissionSpec(pid=0, kind="general", first_round=3, last_round=2),),
            )

    def test_rejects_unknown_omission_kind(self):
        with pytest.raises(ValueError):
            PlanSpec(
                n=2,
                rounds=4,
                omissions=(OmissionSpec(pid=0, kind="lossy", first_round=1, last_round=2),),
            )

    def test_rejects_out_of_range_omission_targets(self):
        data = PlanSpec(
            n=3,
            rounds=4,
            omissions=(OmissionSpec(pid=0, kind="send", first_round=1, last_round=2),),
        ).to_jsonable()
        for targets in ([5], [-1], [1, 3]):
            data["omissions"][0]["targets"] = targets
            with pytest.raises(ValueError, match="omission target"):
                PlanSpec.from_jsonable(data)

    def test_jsonable_round_trip(self):
        spec = PlanSpec(
            n=4,
            rounds=9,
            seed=77,
            crashes=((1, 2),),
            omissions=(OmissionSpec(pid=2, kind="send", first_round=1, last_round=3),),
            clock_skews=((0, 11),),
            random_corruption=True,
            corruption_rounds=(4,),
            gst=2,
        )
        wire = json.loads(json.dumps(spec.to_jsonable()))
        assert PlanSpec.from_jsonable(wire) == spec

    def test_fault_plan_builds(self):
        spec = PlanSpec(
            n=3,
            rounds=6,
            crashes=((2, 3),),
            omissions=(OmissionSpec(pid=0, kind="receive", first_round=1, last_round=2),),
            clock_skews=((1, 4),),
        )
        plan = spec.fault_plan()
        assert plan is not None


class TestEnumeration:
    def test_deterministic(self):
        space = small_space()
        first = list(space.enumerate_plans())
        second = list(space.enumerate_plans())
        assert first == second

    def test_thm1_space_size(self):
        # The smoke budget (96) must keep this space exhaustive.
        assert len(list(THM1_SPACE.enumerate_plans())) == 77

    def test_no_all_faulty_plans(self):
        for spec in small_space().enumerate_plans():
            touched = {pid for pid, _ in spec.crashes}
            touched |= {om.pid for om in spec.omissions}
            assert len(touched) < spec.n

    def test_sampling_deterministic_in_seed(self):
        space = FIG1_SPACE
        a = list(space.sample_plans(7, 20))
        b = list(space.sample_plans(7, 20))
        c = list(space.sample_plans(8, 20))
        assert a == b
        assert a != c

    def test_sampled_plans_satisfy_validation(self):
        # Construction validates; just force the generator.
        assert len(list(FIG1_SPACE.sample_plans(0, 50))) == 50


class TestCanonicalization:
    def test_relabeling_collapses_under_symmetry(self):
        base = dict(n=3, rounds=5)
        a = PlanSpec(crashes=((0, 2),), **base)
        b = PlanSpec(crashes=((2, 2),), **base)
        assert canonical_key(a, symmetric=True) == canonical_key(b, symmetric=True)
        kept, dropped = dedupe([a, b], symmetric=True)
        assert len(kept) == 1 and dropped == 1

    def test_asymmetric_targets_keep_both(self):
        base = dict(n=3, rounds=5)
        a = PlanSpec(crashes=((0, 2),), **base)
        b = PlanSpec(crashes=((2, 2),), **base)
        kept, dropped = dedupe([a, b], symmetric=False)
        assert len(kept) == 2 and dropped == 0

    def test_everyone_and_nobody_targets_are_distinct(self):
        # targets=None omits to every peer, targets=() to none: two
        # different campaigns, so neither dedupe mode may merge them.
        a, b = (
            PlanSpec(
                n=3,
                rounds=5,
                omissions=(
                    OmissionSpec(pid=0, kind="send", first_round=1, last_round=2, targets=t),
                ),
            )
            for t in (None, ())
        )
        assert a.sort_key() != b.sort_key()
        for symmetric in (False, True):
            assert dedupe([a, b], symmetric=symmetric) == ([a, b], 0)

    def test_seeded_corruption_is_never_collapsed(self):
        # Random corruption draws per-pid values, so relabeling is not
        # a symmetry of the *instance* even if it is one of the spec.
        base = dict(n=3, rounds=5, random_corruption=True)
        a = PlanSpec(crashes=((0, 2),), **base)
        b = PlanSpec(crashes=((2, 2),), **base)
        kept, dropped = dedupe([a, b], symmetric=True)
        assert len(kept) == 2 and dropped == 0

    def test_dedupe_keeps_first_representative_order(self):
        specs = list(small_space().enumerate_plans())
        kept, dropped = dedupe(specs, symmetric=True)
        assert dropped == len(specs) - len(kept)
        # Representatives appear in their original relative order.
        positions = [specs.index(spec) for spec in kept]
        assert positions == sorted(positions)


class TestChurnSpecs:
    def test_round_trip_preserves_churn(self):
        from repro.explore.space import ChurnSpec

        spec = PlanSpec(
            n=4,
            rounds=8,
            churn=(ChurnSpec(pid=1, leave_round=2, rejoin_round=5),),
        )
        data = json.loads(json.dumps(spec.to_jsonable()))
        assert PlanSpec.from_jsonable(data) == spec

    def test_churn_free_json_has_no_churn_key(self):
        # Artifacts embed spec JSON verbatim: churn-free specs must
        # serialize byte-identically to the pre-topology schema.
        assert "churn" not in PlanSpec(n=4, rounds=8).to_jsonable()

    def test_validation(self):
        from repro.explore.space import ChurnSpec

        with pytest.raises(ValueError):
            PlanSpec(n=3, rounds=6, churn=(ChurnSpec(pid=3, leave_round=2),))
        with pytest.raises(ValueError):
            PlanSpec(
                n=3,
                rounds=6,
                churn=(
                    ChurnSpec(pid=1, leave_round=2),
                    ChurnSpec(pid=1, leave_round=4),
                ),
            )
        with pytest.raises(ValueError):
            ChurnSpec(pid=0, leave_round=3, rejoin_round=2)

    def test_fault_plan_compiles_schedule(self):
        from repro.explore.space import ChurnSpec

        spec = PlanSpec(
            n=4,
            rounds=8,
            churn=(
                ChurnSpec(pid=1, leave_round=2, rejoin_round=5),
                ChurnSpec(pid=2, leave_round=3),
            ),
        )
        schedule = spec.fault_plan().churn
        assert [(e.round_no, e.kind, e.pids) for e in schedule.events] == [
            (2, "leave", (1,)),
            (3, "leave", (2,)),
            (5, "join", (1,)),
        ]
        assert PlanSpec(n=4, rounds=8).fault_plan().churn is None

    def test_churn_enumeration_and_symmetry(self):
        space = PlanSpace(n=3, rounds=6, churn_windows=((2, 4),), max_churn=1)
        plans = list(space.enumerate_plans())
        churny = [p for p in plans if p.churn]
        assert len(churny) == 3  # one per pid
        kept, dropped = dedupe(churny, symmetric=True)
        assert len(kept) == 1 and dropped == 2

    def test_churn_sampling_is_deterministic(self):
        space = PlanSpace(
            n=4, rounds=8, churn_windows=((2, 5), (3, None)), max_churn=2
        )
        a = list(space.sample_plans(seed=9, count=12))
        assert a == list(space.sample_plans(seed=9, count=12))
        assert any(p.churn for p in a)
