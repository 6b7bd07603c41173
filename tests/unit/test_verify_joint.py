"""Two judges, one walk: the joint judgement changes no answer.

``repro.verify.targets.judge_plan`` puts a plan before the streaming
checker and the confirm oracle off a single walk, and the walk steps a
round only when the table of filed rounds lacks it
(:mod:`repro.verify.walk`).  These tests pin down what that sharing
must not touch:

- both verdicts equal what the two single-judge functions return, field
  for field, on every plan of the curated spaces (and at a non-default
  stabilization time where the target takes one);
- walked through one table, as ``explicit_verify`` walks a space, every
  plan's verdicts, frontier digests and recorded history equal a
  ``run_sync`` of that plan — mid-run corruption included, where the
  streaming clock checker drops the fault round from its *score* but
  must keep it in the *history*;
- the cross-check is still a cross-check: blind either judge and the
  other one's verdicts surface as mismatches.
"""

from dataclasses import replace

import pytest

import repro.cache
from repro.analysis.stabilization import WindowMeasure
from repro.explore.targets import SYNC_CLAIMS
from repro.verify import VERIFY_TARGETS, verify
from repro.verify.explicit import FrontierObserver, enumerate_space
from repro.verify.targets import confirm_verdict, judge_plan, streaming_verdict
from repro.verify.walk import shared_table
from repro.workloads.spaces import VERIFY_FIG1_SPACE

#: The fig1 plans with a systemic failure in round 3 (one omission window).
FIG1_MID_RUN_CORRUPTION = replace(
    VERIFY_FIG1_SPACE,
    omission_windows=((2, 4),),
    corruption_choices=(True,),
    corruption_round_choices=((3,),),
)


def _case(name, at=None, space=None):
    target = VERIFY_TARGETS[name]
    space = space or target.smoke_space or target.space
    return pytest.param(
        name,
        target.default_at if at is None else at,
        space,
        id=f"{name}@{'default' if at is None else at}-{space.n}x{space.rounds}",
    )


CASES = [
    _case("fig1"),
    _case("fig1", space=FIG1_MID_RUN_CORRUPTION),
    _case("fig1", at=0),
    _case("fig1", at=2, space=FIG1_MID_RUN_CORRUPTION),
    _case("fig3"),
    _case("unison"),
    _case("thm1"),
    _case("thm1", at=2),
    _case("thm2"),
]


def _plans(name, space):
    specs, _raw, _dropped = enumerate_space(space, VERIFY_TARGETS[name].symmetric)
    assert specs
    return specs


@pytest.mark.parametrize("name, at, space", CASES)
def test_joint_judgement_equals_the_two_single_judges(name, at, space):
    target = VERIFY_TARGETS[name]
    for spec in _plans(name, space):
        joint_frontier, plain_frontier = FrontierObserver(), FrontierObserver()
        joint = judge_plan(target, at, spec, joint_frontier)
        apart = (
            streaming_verdict(target, at, spec, plain_frontier),
            confirm_verdict(target, at, spec),
        )
        assert joint == apart  # checker names, violations, details
        assert joint_frontier.digests == plain_frontier.digests
        assert len(joint_frontier.digests) == spec.rounds + 1


def _spy_on_the_judge(monkeypatch, name):
    """Every history ``name``'s confirm judge reads, in order."""
    claim = SYNC_CLAIMS[name]
    seen = []

    def spy(history, spec, at):
        seen.append(history)
        return claim.judge(history, spec, at)

    monkeypatch.setitem(SYNC_CLAIMS, name, replace(claim, judge=spy))
    return seen


@pytest.mark.parametrize("name, at, space", CASES)
def test_confirm_judge_reads_the_recorded_history(name, at, space, monkeypatch):
    claim = SYNC_CLAIMS[name]
    seen = _spy_on_the_judge(monkeypatch, name)
    specs = _plans(name, space)
    with shared_table():
        for spec in specs:
            judge_plan(VERIFY_TARGETS[name], at, spec)
            assert list(seen[-1]) == list(claim.run(spec).history)
    assert len(seen) == len(specs)


def test_mid_run_corruption_plans_are_in_the_cases():
    specs = _plans("fig1", FIG1_MID_RUN_CORRUPTION)
    assert all(spec.corruption_rounds == (3,) for spec in specs)
    unison = _plans("unison", VERIFY_TARGETS["unison"].space)
    assert any(spec.corruption_rounds for spec in unison)


# -- the walk against a run_sync per plan -------------------------------------


def _run_sync_reference(claim, spec, at):
    """The joint judgement as it was before the walk: one ``run_sync`` of
    the plan with the checker and a frontier riding it, and the confirm
    judge on that run's recorded history."""
    frontier = FrontierObserver()
    checker = None if claim.checker is None else claim.checker(at)
    riders = (frontier,) if checker is None else (checker, frontier)
    history = claim.run(spec, riders).history
    confirm = claim.judge(history, spec, at)
    streaming = confirm if checker is None else checker.verdict()
    return streaming, confirm, frontier.digests, history


def _full(name, at=None):
    """Every plan of ``name``'s full space (ids end in ``-full``)."""
    case = _case(name, at, VERIFY_TARGETS[name].space)
    return pytest.param(*case.values, id=f"{case.id}-full")


WALK_CASES = [
    _full("fig1"),
    _full("fig1", at=0),
    _full("fig1", at=2),
    _case("fig1"),
    _case("fig1", at=0),
    _case("fig1", space=FIG1_MID_RUN_CORRUPTION),
    _case("fig1", at=2, space=FIG1_MID_RUN_CORRUPTION),
    _full("fig3"),
    _full("unison"),
    _full("thm1"),
    _full("thm1", at=2),
    _full("thm2"),
]


@pytest.mark.parametrize("name, at, space", WALK_CASES)
def test_walk_through_one_table_equals_a_run_sync_per_plan(name, at, space, monkeypatch):
    claim = SYNC_CLAIMS[name]
    seen = _spy_on_the_judge(monkeypatch, name)
    with shared_table() as table:
        for spec in _plans(name, space):
            frontier = FrontierObserver()
            walked = judge_plan(VERIFY_TARGETS[name], at, spec, frontier)
            streaming, confirm, digests, history = _run_sync_reference(claim, spec, at)
            assert walked == (streaming, confirm)
            assert frontier.digests == digests
            assert list(seen[-1]) == list(history)
        # The table did its job: most rounds were filed, not stepped.
        assert table.stepped < sum(spec.rounds for spec in _plans(name, space))


# -- the cross-check survived the merge --------------------------------------


@pytest.fixture
def uncached():
    """A blinded judge must not be answered from the honest run's cache
    entries (the per-test cache fixture restores the default afterwards)."""
    repro.cache.disable()


def _fig1_at_0():
    return verify("fig1", at=0, space=VERIFY_TARGETS["fig1"].smoke_space, jobs=1)


def test_blinded_streaming_checker_is_caught_by_the_confirm_judge(
    uncached, monkeypatch
):
    honest = _fig1_at_0()
    assert honest.refuted and honest.violating and not honest.mismatches

    monkeypatch.setattr(WindowMeasure, "holds_at", lambda self, r: True)
    blinded = _fig1_at_0()
    assert blinded.refuted  # the verdict of record does not move
    assert blinded.counterexample == honest.counterexample
    assert blinded.counterexample_verdict == honest.counterexample_verdict
    assert blinded.violating == honest.violating
    assert len(blinded.mismatches) == honest.violating  # every violating plan
    assert blinded.mismatches[0][0] == honest.counterexample
    for _spec, streaming, confirm in blinded.mismatches:
        assert streaming.holds and not confirm.holds


def test_blinded_confirm_judge_is_caught_by_the_streaming_checker(
    uncached, monkeypatch
):
    honest = _fig1_at_0()

    class Holds:
        holds, violations = True, ()

    # explore.targets binds the name at import; patch it where it is used.
    monkeypatch.setattr(
        "repro.explore.targets.check_definition", lambda *args: Holds()
    )
    blinded = _fig1_at_0()
    assert blinded.proved  # a blind oracle proves anything ...
    assert len(blinded.mismatches) == honest.violating  # ... but not quietly
    for _spec, streaming, confirm in blinded.mismatches:
        assert not streaming.holds and confirm.holds
