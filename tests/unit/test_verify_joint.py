"""Two judges, one execution: the joint judgement changes no answer.

``repro.verify.targets.judge_plan`` puts a plan before the streaming
checker and the confirm oracle off a single run.  These tests pin down
what that sharing must not touch:

- both verdicts equal what the two single-judge functions return, field
  for field, on every plan of the curated spaces (and at a non-default
  stabilization time where the target takes one);
- the frontier digests equal those of an observer riding a plain
  streaming run, and the history the confirm judge reads equals a
  recorded run's — mid-run corruption included, where the streaming
  clock checker drops the fault round from its *score* but must keep
  it in the *history*;
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


@pytest.mark.parametrize("name, at, space", CASES)
def test_confirm_judge_reads_the_recorded_history(name, at, space):
    claim = SYNC_CLAIMS[name]
    seen = []

    def spy(history, spec, at):
        seen.append(history)
        return claim.judge(history, spec, at)

    spied = replace(claim, judge=spy)
    specs = _plans(name, space)
    for spec in specs:
        spied.both(spec, at)
        assert list(seen[-1]) == list(claim.run(spec).history)
    assert len(seen) == len(specs)


def test_mid_run_corruption_plans_are_in_the_cases():
    specs = _plans("fig1", FIG1_MID_RUN_CORRUPTION)
    assert all(spec.corruption_rounds == (3,) for spec in specs)
    unison = _plans("unison", VERIFY_TARGETS["unison"].space)
    assert any(spec.corruption_rounds for spec in unison)


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
