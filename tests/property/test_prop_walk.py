"""Property tests for the walk: a shared table changes no answer.

Hypothesis draws small fault-plan spaces (n ≤ 4) that cross the axes a
table key has to tell apart — a crash and an omission campaign on the
same process, mid-run corruption, churn — and walks every plan of each
through one table, as ``explicit_verify`` does.  Every plan's streaming
verdict, confirm verdict, frontier digests and recorded history must
equal a ``run_sync`` of that plan alone.
"""

import itertools
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.explore.space import OMISSION_KINDS, PlanSpace
from repro.explore.targets import SYNC_CLAIMS
from repro.verify import VERIFY_TARGETS
from repro.verify.explicit import FrontierObserver
from repro.verify.targets import judge_plan
from repro.verify.walk import shared_table

pytestmark = pytest.mark.property

#: Plans walked per drawn space (the raw enumeration, duplicates kept).
PLANS_PER_SPACE = 48


@st.composite
def small_spaces(draw):
    n = draw(st.integers(min_value=2, max_value=4))
    rounds = draw(st.integers(min_value=3, max_value=6))
    kwargs = dict(n=n, rounds=rounds)
    budget = n - 1  # the space must leave one correct process
    if draw(st.booleans()):
        crash_rounds = draw(st.sets(st.integers(1, rounds), min_size=1, max_size=2))
        kwargs.update(crash_rounds=tuple(sorted(crash_rounds)), max_crashes=1)
        budget -= 1
    if budget and draw(st.booleans()):
        # Campaigns range over every pid, crashed ones included.
        first = draw(st.integers(1, rounds))
        last = draw(st.integers(first, rounds))
        kinds = draw(st.sets(st.sampled_from(OMISSION_KINDS), min_size=1, max_size=2))
        kwargs.update(
            omission_windows=((first, last),),
            omission_kinds=tuple(sorted(kinds)),
            max_omissions=1,
        )
    if draw(st.booleans()):
        kwargs.update(skew_values=(draw(st.integers(0, 9)),), max_skews=1)
    kwargs["corruption_choices"] = draw(st.sampled_from([(False,), (True,), (False, True)]))
    if draw(st.booleans()):
        kwargs["corruption_round_choices"] = ((), (draw(st.integers(1, rounds)),))
    if draw(st.booleans()):
        leave = draw(st.integers(1, rounds))
        rejoin = draw(st.one_of(st.none(), st.integers(leave + 1, rounds + 1)))
        kwargs.update(churn_windows=((leave, rejoin),), max_churn=1)
    return PlanSpace(**kwargs)


def _run_sync_reference(claim, spec, at):
    """Both verdicts, the frontier and the history off one ``run_sync``."""
    frontier = FrontierObserver()
    checker = None if claim.checker is None else claim.checker(at)
    riders = (frontier,) if checker is None else (checker, frontier)
    history = claim.run(spec, riders).history
    confirm = claim.judge(history, spec, at)
    return (confirm if checker is None else checker.verdict()), confirm, frontier.digests, history


@given(space=small_spaces(), name=st.sampled_from(("fig1", "thm1", "thm2", "unison")))
@settings(max_examples=30, deadline=None)
def test_a_shared_table_changes_no_answer(space, name):
    target, claim = VERIFY_TARGETS[name], SYNC_CLAIMS[name]
    if name == "thm2":  # the halting rule's state has no arbitrary-state draw
        space = replace(space, corruption_choices=(False,), corruption_round_choices=((),))
    seen = []

    def spy(history, spec, at):
        seen.append(history)
        return claim.judge(history, spec, at)

    plans = list(itertools.islice(space.enumerate_plans(), PLANS_PER_SPACE))
    with pytest.MonkeyPatch.context() as patch, shared_table():
        patch.setitem(SYNC_CLAIMS, name, replace(claim, judge=spy))
        for spec in plans:
            frontier = FrontierObserver()
            walked = judge_plan(target, target.default_at, spec, frontier)
            streaming, confirm, digests, history = _run_sync_reference(
                claim, spec, target.default_at
            )
            assert walked == (streaming, confirm)
            assert frontier.digests == digests
            assert list(seen[-1]) == list(history)
