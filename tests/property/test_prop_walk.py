"""Property tests for the walk: chains that merge change no answer.

The oracle is ``run_sync`` itself: the expected :class:`VerifyResult`
is built plan by plan from ``streaming_verdict`` and ``confirm_verdict``
(one ``run_sync`` each) with a :class:`FrontierObserver` riding the
streaming run, exactly as a verification that shares nothing would
assemble it.  ``explicit_verify`` must equal it field for field — the
verdict, the counts, the frontier, the counterexample and its verdict,
the mismatches — with one walk over every plan (``jobs=1``) and with
the plans cut into two slices walked apart (``jobs=2``).

Hypothesis draws small fault-plan spaces (n ≤ 4) that cross the axes a
node key has to tell apart — a crash and an omission campaign on the
same process, mid-run corruption, churn; fig3 is drawn apart (its
proposals fix n = 4), always with mid-run corruption: its streaming
check is folded over only the rounds after it.  Every curated space is
held to the same oracle.
"""

import itertools
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.experiments.base import shutdown_pool
from repro.explore.space import OMISSION_KINDS, PlanSpace
from repro.verify import VERIFY_TARGETS
from repro.verify.explicit import FrontierObserver, enumerate_space, explicit_verify
from repro.verify.result import VerifyResult, frontier_from_digests
from repro.verify.targets import confirm_verdict, streaming_verdict

pytestmark = pytest.mark.property

#: Raw plans a drawn space may hold (each costs two ``run_sync`` calls).
PLANS_PER_SPACE = 96


@pytest.fixture(scope="module", autouse=True)
def _no_pool_left_behind():
    """``jobs=2`` forks a pool; later event loops must not inherit it."""
    yield
    shutdown_pool()


@st.composite
def small_spaces(draw, n=None, mid_run=None, max_rounds=6):
    """A small space; ``n`` fixed if given, mid-run corruption drawn
    into it always if ``mid_run``, and otherwise by a coin."""
    if n is None:
        n = draw(st.integers(min_value=2, max_value=4))
    rounds = draw(st.integers(min_value=3, max_value=max_rounds))
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
    if mid_run or (mid_run is None and draw(st.booleans())):
        kwargs["corruption_round_choices"] = ((), (draw(st.integers(1, rounds)),))
    if draw(st.booleans()):
        leave = draw(st.integers(1, rounds))
        rejoin = draw(st.one_of(st.none(), st.integers(leave + 1, rounds + 1)))
        kwargs.update(churn_windows=((leave, rejoin),), max_churn=1)
    return PlanSpace(**kwargs)


def _plan_by_plan(target, at, space) -> VerifyResult:
    """The result a verification sharing nothing would return: every
    plan put through ``run_sync`` once per judge, in enumeration order."""
    specs, raw, dropped = enumerate_space(space, target.symmetric)
    digests, mismatches, violating = [], [], 0
    counterexample = counterexample_verdict = None
    for spec in specs:
        frontier = FrontierObserver()
        streaming = streaming_verdict(target, at, spec, frontier)
        confirm = confirm_verdict(target, at, spec)
        digests.extend(frontier.digests)
        if streaming.holds != confirm.holds:
            mismatches.append((spec, streaming, confirm))
        if not confirm.holds:
            violating += 1
            if counterexample is None:
                counterexample, counterexample_verdict = spec, confirm
    return VerifyResult(
        target=target.name,
        at=at,
        engine="explicit",
        verdict="refuted" if counterexample is not None else "proved",
        raw_plans=raw,
        examined=len(specs),
        symmetry_dropped=dropped,
        violating=violating,
        frontier=frontier_from_digests(digests),
        counterexample=counterexample,
        counterexample_verdict=counterexample_verdict,
        mismatches=mismatches,
    )


def _walks_equal_run_sync(name, space, at=None):
    target = VERIFY_TARGETS[name]
    at = target.default_at if at is None else at
    expected = _plan_by_plan(target, at, space)
    assert explicit_verify(target, at, space, jobs=1) == expected
    assert explicit_verify(target, at, space, jobs=2) == expected


def _drawn(space, name):
    if name == "thm2":  # the halting rule's state has no arbitrary-state draw
        space = replace(space, corruption_choices=(False,), corruption_round_choices=((),))
    raw = itertools.islice(space.enumerate_plans(), PLANS_PER_SPACE + 1)
    assume(sum(1 for _ in raw) <= PLANS_PER_SPACE)
    return space


@given(space=small_spaces(), name=st.sampled_from(("fig1", "thm1", "thm2", "unison")))
@settings(max_examples=30, deadline=None)
def test_a_shared_table_changes_no_answer(space, name):
    _walks_equal_run_sync(name, _drawn(space, name))


@given(space=small_spaces(n=4, mid_run=True, max_rounds=8))
@settings(max_examples=15, deadline=None)
def test_fig3_narrated_from_its_obligation_changes_no_answer(space):
    """The compiler check resets itself at a mid-run corruption under
    ``run_sync``; the walk narrates it the rounds after it alone."""
    _walks_equal_run_sync("fig3", _drawn(space, "fig3"))


@pytest.mark.parametrize(
    "name, which",
    [(name, "space") for name in VERIFY_TARGETS] + [("fig1", "smoke_space")],
    ids=[*VERIFY_TARGETS, "fig1-smoke"],
)
def test_every_curated_space_equals_run_sync_plan_by_plan(name, which):
    _walks_equal_run_sync(name, getattr(VERIFY_TARGETS[name], which))
