"""``dedupe`` relabels sort keys, not specs, and keeps exactly what it kept.

``canonical_key`` used to build all ``n!`` relabelled :class:`PlanSpec`
objects of a spec (validation included) and take the least
``sort_key()``; it now relabels the ``sort_key()`` tuple itself, over
the ``k!`` bijections of the spec's ``k`` touched pids onto ``0..k-1``.
The ``n!`` definition is kept here as the reference: on every curated
space and on drawn spaces with omission targets and churn (all at
n <= 6), the kept specs, their order and the dropped count must be
identical.  Above that, relabelling invariance is checked directly, up
to n = 10.
"""

import itertools
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.explore.space import (
    OMISSION_KINDS,
    ChurnSpec,
    OmissionSpec,
    PlanSpace,
    PlanSpec,
    canonical_key,
    dedupe,
)
from repro.workloads import spaces

pytestmark = pytest.mark.property


def _relabel_reference(spec, perm):
    return replace(
        spec,
        crashes=tuple(sorted((perm[pid], t) for pid, t in spec.crashes)),
        omissions=tuple(
            sorted(
                (
                    replace(
                        om,
                        pid=perm[om.pid],
                        targets=None
                        if om.targets is None
                        else tuple(sorted(perm[t] for t in om.targets)),
                    )
                    for om in spec.omissions
                ),
                key=lambda o: (o.pid, o.kind, o.first_round, o.last_round),
            )
        ),
        clock_skews=tuple(sorted((perm[pid], c) for pid, c in spec.clock_skews)),
        churn=tuple(
            sorted(
                (replace(ch, pid=perm[ch.pid]) for ch in spec.churn),
                key=lambda c: c.pid,
            )
        ),
    )


def canonical_key_reference(spec, symmetric=True):
    if not symmetric or not spec.is_symmetric_instance:
        return spec.sort_key()
    touched = sorted(
        {pid for pid, _ in spec.crashes}
        | {o.pid for o in spec.omissions}
        | {t for o in spec.omissions if o.targets for t in o.targets}
        | {pid for pid, _ in spec.clock_skews}
        | {ch.pid for ch in spec.churn}
    )
    if not touched:
        return spec.sort_key()
    best = None
    for perm in itertools.permutations(range(spec.n)):
        key = _relabel_reference(spec, perm).sort_key()
        if best is None or key < best:
            best = key
    return best


def dedupe_reference(specs, symmetric=True):
    seen, kept, dropped = set(), [], 0
    for spec in specs:
        key = canonical_key_reference(spec, symmetric=symmetric)
        if key in seen:
            dropped += 1
            continue
        seen.add(key)
        kept.append(spec)
    return kept, dropped


def _assert_same_dedupe(specs):
    for symmetric in (True, False):
        assert dedupe(specs, symmetric=symmetric) == dedupe_reference(specs, symmetric)


def _curated():
    for name in spaces.__all__:
        space = getattr(spaces, name)
        plans = list(itertools.islice(space.enumerate_plans(), 3000))
        yield pytest.param(plans + list(space.sample_plans(0, 300)), id=name)


@pytest.mark.parametrize("specs", _curated())
def test_dedupe_matches_the_relabelled_specs_on_every_curated_space(specs):
    _assert_same_dedupe(specs)


def _with_targets(spec, draw):
    """``spec`` with drawn explicit targets on some omission campaigns."""
    omissions = tuple(
        replace(om, targets=tuple(draw(st.sets(st.integers(0, spec.n - 1), max_size=spec.n))))
        if draw(st.booleans())
        else om
        for om in spec.omissions
    )
    return replace(spec, omissions=omissions)


@st.composite
def drawn_specs(draw):
    n = draw(st.integers(min_value=2, max_value=4))
    rounds = draw(st.integers(min_value=3, max_value=6))
    leave = draw(st.integers(1, rounds))
    max_crashes = draw(st.integers(0, 1))
    space = PlanSpace(
        n=n,
        rounds=rounds,
        crash_rounds=(draw(st.integers(1, rounds)),),
        max_crashes=max_crashes,
        omission_windows=((1, draw(st.integers(1, rounds))),),
        omission_kinds=tuple(
            sorted(draw(st.sets(st.sampled_from(OMISSION_KINDS), min_size=1)))
        ),
        max_omissions=draw(st.integers(0, min(1, n - 1 - max_crashes))),
        skew_values=(draw(st.integers(0, 9)), draw(st.integers(0, 9))),
        max_skews=draw(st.integers(0, 2)),
        corruption_choices=draw(st.sampled_from([(False,), (False, True)])),
        churn_windows=((leave, draw(st.one_of(st.none(), st.integers(leave + 1, rounds + 2)))),),
        max_churn=draw(st.integers(0, 2)),
    )
    plans = list(itertools.islice(space.enumerate_plans(), 200))
    return [_with_targets(spec, draw) for spec in plans]


@given(specs=drawn_specs())
@settings(max_examples=40, deadline=None)
def test_dedupe_matches_the_relabelled_specs_on_drawn_spaces(specs):
    _assert_same_dedupe(specs)
    for spec in specs[:20]:
        assert canonical_key(spec) == canonical_key_reference(spec)


def test_canonical_key_is_a_sort_key_of_a_relabelled_spec():
    spec = PlanSpec(n=3, rounds=4, crashes=((2, 1),), clock_skews=((0, 5),))
    assert canonical_key(spec) == PlanSpec(
        n=3, rounds=4, crashes=((0, 1),), clock_skews=((1, 5),)
    ).sort_key()


@st.composite
def touched_specs(draw):
    """A symmetric spec at n <= 10 that touches at most four pids."""
    n = draw(st.integers(min_value=2, max_value=10))
    rounds = draw(st.integers(min_value=2, max_value=6))
    touched = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4, unique=True))
    some = st.lists(st.sampled_from(touched), unique=True)
    window = st.tuples(st.integers(1, rounds), st.integers(1, rounds)).map(sorted)
    omissions = tuple(
        OmissionSpec(
            pid=pid,
            kind=draw(st.sampled_from(OMISSION_KINDS)),
            first_round=first,
            last_round=last,
            targets=draw(st.one_of(st.none(), some.map(tuple))),
        )
        for pid in draw(some)
        for first, last in [draw(window)]
    )
    return PlanSpec(
        n=n,
        rounds=rounds,
        crashes=tuple((pid, draw(st.integers(1, rounds))) for pid in draw(some)),
        omissions=omissions,
        clock_skews=tuple((pid, draw(st.integers(0, 9))) for pid in draw(some)),
        churn=tuple(
            ChurnSpec(pid=pid, leave_round=leave, rejoin_round=rejoin)
            for pid in draw(some)
            for leave in [draw(st.integers(1, rounds))]
            for rejoin in [draw(st.one_of(st.none(), st.integers(leave + 1, rounds + 2)))]
        ),
    )


@given(spec=touched_specs(), data=st.data())
@settings(max_examples=200, deadline=None)
def test_canonical_key_is_invariant_under_relabelling_at_every_n(spec, data):
    perm = data.draw(st.permutations(range(spec.n)))
    relabelled = _relabel_reference(spec, perm)
    assert canonical_key(relabelled) == canonical_key(spec)
    assert dedupe([spec, relabelled]) == ([spec], 1)
    if spec.n <= 6:
        assert canonical_key(spec) == canonical_key_reference(spec)
