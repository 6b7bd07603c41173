"""``dedupe`` relabels sort keys, not specs, and keeps exactly what it kept.

``canonical_key`` used to build all ``n!`` relabelled :class:`PlanSpec`
objects of a spec (validation included) and take the least
``sort_key()``; it now relabels the ``sort_key()`` tuple itself.  The
old definition is copied here verbatim as the reference: on every
curated space and on drawn spaces with omission targets and churn, the
kept specs, their order and the dropped count must be identical.
"""

import itertools
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.explore.space import (
    MAX_CANONICAL_N,
    OMISSION_KINDS,
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
    if not symmetric or not spec.is_symmetric_instance or spec.n > MAX_CANONICAL_N:
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
