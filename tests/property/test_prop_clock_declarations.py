"""Every clock declaration against the hand-written rule it replaced.

Figure 1's round agreement, its min-merge and free-running ablations,
MinUnison and BoundedUnison are :class:`~repro.sync.clock.ClockProtocol`
declarations: ``update``, ``arbitrary_state`` and ``arbitrary_columns``
are derived from one ``rule`` and one corruption domain.  Below, each
derived ``update`` is held to a literal copy of the ``update`` that was
written out by hand before the declarations existed, over drawn inboxes
— the empty one included — and the bulk corruption draw is held to the
single draw, one state at a time.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.rounds import (
    FreeRunningRoundProtocol,
    MinMergeRoundProtocol,
    RoundAgreementProtocol,
)
from repro.histories.history import CLOCK_KEY, Message
from repro.protocols.unison import BoundedUnison, MinUnison
from repro.sync.protocol import column_states
from repro.util.rng import BLOCK_MIN_COUNT

# -- the rules as they were written before the declarations ------------------


def max_merge(protocol, state, delivered):
    rounds_seen = {message.payload for message in delivered}
    if not rounds_seen:
        rounds_seen = {state[CLOCK_KEY]}
    return {CLOCK_KEY: max(rounds_seen) + 1}


def min_merge(protocol, state, delivered):
    rounds_seen = {message.payload for message in delivered}
    if not rounds_seen:
        rounds_seen = {state[CLOCK_KEY]}
    return {CLOCK_KEY: min(rounds_seen) + 1}


def free_running(protocol, state, delivered):
    return {CLOCK_KEY: state[CLOCK_KEY] + 1}


def bounded_unison(protocol, state, delivered):
    K, alpha = protocol.K, protocol.alpha

    def clamp(value):
        if -alpha <= value < K:
            return value
        return -alpha

    seen = {clamp(message.payload) for message in delivered}
    if not seen:
        seen = {clamp(state[CLOCK_KEY])}
    lowest = min(seen)
    if lowest < 0:
        return {CLOCK_KEY: lowest + 1}
    highest = max(seen)
    if highest - lowest <= 1:
        return {CLOCK_KEY: (lowest + 1) % K}
    if seen <= {0, K - 1}:
        return {CLOCK_KEY: 0}
    return {CLOCK_KEY: -alpha}


UNBOUNDED = [
    (RoundAgreementProtocol(), max_merge),
    (MinMergeRoundProtocol(), min_merge),
    (FreeRunningRoundProtocol(), free_running),
    (MinUnison(), min_merge),
]


def inbox(payloads):
    return [Message(q, 0, 1, payload) for q, payload in enumerate(payloads)]


def assert_same_update(protocol, written, own, payloads):
    state = {CLOCK_KEY: own}
    derived = protocol.update(0, state, inbox(payloads))
    assert derived == written(protocol, state, inbox(payloads))
    assert type(derived[CLOCK_KEY]) is int
    assert state == {CLOCK_KEY: own}


# -- update ------------------------------------------------------------------

clocks = st.integers(min_value=-(1 << 70), max_value=1 << 70)


@settings(max_examples=200, deadline=None)
@given(
    which=st.integers(min_value=0, max_value=len(UNBOUNDED) - 1),
    own=clocks,
    payloads=st.lists(clocks, max_size=8),
)
def test_an_unbounded_clock_rule_is_the_one_it_replaced(which, own, payloads):
    protocol, written = UNBOUNDED[which]
    assert_same_update(protocol, written, own, payloads)


@st.composite
def bounded_cases(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    K = draw(st.none() | st.integers(min_value=3, max_value=12))
    alpha = draw(st.none() | st.integers(min_value=1, max_value=8))
    protocol = BoundedUnison(n, K=K, alpha=alpha)
    K, alpha = protocol.K, protocol.alpha
    value = st.one_of(
        st.integers(min_value=-alpha, max_value=K - 1),  # the domain
        st.sampled_from([0, K - 1]),  # the wrap pair
        st.integers(min_value=-alpha - 4, max_value=K + 4),  # and just outside it
        st.integers(min_value=-(1 << 64), max_value=1 << 64),
    )
    return protocol, draw(value), draw(st.lists(value, max_size=8))


@settings(max_examples=400, deadline=None)
@given(case=bounded_cases())
def test_bounded_unison_is_the_rule_it_replaced(case):
    protocol, own, payloads = case
    assert_same_update(protocol, bounded_unison, own, payloads)


@pytest.mark.parametrize(
    "own,payloads",
    [
        (3, []),  # empty inbox: the own clock is all it heard
        (-9, []),  # ... clamped like any other value
        (2, [-3, 5, 6]),  # the tail drags everyone onto it
        (0, [0, 9]),  # the wrap pair {0, K-1}
        (9, [9, 0, 9]),
        (0, [0, 4, 9]),  # incoherent ring values
        (1, [1, 3]),
        (4, [4, 5]),  # coherent: tick
        (9, [9]),  # ... and wrap
        (0, [10, 0]),  # K is out of the domain: reads -alpha
        (0, [-7, 1]),  # so is -alpha - 1
        (5, [1 << 70, 5]),
    ],
)
def test_bounded_unison_cases(own, payloads):
    protocol = BoundedUnison(4, K=10, alpha=6)
    assert_same_update(protocol, bounded_unison, own, payloads)


# -- corruption draws --------------------------------------------------------

PROTOCOLS = [
    RoundAgreementProtocol(),
    RoundAgreementProtocol(max_corrupt_clock=1 << 40),
    RoundAgreementProtocol(max_corrupt_clock=1 << 64),
    MinMergeRoundProtocol(max_corrupt_clock=7),
    FreeRunningRoundProtocol(),
    MinUnison(max_corrupt_clock=3),
    BoundedUnison(5),
    BoundedUnison(2, K=3, alpha=1),
]


@settings(max_examples=60, deadline=None)
@given(
    which=st.integers(min_value=0, max_value=len(PROTOCOLS) - 1),
    seed=st.integers(min_value=0, max_value=1 << 32),
    count=st.sampled_from([0, 1, 5, BLOCK_MIN_COUNT, BLOCK_MIN_COUNT + 3]),
)
def test_arbitrary_columns_are_arbitrary_states_drawn_in_bulk(which, seed, count):
    protocol = PROTOCOLS[which]
    n = count + 2
    pids = range(1, count + 1)
    one, bulk = random.Random(seed), random.Random(seed)
    singles = [protocol.arbitrary_state(pid, n, one) for pid in pids]
    assert column_states(protocol.arbitrary_columns(pids, n, bulk)) == singles
    assert bulk.getstate() == one.getstate()
    low, high = protocol.domain()
    assert all(low <= state[CLOCK_KEY] < high for state in singles)
