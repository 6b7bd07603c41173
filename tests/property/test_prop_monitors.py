"""Property tests for the monitors' state and the walk's frontier digest.

- **Dropping passing rows is sound.**  A window row that holds under a
  faulty set F holds under every F' ⊇ F: fewer processes can lose a
  disagreement or a rate break, never gain one.  So the clock monitor
  keeps only why each failing row fails, and re-reading that reason
  under a larger faulty set must give what the row itself gives.
- **Knowledge stays exact on late copies.**  The monitor keeps each
  process's influence set and a ledger of copies not yet heard instead
  of every round's snapshot; on runs under a delay model its sets must
  equal :class:`CausalityTracker`'s for every process still alive.
- **Digests dispatch on exact type.**  ``_canon`` tells the exact
  container types apart before the ``Mapping`` ABC check; its output
  must equal the ABC-first form kept here as the oracle, for dict
  subclasses, ``FrozenDict``, sets of ``str`` and mixed atoms alike.
"""

from collections.abc import Mapping

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.stabilization import (
    ClockWindowMonitor,
    _failure,
    _why,
    drop_faulty,
)
from repro.core.rounds import RoundAgreementProtocol
from repro.histories.causality import CausalityTracker
from repro.kernel.snapshot import FrozenDict
from repro.sync.adversary import FaultMode, RandomAdversary
from repro.sync.corruption import RandomCorruption
from repro.sync.delays import RandomDelay, TargetedLag
from repro.sync.engine import run_sync
from repro.verify.walk import _canon

pytestmark = pytest.mark.property

N = 5
clocks = st.one_of(st.none(), st.integers(min_value=0, max_value=3))
rows = st.lists(clocks, min_size=N, max_size=N).map(tuple)
pids = st.frozensets(st.integers(min_value=0, max_value=N - 1))


def _holds(row, nxt, faulty) -> bool:
    """Agreement on ``row`` and rate into ``nxt`` among the non-faulty,
    stated as Definition 2.4's clock Σ states it."""
    live = {pid: c for pid, c in enumerate(row) if c is not None and pid not in faulty}
    later = {pid: c for pid, c in enumerate(nxt) if c is not None and pid not in faulty}
    if len(set(live.values())) > 1:
        return False
    return all(later[pid] == c + 1 for pid, c in live.items() if pid in later)


@given(row=rows, nxt=rows, faulty=pids, more=pids)
def test_a_row_that_passes_keeps_passing_as_the_faulty_set_grows(row, nxt, faulty, more):
    if _holds(row, nxt, faulty):
        assert _holds(row, nxt, faulty | more)


@given(row=rows, nxt=rows, faulty=pids, more=pids)
def test_why_a_row_fails_rereads_exactly_under_a_larger_faulty_set(row, nxt, faulty, more):
    grown = faulty | more
    why = _failure(drop_faulty(row, faulty), drop_faulty(nxt, faulty))
    assert (why is None) == _holds(row, nxt, faulty)
    direct = _failure(drop_faulty(row, grown), drop_faulty(nxt, grown))
    assert (None if why is None else _why(*why, grown)) == direct


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=500),
    n=st.integers(min_value=3, max_value=6),
    rounds=st.integers(min_value=2, max_value=12),
    mode=st.sampled_from(list(FaultMode)),
    lag=st.booleans(),
)
def test_monitor_knowledge_equals_the_tracker_on_late_copies(seed, n, rounds, mode, lag):
    delay = TargetedLag([(0, 1), (2, 0), (n - 1, 1)]) if lag else RandomDelay(seed, 0.5)
    result = run_sync(
        RoundAgreementProtocol(),
        n=n,
        rounds=rounds,
        adversary=RandomAdversary(n=n, f=n // 2, mode=mode, rate=0.3, seed=seed),
        corruption=RandomCorruption(seed=seed),
        delay_model=delay,
    )
    monitor, tracker = ClockWindowMonitor(), CausalityTracker(n)
    state = monitor.start(n)
    for round_history in result.history:
        state = monitor.step(state, False, round_history)
        tracker.advance(round_history)
        alive = [r.pid for r in round_history.records if not r.crashed]
        assert [state.know[pid] for pid in alive] == [tracker.know(pid) for pid in alive]
        hash(state)  # a walk keys on it


def _canon_oracle(value):
    """``_canon`` as it was before exact-type dispatch: the oracle."""
    if type(value) in frozenset({int, str, bool, float, type(None)}):
        return repr(value)
    if isinstance(value, Mapping):
        items = ", ".join(
            f"{_canon_oracle(k)}: {_canon_oracle(value[k])}" for k in sorted(value, key=repr)
        )
        return "{" + items + "}"
    if isinstance(value, (set, frozenset)):
        return "{" + ", ".join(sorted(_canon_oracle(item) for item in value)) + "}"
    if isinstance(value, (list, tuple)):
        return "(" + ", ".join(_canon_oracle(item) for item in value) + ")"
    return repr(value)


class Sub(dict):
    """A dict subclass: it takes the Mapping branch, not the dict one."""


atoms = st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=3))
keys = st.one_of(st.integers(min_value=-3, max_value=3), st.text(max_size=2))
values = st.recursive(
    atoms,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.lists(inner, max_size=3).map(tuple),
        st.frozensets(st.text(max_size=2), max_size=3),
        st.sets(st.text(max_size=2), max_size=3),
        st.dictionaries(keys, inner, max_size=3),
        st.dictionaries(keys, inner, max_size=3).map(Sub),
        st.dictionaries(keys, inner, max_size=3).map(FrozenDict),
    ),
    max_leaves=12,
)


@given(value=values)
def test_canon_dispatch_on_exact_type_renders_as_the_abc_form(value):
    assert _canon(value) == _canon_oracle(value)
