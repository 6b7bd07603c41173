"""The immutability proof agrees with a literal walk, cached or not.

``kernel.snapshot`` answers "is this value deeply immutable?" from a type
table, a proof cache and a rule about which proofs are worth an entry (a
tuple or frozenset no deeper than atom-only containers is re-proved in
one pass; anything deeper is cached and hash-consed, its parts with it).
None of that may change the answer.  The reference here is the recursive definition
itself, spelled out with ``isinstance`` and no memory.
"""

import copy
import dataclasses
import enum
import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel import snapshot
from repro.kernel.snapshot import (
    UNPROVEN,
    FrozenDict,
    copy_value,
    prove_payload,
    snapshot_state,
)


class Status(enum.IntEnum):
    ALIVE = 0
    DEAD = 1


# An atom type is classified the first time it is proved on its own; until
# then a container of it takes the (cached) slow path once.
prove_payload(Status.ALIVE)

@dataclasses.dataclass(frozen=True)
class Entry:
    key: object
    value: object


ATOMS = (int, float, complex, bool, str, bytes, type(None))

# Composites, so that a strategy's repr names each level once (spelled
# out, a recursive one_of runs to 100 kB and Hypothesis warns).


@st.composite
def atoms(draw):
    return draw(
        st.one_of(
            st.none(),
            st.booleans(),
            st.integers(-5, 1 << 40),
            st.floats(allow_nan=False),
            st.text(max_size=3),
            st.binary(max_size=3),
            st.sampled_from(Status),
        )
    )


@st.composite
def immutable_containers(draw, children):
    return draw(
        st.one_of(
            st.lists(children, max_size=4).map(tuple),
            st.frozensets(children, max_size=4),
            st.dictionaries(st.text(max_size=2), children, max_size=3).map(FrozenDict),
            st.builds(Entry, children, children),
        )
    )


@st.composite
def any_containers(draw, children):
    return draw(
        st.one_of(
            st.lists(children, max_size=3),
            st.lists(children, max_size=3).map(tuple),
            st.dictionaries(st.text(max_size=2), children, max_size=3),
            st.sets(immutables(), max_size=3),
            st.builds(Entry, children, children),
        )
    )


@st.composite
def immutables(draw):
    """Deeply immutable (and hashable) by construction, to any depth."""
    return draw(st.recursive(atoms(), immutable_containers, max_leaves=30))


#: Anything a state or a payload may hold: mutable containers at any level.
values = st.recursive(immutables(), any_containers, max_leaves=12)


def deeply_immutable(value) -> bool:
    if isinstance(value, ATOMS):
        return True
    if isinstance(value, (tuple, frozenset)):
        return all(deeply_immutable(item) for item in value)
    if isinstance(value, FrozenDict):
        return all(
            deeply_immutable(key) and deeply_immutable(item)
            for key, item in value.items()
        )
    if isinstance(value, Entry):
        return deeply_immutable(value.key) and deeply_immutable(value.value)
    return False


def flat(value) -> bool:
    return isinstance(value, (tuple, frozenset)) and all(
        isinstance(item, ATOMS) for item in value
    )


def shallow(value) -> bool:
    """The uncached side of the rule, for a value proved on its own: atoms
    and atom-only containers inside."""
    return isinstance(value, (tuple, frozenset)) and all(
        isinstance(item, ATOMS) or flat(item) for item in value
    )


def mutate_everything(value) -> None:
    """Change every mutable container reachable from ``value``, in place."""
    if isinstance(value, list):
        for item in value:
            mutate_everything(item)
        value.append("mutated")
    elif isinstance(value, dict):
        for item in value.values():
            mutate_everything(item)
        value["mutated"] = True
    elif isinstance(value, set):
        value.add("mutated")
    elif isinstance(value, tuple):
        for item in value:
            mutate_everything(item)
    elif isinstance(value, Entry):
        mutate_everything(value.key)
        mutate_everything(value.value)


@settings(max_examples=300, deadline=None)
@given(values)
def test_a_proof_exists_iff_the_literal_walk_says_immutable(value):
    snapshot.clear_caches()
    first = prove_payload(value)
    assert (first is not UNPROVEN) == deeply_immutable(value)
    # Asked again the answer is the same object, from the cache or not.
    assert prove_payload(value) is first
    assert copy_value(value) == value


@settings(max_examples=300, deadline=None)
@given(immutables())
def test_the_rule_decides_only_who_keeps_the_proof(value):
    snapshot.clear_caches()
    proved = prove_payload(value)
    assert proved is not UNPROVEN and proved == value
    stats = snapshot.cache_stats()
    if isinstance(value, ATOMS) or shallow(value):
        assert proved is value
        assert (stats["proofs"], stats["interned"]) == (0, 0)
    else:
        # Deep enough to be worth an entry: an equal value built elsewhere
        # is answered by the one canonical instance.
        assert stats["proofs"] >= 1
        twin = pickle.loads(pickle.dumps(value))
        assert prove_payload(twin) is proved
    assert copy_value(value) is proved


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.text(max_size=3), values, max_size=4))
def test_a_snapshot_never_sees_a_later_mutation(state):
    snapshot.clear_caches()
    expected = copy.deepcopy(state)
    snap = snapshot_state(state)
    assert snap == expected
    for item in state.values():
        mutate_everything(item)
    state["mutated"] = True
    assert snap == expected
