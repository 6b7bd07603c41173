"""State snapshots without blanket ``copy.deepcopy`` — with interning.

Both engines must snapshot process states (for ``state_before`` records
and final states) and defensively copy message payloads.  The states in
this library are overwhelmingly flat ``dict``s of immutable values —
ints, strings, tuples of ints, frozensets — for which ``copy.deepcopy``
pays its full recursive-memoization cost to produce what a shallow copy
would.  These helpers walk the value once: deeply-immutable values are
shared (safe — nobody can mutate them), mutable containers are rebuilt
recursively, and anything exotic falls back to ``copy.deepcopy``.

The observable semantics match ``deepcopy`` for simulation purposes:
mutating the original after a snapshot never affects the snapshot.
(The one deliberate difference: aliasing between two *mutable* values
inside one state is not preserved — each reference gets its own copy.
No protocol in the library relies on intra-state aliasing.)

The interning layer
-------------------

Immutability proofs used to be recomputed from scratch on every call —
for full-information protocols (Figure 2's canonical form broadcasts
``(pid, inner state)`` views that grow every round) that walk dominated
the per-round cost.  Three caches remove it:

- a **per-type fast table**: exact types classify once into *always
  immutable* (atoms), *never provable* (mutable/unknown), or
  *structural* (tuples, frozensets, frozen dataclasses,
  :class:`FrozenDict` — immutable iff their contents are);
- a **per-object proof cache** keyed by ``id``: once a structural value
  proves immutable, later calls are O(1).  Entries pin the proven
  object with a strong reference, so a cached ``id`` can never be
  recycled by the allocator while the proof is live; a generation
  counter clears the cache wholesale when it reaches its size bound
  (the *generation guard* — stale ids are impossible because nothing
  survives a generation).  Tuples and frozensets of atoms are *not*
  cached, nor is one of atoms and atom-only tuples/frozensets proved on
  its own (a detector's ``("fd", nums, statuses)`` gossip): one pass
  over their leaves proves them again for less than an entry costs, and
  they are the short-lived values that would otherwise fill a generation
  as a process lives.  Inside a deeper value the latter is cached with it;
- a **hash-cons table**: equal proven-immutable containers collapse to
  one canonical instance (first one wins), so identical view tuples
  built independently by different processes — or by the same process
  in successive rounds — share structure and future proofs hit the id
  cache immediately.

Protocols with hand-built payloads can opt in explicitly: :func:`imm`
proves (and interns) a payload once so the engine's defensive copy is
O(1) from then on, and :func:`freeze` deep-converts lists/sets/dicts to
their immutable counterparts (:class:`FrozenDict` for mappings) before
interning.
"""

from __future__ import annotations

import copy
import dataclasses
from collections.abc import Mapping as _MappingABC
from typing import Any, Dict, Iterator, Mapping, Optional

__all__ = [
    "FrozenDict",
    "UNPROVEN",
    "cache_stats",
    "clear_caches",
    "copy_payload",
    "copy_value",
    "freeze",
    "imm",
    "prove_payload",
    "snapshot_state",
    "snapshot_states",
]

_ATOMS = (int, float, complex, bool, str, bytes, type(None))

#: Per-type verdicts (exact-type dispatch; see ``_classify``).
_ALWAYS, _NEVER, _STRUCTURAL = 1, 0, 2

#: Size bound shared by the proof cache and the hash-cons table.  At the
#: bound the caches are cleared wholesale and the generation advances —
#: proofs are re-derived, never left dangling.
_CACHE_LIMIT = 1 << 16


class FrozenDict(_MappingABC):
    """A hashable, immutable mapping (the :func:`freeze` image of ``dict``).

    Equality follows the ``Mapping`` protocol, so ``FrozenDict(d) == d``
    for any equal ``dict``.  Hashing requires every value (and key) to
    be hashable — :func:`freeze` guarantees deep immutability first.
    """

    __slots__ = ("_items", "_hash")

    def __init__(self, items: Mapping[Any, Any] = ()):
        object.__setattr__(self, "_items", dict(items))
        object.__setattr__(self, "_hash", None)

    def __getitem__(self, key: Any) -> Any:
        return self._items[key]

    def __iter__(self) -> Iterator[Any]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(
                self, "_hash", hash(frozenset(self._items.items()))
            )
        return self._hash

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._items!r})"

    def __reduce__(self):
        return (type(self), (self._items,))


_TYPE_TABLE: Dict[type, int] = {atom: _ALWAYS for atom in _ATOMS}
_TYPE_TABLE[tuple] = _STRUCTURAL
_TYPE_TABLE[frozenset] = _STRUCTURAL
_TYPE_TABLE[FrozenDict] = _STRUCTURAL

#: id(value) -> (value, canonical): the strong reference to ``value``
#: pins its id for the lifetime of the entry (see module docstring).
_PROOFS: Dict[int, tuple] = {}
#: value -> canonical instance for hashable proven-immutable containers.
_INTERNED: Dict[Any, Any] = {}
_GENERATION = 0


def _classify(kind: type) -> int:
    """Memoized per-type verdict (exact type, subclass-aware fallback)."""
    verdict = _TYPE_TABLE.get(kind)
    if verdict is not None:
        return verdict
    if issubclass(kind, _ATOMS):
        verdict = _ALWAYS
    elif issubclass(kind, (tuple, frozenset, FrozenDict)):
        verdict = _STRUCTURAL
    elif dataclasses.is_dataclass(kind) and kind.__dataclass_params__.frozen:
        verdict = _STRUCTURAL
    else:
        verdict = _NEVER
    _TYPE_TABLE[kind] = verdict
    return verdict


def _advance_generation() -> None:
    global _GENERATION
    _GENERATION += 1
    _PROOFS.clear()
    _INTERNED.clear()


def _register(value: Any, canonical: Any) -> Any:
    if len(_PROOFS) >= _CACHE_LIMIT:
        _advance_generation()
    _PROOFS[id(value)] = (value, canonical)
    if canonical is not value:
        # Make the canonical instance an O(1) hit as well.
        _PROOFS[id(canonical)] = (canonical, canonical)
    return canonical


def _intern(value: Any) -> Any:
    """The canonical instance equal to a proven-immutable ``value``."""
    if len(_INTERNED) >= _CACHE_LIMIT:
        _advance_generation()
    try:
        return _INTERNED.setdefault(value, value)
    except TypeError:
        # Proven immutable but unhashable (e.g. a frozen dataclass with
        # eq=True, hash disabled): share without hash-consing.
        return value


#: Failure sentinel of ``_prove`` and :func:`prove_payload` (``None`` is
#: a real provable value).
UNPROVEN = object()


def _prove(value: Any, nested: bool = False) -> Any:
    """Canonical equal object if deeply immutable, else ``UNPROVEN``.

    Atom items, and atom-only tuples/frozensets among the items, are
    recognised inline from the type table, without a recursive call.  A
    tuple or frozenset of atoms is returned as it is, neither cached nor
    interned, and so is one of atoms and atom-only containers unless it
    is ``nested`` in a deeper value: proving it again is one pass over
    its leaves, which costs less than a cache entry, and such values are
    the short-lived ones that would otherwise fill a generation.
    Anything deeper is cached and canonicalised, and its parts with it
    (a growing view is rebuilt from them every round).
    """
    verdict = _TYPE_TABLE.get(type(value))
    if verdict is None:
        verdict = _classify(type(value))
    if verdict == _ALWAYS:
        return value
    if verdict == _NEVER:
        return UNPROVEN
    cached = _PROOFS.get(id(value))
    if cached is not None:
        return cached[1]
    if isinstance(value, (tuple, frozenset)):
        verdicts = _TYPE_TABLE.get
        flat = shallow = True
        for item in value:
            if verdicts(type(item)) == _ALWAYS:
                continue
            flat = False
            if type(item) is tuple or type(item) is frozenset:
                for leaf in item:
                    if verdicts(type(leaf)) != _ALWAYS:
                        break
                else:
                    continue
            elif verdicts(type(item)) == _NEVER:
                return UNPROVEN
            shallow = False
            if _prove(item, True) is UNPROVEN:
                return UNPROVEN
        if flat or (shallow and not nested):
            return value
    elif isinstance(value, FrozenDict):
        for key, item in value.items():
            if _prove(key, True) is UNPROVEN or _prove(item, True) is UNPROVEN:
                return UNPROVEN
    else:  # frozen dataclass
        for field in dataclasses.fields(value):
            if _prove(getattr(value, field.name), True) is UNPROVEN:
                return UNPROVEN
    return _register(value, _intern(value))


def _is_deeply_immutable(value: Any) -> bool:
    return _prove(value) is not UNPROVEN


def clear_caches() -> None:
    """Drop every memoized proof and interned instance (tests, tooling)."""
    _advance_generation()


def cache_stats() -> Dict[str, int]:
    """Introspection for tests and the microbenchmarks."""
    return {
        "proofs": len(_PROOFS),
        "interned": len(_INTERNED),
        "generation": _GENERATION,
        "types": len(_TYPE_TABLE),
    }


def imm(value: Any) -> Any:
    """Mark ``value`` pre-proven: prove it immutable once, intern it.

    Protocols that broadcast hand-built immutable payloads call
    ``imm(payload)`` so the engine's defensive :func:`copy_payload`
    becomes an O(1) cache hit.  A tuple or frozenset no deeper than
    atom-only containers is checked and returned as it is (nothing to
    cache: re-checking it is one pass).  Raises ``TypeError`` when the
    value is not deeply immutable (use :func:`freeze` to convert).
    """
    canonical = _prove(value)
    if canonical is UNPROVEN:
        raise TypeError(
            f"imm(): {type(value).__name__!r} value is not deeply "
            "immutable; freeze() converts lists/sets/dicts to immutable "
            "equivalents"
        )
    return canonical


def freeze(value: Any) -> Any:
    """Deep-convert to an immutable equivalent and intern it.

    ``list`` → ``tuple``, ``set`` → ``frozenset``, ``dict`` →
    :class:`FrozenDict`; already-immutable values intern as-is.
    Anything unconvertible (arbitrary objects) raises ``TypeError``.
    """
    canonical = _prove(value)
    if canonical is not UNPROVEN:
        return canonical
    kind = type(value)
    if kind is dict:
        return imm(FrozenDict({key: freeze(item) for key, item in value.items()}))
    if kind is list or kind is tuple:
        return imm(tuple(freeze(item) for item in value))
    if kind is set or kind is frozenset:
        return imm(frozenset(freeze(item) for item in value))
    raise TypeError(
        f"freeze(): cannot convert {kind.__name__!r} to an immutable "
        "equivalent"
    )


def copy_value(value: Any) -> Any:
    """A defensive copy of ``value``, sharing immutable substructure."""
    canonical = _prove(value)
    if canonical is not UNPROVEN:
        return canonical
    kind = type(value)
    if kind is dict:
        return {key: copy_value(item) for key, item in value.items()}
    if kind is list:
        return [copy_value(item) for item in value]
    if kind is set:
        return {copy_value(item) for item in value}
    if kind is tuple:
        return tuple(copy_value(item) for item in value)
    if kind is frozenset:
        return frozenset(copy_value(item) for item in value)
    copied = copy.deepcopy(value)
    if copied is value:
        # ``deepcopy`` treats some objects (custom ``__deepcopy__``,
        # ``copyreg``-atomic registrations) as shareable.  For a value we
        # could not prove immutable that would silently alias mutable
        # state across the snapshot boundary — refuse instead.
        raise TypeError(
            f"cannot snapshot {kind.__name__!r}: deepcopy returned the "
            "original object, so the snapshot would share mutable state "
            "with the live process; use immutable state values (or a "
            "frozen dataclass of immutable fields)"
        )
    return copied


def copy_payload(payload: Any) -> Any:
    """Defensive copy of a message payload (immutable fast path)."""
    return copy_value(payload)


def prove_payload(payload: Any) -> Any:
    """One immutability proof for a whole fan-out of ``payload``.

    Returns the instance every delivery may share, or :data:`UNPROVEN`
    when the payload is not deeply immutable and each delivery needs its
    own :func:`copy_payload`.
    """
    return _prove(payload)


def snapshot_state(state: Optional[Mapping[str, Any]]) -> Optional[Dict[str, Any]]:
    """Snapshot one process state (``None`` = crashed, stays ``None``).

    States must be mappings: a ``__slots__``-only or dataclass instance
    used as a whole-process state is rejected with a descriptive error
    (previously it would die on a bare ``AttributeError`` deep in the
    engine, or — for objects with an ``items`` attribute that is not a
    mapping protocol — silently produce garbage).
    """
    if state is None:
        return None
    # Nearly every state is a plain dict; only the rest pay for the ABC's
    # subclass check.
    if type(state) is not dict and not isinstance(state, _MappingABC):
        raise TypeError(
            f"process state must be a mapping, got {type(state).__name__!r}; "
            "__slots__/dataclass states must expose their fields as a dict "
            "(the engines snapshot key-by-key)"
        )
    return {key: copy_value(item) for key, item in state.items()}


def snapshot_states(
    states: Mapping[int, Optional[Mapping[str, Any]]],
) -> Dict[int, Optional[Dict[str, Any]]]:
    """Snapshot a whole state vector, preserving pid keys."""
    return {pid: snapshot_state(state) for pid, state in states.items()}
