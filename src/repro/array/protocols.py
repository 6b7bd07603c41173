"""The ``ArrayProtocol`` contract and its batched implementations.

A batched protocol represents the state of *every process in every
lane* (a lane = one seed/fault-plan of a sweep-point batch) as flat
columns — integer matrices of shape ``(lanes, n)`` plus, for the
full-information protocols, per-lane suspect matrices — and advances
all of them one round per :meth:`ArrayProtocol.step` call.  The driver
(:mod:`repro.array.engine`) owns the control plane (adversary replay,
corruption, liveness bookkeeping); the protocol owns the data plane.

Implementations must be *value-identical* to their reference
:class:`~repro.sync.protocol.SyncProtocol` twin: the conformance layer
reconstructs an :class:`~repro.histories.history.ExecutionHistory` from
these columns and byte-compares its digest against ``run_sync``.  That
is why every ``read_states`` result uses plain Python types (``int``,
``bool``, ``frozenset``, ``None``) — NumPy scalars would change the
canonical form.

Two wire kinds:

- ``kind="csr"`` — scalable protocols whose update is a neighborhood
  reduction (min/max over delivered clocks) followed by an elementwise
  rule.  They ask the wire for ``reduce(column, op)`` and nothing else:
  the CSR edge list, the per-edge keep mask, the complete graph's one
  global reduction per lane, chunking and the data plane are the
  wire's (:class:`repro.array.engine.RoundWire`).
- ``kind="dense"`` — full-information protocols that need
  per-(sender, receiver) delivery info: a canonical Π under Figure 2's
  runner or Figure 3's compilation, and the Figure 4 detector stack.
  The driver hands them ``wire.delivered``, a NumPy ``(lanes, n, n)``
  bool cube; they run on the NumPy plane only, and their
  ``initial_states`` refuses the Python plane and cubes over
  ``DENSE_CELL_LIMIT`` cells, so such a point is answered by the
  reference engine.  Each is a :class:`_DenseTwin`, which writes the
  state bridge once; a twin writes its row codec and its round.

A protocol whose whole state is the round variable needs no twin of its
own: declared as a :class:`~repro.sync.clock.ClockProtocol`, it batches
through :class:`ArrayClock`, which is derived from the declaration.  A
canonical Π needs a *Π twin* (its columns and its round: ``_FloodMinPi``,
``_PhaseQueenPi``) and its entry in ``_PI_TWINS``: :class:`_ArrayRunner`
(Figure 2) and :class:`_ArrayCompiled` (Figure 3) run every Π twin.  Any
other protocol subclasses :class:`_DenseTwin` and adds its exact type to
``_builtin_matcher``, as :class:`ArrayDetectorStack` does (see
``docs/array.md``).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from functools import cache
from itertools import repeat
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence

from repro.array.backend import get_numpy
from repro.core.canonical import CanonicalRunner
from repro.core.compiler import CompiledProtocol
from repro.detectors.stack import DetectorStack
from repro.detectors.strong import ALIVE, DEAD
from repro.histories.history import CLOCK_KEY
from repro.protocols.floodmin import FloodMinConsensus
from repro.protocols.phaseking import PhaseQueenConsensus
from repro.sync.clock import BIG, SMALL, declared, pick
from repro.sync.protocol import SyncProtocol, column_cells, column_states

__all__ = [
    "ArrayClock",
    "ArrayEligibilityError",
    "ArrayProtocol",
    "as_array_protocol",
]

#: Dense-kind memory bound: lanes * n * n cells.
DENSE_CELL_LIMIT = 1 << 26

#: Largest value universe a bitmask column can encode (int64 headroom).
MAX_UNIVERSE = 60


class ArrayEligibilityError(RuntimeError):
    """This (protocol, plan, topology, scale) tuple cannot be batched.

    Raised loudly so callers (``run_sweep(backend="array")``) can fall
    back to the reference engine instead of silently computing the
    wrong thing.
    """


class ArrayProtocol(ABC):
    """Batched twin of one :class:`SyncProtocol`.

    The state object returned by :meth:`initial_states` is opaque to
    the driver except through the methods below; a ``"dense"`` twin's
    ``initial_states`` refuses every plane but NumPy.  Cells belonging to
    crashed processes may hold garbage after their crash round — the
    driver masks dead senders/receivers out of every wire, and never
    reads a dead cell's state.
    """

    #: "csr" (neighborhood reduction, either plane) or "dense" (reads the
    #: NumPy delivery cube ``wire.delivered``).
    kind: str = "csr"

    def __init__(self, sync: SyncProtocol):
        #: The reference protocol this implementation must match.
        self.sync = sync

    @property
    def name(self) -> str:
        return self.sync.name

    @abstractmethod
    def initial_states(self, n: int, lanes: int, backend: str) -> Any:
        """Batched specified initial states for ``lanes`` x ``n`` cells."""

    @abstractmethod
    def load_states(
        self, state: Any, lane: int, mappings: Mapping[int, Mapping]
    ) -> None:
        """Ingest explicit/corrupted state dicts (pid -> mapping) of one lane.

        Every value is validated before the first cell is written.
        Raises :class:`ArrayEligibilityError` when a mapping holds
        values the columns cannot encode (the caller then falls back).
        """

    @abstractmethod
    def read_states(
        self, state: Any, lane: int, pids: Optional[Sequence[int]] = None
    ) -> List[Dict[str, Any]]:
        """Cells ``pids`` (default: all ``n``, ascending) of one lane as the
        exact plain-Python dicts ``run_sync`` would hold."""

    def load_columns(
        self, state: Any, lane: int, pids: Sequence[int], columns: Mapping[str, Sequence]
    ) -> None:
        """:meth:`load_states` for states that arrive as columns.

        ``columns[field][i]`` is field ``field`` of the new state of
        ``pids[i]`` (ascending, distinct); a column is a list or a NumPy
        array.  Same promise as :meth:`load_states`: all of it is
        validated before the first cell is written.  This default builds
        the dicts and hands them over, so every twin accepts columns; a
        twin whose cells *are* its fields overrides it with one
        assignment per column.
        """
        _require_lengths(self.name, pids, columns)
        self.load_states(state, lane, dict(zip(pids, column_states(columns))))

    def load_state(self, state: Any, lane: int, pid: int, mapping: Mapping) -> None:
        """One-cell :meth:`load_states`."""
        self.load_states(state, lane, {pid: mapping})

    def read_state(self, state: Any, lane: int, pid: int) -> Dict[str, Any]:
        """One-cell :meth:`read_states`."""
        return self.read_states(state, lane, (pid,))[0]

    @abstractmethod
    def step(self, state: Any, wire: Any) -> None:
        """Advance every lane one round against the wire's deliveries."""

    # ------------------------------------------------------------------

    def clock_column(self, state: Any):
        """The ``(lanes, n)`` round-variable matrix (for measurements)."""
        return state["clock"]

    def silent_pids(self, state: Any, lane: int) -> frozenset:
        """Processes broadcasting ``None`` this round (default: none)."""
        return frozenset()


# ---------------------------------------------------------------------------
# Shared column helpers
# ---------------------------------------------------------------------------


def _int_matrix(backend: str, lanes: int, n: int, fill: int):
    if backend == "numpy":
        np = get_numpy()
        return np.full((lanes, n), fill, dtype=np.int64)
    return [[fill] * n for _ in range(lanes)]


def _require_int64(value, what: str = "clock") -> int:
    """An exact int in ``[SMALL, BIG)``: what an int64 column holds with
    headroom (a bool would read back as an int)."""
    if type(value) is not int:
        raise ArrayEligibilityError(f"non-integer {what} {value!r} cannot be batched")
    if not SMALL <= value < BIG:
        raise ArrayEligibilityError(f"{what} {value!r} is outside [-2**62, 2**62)")
    return value


def _require_clock(mapping: Mapping) -> int:
    if CLOCK_KEY not in mapping:
        raise ArrayEligibilityError(
            f"state {dict(mapping)!r} lacks the round variable ({CLOCK_KEY!r})"
        )
    return _require_int64(mapping[CLOCK_KEY])


def _require_fields(name: str, mapping: Mapping, fields: frozenset) -> int:
    """The validated clock of a mapping that holds exactly ``fields``."""
    value = _require_clock(mapping)
    if mapping.keys() != fields:
        raise ArrayEligibilityError(
            f"{name}: state fields {sorted(mapping)}, expected {sorted(fields)}"
        )
    return value


def _require_lengths(name: str, pids: Sequence[int], columns: Mapping[str, Sequence]) -> None:
    if not columns:
        raise ArrayEligibilityError(f"{name}: no state columns for {len(pids)} pids")
    for field, column in columns.items():
        if len(column) != len(pids):
            raise ArrayEligibilityError(
                f"{name}: column {field!r} holds {len(column)} cells for {len(pids)} pids"
            )


def _require_run_n(name: str, mapping: Mapping, n: int) -> None:
    # exact type: 3.0, or True at n = 1, would read back as the run's int
    if type(mapping.get("n")) is not int or mapping["n"] != n:
        raise ArrayEligibilityError(
            f"{name}: state n={mapping.get('n')!r} != run n={n}"
        )


def _lane_cells(state: Any, key: str, lane: int, pids: Optional[Sequence[int]]) -> list:
    """Cells ``pids`` (default all) of one lane of a column, as plain Python
    values: one ``tolist()`` on the NumPy plane, never NumPy scalars."""
    row = state[key][lane]
    if state["backend"] == "numpy":
        return (row if pids is None else row[list(pids)]).tolist()
    return list(row) if pids is None else [row[p] for p in pids]


def _lane_rows(state: Any, keys: Sequence[str], lane: int, pids: Optional[Sequence[int]]):
    """One tuple per cell, holding its value in each of the ``keys`` columns."""
    return zip(*(_lane_cells(state, key, lane, pids) for key in keys))


def _store_columns(
    state: Any, lane: int, pids: Iterable[int], keys: Sequence[str], columns
) -> None:
    """Write already-validated values (``columns[i]`` holds the ``keys[i]``
    value of every one of ``pids`` — a sequence, or a mapping keyed by
    them — in its order) into one lane: one indexed assignment per column
    on the NumPy plane."""
    pids = list(pids)
    for key, values in zip(keys, columns):
        if state["backend"] == "numpy":
            state[key][lane, pids] = values
        else:
            row = state[key][lane]
            for pid, value in zip(pids, values):
                row[pid] = value


def _elementwise(state: Any, update: Callable, *columns):
    """``update(where, *cells)`` over ``(lanes, n)`` columns, on either plane.

    ``update`` is written once, with ``where(condition, a, b)`` for its
    selections and ``&`` between its conditions: it sees whole arrays and
    ``np.where`` on the NumPy plane, one cell's ints and a plain
    conditional on the Python plane.  An ``update`` that returns a tuple
    gives one column per item.  Cells that read alike are computed
    once: a lane of broadcast columns (what ``RoundWire.reduce`` returns
    on the complete graph) on the NumPy plane, every repeated cell tuple
    on the Python plane.
    """
    if state["backend"] == "numpy":
        np = get_numpy()
        if all(column.strides[1] == 0 for column in columns):
            one = update(np.where, *(column[:, :1] for column in columns))
            return np.repeat(one, state["n"], axis=-1)  # a tuple: item by item
        return update(np.where, *columns)
    once = cache(lambda *cells: update(pick, *cells))
    out = [[once(*cells) for cells in zip(*rows)] for rows in zip(*columns)]
    if isinstance(out[0][0], tuple):  # cells of tuples -> one column per item
        return tuple(zip(*(zip(*lane) for lane in out)))
    return out


# ---------------------------------------------------------------------------
# Clock declarations: every protocol whose whole state is the round variable
# ---------------------------------------------------------------------------

_CLOCK_FIELDS = frozenset({CLOCK_KEY})


class ArrayClock(ArrayProtocol):
    """The batched twin of a :class:`~repro.sync.clock.ClockProtocol`,
    derived from its declaration.

    State is one ``(lanes, n)`` clock matrix.  A round maps each sender's
    clock (``sent``), reduces what each receiver heard on the wire, and
    applies ``rule`` — the declaration's own two functions, through
    :func:`_elementwise`.  A clock outside ``[SMALL, BIG)`` is refused on
    the way in on both planes, so the int64 columns cannot overflow.
    """

    kind = "csr"

    def initial_states(self, n: int, lanes: int, backend: str) -> Any:
        return {
            "backend": backend,
            "lanes": lanes,
            "n": n,
            "clock": _int_matrix(backend, lanes, n, self.sync.initial),
        }

    def load_states(self, state, lane, mappings) -> None:
        name, clocks = self.name, []
        for mapping in mappings.values():
            value = mapping.get(CLOCK_KEY)
            # an in-range exact-int clock that is the only field needs no second look
            if type(value) is not int or len(mapping) != 1 or not SMALL <= value < BIG:
                value = _require_fields(name, mapping, _CLOCK_FIELDS)
            clocks.append(value)
        _store_columns(state, lane, mappings, ("clock",), (clocks,))

    def load_columns(self, state, lane, pids, columns) -> None:
        name = self.name
        _require_lengths(name, pids, columns)
        if columns.keys() != _CLOCK_FIELDS:
            raise ArrayEligibilityError(
                f"{name}: state columns {sorted(columns)}, expected {sorted(_CLOCK_FIELDS)}"
            )
        clocks = columns[CLOCK_KEY]
        dtype = getattr(clocks, "dtype", None)
        if dtype is None:
            for value in clocks:
                if type(value) is not int or not SMALL <= value < BIG:
                    _require_int64(value)
        elif (
            clocks.ndim != 1
            or dtype.kind not in "iu"  # not bool, not float
            or not get_numpy().can_cast(dtype, "int64")
        ):
            raise ArrayEligibilityError(
                f"{name}: a {clocks.ndim}-d {dtype} clock column cannot be batched"
            )
        elif len(clocks) and not (SMALL <= clocks.min() and clocks.max() < BIG):
            raise ArrayEligibilityError(f"{name}: a clock outside [-2**62, 2**62)")
        if state["backend"] == "numpy":
            # ascending distinct pids: the whole lane is one slice
            where = slice(None) if pids == range(state["n"]) else list(pids)
            state["clock"][lane, where] = clocks
        else:
            _store_columns(state, lane, pids, ("clock",), (column_cells(clocks),))

    def read_states(self, state, lane, pids=None) -> List[Dict[str, Any]]:
        return [{CLOCK_KEY: c} for c in _lane_cells(state, "clock", lane, pids)]

    def step(self, state, wire) -> None:
        rule, clock = self.sync, state["clock"]
        heard = (clock,)  # no reductions: the rule reads the own clock
        if rule.reductions:
            sent = repeat(clock) if rule.sent is None else _elementwise(state, rule.sent, clock)
            heard = [wire.reduce(c, fold.__name__) for c, fold in zip(sent, rule.reductions)]
        state["clock"] = _elementwise(state, rule.rule, *heard)


# ---------------------------------------------------------------------------
# Dense twins: NumPy columns over a (lanes, n, n) delivery cube
# ---------------------------------------------------------------------------


def _dense_numpy(n: int, lanes: int, backend: str):
    """NumPy, for a dense twin's columns: the one plane it runs on.

    Refuses the Python plane and a cube over ``DENSE_CELL_LIMIT`` cells,
    so ``run_sweep(backend="array")`` answers those points on the
    reference engine instead."""
    if backend != "numpy":
        raise ArrayEligibilityError(
            f"dense twins run on the NumPy data plane only, not {backend!r}"
        )
    if lanes * n * n > DENSE_CELL_LIMIT:
        raise ArrayEligibilityError(
            f"dense wire of {lanes} x {n} x {n} cells exceeds the "
            f"{DENSE_CELL_LIMIT} limit; batch fewer lanes or fall back"
        )
    return get_numpy()


def _require_exact_fields(name: str, what: str, mapping, fields: frozenset) -> None:
    if not isinstance(mapping, Mapping) or mapping.keys() != fields:
        raise ArrayEligibilityError(
            f"{name}: {what} {mapping!r} does not hold exactly {sorted(fields)}"
        )


def _require_binary(value, what: str) -> int:
    if type(value) is not int or value not in (0, 1):
        raise ArrayEligibilityError(f"{what} {value!r} is not a binary value")
    return value


def _require_bounded_int(value, what: str) -> int:
    # exact type: a bool or an IntEnum would read back as a plain int
    if type(value) is not int:
        raise ArrayEligibilityError(f"{what} {value!r} is not an int")
    if not -(1 << 40) < value < (1 << 40):
        raise ArrayEligibilityError(f"{what} {value!r} overflows the int64 columns")
    return value


# -- Π twins: Π's int64 ``columns`` (``dec`` is the decision code, 0 for none),
# ``initial(n)`` (a row per column), ``load``/``read`` of one inner state, the
# decision codec, and ``step(np, state, delivered, k)``: Π's round ``k`` over
# the cube of what Π may read (its wrapper chooses both), as new columns by name.


class _FloodMinPi:
    """FloodMin as columns: value sets become bitmask ints over the sorted
    value universe, so the flood-merge is a masked bitwise-OR reduction
    and decide-min is the lowest set bit."""

    columns = ("prop", "vmask", "dec")
    _FIELDS = frozenset({"proposal", "values", "decision"})

    def __init__(self, canonical: FloodMinConsensus):
        self.canonical = canonical
        self.final_round = canonical.final_round
        self.universe = tuple(sorted(set(canonical.proposals) | set(canonical.domain)))
        if len(self.universe) > MAX_UNIVERSE:
            raise ArrayEligibilityError(
                f"floodmin value universe has {len(self.universe)} members; the "
                f"bitmask columns support at most {MAX_UNIVERSE}"
            )
        self.index = {value: i for i, value in enumerate(self.universe)}

    def _encode(self, value, what: str) -> int:
        index = self.index.get(value)
        # exact type: True == 1 would hash to 1's slot and read back as 1
        if index is None or type(self.universe[index]) is not type(value):
            raise ArrayEligibilityError(
                f"{what} {value!r} outside the floodmin value universe"
            )
        return index

    def encode_decision(self, decision, what: str) -> int:
        return 0 if decision is None else self._encode(decision, what) + 1

    def decode_decision(self, code: int):
        return None if code == 0 else self.universe[code - 1]

    def initial(self, n: int) -> tuple:
        prop = [self._encode(self.canonical.proposal_for(pid), "proposal") for pid in range(n)]
        return prop, [1 << index for index in prop], [0] * n

    def load(self, inner: Mapping) -> tuple:
        _require_exact_fields("floodmin", "inner state", inner, self._FIELDS)
        values = inner["values"]
        if not isinstance(values, (set, frozenset)):
            raise ArrayEligibilityError(f"values {values!r} is not a set")
        return (
            self._encode(inner["proposal"], "proposal"),
            sum(1 << self._encode(value, "value") for value in values),  # distinct bits
            self.encode_decision(inner["decision"], "decision"),
        )

    def read(self, prop: int, vmask: int, dec: int) -> Dict[str, Any]:
        return {
            "proposal": self.universe[prop],
            "values": frozenset(v for i, v in enumerate(self.universe) if vmask >> i & 1),
            "decision": self.decode_decision(dec),
        }

    def step(self, np, state, delivered, k) -> Dict[str, Any]:
        vmask = state["vmask"]
        merged = vmask | np.bitwise_or.reduce(
            np.where(delivered, vmask[:, None, :], 0), axis=2
        )
        low = merged & -merged  # decide-min: the index of the lowest set bit
        lowest = np.log2(np.where(low > 0, low, 1).astype(np.float64)).astype(np.int64)
        decide = (k == self.final_round) & (merged != 0)
        return {"vmask": merged, "dec": np.where(decide, lowest + 1, state["dec"])}


class _PhaseQueenPi:
    """Phase-queen as columns: every inner field is binary or a small int.

    The ballot round is one masked tally per value (the tie-toward-0
    rule becomes ``count1 > count0``); the queen round gathers the
    per-cell queen's majority with ``take_along_axis``.  Corruption can
    desynchronize the rounds, so every cell branches on its own ``k``.
    """

    columns = ("prop", "value", "majority", "count", "dec")
    _FIELDS = frozenset({"proposal", "value", "majority", "count", "decision"})

    def __init__(self, canonical: PhaseQueenConsensus):
        self.canonical = canonical
        self.final_round = canonical.final_round
        self.f = canonical.f

    def encode_decision(self, decision, what: str) -> int:
        return 0 if decision is None else _require_binary(decision, what) + 1

    def decode_decision(self, code: int):
        return None if code == 0 else code - 1

    def initial(self, n: int) -> tuple:
        props = [self.canonical.proposal_for(pid) for pid in range(n)]
        return props, props, props, [0] * n, [0] * n

    def load(self, inner: Mapping) -> tuple:
        _require_exact_fields("phase-queen", "inner state", inner, self._FIELDS)
        return (
            _require_binary(inner["proposal"], "proposal"),
            _require_binary(inner["value"], "value"),
            _require_binary(inner["majority"], "majority"),
            _require_bounded_int(inner["count"], "count"),
            self.encode_decision(inner["decision"], "decision"),
        )

    def read(self, prop, value, majority, count, dec) -> Dict[str, Any]:
        return {
            "proposal": prop,
            "value": value,
            "majority": majority,
            "count": count,
            "decision": self.decode_decision(dec),
        }

    def step(self, np, state, delivered, k) -> Dict[str, Any]:
        n, f = state["n"], self.f
        value, majority, count = state["value"], state["majority"], state["count"]
        # Ballot round (odd k): one masked tally per binary value.
        count0, count1 = ((delivered & (value[:, None, :] == v)).sum(axis=2) for v in (0, 1))
        heard = count0 + count1 > 0
        ballot_majority = np.where(heard, (count1 > count0).astype(np.int64), value)
        ballot_count = np.where(heard, np.maximum(count0, count1), 0)
        # Queen round (even k): keep when sure, else adopt the queen's
        # majority if her message arrived, else keep the local majority.
        queen = ((k + 1) // 2 - 1) % n
        queen_sent = np.take_along_axis(delivered, queen[:, :, None], axis=2)[:, :, 0]
        queen_majority = np.take_along_axis(majority, queen, axis=1)
        sure = 2 * count > n + 2 * f
        queen_value = np.where(~sure & queen_sent, queen_majority, majority)
        odd = k % 2 == 1
        return {
            "value": np.where(odd, value, queen_value),
            "majority": np.where(odd, ballot_majority, majority),
            "count": np.where(odd, ballot_count, count),
            "dec": np.where(~odd & (k == self.final_round), queen_value + 1, state["dec"]),
        }


# -- the bridge every dense twin shares, and the wrappers that run a Π twin ------


class _DenseTwin(ArrayProtocol):
    """A dense twin's state bridge, written once for every dense twin.

    State is a clock column (``_START`` at a clean start) and the twin's
    own columns; a cell's row is its value in each column of ``_keys``,
    the clock first.  A subclass names its state's ``_FIELDS`` and
    writes only its row codec — ``columns(np, n, lanes)`` (a clean
    start's columns but the clock, by name), ``load_row(mapping, n)``
    (one state's cells after the clock, validated) and ``read_row(n,
    *cells)`` (their state fields) — and its ``step``.
    """

    kind = "dense"
    _FIELDS: frozenset
    _START: int
    _keys: tuple

    def initial_states(self, n: int, lanes: int, backend: str) -> Any:
        np = _dense_numpy(n, lanes, backend)
        return {
            "backend": backend,
            "lanes": lanes,
            "n": n,
            "clock": np.full((lanes, n), self._START, dtype=np.int64),
            **self.columns(np, n, lanes),
        }

    def load_states(self, state, lane, mappings) -> None:
        name, n = self.name, state["n"]
        rows = [
            (_require_fields(name, mapping, self._FIELDS), *self.load_row(mapping, n))
            for mapping in mappings.values()
        ]
        _store_columns(state, lane, mappings, self._keys, zip(*rows))

    def read_states(self, state, lane, pids=None) -> List[Dict[str, Any]]:
        n = state["n"]
        return [
            {CLOCK_KEY: clock, **self.read_row(n, *cells)}
            for clock, *cells in _lane_rows(state, self._keys, lane, pids)
        ]


class _ArrayWrapper(_DenseTwin):
    """A wrapper around a Π twin: the inner and ``n`` codec, once.

    Its row is the clock, Π's columns and the wrapper's ``_OWN``
    columns.  A subclass writes the codec of its own cells —
    ``own_columns(np, n, lanes)`` (a clean start's, by name),
    ``load_own(mapping, n)`` (one state's ``_OWN`` cells, validated) and
    ``read_own(*cells)`` (their state fields) — and one ``step`` that
    hands Π its ``k`` and its cube.
    """

    _OWN: tuple

    def __init__(self, sync: SyncProtocol, pi):
        super().__init__(sync)
        #: The Π twin: its columns, its codec and its round.
        self.pi = pi
        self.final_round = pi.final_round
        self._keys = ("clock", *pi.columns, *self._OWN)

    def columns(self, np, n, lanes) -> Dict[str, Any]:
        rows = zip(self.pi.columns, self.pi.initial(n))
        inner = {key: np.tile(np.asarray(row, dtype=np.int64), (lanes, 1)) for key, row in rows}
        return {**inner, **self.own_columns(np, n, lanes)}

    def load_row(self, mapping, n) -> tuple:
        _require_run_n(self.name, mapping, n)
        return (*self.pi.load(mapping["inner"]), *self.load_own(mapping, n))

    def read_row(self, n, *cells) -> Dict[str, Any]:
        width = len(self.pi.columns)
        return {"inner": self.pi.read(*cells[:width]), "n": n, **self.read_own(*cells[width:])}


class _ArrayRunner(_ArrayWrapper):
    """Figure 2's wrapper, batched once: the twin of :class:`CanonicalRunner`.

    One round silences halted senders on the cube, runs Π at every
    cell's own clock (``k = clock``), freezes halted cells, advances the
    clock and halts a cell that has just run ``final_round`` — exactly
    the reference runner.
    """

    _FIELDS = frozenset({CLOCK_KEY, "inner", "halted", "n"})
    _OWN = ("halted",)
    _START = 1

    def own_columns(self, np, n, lanes) -> Dict[str, Any]:
        return {"halted": np.zeros((lanes, n), dtype=bool)}

    def load_own(self, mapping, n) -> tuple:
        halted = mapping["halted"]
        if type(halted) is not bool:
            raise ArrayEligibilityError(f"{self.name}: halted {halted!r} is not a bool")
        return (halted,)

    def read_own(self, halted) -> Dict[str, Any]:
        return {"halted": halted}

    def silent_pids(self, state, lane) -> frozenset:
        return frozenset(state["halted"][lane].nonzero()[0].tolist())

    def step(self, state, wire) -> None:
        np = get_numpy()
        clock, halted = state["clock"], state["halted"]
        inner = self.pi.step(np, state, wire.delivered & ~halted[:, None, :], clock)
        for key, column in inner.items():
            state[key] = np.where(halted, state[key], column)
        state["clock"] = np.where(halted, clock, clock + 1)
        state["halted"] = halted | (clock == self.final_round)


class _ArrayCompiled(_ArrayWrapper):
    """Figure 3's wrapper, batched once: the twin of :class:`CompiledProtocol`.

    The tag merge is a masked max over the cube; Π runs at ``k = clock %
    final_round + 1`` over the senders heard at the cell's own clock and
    not suspected (all of them heard at that clock when ``use_suspects``
    is off, the ABL-SUSPECT ablation); the journal records a final
    round's decision; and an iteration reset restores Π's initial rows
    and clears the suspect matrix.
    """

    _FIELDS = frozenset(
        {CLOCK_KEY, "inner", "suspect", "n", "last_decision", "decided_at_clock"}
    )
    _OWN = ("last_dec", "dec_at", "dec_at_set", "suspect")
    _START = 0

    def own_columns(self, np, n, lanes) -> Dict[str, Any]:
        own = {key: np.zeros((lanes, n), dtype=np.int64) for key in self._OWN[:3]}
        own["suspect"] = np.zeros((lanes, n, n), dtype=bool)
        own["init"] = [np.asarray(row, dtype=np.int64) for row in self.pi.initial(n)]
        return own

    def load_own(self, mapping, n) -> tuple:
        suspects = mapping["suspect"]
        if not isinstance(suspects, (set, frozenset)):
            raise ArrayEligibilityError(f"{self.name}: suspect {suspects!r} is not a set")
        for q in suspects:
            if type(q) is not int or not 0 <= q < n:
                raise ArrayEligibilityError(f"{self.name}: suspect entry {q!r} is not a pid")
        decided_at = mapping["decided_at_clock"]
        if decided_at is not None:
            _require_int64(decided_at, "decided_at_clock")
        return (
            self.pi.encode_decision(mapping["last_decision"], "last_decision"),
            0 if decided_at is None else decided_at,
            decided_at is not None,
            [q in suspects for q in range(n)],
        )

    def read_own(self, last_dec, dec_at, dec_at_set, suspect) -> Dict[str, Any]:
        return {
            "suspect": frozenset(q for q, flag in enumerate(suspect) if flag),
            "last_decision": self.pi.decode_decision(last_dec),
            "decided_at_clock": dec_at if dec_at_set else None,
        }

    def step(self, state, wire) -> None:
        np = get_numpy()
        final_round, clock, suspect = self.final_round, state["clock"], state["suspect"]
        deliv, clock_q = wire.delivered, clock[:, None, :]
        new_clock = np.where(deliv, clock_q, SMALL).max(axis=2) + 1
        at_my = deliv & (clock_q == clock[:, :, None])
        k = clock % final_round + 1
        inner = self.pi.step(np, state, at_my & ~suspect if self.sync.use_suspects else at_my, k)
        journal = (k == final_round) & (inner["dec"] != 0)
        state["last_dec"] = np.where(journal, inner["dec"], state["last_dec"])
        state["dec_at"] = np.where(journal, clock, state["dec_at"])
        state["dec_at_set"] = state["dec_at_set"] | journal
        reset = new_clock % final_round == 0  # normalize(c') == 1
        for key, row in zip(self.pi.columns, state["init"]):
            state[key] = np.where(reset, row, inner.get(key, state[key]))
        state["suspect"] = np.where(reset[:, :, None], False, suspect | ~at_my)
        state["clock"] = new_clock


# ---------------------------------------------------------------------------
# The ◇S detector stack: suspect-matrix columns
# ---------------------------------------------------------------------------

#: Integer encodings of the Figure 4 verdicts in the status matrix.
_ALIVE_CODE, _DEAD_CODE = 0, 1


class ArrayDetectorStack(_DenseTwin):
    """Batched :class:`DetectorStack`: heartbeat-◇P + Figure 4 as matrices.

    Per lane, every per-target vector becomes an ``(n, n)`` matrix
    indexed ``[process, target]``: ``last_heard``/``timeout``/``num``
    as int64, ``suspected`` as bool, ``status`` as 0/1 codes.  The
    heartbeat and tick layers vectorize directly (each slot is
    independent).  The Figure 4 adoption folds senders in ascending
    order and adopts only a strictly larger version, so the first best
    sender wins: per receiver, one ``argmax`` (the first maximum) over
    a target-major copy of ``num``, masked by what it delivered.  It is
    no Π twin under a wrapper (see ``docs/array.md``).
    """

    _keys = ("clock", "last_heard", "timeout", "suspected", "num", "status")
    _FIELDS = frozenset(_keys[1:]) | {CLOCK_KEY}
    _START = 0

    def columns(self, np, n, lanes) -> Dict[str, Any]:
        cube = (lanes, n, n)
        return {
            "last_heard": np.zeros(cube, dtype=np.int64),
            "timeout": np.full(cube, self.sync.initial_timeout, dtype=np.int64),
            "suspected": np.zeros(cube, dtype=bool),
            "num": np.zeros(cube, dtype=np.int64),
            "status": np.full(cube, _ALIVE_CODE, dtype=np.int64),
            "eye": np.eye(n, dtype=bool),
        }

    def load_row(self, mapping, n) -> tuple:
        _require_bounded_int(mapping[CLOCK_KEY], CLOCK_KEY)
        vectors = [mapping[key] for key in self._keys[1:]]
        for key, vector in zip(self._keys[1:], vectors):
            # exact type: a tuple would read back as a list
            if type(vector) is not list or len(vector) != n:
                raise ArrayEligibilityError(f"{self.name}: {key} is not a length-{n} list")
        heard, timeout, suspected, num, status = vectors
        for key, vector in (("last_heard", heard), ("timeout", timeout), ("num", num)):
            for entry in vector:
                _require_bounded_int(entry, key)
        if not all(isinstance(flag, bool) for flag in suspected):
            raise ArrayEligibilityError(f"{self.name}: suspected {suspected!r} holds a non-bool")
        if not all(verdict in (ALIVE, DEAD) for verdict in status):
            raise ArrayEligibilityError(f"{self.name}: status {status!r} holds a non-verdict")
        codes = [_DEAD_CODE if verdict == DEAD else _ALIVE_CODE for verdict in status]
        return heard, timeout, suspected, num, codes

    def read_row(self, n, heard, timeout, suspected, num, status) -> Dict[str, Any]:
        return {
            "last_heard": heard,
            "timeout": timeout,
            "suspected": suspected,
            "num": num,
            "status": [DEAD if v else ALIVE for v in status],
        }

    def step(self, state, wire) -> None:
        np = get_numpy()
        mt, eye = self.sync.max_timeout, state["eye"]
        clock, heard, timeout = state["clock"], state["last_heard"], state["timeout"]
        suspected, num, status = state["suspected"], state["num"], state["status"]
        deliv, now = wire.delivered, clock[:, :, None]
        # 1. heartbeats: unsuspect + backoff, refresh last_heard.
        timeout = np.where(suspected & deliv, np.minimum(timeout * 2, mt), timeout)
        suspected = suspected & ~deliv
        heard = np.where(deliv, now, heard)
        # 2. first-max-wins adoption: per receiver, the first best delivered
        # sender of every target, from num copied [lane, target, sender].
        by_target = np.ascontiguousarray(num.transpose(0, 2, 1))
        winner = np.empty_like(num)  # [lane, receiver, target]
        for p in range(state["n"]):
            winner[:, p] = np.where(deliv[:, p, None, :], by_target, SMALL).argmax(axis=2)
        best = np.take_along_axis(num, winner, axis=1)
        adopt = deliv.any(axis=2)[:, :, None] & (best > num)  # nothing heard: no winner
        num = np.where(adopt, best, num)
        status = np.where(adopt, np.take_along_axis(status, winner, axis=1), status)
        # 3. suspicion tick with the corruption guards.
        heard = np.where(eye, now, np.minimum(heard, now))
        timeout = np.where(eye | ((timeout > 0) & (timeout <= mt)), timeout, mt)
        suspected = (suspected | (now - heard > timeout)) & ~eye
        # 4. Figure 4 tick: suspicion increments, then self.
        state.update(
            clock=clock + 1,
            last_heard=heard,
            timeout=timeout,
            suspected=suspected,
            num=num + suspected + eye,
            status=np.where(eye, _ALIVE_CODE, np.where(suspected, _DEAD_CODE, status)),
        )


# ---------------------------------------------------------------------------
# Registry: exact types only
# ---------------------------------------------------------------------------

#: The Π twins, by the exact type of the canonical protocol they batch ...
_PI_TWINS = {FloodMinConsensus: _FloodMinPi, PhaseQueenConsensus: _PhaseQueenPi}
#: ... and the wrappers that run them, by the exact type of the wrapper.
_WRAPPERS = {CanonicalRunner: _ArrayRunner, CompiledProtocol: _ArrayCompiled}


def _builtin_matcher(protocol: SyncProtocol) -> Optional[ArrayProtocol]:
    # Exact type matches: a user subclass may override update() in ways
    # the batched twin would silently ignore, so it must fall back.
    if type(protocol) is DetectorStack:
        return ArrayDetectorStack(protocol)
    wrapper = _WRAPPERS.get(type(protocol))
    pi = wrapper and _PI_TWINS.get(type(protocol.canonical))
    return pi and wrapper(protocol, pi(protocol.canonical))


def as_array_protocol(protocol: SyncProtocol) -> Optional[ArrayProtocol]:
    """The batched twin of ``protocol``, or ``None`` if it has none.

    A clock declaration needs no matcher: its twin is derived from it."""
    if declared(protocol):
        return ArrayClock(protocol)
    return _builtin_matcher(protocol)
