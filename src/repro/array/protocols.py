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
- ``kind="dense"`` — full-information protocols (FloodMin under
  Figure 2, and the Figure 3 compilation) that need per-(sender,
  receiver) delivery info.  The driver hands them a dense delivered
  matrix; size is eligibility-bounded.

A protocol whose whole state is the round variable needs no twin of its
own: declared as a :class:`~repro.sync.clock.ClockProtocol`, it batches
through :class:`ArrayClock`, which is derived from the declaration.  To
add any other batched protocol: implement :class:`ArrayProtocol` for it
and append a matcher with :func:`register_array_protocol` (see
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
    "register_array_protocol",
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
    the driver except through the methods below.  Cells belonging to
    crashed processes may hold garbage after their crash round — the
    driver masks dead senders/receivers out of every wire, and never
    reads a dead cell's state.
    """

    #: "csr" (neighborhood reduction) or "dense" (needs the full matrix).
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


def _require_clock(mapping: Mapping) -> int:
    if CLOCK_KEY not in mapping:
        raise ArrayEligibilityError(
            f"state {dict(mapping)!r} lacks the round variable ({CLOCK_KEY!r})"
        )
    value = mapping[CLOCK_KEY]
    if type(value) is bool or not isinstance(value, int):
        raise ArrayEligibilityError(f"non-integer clock {value!r} cannot be batched")
    if not SMALL <= value < BIG:
        raise ArrayEligibilityError(f"clock {value!r} is outside [-2**62, 2**62)")
    return value


def _require_fields(name: str, mapping: Mapping, allowed: frozenset) -> int:
    """The validated clock of a mapping that holds no field outside ``allowed``."""
    value = _require_clock(mapping)
    if not mapping.keys() <= allowed:
        raise ArrayEligibilityError(
            f"{name}: unexpected state fields {sorted(set(mapping) - allowed)}"
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
    if mapping.get("n") != n:
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
                    _require_clock({CLOCK_KEY: value})
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
# FloodMin as bitmask columns: Figure 2 runner and Figure 3 compilation
# ---------------------------------------------------------------------------


def _universe_of(canonical: FloodMinConsensus) -> tuple:
    universe = tuple(sorted(set(canonical.proposals) | set(canonical.domain)))
    if len(universe) > MAX_UNIVERSE:
        raise ArrayEligibilityError(
            f"floodmin value universe has {len(universe)} members; the "
            f"bitmask columns support at most {MAX_UNIVERSE}"
        )
    return universe


class _FloodMinCodec:
    """Shared encode/decode between value sets and bitmask ints."""

    def __init__(self, canonical: FloodMinConsensus):
        self.canonical = canonical
        self.universe = _universe_of(canonical)
        self.index = {value: i for i, value in enumerate(self.universe)}
        self.final_round = canonical.final_round

    def encode_value(self, value, what: str) -> int:
        index = self.index.get(value)
        if index is None:
            raise ArrayEligibilityError(
                f"{what} {value!r} outside the floodmin value universe"
            )
        return index

    def encode_values(self, values, what: str) -> int:
        mask = 0
        for value in values:
            mask |= 1 << self.encode_value(value, what)
        return mask

    def decode_values(self, mask: int) -> frozenset:
        out = []
        index = 0
        while mask:
            if mask & 1:
                out.append(self.universe[index])
            mask >>= 1
            index += 1
        return frozenset(out)

    def encode_decision(self, decision, what: str) -> int:
        if decision is None:
            return 0
        return self.encode_value(decision, what) + 1

    def decode_decision(self, code: int):
        return None if code == 0 else self.universe[code - 1]

    def inner_dict(self, prop_idx: int, vmask: int, dec_code: int) -> Dict[str, Any]:
        return {
            "proposal": self.universe[prop_idx],
            "values": self.decode_values(vmask),
            "decision": self.decode_decision(dec_code),
        }

    def load_inner(self, inner: Mapping) -> tuple:
        extra = set(inner) - {"proposal", "values", "decision"}
        if extra:
            raise ArrayEligibilityError(
                f"floodmin inner state has unexpected fields {sorted(extra)}"
            )
        prop = self.encode_value(inner["proposal"], "proposal")
        vmask = self.encode_values(inner["values"], "value")
        dec = self.encode_decision(inner.get("decision"), "decision")
        return prop, vmask, dec

    def initial_columns(self, n: int):
        prop = [self.encode_value(self.canonical.proposal_for(pid), "proposal")
                for pid in range(n)]
        vmask = [1 << index for index in prop]
        return prop, vmask

    def lowest_bit_python(self, mask: int) -> int:
        return (mask & -mask).bit_length() - 1


#: State fields of a :class:`CanonicalRunner` (the Figure 2 wrapper).
_RUNNER_FIELDS = frozenset({CLOCK_KEY, "inner", "halted", "n"})


def _check_dense_size(n: int, lanes: int) -> None:
    if lanes * n * n > DENSE_CELL_LIMIT:
        raise ArrayEligibilityError(
            f"dense wire of {lanes} x {n} x {n} cells exceeds the "
            f"{DENSE_CELL_LIMIT} limit; batch fewer lanes or fall back"
        )


class ArrayFtFloodMin(ArrayProtocol):
    """Batched Figure 2 runner over FloodMin (``ft:floodmin(f=..)``).

    Value sets become bitmask ints over the sorted value universe, so
    the flood-merge is a masked bitwise-OR reduction and decide-min is
    the lowest set bit.  The halted flag freezes cells exactly as the
    reference runner does.
    """

    kind = "dense"

    def __init__(self, sync: CanonicalRunner):
        super().__init__(sync)
        self.codec = _FloodMinCodec(sync.canonical)

    def initial_states(self, n: int, lanes: int, backend: str) -> Any:
        _check_dense_size(n, lanes)
        prop0, vmask0 = self.codec.initial_columns(n)
        state = {
            "backend": backend,
            "lanes": lanes,
            "n": n,
            "clock": _int_matrix(backend, lanes, n, 1),
            "halted": _int_matrix(backend, lanes, n, 0),
            "prop": _int_matrix(backend, lanes, n, 0),
            "vmask": _int_matrix(backend, lanes, n, 0),
            "dec": _int_matrix(backend, lanes, n, 0),
        }
        for lane in range(lanes):
            for pid in range(n):
                state["prop"][lane][pid] = prop0[pid]
                state["vmask"][lane][pid] = vmask0[pid]
        if backend == "numpy":
            np = get_numpy()
            state["prop"] = np.asarray(state["prop"], dtype=np.int64)
            state["vmask"] = np.asarray(state["vmask"], dtype=np.int64)
        return state

    _COLUMNS = ("clock", "halted", "prop", "vmask", "dec")

    def load_states(self, state, lane, mappings) -> None:
        rows = []
        for mapping in mappings.values():
            value = _require_fields(self.name, mapping, _RUNNER_FIELDS)
            _require_run_n(self.name, mapping, state["n"])
            halted = 1 if mapping["halted"] else 0
            rows.append((value, halted, *self.codec.load_inner(mapping["inner"])))
        _store_columns(state, lane, mappings, self._COLUMNS, zip(*rows))

    def read_states(self, state, lane, pids=None) -> List[Dict[str, Any]]:
        return [
            {
                CLOCK_KEY: clock,
                "inner": self.codec.inner_dict(prop, vmask, dec),
                "halted": bool(halted),
                "n": state["n"],
            }
            for clock, halted, prop, vmask, dec in _lane_rows(
                state, self._COLUMNS, lane, pids
            )
        ]

    def silent_pids(self, state, lane) -> frozenset:
        halted = state["halted"][lane]
        return frozenset(pid for pid in range(state["n"]) if halted[pid])

    def step(self, state, wire) -> None:
        FR = self.codec.final_round
        if state["backend"] == "numpy":
            np = get_numpy()
            clock, halted = state["clock"], state["halted"].astype(bool)
            vmask, dec = state["vmask"], state["dec"]
            deliv = wire.delivered & ~halted[:, None, :]
            contrib = np.where(deliv, vmask[:, None, :], 0)
            merged = vmask | np.bitwise_or.reduce(contrib, axis=2)
            decide = (~halted) & (clock == FR) & (merged != 0)
            low = merged & -merged
            low_idx = np.log2(np.where(low > 0, low, 1).astype(np.float64)).astype(
                np.int64
            )
            state["vmask"] = np.where(halted, vmask, merged)
            state["dec"] = np.where(decide, low_idx + 1, dec)
            state["clock"] = np.where(halted, clock, clock + 1)
            state["halted"] = (halted | (clock == FR)).astype(np.int64)
            return
        lanes, n = state["lanes"], state["n"]
        for lane in range(lanes):
            clock, halted = state["clock"][lane], state["halted"][lane]
            vmask, dec = state["vmask"][lane], state["dec"][lane]
            senders = wire.delivered[lane]  # per-receiver sender sets
            new_clock, new_halted, new_vmask, new_dec = [], [], [], []
            for p in range(n):
                if halted[p]:
                    new_clock.append(clock[p])
                    new_halted.append(1)
                    new_vmask.append(vmask[p])
                    new_dec.append(dec[p])
                    continue
                merged = vmask[p]
                for q in senders[p]:
                    if not halted[q]:
                        merged |= vmask[q]
                decided = dec[p]
                if clock[p] == FR and merged:
                    decided = self.codec.lowest_bit_python(merged) + 1
                new_clock.append(clock[p] + 1)
                new_halted.append(1 if clock[p] == FR else 0)
                new_vmask.append(merged)
                new_dec.append(decided)
            state["clock"][lane] = new_clock
            state["halted"][lane] = new_halted
            state["vmask"][lane] = new_vmask
            state["dec"][lane] = new_dec


class ArrayCompiledFloodMin(ArrayProtocol):
    """Batched Figure 3 compilation Π⁺ over FloodMin.

    The suspect sets become per-lane ``(n, n)`` boolean matrices, the
    round-tag bookkeeping becomes broadcast comparisons against the
    clock column, and the iteration reset is a masked restore of the
    canonical initial columns.  Honors ``use_suspects`` (the
    ABL-SUSPECT ablation).
    """

    kind = "dense"

    def __init__(self, sync: CompiledProtocol):
        super().__init__(sync)
        self.codec = _FloodMinCodec(sync.canonical)
        self.use_suspects = sync.use_suspects

    def initial_states(self, n: int, lanes: int, backend: str) -> Any:
        _check_dense_size(n, lanes)
        prop0, vmask0 = self.codec.initial_columns(n)
        state = {
            "backend": backend,
            "lanes": lanes,
            "n": n,
            "clock": _int_matrix(backend, lanes, n, 0),
            "prop": _int_matrix(backend, lanes, n, 0),
            "vmask": _int_matrix(backend, lanes, n, 0),
            "dec": _int_matrix(backend, lanes, n, 0),
            "last_dec": _int_matrix(backend, lanes, n, 0),
            "dec_at": _int_matrix(backend, lanes, n, 0),
            "dec_at_set": _int_matrix(backend, lanes, n, 0),
        }
        for lane in range(lanes):
            for pid in range(n):
                state["prop"][lane][pid] = prop0[pid]
                state["vmask"][lane][pid] = vmask0[pid]
        if backend == "numpy":
            np = get_numpy()
            state["prop"] = np.asarray(state["prop"], dtype=np.int64)
            state["vmask"] = np.asarray(state["vmask"], dtype=np.int64)
            state["suspect"] = np.zeros((lanes, n, n), dtype=bool)
            state["init_prop"] = np.asarray(prop0, dtype=np.int64)
            state["init_vmask"] = np.asarray(vmask0, dtype=np.int64)
        else:
            state["suspect"] = [[set() for _ in range(n)] for _ in range(lanes)]
            state["init_prop"] = list(prop0)
            state["init_vmask"] = list(vmask0)
        return state

    _FIELDS = frozenset(
        {CLOCK_KEY, "inner", "suspect", "n", "last_decision", "decided_at_clock"}
    )
    _COLUMNS = (
        "clock", "prop", "vmask", "dec", "last_dec", "dec_at", "dec_at_set", "suspect"
    )

    def load_states(self, state, lane, mappings) -> None:
        n, numpy = state["n"], state["backend"] == "numpy"
        rows = []
        for mapping in mappings.values():
            value = _require_fields(self.name, mapping, self._FIELDS)
            _require_run_n(self.name, mapping, n)
            for q in mapping["suspect"]:
                if not (isinstance(q, int) and 0 <= q < n):
                    raise ArrayEligibilityError(
                        f"{self.name}: suspect entry {q!r} is not a pid"
                    )
            suspects = set(mapping["suspect"])
            inner = self.codec.load_inner(mapping["inner"])
            last_dec = self.codec.encode_decision(
                mapping.get("last_decision"), "last_decision"
            )
            decided_at = mapping.get("decided_at_clock")
            if decided_at is not None and not isinstance(decided_at, int):
                raise ArrayEligibilityError(
                    f"{self.name}: decided_at_clock {decided_at!r} is not an int"
                )
            rows.append((
                value, *inner, last_dec,
                0 if decided_at is None else decided_at,
                0 if decided_at is None else 1,
                [q in suspects for q in range(n)] if numpy else suspects,
            ))
        _store_columns(state, lane, mappings, self._COLUMNS, zip(*rows))

    def read_states(self, state, lane, pids=None) -> List[Dict[str, Any]]:
        numpy = state["backend"] == "numpy"
        return [
            {
                CLOCK_KEY: clock,
                "inner": self.codec.inner_dict(prop, vmask, dec),
                "suspect": frozenset(
                    [q for q, flag in enumerate(suspect) if flag] if numpy else suspect
                ),
                "n": state["n"],
                "last_decision": self.codec.decode_decision(last_dec),
                "decided_at_clock": dec_at if dec_at_set else None,
            }
            for clock, prop, vmask, dec, last_dec, dec_at, dec_at_set, suspect
            in _lane_rows(state, self._COLUMNS, lane, pids)
        ]

    def step(self, state, wire) -> None:
        FR = self.codec.final_round
        if state["backend"] == "numpy":
            np = get_numpy()
            clock = state["clock"]
            vmask, dec = state["vmask"], state["dec"]
            suspect = state["suspect"]
            deliv = wire.delivered
            clock_q = clock[:, None, :]
            clock_p = clock[:, :, None]
            tags = np.where(deliv, clock_q, SMALL)
            new_clock = tags.max(axis=2) + 1
            at_my = deliv & (clock_q == clock_p)
            contrib_mask = at_my & ~suspect if self.use_suspects else at_my
            merged = vmask | np.bitwise_or.reduce(
                np.where(contrib_mask, vmask[:, None, :], 0), axis=2
            )
            suspects_new = suspect | ~at_my
            k = clock % FR + 1
            decide = (k == FR) & (merged != 0)
            low = merged & -merged
            low_idx = np.log2(np.where(low > 0, low, 1).astype(np.float64)).astype(
                np.int64
            )
            dec_new = np.where(decide, low_idx + 1, dec)
            journal = (k == FR) & (dec_new != 0)
            state["last_dec"] = np.where(journal, dec_new, state["last_dec"])
            state["dec_at"] = np.where(journal, clock, state["dec_at"])
            state["dec_at_set"] = state["dec_at_set"] | journal
            reset = (new_clock % FR + 1) == 1
            state["vmask"] = np.where(reset, state["init_vmask"][None, :], merged)
            state["prop"] = np.where(reset, state["init_prop"][None, :], state["prop"])
            state["dec"] = np.where(reset, 0, dec_new)
            state["suspect"] = np.where(reset[:, :, None], False, suspects_new)
            state["clock"] = new_clock
            return
        lanes, n = state["lanes"], state["n"]
        for lane in range(lanes):
            clock = state["clock"][lane]
            vmask, dec = state["vmask"][lane], state["dec"][lane]
            prop = state["prop"][lane]
            last_dec, dec_at = state["last_dec"][lane], state["dec_at"][lane]
            dec_at_set = state["dec_at_set"][lane]
            suspect = state["suspect"][lane]
            senders = wire.delivered[lane]  # per-receiver sender sets
            out = {key: [] for key in
                   ("clock", "vmask", "dec", "prop", "last_dec", "dec_at",
                    "dec_at_set", "suspect")}
            for p in range(n):
                arrived = senders[p]
                if arrived:
                    tag_max = max(clock[q] for q in arrived)
                else:  # dead receiver: frozen garbage
                    tag_max = clock[p] - 1
                new_clock = tag_max + 1
                at_my = {q for q in arrived if clock[q] == clock[p]}
                merged = vmask[p]
                for q in at_my:
                    if not self.use_suspects or q not in suspect[p]:
                        merged |= vmask[q]
                suspects_new = suspect[p] | (set(range(n)) - at_my)
                k = clock[p] % FR + 1
                decided = dec[p]
                if k == FR and merged:
                    decided = self.codec.lowest_bit_python(merged) + 1
                if k == FR and decided:
                    last, at, at_set = decided, clock[p], 1
                else:
                    last, at, at_set = last_dec[p], dec_at[p], dec_at_set[p]
                if new_clock % FR + 1 == 1:
                    out["vmask"].append(state["init_vmask"][p])
                    out["prop"].append(state["init_prop"][p])
                    out["dec"].append(0)
                    out["suspect"].append(set())
                else:
                    out["vmask"].append(merged)
                    out["prop"].append(prop[p])
                    out["dec"].append(decided)
                    out["suspect"].append(suspects_new)
                out["clock"].append(new_clock)
                out["last_dec"].append(last)
                out["dec_at"].append(at)
                out["dec_at_set"].append(at_set)
            state["clock"][lane] = out["clock"]
            state["vmask"][lane] = out["vmask"]
            state["dec"][lane] = out["dec"]
            state["prop"][lane] = out["prop"]
            state["last_dec"][lane] = out["last_dec"]
            state["dec_at"][lane] = out["dec_at"]
            state["dec_at_set"][lane] = out["dec_at_set"]
            state["suspect"][lane] = out["suspect"]


# ---------------------------------------------------------------------------
# Phase-queen consensus: the Figure 2 runner over Berman-Garay
# ---------------------------------------------------------------------------


def _require_binary(value, what: str) -> int:
    if type(value) is not int or value not in (0, 1):
        raise ArrayEligibilityError(f"{what} {value!r} is not a binary value")
    return value


def _require_bounded_int(value, what: str) -> int:
    if type(value) is bool or not isinstance(value, int):
        raise ArrayEligibilityError(f"{what} {value!r} is not an int")
    if not -(1 << 40) < value < (1 << 40):
        raise ArrayEligibilityError(f"{what} {value!r} overflows the int64 columns")
    return value


class ArrayPhaseQueen(ArrayProtocol):
    """Batched Figure 2 runner over phase-queen (``ft:phase-queen(f=..)``).

    All inner fields are binary or small ints, so the whole protocol
    fits seven ``(lanes, n)`` integer columns.  The ballot round is two
    masked sums (the 0-tally and the 1-tally; the tie-toward-0 rule
    becomes ``count1 > count0``); the queen round gathers the per-cell
    queen's broadcast majority with ``take_along_axis``.  Corruption
    can desynchronize clocks, so every cell branches on its own clock
    parity rather than the round number.
    """

    kind = "dense"

    def __init__(self, sync: CanonicalRunner):
        super().__init__(sync)
        canonical = sync.canonical
        self.f = canonical.f
        self.final_round = canonical.final_round

    def initial_states(self, n: int, lanes: int, backend: str) -> Any:
        _check_dense_size(n, lanes)
        canonical = self.sync.canonical
        props = [canonical.proposal_for(pid) for pid in range(n)]
        state = {
            "backend": backend,
            "lanes": lanes,
            "n": n,
            "clock": _int_matrix(backend, lanes, n, 1),
            "halted": _int_matrix(backend, lanes, n, 0),
            "prop": _int_matrix(backend, lanes, n, 0),
            "value": _int_matrix(backend, lanes, n, 0),
            "majority": _int_matrix(backend, lanes, n, 0),
            "count": _int_matrix(backend, lanes, n, 0),
            "dec": _int_matrix(backend, lanes, n, 0),
        }
        for lane in range(lanes):
            for pid in range(n):
                state["prop"][lane][pid] = props[pid]
                state["value"][lane][pid] = props[pid]
                state["majority"][lane][pid] = props[pid]
        if backend == "numpy":
            np = get_numpy()
            for key in ("prop", "value", "majority"):
                state[key] = np.asarray(state[key], dtype=np.int64)
        return state

    _INNER_FIELDS = frozenset({"proposal", "value", "majority", "count", "decision"})
    _COLUMNS = ("clock", "halted", "prop", "value", "majority", "count", "dec")

    def load_states(self, state, lane, mappings) -> None:
        rows = []
        for mapping in mappings.values():
            value = _require_fields(self.name, mapping, _RUNNER_FIELDS)
            _require_run_n(self.name, mapping, state["n"])
            inner = mapping["inner"]
            if not inner.keys() <= self._INNER_FIELDS:
                raise ArrayEligibilityError(
                    f"{self.name}: unexpected inner fields "
                    f"{sorted(set(inner) - self._INNER_FIELDS)}"
                )
            decision = inner.get("decision")
            if decision is not None:
                _require_binary(decision, "decision")
            rows.append((
                value,
                1 if mapping["halted"] else 0,
                _require_binary(inner["proposal"], "proposal"),
                _require_binary(inner["value"], "value"),
                _require_binary(inner["majority"], "majority"),
                _require_bounded_int(inner["count"], "count"),
                0 if decision is None else decision + 1,
            ))
        _store_columns(state, lane, mappings, self._COLUMNS, zip(*rows))

    def read_states(self, state, lane, pids=None) -> List[Dict[str, Any]]:
        return [
            {
                CLOCK_KEY: clock,
                "inner": {
                    "proposal": prop,
                    "value": value,
                    "majority": majority,
                    "count": count,
                    "decision": None if dec == 0 else dec - 1,
                },
                "halted": bool(halted),
                "n": state["n"],
            }
            for clock, halted, prop, value, majority, count, dec in _lane_rows(
                state, self._COLUMNS, lane, pids
            )
        ]

    def silent_pids(self, state, lane) -> frozenset:
        halted = state["halted"][lane]
        return frozenset(pid for pid in range(state["n"]) if halted[pid])

    def step(self, state, wire) -> None:
        FR, f = self.final_round, self.f
        n = state["n"]
        if state["backend"] == "numpy":
            np = get_numpy()
            clock = state["clock"]
            halted = state["halted"].astype(bool)
            value, majority = state["value"], state["majority"]
            count, dec = state["count"], state["dec"]
            deliv = wire.delivered & ~halted[:, None, :]
            # Ballot round (odd clocks): masked binary tallies.
            sent = value[:, None, :]
            count1 = (deliv & (sent == 1)).sum(axis=2)
            count0 = (deliv & (sent == 0)).sum(axis=2)
            total = count0 + count1
            best = (count1 > count0).astype(np.int64)
            ballot_majority = np.where(total > 0, best, value)
            ballot_count = np.where(
                total > 0, np.where(count1 > count0, count1, count0), 0
            )
            # Queen round (even clocks): keep when sure, else adopt the
            # queen's broadcast majority, else keep the local majority.
            phase = (clock + 1) // 2
            queen = (phase - 1) % n
            queen_sent = np.take_along_axis(deliv, queen[:, :, None], axis=2)[:, :, 0]
            queen_majority = np.take_along_axis(majority, queen, axis=1)
            sure = 2 * count > n + 2 * f
            queen_value = np.where(
                sure, majority, np.where(queen_sent, queen_majority, majority)
            )
            odd = clock % 2 == 1
            new_value = np.where(odd, value, queen_value)
            new_majority = np.where(odd, ballot_majority, majority)
            new_count = np.where(odd, ballot_count, count)
            new_dec = np.where(~odd & (clock == FR), queen_value + 1, dec)
            state["value"] = np.where(halted, value, new_value)
            state["majority"] = np.where(halted, majority, new_majority)
            state["count"] = np.where(halted, count, new_count)
            state["dec"] = np.where(halted, dec, new_dec)
            state["clock"] = np.where(halted, clock, clock + 1)
            state["halted"] = (halted | (clock == FR)).astype(np.int64)
            return
        for lane in range(state["lanes"]):
            clock, halted = state["clock"][lane], state["halted"][lane]
            value, majority = state["value"][lane], state["majority"][lane]
            count, dec = state["count"][lane], state["dec"][lane]
            senders = wire.delivered[lane]  # per-receiver sender sets
            out = {key: [] for key in
                   ("clock", "halted", "value", "majority", "count", "dec")}
            for p in range(n):
                if halted[p]:
                    for key, column in (
                        ("clock", clock), ("halted", halted), ("value", value),
                        ("majority", majority), ("count", count), ("dec", dec),
                    ):
                        out[key].append(column[p])
                    continue
                k = clock[p]
                arrived = [q for q in sorted(senders[p]) if not halted[q]]
                if k % 2 == 1:
                    count1 = sum(1 for q in arrived if value[q] == 1)
                    count0 = len(arrived) - count1
                    if arrived:
                        new_majority = 1 if count1 > count0 else 0
                        new_count = count1 if count1 > count0 else count0
                    else:
                        new_majority, new_count = value[p], 0
                    new_value, new_dec = value[p], dec[p]
                else:
                    queen = ((k + 1) // 2 - 1) % n
                    if 2 * count[p] > n + 2 * f or queen not in arrived:
                        new_value = majority[p]
                    else:
                        new_value = majority[queen]
                    new_majority, new_count = majority[p], count[p]
                    new_dec = new_value + 1 if k == FR else dec[p]
                out["clock"].append(k + 1)
                out["halted"].append(1 if k == FR else 0)
                out["value"].append(new_value)
                out["majority"].append(new_majority)
                out["count"].append(new_count)
                out["dec"].append(new_dec)
            for key, column in out.items():
                state[key][lane] = column


# ---------------------------------------------------------------------------
# The ◇S detector stack: suspect-matrix columns
# ---------------------------------------------------------------------------

#: Integer encodings of the Figure 4 verdicts in the status matrix.
_ALIVE_CODE, _DEAD_CODE = 0, 1


class ArrayDetectorStack(ArrayProtocol):
    """Batched :class:`DetectorStack`: heartbeat-◇P + Figure 4 as matrices.

    Per lane, every per-target vector becomes an ``(n, n)`` matrix
    indexed ``[process, target]``: ``last_heard``/``timeout``/``num``
    as int64, ``suspected`` as bool, ``status`` as 0/1 codes.  The
    heartbeat and tick layers vectorize directly (each slot is
    independent); the Figure 4 adoption folds senders in ascending
    order, which collapses to first-max-wins — ``argmax`` over the
    delivered-masked version offers picks the same winner the
    sequential fold does, one target column at a time.
    """

    kind = "dense"

    def __init__(self, sync: DetectorStack):
        super().__init__(sync)
        self.max_timeout = sync.max_timeout

    def _matrix_stack(self, backend: str, lanes: int, n: int, fill: int):
        if backend == "numpy":
            np = get_numpy()
            return np.full((lanes, n, n), fill, dtype=np.int64)
        return [[[fill] * n for _ in range(n)] for _ in range(lanes)]

    def initial_states(self, n: int, lanes: int, backend: str) -> Any:
        _check_dense_size(n, lanes)
        state = {
            "backend": backend,
            "lanes": lanes,
            "n": n,
            "clock": _int_matrix(backend, lanes, n, 0),
            "last_heard": self._matrix_stack(backend, lanes, n, 0),
            "timeout": self._matrix_stack(
                backend, lanes, n, self.sync.initial_timeout
            ),
            "suspected": self._matrix_stack(backend, lanes, n, 0),
            "num": self._matrix_stack(backend, lanes, n, 0),
            "status": self._matrix_stack(backend, lanes, n, _ALIVE_CODE),
        }
        if backend == "numpy":
            np = get_numpy()
            state["suspected"] = state["suspected"].astype(bool)
            state["eye"] = np.eye(n, dtype=bool)
        return state

    _COLUMNS = ("clock", "last_heard", "timeout", "suspected", "num", "status")
    _FIELDS = frozenset(_COLUMNS[1:]) | {CLOCK_KEY}

    def load_states(self, state, lane, mappings) -> None:
        n = state["n"]
        rows = []
        for mapping in mappings.values():
            value = _require_fields(self.name, mapping, self._FIELDS)
            for key in self._COLUMNS[1:]:
                vector = mapping[key]
                if not isinstance(vector, (list, tuple)) or len(vector) != n:
                    raise ArrayEligibilityError(
                        f"{self.name}: {key} is not a length-{n} vector"
                    )
            _require_bounded_int(value, CLOCK_KEY)
            for key in ("last_heard", "timeout", "num"):
                for entry in mapping[key]:
                    _require_bounded_int(entry, key)
            for flag in mapping["suspected"]:
                if not isinstance(flag, bool):
                    raise ArrayEligibilityError(
                        f"{self.name}: suspected entry {flag!r} is not a bool"
                    )
            for verdict in mapping["status"]:
                if verdict not in (ALIVE, DEAD):
                    raise ArrayEligibilityError(
                        f"{self.name}: status entry {verdict!r} is not a verdict"
                    )
            rows.append((
                value,
                list(mapping["last_heard"]),
                list(mapping["timeout"]),
                list(mapping["suspected"]),
                list(mapping["num"]),
                [_DEAD_CODE if v == DEAD else _ALIVE_CODE for v in mapping["status"]],
            ))
        _store_columns(state, lane, mappings, self._COLUMNS, zip(*rows))

    def read_states(self, state, lane, pids=None) -> List[Dict[str, Any]]:
        return [
            {
                CLOCK_KEY: clock,
                "last_heard": list(heard),
                "timeout": list(timeout),
                "suspected": [bool(v) for v in suspected],
                "num": list(num),
                "status": [DEAD if v else ALIVE for v in status],
            }
            for clock, heard, timeout, suspected, num, status in _lane_rows(
                state, self._COLUMNS, lane, pids
            )
        ]

    def step(self, state, wire) -> None:
        mt = self.max_timeout
        n = state["n"]
        if state["backend"] == "numpy":
            np = get_numpy()
            clock = state["clock"]
            heard, timeout = state["last_heard"], state["timeout"]
            suspected = state["suspected"]
            num, status = state["num"], state["status"]
            deliv = wire.delivered
            now = clock[:, :, None]
            eye = state["eye"]
            # 1. heartbeats: unsuspect + backoff, refresh last_heard.
            timeout = np.where(
                suspected & deliv, np.minimum(timeout * 2, mt), timeout
            )
            suspected = suspected & ~deliv
            heard = np.where(deliv, now, heard)
            # 2. first-max-wins adoption, one target column at a time.
            new_num, new_status = num.copy(), status.copy()
            for s in range(n):
                offers = np.where(deliv, num[:, :, s][:, None, :], SMALL)
                best = offers.max(axis=2)
                winner = offers.argmax(axis=2)  # the first best sender
                adopt = best > num[:, :, s]
                winner_status = np.take_along_axis(status[:, :, s], winner, axis=1)
                new_num[:, :, s] = np.where(adopt, best, num[:, :, s])
                new_status[:, :, s] = np.where(
                    adopt, winner_status, status[:, :, s]
                )
            num, status = new_num, new_status
            # 3. suspicion tick with the corruption guards.
            heard = np.where(eye, now, np.minimum(heard, now))
            timeout = np.where(eye | ((timeout > 0) & (timeout <= mt)), timeout, mt)
            suspected = (suspected | (now - heard > timeout)) & ~eye
            # 4. Figure 4 tick: suspicion increments, then self.
            num = num + suspected + eye
            status = np.where(
                eye, _ALIVE_CODE, np.where(suspected, _DEAD_CODE, status)
            )
            state["clock"] = clock + 1
            state["last_heard"] = heard
            state["timeout"] = timeout
            state["suspected"] = suspected
            state["num"] = num
            state["status"] = status
            return
        for lane in range(state["lanes"]):
            senders = wire.delivered[lane]  # per-receiver sender sets
            clock = state["clock"][lane]
            heard_l, timeout_l = state["last_heard"][lane], state["timeout"][lane]
            sus_l = state["suspected"][lane]
            num_l, status_l = state["num"][lane], state["status"][lane]
            new = {key: [] for key in
                   ("clock", "last_heard", "timeout", "suspected", "num", "status")}
            for p in range(n):
                now = clock[p]
                heard, timeout = list(heard_l[p]), list(timeout_l[p])
                sus = list(sus_l[p])
                num, status = list(num_l[p]), list(status_l[p])
                arrived = sorted(senders[p])
                for q in arrived:
                    if sus[q]:
                        sus[q] = False
                        timeout[q] = min(timeout[q] * 2, mt)
                    heard[q] = now
                for q in arrived:
                    offered_num, offered_status = num_l[q], status_l[q]
                    for s in range(n):
                        if offered_num[s] > num[s]:
                            num[s] = offered_num[s]
                            status[s] = offered_status[s]
                for s in range(n):
                    if s == p:
                        sus[s] = False
                        heard[s] = now
                        continue
                    if heard[s] > now:
                        heard[s] = now
                    if not 0 < timeout[s] <= mt:
                        timeout[s] = mt
                    if now - heard[s] > timeout[s]:
                        sus[s] = True
                for s in range(n):
                    if sus[s]:
                        num[s] += 1
                        status[s] = _DEAD_CODE
                    if s == p:
                        num[s] += 1
                        status[s] = _ALIVE_CODE
                new["clock"].append(now + 1)
                new["last_heard"].append(heard)
                new["timeout"].append(timeout)
                new["suspected"].append(sus)
                new["num"].append(num)
                new["status"].append(status)
            for key, column in new.items():
                state[key][lane] = column


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

#: Extension point: each matcher maps a SyncProtocol to an ArrayProtocol
#: (or None).  Matchers added via register_array_protocol run first.
_MATCHERS: List[Callable[[SyncProtocol], Optional[ArrayProtocol]]] = []


def register_array_protocol(
    matcher: Callable[[SyncProtocol], Optional[ArrayProtocol]],
) -> None:
    """Register a custom SyncProtocol -> ArrayProtocol matcher."""
    _MATCHERS.insert(0, matcher)


def _builtin_matcher(protocol: SyncProtocol) -> Optional[ArrayProtocol]:
    # Exact type matches: a user subclass may override update() in ways
    # the batched twin would silently ignore, so it must fall back.
    kind = type(protocol)
    if kind is CanonicalRunner and type(protocol.canonical) is FloodMinConsensus:
        return ArrayFtFloodMin(protocol)
    if kind is CanonicalRunner and type(protocol.canonical) is PhaseQueenConsensus:
        return ArrayPhaseQueen(protocol)
    if kind is CompiledProtocol and type(protocol.canonical) is FloodMinConsensus:
        return ArrayCompiledFloodMin(protocol)
    if kind is DetectorStack:
        return ArrayDetectorStack(protocol)
    return None


def as_array_protocol(protocol: SyncProtocol) -> Optional[ArrayProtocol]:
    """The batched twin of ``protocol``, or ``None`` if it has none.

    A clock declaration needs no matcher: its twin is derived from it."""
    for matcher in _MATCHERS:
        batched = matcher(protocol)
        if batched is not None:
            return batched
    if declared(protocol):
        return ArrayClock(protocol)
    return _builtin_matcher(protocol)
