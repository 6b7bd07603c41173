"""``run_array``: the batched, vectorized synchronous engine.

Executes *many* independent runs ("lanes" — typically all seeds of a
sweep-point batch) of one protocol on one topology in a single pass,
representing the whole cluster as flat per-process columns instead of
one Python object per process per round.

Division of labor
-----------------
The **control plane** is the kernel's, per lane: adversary
``plan_round``/``validate`` calls replayed against one
:class:`~repro.kernel.delivery.Liveness`, one
:class:`~repro.kernel.delivery.RoundLedger` per round (built with the
twin's ``silent_pids``, so every effective deviation is known up front
in O(planned deviations), independent of ``n``), and corruption plans
applied through the real :class:`CorruptionPlan` objects — as columns
when plan and protocol offer them, as dicts otherwise — so seeded rng
streams match the reference engine bit-for-bit.  The **data plane** —
every process's transition over the ledger's deliveries — is vectorized
over ``(lanes, n)`` by the
:class:`~repro.array.protocols.ArrayProtocol`.

Why the adversary cannot be precompiled into masks: each round's
*recorded* deviations (docs/kernel.md, "The round ledger") feed back
into ``faulty_so_far``, which the adversary sees on the next
``plan_round``.  Replaying the adversary inside the loop, against the
same evolving views, is what makes the two engines digest-identical.

Conformance
-----------
With ``record_history=True`` (small ``n`` only — reconstruction is
O(n·deg) Python per round) the driver rebuilds a value-identical
:class:`ExecutionHistory` per lane: states read back from the columns,
payloads produced by the reference protocol's own ``send``, messages
in the engine's exact emission/delivery order.
:mod:`repro.array.conformance` byte-compares those histories' digests
against ``run_sync``.  At scale, recording is dropped and the run
costs O(lanes · n) memory.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.array.backend import get_numpy, pick_backend
from repro.array.protocols import (
    BIG,
    SMALL,
    ArrayEligibilityError,
    ArrayProtocol,
    as_array_protocol,
)
from repro.histories.history import ExecutionHistory, Message, RoundHistory
from repro.kernel.delivery import Liveness, RoundLedger, quiet
from repro.kernel.faults import FaultPlan
from repro.kernel.snapshot import copy_payload
from repro.kernel.topology import (
    DynamicTopology,
    Topology,
    normalize_topology,
    round_edges,
)
from repro.sync.adversary import Adversary, NullAdversary
from repro.sync.protocol import SyncProtocol
from repro.util.validation import require, require_positive, require_process_count

__all__ = ["ArrayRunResult", "run_array"]

ProcessId = int


# ---------------------------------------------------------------------------
# Wire: what the driver hands the protocol each round
# ---------------------------------------------------------------------------


class RoundWire:
    """One round's delivery structure, in backend-native form.

    ``csr`` protocols consume it through :meth:`reduce` alone: min/max
    over the copies delivered this round.  Underneath is either the
    ``complete_fast`` form (one global reduction per lane; ``send_ok``
    masks silenced senders) or the CSR form (``src``/``indptr`` edge
    list grouped by receiver, plus an optional ``keep`` mask), which
    stay readable for third-party twins.  ``dense`` protocols consume
    ``delivered``: numpy — a ``(lanes, n, n)`` bool cube ``[lane,
    receiver, sender]``; python — per-lane lists of per-receiver sender
    sets.
    """

    __slots__ = (
        "backend",
        "lanes",
        "n",
        "complete_fast",
        "graph",
        "keep",
        "send_ok",
        "delivered",
        "chunk",
    )

    def __init__(self, backend: str, lanes: int, n: int, chunk: Optional[int] = None):
        self.backend = backend
        self.lanes = lanes
        self.n = n
        self.complete_fast = False
        self.graph: Optional[_CsrGraph] = None
        self.keep = None
        self.send_ok = None
        self.delivered = None
        #: Memory bound on data-plane temporaries: at most ``chunk``
        #: cells *per lane* per intermediate array (None = unchunked).
        self.chunk = chunk

    @property
    def src(self):
        """Edge sources grouped by receiver (``None`` off the CSR form)."""
        return None if self.graph is None else self.graph.src

    @property
    def indptr(self):
        """Receiver ``p``'s edges are ``src[indptr[p]:indptr[p + 1]]``."""
        return None if self.graph is None else self.graph.indptr

    def reduce(self, column, op: str):
        """Per-receiver ``op`` ("min" / "max") of a per-sender column.

        ``column`` is ``(lanes, n)`` in the wire's backend form; cell
        ``[lane, p]`` of the result reduces ``column[lane, q]`` over the
        senders ``q`` whose copy reached ``p`` this round — crashes,
        omissions, ``chunk`` and the backend are the wire's business.  A
        receiver that heard nobody (dead cells only) gets the identity
        (``BIG`` for min, ``SMALL`` for max).  Treat the result as
        read-only: on the complete graph it is a broadcast view.
        """
        if op not in ("min", "max"):
            raise ValueError(f"unknown reduction {op!r}")
        identity = BIG if op == "min" else SMALL
        if self.backend != "numpy":
            return self._reduce_python(column, min if op == "min" else max, identity)
        np = get_numpy()
        ufunc = np.minimum if op == "min" else np.maximum
        if self.complete_fast:
            red = None
            for a, b in _col_chunks(self.n, self.chunk):
                part = column[:, a:b]
                if self.send_ok is not None:
                    part = np.where(self.send_ok[:, a:b], part, identity)
                part = ufunc.reduce(part, axis=1, keepdims=True)
                red = part if red is None else ufunc(red, part)
            return np.broadcast_to(red, column.shape)
        graph = self.graph
        if not graph.columnar:
            blocks = self._segment_blocks
        elif self.keep is None and graph.shifts is not None:
            blocks = self._shift_blocks
        else:
            blocks = self._column_blocks
        out = None
        for a, b, red in blocks(np, column, ufunc, identity):
            if b - a == self.n:
                return red
            if out is None:
                out = np.empty_like(column)
            out[:, a:b] = red
        return out

    def _column_blocks(self, np, column, ufunc, identity):
        """The bounded-in-degree kernel: per receiver range, one gather per
        in-edge slot, accumulated in place (temporaries: ``chunk`` cells)."""
        graph, keep = self.graph, self.keep
        senders = graph.sender_columns
        edge_ids = graph.edge_columns if keep is not None else None
        for a, b in _col_chunks(self.n, self.chunk):
            acc = None
            for slot in range(graph.max_degree):
                vals = np.take(column, senders[slot, a:b], axis=1)
                if keep is not None:
                    kept = np.take(keep, edge_ids[slot, a:b], axis=1)
                    vals = np.where(kept, vals, identity)
                acc = vals if acc is None else ufunc(acc, vals, out=acc)
            yield a, b, acc

    def _shift_blocks(self, np, column, ufunc, identity):
        """The column kernel laid out by offset (unmasked rounds on a
        lattice): receiver ``p`` reads slot ``d`` at ``p + d``, so a slot
        is a slice of ``column``, accumulated in place; the few boundary
        receivers are then overwritten with their own padded gathers."""
        n = self.n
        offsets, boundary, edge = self.graph.shifts
        for a, b in _col_chunks(n, self.chunk):
            acc = np.copy(column[:, a:b])  # offset 0: every receiver hears itself
            for d in offsets:
                lo, hi = max(a, -d), min(b, n - d)
                if d and lo < hi:
                    part = acc[:, lo - a : hi - a]
                    ufunc(part, column[:, lo + d : hi + d], out=part)
            i, j = np.searchsorted(boundary, (a, b))
            if i < j:
                exact = np.take(column, edge[0, i:j], axis=1)
                for senders in edge[1:, i:j]:
                    ufunc(exact, np.take(column, senders, axis=1), out=exact)
                acc[:, boundary[i:j] - a] = exact
            yield a, b, acc

    def _segment_blocks(self, np, column, ufunc, identity):
        """The general kernel: gather every edge of a receiver range (at
        most ``chunk`` edges, whole segments), then ``reduceat``."""
        src, indptr, keep = self.graph.src, self.graph.indptr, self.keep
        for a, b in _edge_chunks(np, indptr, self.chunk):
            lo, hi = int(indptr[a]), int(indptr[b])
            vals = np.take(column, src[lo:hi], axis=1)
            if keep is not None:
                vals = np.where(keep[:, lo:hi], vals, identity)
            yield a, b, ufunc.reduceat(vals, indptr[a:b] - lo, axis=1)

    def _reduce_python(self, column, best_of, identity):
        """The pure-Python plane: one lane, one receiver at a time."""
        n = self.n
        out = []
        for lane, row in enumerate(column):
            if self.complete_fast:
                silenced = self.send_ok[lane] if self.send_ok is not None else ()
                pool = [row[q] for q in range(n) if q not in silenced] if silenced else row
                out.append([best_of(pool, default=identity)] * n)
                continue
            dropped = self.keep[lane] if self.keep is not None else ()
            heard = []
            for senders, first in zip(self.graph._edges, self.graph.indptr):
                if dropped:
                    senders = [
                        q for e, q in enumerate(senders, first) if e not in dropped
                    ]
                heard.append(best_of(map(row.__getitem__, senders), default=identity))
            out.append(heard)
        return out


def _col_chunks(n: int, chunk: Optional[int]):
    """Column ranges ``[a, b)`` of at most ``chunk`` columns (None: one range)."""
    chunk = chunk or n
    for a in range(0, n, chunk):
        yield a, min(a + chunk, n)


def _edge_chunks(np, indptr, chunk: Optional[int]):
    """Receiver ranges ``[a, b)`` whose CSR edge segments fit ``chunk``
    (None: one range).

    Greedy: each range holds as many whole receiver segments as fit in
    ``chunk`` edges (always at least one receiver, so a single segment
    larger than the budget still makes progress).  O(#chunks · log n),
    not O(n), so million-process rounds don't pay a Python loop.
    """
    n = int(indptr.shape[0]) - 1
    if chunk is None:
        yield 0, n
        return
    a = 0
    while a < n:
        b = int(np.searchsorted(indptr, int(indptr[a]) + chunk, side="right")) - 1
        if b <= a:
            b = a + 1
        b = min(b, n)
        yield a, b
        a = b


class _Segments:
    """``segments[p]`` is ``ids[bounds[p]:bounds[p + 1]]``, sliced on demand."""

    __slots__ = ("ids", "bounds")

    def __init__(self, ids, bounds):
        self.ids = ids
        self.bounds = bounds

    def __getitem__(self, p: int):
        return self.ids[self.bounds[p] : self.bounds[p + 1]]


#: The column kernel makes one gather-and-accumulate pass per in-edge
#: slot over all n receivers; ``reduceat`` makes one pass over the E
#: edges.  Columns win while a pass covers enough cells to hide its
#: fixed cost, the slots are few, and padding at most doubles the cells
#: touched.  The n and padding bounds sit at the crossovers measured on
#: rounds that carry a ``keep`` mask (the tighter ones), the degree bound
#: between the masked and the fault-free one (docs/perf.md, "The
#: per-round step").
_COLUMN_MIN_N = 1024
_COLUMN_MAX_DEGREE = 32
_COLUMN_MAX_PADDING = 2
#: A lattice's slots are slices of the column, except at its boundary
#: receivers, which gather; past ``n / 8`` of them the gathers (and the
#: slices they overwrite) stop paying for the slices.
_SHIFT_MAX_BOUNDARY = 8


class _CsrGraph:
    """CSR edge list of one topology state: edges grouped by receiver.

    By the kernel's undirected-edges contract, ``receivers(p)`` is also
    the in-neighborhood of ``p``, so the segment of receiver ``p`` holds
    the ascending senders whose broadcasts reach ``p`` (self included).

    Only ``src``/``indptr`` are built eagerly (on the NumPy plane without
    a Python loop over processes); ``dst`` and ``by_src`` are read by
    fault rounds alone, the slot tables and :attr:`shifts` by the column
    kernel alone, and all are derived on first use, so no run pays for
    what it does not read.
    """

    def __init__(self, edges: Tuple[Tuple[int, ...], ...], backend: str):
        self.n = n = len(edges)
        self._edges = edges
        self._np = np = get_numpy() if backend == "numpy" else None
        if np is not None:
            lengths = np.fromiter(map(len, edges), dtype=np.int64, count=n)
            self.indptr = np.concatenate(([0], np.cumsum(lengths)))
            #: Largest in-degree, self-loop included (the column kernel's slots).
            self.max_degree = int(lengths.max())
            self.num_edges = int(self.indptr[-1])
            self.src = np.fromiter(
                chain.from_iterable(edges), dtype=np.int64, count=self.num_edges
            )
        else:
            self.indptr = list(accumulate(map(len, edges), initial=0))
            self.src = list(chain.from_iterable(edges))
            self.num_edges = len(self.src)

    @cached_property
    def dst(self):
        """The receiver of every edge id."""
        np = self._np
        if np is not None:
            return np.repeat(np.arange(self.n), np.diff(self.indptr))
        return [p for p, senders in enumerate(self._edges) for _ in senders]

    @cached_property
    def by_src(self):
        """Edges grouped by *sender*: ``by_src[q]`` holds the ascending edge
        ids of q's out-copies."""
        np = self._np
        if np is not None:
            counts = np.bincount(self.src, minlength=self.n)
            order = np.argsort(self.src, kind="stable")
            return _Segments(order, np.concatenate(([0], np.cumsum(counts))))
        by_src: List[List[int]] = [[] for _ in range(self.n)]
        for e, q in enumerate(self.src):
            by_src[q].append(e)
        return by_src

    @cached_property
    def columnar(self) -> bool:
        """Does the NumPy plane reduce this graph slot column by slot
        column (bounded in-degree) rather than with ``reduceat``?  Decided
        by the graph alone, so a run cannot change its own kernel."""
        return (
            self.n >= _COLUMN_MIN_N
            and self.max_degree <= _COLUMN_MAX_DEGREE
            and self.max_degree * self.n <= _COLUMN_MAX_PADDING * self.num_edges
        )

    def _slot_columns(self, of_edge=None, receivers=None):
        """``(slots, receivers)``: row ``j`` holds every receiver's ``j``-th
        in-edge id (or ``of_edge`` of it), a shorter segment repeating its
        last edge — the same copy under the same ``keep`` bit, which an
        idempotent min/max cannot see.  All n receivers by default."""
        np = self._np
        first, last = self.indptr[:-1], np.diff(self.indptr) - 1
        slots = self.max_degree
        if receivers is not None:
            first, last = first[receivers], last[receivers]
            slots = int(last.max(initial=0)) + 1
        ids = (first + np.minimum(slot, last) for slot in range(slots))
        return np.stack([e if of_edge is None else of_edge[e] for e in ids])

    @cached_property
    def shifts(self):
        """The slot layout by offset, or None where it does not pay.

        ``(offsets, boundary, edge)``: the ascending offsets ``d = sender −
        receiver`` that a regular receiver ``p`` hears on exactly (``p +
        d`` for each ``d``, 0 among them), the ascending *boundary*
        receivers whose in-edges are any other set, and their padded
        sender table (:meth:`_slot_columns` over the boundary alone).  The
        offsets are read off one receiver of the commonest in-degree and
        then checked against every receiver, so the answer is exact
        whichever receiver was read.  None unless the boundary is at most
        ``n / 8`` (ring: 2 receivers; grid: its rim).  O(degree · n)
        vectorized, and nothing E-sized is kept."""
        np, n, src = self._np, self.n, self.src
        lengths = np.diff(self.indptr)
        degree = int(np.bincount(lengths).argmax())
        regular = lengths == degree
        odd = n - int(np.count_nonzero(regular))
        if odd * _SHIFT_MAX_BOUNDARY > n:
            return None
        sample = n // 2 + int(regular[n // 2 :].argmax())
        first = int(self.indptr[sample])
        offsets = (src[first : first + degree] - sample).tolist()
        if 0 not in offsets:
            return None
        receivers = np.arange(n)
        for slot, d in enumerate(offsets):
            if odd:  # every receiver's slot-th in-edge (clipped past the end)
                heard = np.take(src, self.indptr[:-1] + slot, mode="clip")
            else:  # one in-degree: the slot-th in-edges are a strided view
                heard = src[slot::degree]
            regular &= heard - receivers == d
        boundary = np.flatnonzero(~regular)
        if boundary.size * _SHIFT_MAX_BOUNDARY > n:
            return None
        return offsets, boundary, self._slot_columns(src, boundary)

    @cached_property
    def sender_columns(self):
        """One contiguous gather index per in-edge slot: the column kernel's
        gather layout, which an unmasked round on a lattice never reads."""
        return self._slot_columns(self.src)

    @cached_property
    def edge_columns(self):
        """The edge ids behind :attr:`sender_columns`; only a round with a
        ``keep`` mask reads them, so fault-free runs never build them."""
        return self._slot_columns()

    def edge_id(self, sender: int, receiver: int) -> Optional[int]:
        """Edge id of the copy sender→receiver, or None if no such edge."""
        if not 0 <= receiver < self.n:
            return None
        lo, hi = int(self.indptr[receiver]), int(self.indptr[receiver + 1])
        e = bisect_left(self.src, sender, lo, hi)
        return e if e < hi and self.src[e] == sender else None


# ---------------------------------------------------------------------------
# Per-lane control state
# ---------------------------------------------------------------------------


class _Lane:
    """Exact per-run bookkeeping, mirroring ``run_sync``'s loop state."""

    __slots__ = (
        "index",
        "adversary",
        "corruption",
        "mid_run",
        "live",
        "rounds",  # reconstructed RoundHistory list (record mode)
        "dropped_edges",  # python-CSR persistent dead-sender edge ids
    )

    def __init__(self, index: int, adversary: Adversary, corruption, mid_run, live: Liveness):
        self.index = index
        self.adversary = adversary
        self.corruption = corruption
        self.mid_run = dict(mid_run)
        self.live = live
        self.rounds: List[RoundHistory] = []
        self.dropped_edges: set = set()


# ---------------------------------------------------------------------------
# Result
# ---------------------------------------------------------------------------


@dataclass
class ArrayRunResult:
    """Everything produced by one batched run.

    ``histories`` is ``None`` unless the run recorded them (small-n
    conformance mode); per-lane final states are read back from the
    columns on demand so million-process results stay cheap until
    someone actually asks for a dict.
    """

    protocol: SyncProtocol
    array_protocol: ArrayProtocol
    n: int
    lanes: int
    backend: str
    executed_rounds: int
    histories: Optional[List[ExecutionHistory]]
    faulty: List[frozenset]
    crashed: List[frozenset]
    last_disagreement: Optional[List[Optional[int]]]
    _state: Any
    _chunk: Optional[int] = None

    def final_state(self, lane: int, pid: int) -> Optional[Dict[str, Any]]:
        if pid in self.crashed[lane]:
            return None
        return self.array_protocol.read_state(self._state, lane, pid)

    def final_states(self, lane: int) -> Dict[int, Optional[Dict[str, Any]]]:
        return _extract_states(
            self.array_protocol, self._state, lane, self.crashed[lane], self.n
        )

    def final_clocks(self, lane: int) -> Dict[int, Optional[int]]:
        row = self.array_protocol.clock_column(self._state)[lane]
        clocks = dict(enumerate(row.tolist() if self.backend == "numpy" else row))
        clocks.update(dict.fromkeys(self.crashed[lane]))
        return clocks

    def clock_spread(self, lane: int) -> Optional[Tuple[int, int]]:
        """(min, max) final round variable over alive processes, fast."""
        column = self.array_protocol.clock_column(self._state)
        dead = self.crashed[lane]
        if self.backend == "numpy":
            np = get_numpy()
            row = column[lane]
            mask = None
            if dead:
                mask = np.ones(self.n, dtype=bool)
                mask[sorted(dead)] = False
            return _alive_min_max(row, mask, np, self._chunk)
        values = [column[lane][p] for p in range(self.n) if p not in dead]
        if not values:
            return None
        return min(values), max(values)


# ---------------------------------------------------------------------------
# The driver
# ---------------------------------------------------------------------------


def run_array(
    protocol: SyncProtocol,
    n: int,
    rounds: int,
    fault_plans: Optional[Sequence[Optional[FaultPlan]]] = None,
    lanes: Optional[int] = None,
    initial_states: Optional[Sequence[Optional[Mapping[int, Dict[str, Any]]]]] = None,
    first_round: int = 1,
    topology: Optional[Topology] = None,
    record_history: bool = False,
    backend: Optional[str] = None,
    measure_disagreement: bool = False,
    chunk: Optional[int] = None,
    max_bytes: Optional[int] = None,
) -> ArrayRunResult:
    """Execute ``lanes`` independent runs of ``protocol`` in one batch.

    Parameters mirror :func:`repro.sync.engine.run_sync` where they
    overlap; the batched extras are:

    ``fault_plans``
        One optional :class:`FaultPlan` per lane.  All lanes must share
        an equal churn schedule (the topology is per-batch, not
        per-lane) and distinct adversary objects (adversaries are
        stateful).  Payload forgeries run on the dense forgery path:
        the vectorized step proceeds with the true payloads and each
        receiver of a forged copy is then patched cell-wise with the
        reference protocol's exact transition (mutators called on the
        real rng streams, in the reference engine's order).
    ``lanes``
        Lane count when no plans/initial states imply one (default 1).
    ``initial_states``
        Per-lane explicit initial-state overrides (systemic failures).
    ``backend``
        ``"numpy"`` / ``"python"`` / ``None`` (auto, see
        :func:`repro.array.backend.pick_backend`).
    ``record_history``
        Reconstruct per-lane :class:`ExecutionHistory` (small n only).
    ``measure_disagreement``
        Track, per lane, the last round at whose *start* the alive
        round variables disagreed (``None`` = never) — the streaming
        replacement for history-based stabilization measurements.
    ``chunk``
        Explicit chunk size: at most this many cells per lane in any
        data-plane temporary (csr gathers, complete-graph reductions,
        streaming measurements).  Chunked reductions are exact min/max
        compositions, so results — and small-n digests — are identical
        to the unchunked plane.
    ``max_bytes``
        Memory bound from which a chunk size is derived (peak extra
        allocation across concurrent temporaries stays under roughly
        this many bytes).  Combines with ``chunk`` by taking the
        tighter of the two.

    Raises :class:`ArrayEligibilityError` whenever this (protocol,
    plans, topology) combination cannot be batched faithfully; callers
    fall back to the reference engine.
    """
    require_process_count(n)
    require_positive(rounds, "rounds")

    array_protocol = as_array_protocol(protocol)
    if array_protocol is None:
        raise ArrayEligibilityError(
            f"protocol {protocol.name!r} has no batched implementation"
        )

    if lanes is None:
        if fault_plans is not None:
            lanes = len(fault_plans)
        elif initial_states is not None:
            lanes = len(initial_states)
        else:
            lanes = 1
    require_positive(lanes, "lanes")
    plans: List[Optional[FaultPlan]] = (
        list(fault_plans) if fault_plans is not None else [None] * lanes
    )
    require(len(plans) == lanes, f"{len(plans)} fault plans for {lanes} lanes")
    overrides: List[Optional[Mapping[int, Dict[str, Any]]]] = (
        list(initial_states) if initial_states is not None else [None] * lanes
    )
    require(
        len(overrides) == lanes, f"{len(overrides)} initial-state maps for {lanes} lanes"
    )

    resolved_backend = pick_backend(backend)
    chunk_cells = _resolve_chunk(chunk, max_bytes, lanes)
    topo = _normalize_topology(n, plans, topology)

    lane_states = _build_lanes(plans, n)
    state = array_protocol.initial_states(n, lanes, resolved_backend)
    _load_initial(array_protocol, state, overrides, lane_states, protocol, n)

    np = get_numpy() if resolved_backend == "numpy" else None
    alive_mask = None
    if np is not None:
        alive_mask = np.ones((lanes, n), dtype=bool)

    dense = array_protocol.kind == "dense"
    csr: Optional[_CsrGraph] = None
    csr_state_key: Any = _UNSET
    dead_keep = None  # numpy CSR persistent keep (lanes, E)
    any_dead = False
    edges_cache: Optional[Tuple[Tuple[int, ...], ...]] = None

    last_disagreement: Optional[List[Optional[int]]] = (
        [None] * lanes if measure_disagreement else None
    )

    for round_no in range(first_round, first_round + rounds):
        # 1. systemic failures scheduled for this round
        for lane in lane_states:
            plan = lane.mid_run.get(round_no)
            if plan is not None:
                _apply_corruption(array_protocol, state, lane, plan, protocol, n)

        if measure_disagreement:
            _measure_round(
                array_protocol,
                state,
                lane_states,
                alive_mask,
                np,
                round_no,
                last_disagreement,
                n,
                chunk_cells,
            )

        snapshots: Optional[List[Dict[int, Optional[Dict[str, Any]]]]] = None
        if record_history:
            snapshots = [
                _extract_states(array_protocol, state, lane.index, lane.live.crashed, n)
                for lane in lane_states
            ]

        # 2. topology state for this round
        edges = None
        if topo is not None:
            key = _topology_key(topo, round_no)
            if key != csr_state_key or (not dense and csr is None):
                edges_cache = round_edges(topo, round_no)
                csr_state_key = key
                if not dense:
                    csr = _CsrGraph(edges_cache, resolved_backend)
                    dead_keep = None
                    if any_dead:
                        dead_keep = _rebuild_dead_keep(
                            csr, lane_states, np, lanes
                        )
            edges = edges_cache

        # 3. adversary control plane (exact, per lane): one ledger per
        # lane with a fault or a dead process (record mode: every lane)
        ledgers: List[Optional[RoundLedger]] = []
        for lane in lane_states:
            live = lane.live
            plan = lane.adversary.plan_round(round_no, live.alive_view, live.faulty)
            lane.adversary.validate(plan, live.faulty)
            if quiet(plan):
                if not (live.crashed or record_history):
                    ledgers.append(None)
                    continue
                silent = _NOBODY
            else:
                silent = array_protocol.silent_pids(state, lane.index)
            ledgers.append(RoundLedger(plan, n, live, round_no, edges, silent))

        # 4. dense forgery path: apply payload lies in the control
        # plane (pre-step snapshots) and precompute receiver patches
        patches: Optional[List[Dict[int, Dict[str, Any]]]] = None
        liars = [() if ledger is None else ledger.liars() for ledger in ledgers]
        if any(liars):
            patches = [
                _compile_forgeries(protocol, array_protocol, state, lane, ledger, pids)
                if pids
                else {}
                for lane, ledger, pids in zip(lane_states, ledgers, liars)
            ]

        # 5. build the wire and step the data plane
        wire = RoundWire(resolved_backend, lanes, n, chunk_cells)
        if dense:
            _build_dense_wire(wire, lane_states, ledgers, edges, alive_mask, np, n)
        else:
            dead_keep, csr = _build_csr_wire(
                wire,
                lane_states,
                ledgers,
                topo,
                csr,
                dead_keep,
                alive_mask,
                np,
                n,
                any_dead,
                resolved_backend,
            )

        if record_history:
            _reconstruct_round(
                protocol, lane_states, ledgers, snapshots, edges, round_no, n
            )

        array_protocol.step(state, wire)

        # 5b. overwrite forgery-affected receivers with their exact
        # reference transitions (the "forged-value columns")
        if patches is not None:
            for lane, lane_patches in zip(lane_states, patches):
                array_protocol.load_states(state, lane.index, lane_patches)

        # 6. commit deaths and deviations (exactly the engine's order)
        for lane, ledger in zip(lane_states, ledgers):
            crashing = ledger is not None and ledger.crashing_now
            if crashing:
                any_dead = True
                if alive_mask is not None:
                    for pid in crashing:
                        alive_mask[lane.index, pid] = False
                if not dense and csr is not None:
                    if np is not None:
                        if dead_keep is None:
                            dead_keep = np.ones(
                                (lanes, csr.num_edges), dtype=bool
                            )
                        for pid in crashing:
                            dead_keep[lane.index, csr.by_src[pid]] = False
                    else:
                        for pid in crashing:
                            lane.dropped_edges.update(csr.by_src[pid])
            lane.live.fold(ledger)

    histories = None
    if record_history:
        histories = [ExecutionHistory(lane.rounds) for lane in lane_states]
    return ArrayRunResult(
        protocol=protocol,
        array_protocol=array_protocol,
        n=n,
        lanes=lanes,
        backend=resolved_backend,
        executed_rounds=rounds,
        histories=histories,
        faulty=[lane.live.faulty for lane in lane_states],
        crashed=[frozenset(lane.live.crashed) for lane in lane_states],
        last_disagreement=last_disagreement,
        _state=state,
        _chunk=chunk_cells,
    )


_UNSET = object()
_NOBODY: frozenset = frozenset()

#: Safety factor for max_bytes -> chunk derivation: this many int64
#: temporaries may coexist per chunked reduction.
_TEMP_FACTOR = 4

#: Floor on derived chunk sizes (below this, loop overhead dominates
#: and the bound is meaningless anyway).  Explicit ``chunk=`` values
#: are honored verbatim so tests can force tiny chunks.
_MIN_CHUNK_CELLS = 1024


def _resolve_chunk(
    chunk: Optional[int], max_bytes: Optional[int], lanes: int
) -> Optional[int]:
    """Cells-per-lane budget for data-plane temporaries, or None."""
    cells: Optional[int] = None
    if chunk is not None:
        require_positive(chunk, "chunk")
        cells = chunk
    if max_bytes is not None:
        require_positive(max_bytes, "max_bytes")
        derived = max(_MIN_CHUNK_CELLS, max_bytes // (8 * lanes * _TEMP_FACTOR))
        cells = derived if cells is None else min(cells, derived)
    return cells


# ---------------------------------------------------------------------------
# Setup helpers
# ---------------------------------------------------------------------------


def _normalize_topology(
    n: int, plans: Sequence[Optional[FaultPlan]], topology: Optional[Topology]
) -> Optional[Topology]:
    """Engine-identical normalization, batched: one topology per run."""
    churns = [plan.churn if plan is not None else None for plan in plans]
    effective = [c for c in churns if c]
    churn = effective[0] if effective else None
    for other in churns:
        if (other or None) != (churn if effective else None) and (other or churn):
            if other != churn:
                raise ArrayEligibilityError(
                    "lanes disagree on the churn schedule; the batched "
                    "topology is shared, so churn must be identical "
                    "across lanes"
                )
    return normalize_topology(n, topology, churn)


def _build_lanes(plans: Sequence[Optional[FaultPlan]], n: int) -> List[_Lane]:
    lanes: List[_Lane] = []
    seen_adversaries: Dict[int, int] = {}
    lives = Liveness.batch(n, len(plans))
    for index, (plan, live) in enumerate(zip(plans, lives)):
        if plan is None:
            lanes.append(_Lane(index, NullAdversary(), None, {}, live))
            continue
        view = plan.to_sync()
        adversary = view.adversary or NullAdversary()
        if plan.omissions is not None:
            marker = id(plan.omissions)
            if marker in seen_adversaries:
                raise ArrayEligibilityError(
                    f"lanes {seen_adversaries[marker]} and {index} share one "
                    "adversary object; adversaries are stateful, give each "
                    "lane its own"
                )
            seen_adversaries[marker] = index
        lane = _Lane(index, adversary, view.corruption, view.mid_run_corruptions, live)
        lanes.append(lane)
    return lanes


def _load_initial(
    array_protocol: ArrayProtocol,
    state: Any,
    overrides: Sequence[Optional[Mapping[int, Dict[str, Any]]]],
    lane_states: Sequence[_Lane],
    protocol: SyncProtocol,
    n: int,
) -> None:
    """Apply explicit initial states, then each lane's initial corruption."""
    for lane, mapping in zip(lane_states, overrides):
        if mapping:
            for pid in mapping:
                require(0 <= pid < n, f"initial-state pid {pid} out of range")
            array_protocol.load_states(state, lane.index, mapping)
        if lane.corruption is not None:
            _apply_corruption(
                array_protocol, state, lane, lane.corruption, protocol, n
            )


def _extract_states(
    array_protocol: ArrayProtocol,
    state: Any,
    lane: int,
    crashed,
    n: int,
) -> Dict[int, Optional[Dict[str, Any]]]:
    """One lane as ``run_sync``-shaped states: ``None`` for crashed pids,
    whose cells are never read."""
    alive = [pid for pid in range(n) if pid not in crashed] if crashed else None
    states = array_protocol.read_states(state, lane, alive)
    if alive is None:
        return dict(enumerate(states))
    out: Dict[int, Optional[Dict[str, Any]]] = dict.fromkeys(range(n))
    out.update(zip(alive, states))
    return out


def _apply_corruption(
    array_protocol: ArrayProtocol,
    state: Any,
    lane: _Lane,
    plan,
    protocol: SyncProtocol,
    n: int,
) -> None:
    """Route corruption through the real plan object: same rng stream.

    A plan that answers in columns never sees a state and writes none it
    did not replace; any other plan takes the dict bridge."""
    crashed = lane.live.crashed
    columns_of = getattr(plan, "corrupt_columns", None)
    if columns_of is not None:
        alive = [pid for pid in range(n) if pid not in crashed] if crashed else range(n)
        drawn = columns_of(protocol, alive, n)
        if drawn is not None:
            array_protocol.load_columns(state, lane.index, *drawn)
            return
    states = _extract_states(array_protocol, state, lane.index, crashed, n)
    corrupted = plan.corrupt(protocol, states, n)
    if crashed or len(corrupted) != n:
        # crashed processes (``None``) are never revived
        corrupted = {
            pid: s for pid in range(n) if (s := corrupted.get(pid)) is not None
        }
    array_protocol.load_states(state, lane.index, corrupted)


# ---------------------------------------------------------------------------
# Per-round control plane
# ---------------------------------------------------------------------------


def _compile_forgeries(
    protocol: SyncProtocol,
    array_protocol: ArrayProtocol,
    state: Any,
    lane: _Lane,
    ledger: RoundLedger,
    liars: Sequence[int],
) -> Dict[int, Dict[str, Any]]:
    """The dense forgery path: apply payload lies, precompute patches.

    The ledger forges exactly as it does for ``run_sync`` — the same
    mutators on the same seeded rng streams, in (sender asc, receiver
    asc) order (copies addressed to already-dead receivers count; they
    are dropped at delivery, exactly as ``run_sync`` drops them).

    Every receiver that *delivers* at least one forged copy gets its
    entire transition recomputed by the reference protocol from the
    pre-step snapshots; the result is loaded back into the columns
    after the vectorized step.  Cost is O(n) state reads per affected
    receiver — proportional to the forgery footprint, not to the run.
    """
    cache: Dict[int, Dict[str, Any]] = {}
    round_no = ledger.round_no

    def state_of(pid: int) -> Dict[str, Any]:
        got = cache.get(pid)
        if got is None:
            got = array_protocol.read_state(state, lane.index, pid)
            cache[pid] = got
        return got

    lies: List[Message] = []
    for sender in liars:
        payload = protocol.send(sender, state_of(sender))
        if payload is None:
            continue
        _, forged = ledger.broadcast(sender, copy_payload(payload))
        lies += [Message(sender, r, round_no, lie) for r, lie in forged.items()]
    affected = sorted(ledger.deliver(lies))
    if not affected:
        return {}

    arriving: List[Message] = []
    for sender in lane.live.alive_order:
        hears = [r for r in affected if ledger.reaches(sender, r)]
        if not hears:
            continue
        payload = copy_payload(protocol.send(sender, state_of(sender)))
        forged = ledger.forged_sends.get(sender, ())
        arriving += [
            Message(sender, r, round_no, forged[r] if r in forged else payload)
            for r in hears
        ]
    inboxes = ledger.deliver(arriving)
    return {
        receiver: protocol.update(receiver, state_of(receiver), inboxes.get(receiver, []))
        for receiver in affected
    }


# ---------------------------------------------------------------------------
# Wire building
# ---------------------------------------------------------------------------


def _rebuild_dead_keep(csr: _CsrGraph, lane_states, np, lanes: int):
    """After a churn-driven CSR rebuild, re-clear dead senders' edges."""
    if np is None:
        for lane in lane_states:
            lane.dropped_edges = set()
            for pid in lane.live.crashed:
                lane.dropped_edges.update(csr.by_src[pid])
        return None
    dead_keep = np.ones((lanes, csr.num_edges), dtype=bool)
    for lane in lane_states:
        for pid in lane.live.crashed:
            dead_keep[lane.index, csr.by_src[pid]] = False
    return dead_keep


def _build_csr_wire(
    wire: RoundWire,
    lane_states: List[_Lane],
    ledgers: List[Optional[RoundLedger]],
    topo: Optional[Topology],
    csr: Optional[_CsrGraph],
    dead_keep,
    alive_mask,
    np,
    n: int,
    any_dead: bool,
    backend: str,
):
    """Fill ``wire`` for a csr-kind protocol; returns (dead_keep, csr)."""
    # a lane without a ledger (quiet round, nobody dead) masks nothing
    faulted = [
        (lane, ledger) for lane, ledger in zip(lane_states, ledgers) if ledger is not None
    ]
    # per-edge (not per-sender) masking: partial crash deliveries or omissions
    transient = any(
        ledger.omitted_sends
        or ledger.receive_drops
        or any(ledger.crash_survivors.values())
        for _, ledger in faulted
    )
    crashes = any(ledger.crashing_now for _, ledger in faulted)
    if topo is None and not transient:
        # complete graph, per-sender faults only: one global reduction
        wire.complete_fast = True
        if any_dead or crashes:
            if np is not None:
                send_ok = alive_mask.copy()
                for lane, ledger in faulted:
                    for pid in ledger.crashing_now:
                        send_ok[lane.index, pid] = False
                wire.send_ok = send_ok
            else:
                wire.send_ok = [
                    _NOBODY if ledger is None else ledger.dead for ledger in ledgers
                ]
        return dead_keep, csr

    if csr is None:
        # transient faults on the complete graph: materialize its CSR
        if wire.lanes * n * n > _COMPLETE_CSR_LIMIT:
            raise ArrayEligibilityError(
                f"per-edge faults on the complete graph need {n}x{n} "
                f"edges x {wire.lanes} lanes — over the "
                f"{_COMPLETE_CSR_LIMIT} cell limit; fall back"
            )
        full = tuple(tuple(range(n)) for _ in range(n))
        csr = _CsrGraph(full, backend)
        if any_dead:
            dead_keep = _rebuild_dead_keep(
                csr, lane_states, np, wire.lanes
            )

    wire.graph = csr

    if not transient:
        if not any_dead and not crashes:
            wire.keep = None
            return dead_keep, csr
        # only permanent deaths (plus clean crashes) mask the wire
        if np is not None:
            if dead_keep is None:
                dead_keep = np.ones((wire.lanes, csr.num_edges), dtype=bool)
            if not crashes:
                wire.keep = dead_keep
                return dead_keep, csr
            keep = dead_keep.copy()
            for lane, ledger in faulted:
                for pid in ledger.crashing_now:
                    keep[lane.index, csr.by_src[pid]] = False
            wire.keep = keep
            return dead_keep, csr
        keep_sets = [lane.dropped_edges for lane in lane_states]
        for lane, ledger in faulted:
            if ledger.crashing_now:
                dropped = keep_sets[lane.index] = set(lane.dropped_edges)
                for pid in ledger.crashing_now:
                    dropped.update(csr.by_src[pid])
        wire.keep = keep_sets
        return dead_keep, csr

    # transient round: per-edge masking on top of the permanent drops
    if np is not None:
        if dead_keep is not None:
            keep = dead_keep.copy()
        else:
            keep = np.ones((wire.lanes, csr.num_edges), dtype=bool)
        for lane, ledger in faulted:
            row = lane.index
            for pid, targets in ledger.crash_survivors.items():
                ids = csr.by_src[pid]
                if targets:
                    for e in ids:
                        keep[row, e] = csr.dst[int(e)] in targets
                else:
                    keep[row, ids] = False
            for pid, dropped in ledger.omitted_sends.items():
                for receiver in dropped:
                    e = csr.edge_id(pid, receiver)
                    if e is not None:
                        keep[row, e] = False
            for pid, drops in ledger.receive_drops.items():
                for sender in drops:
                    if sender == pid:
                        continue
                    e = csr.edge_id(sender, pid)
                    if e is not None:
                        keep[row, e] = False
        wire.keep = keep
        return dead_keep, csr

    keep_sets = [set(lane.dropped_edges) for lane in lane_states]
    for lane, ledger in faulted:
        dropped = keep_sets[lane.index]
        for pid, targets in ledger.crash_survivors.items():
            for e in csr.by_src[pid]:
                if not targets or csr.dst[e] not in targets:
                    dropped.add(e)
        for pid, omit in ledger.omitted_sends.items():
            for receiver in omit:
                e = csr.edge_id(pid, receiver)
                if e is not None:
                    dropped.add(e)
        for pid, drops in ledger.receive_drops.items():
            for sender in drops:
                if sender == pid:
                    continue
                e = csr.edge_id(sender, pid)
                if e is not None:
                    dropped.add(e)
    wire.keep = keep_sets
    return dead_keep, csr


#: Bound on materializing the complete graph's n^2-edge CSR.
_COMPLETE_CSR_LIMIT = 1 << 26


def _build_dense_wire(
    wire: RoundWire,
    lane_states: List[_Lane],
    ledgers: List[Optional[RoundLedger]],
    edges: Optional[Tuple[Tuple[int, ...], ...]],
    alive_mask,
    np,
    n: int,
) -> None:
    """Fill the dense delivered structure: [lane, receiver, sender].  A
    lane without a ledger (quiet round, nobody dead) hears every edge."""
    if np is not None:
        if edges is None:
            adj = np.ones((n, n), dtype=bool)
        else:
            adj = np.zeros((n, n), dtype=bool)
            for p, receivers in enumerate(edges):
                adj[list(receivers), p] = True  # p's broadcast reaches them
        deliv = adj[None, :, :] & alive_mask[:, :, None] & alive_mask[:, None, :]
        for lane, ledger in zip(lane_states, ledgers):
            if ledger is None:
                continue
            row = lane.index
            for pid, targets in ledger.crash_survivors.items():
                col = np.zeros(n, dtype=bool)
                if targets:
                    col[sorted(targets)] = True
                    col &= adj[:, pid]
                    col &= alive_mask[row]
                deliv[row, :, pid] = col
            # rows zeroed after ALL columns: a crash column listing a
            # co-crashing survivor must not resurrect its zeroed row
            for pid in ledger.crashing_now:
                deliv[row, pid, :] = False  # a crashing process receives nothing
            for pid, dropped in ledger.omitted_sends.items():
                targets = sorted(dropped)
                deliv[row, targets, pid] = False
            for pid, drops in ledger.receive_drops.items():
                for sender in drops:
                    if sender != pid:
                        deliv[row, pid, sender] = False
        wire.delivered = deliv
        return

    receiver_sets = (
        [frozenset(range(n))] * n
        if edges is None
        else [frozenset(e) for e in edges]
    )
    delivered = []
    for lane, ledger in zip(lane_states, ledgers):
        if ledger is None:
            delivered.append([set(senders) for senders in receiver_sets])
            continue
        alive, dead_now = ledger.alive, ledger.dead
        lane_rows: List[set] = []
        for p in range(n):
            if p in dead_now:
                lane_rows.append(set())
                continue
            inbox = {q for q in receiver_sets[p] if q in alive}
            for q in ledger.crashing_now:
                if q in inbox and p not in ledger.crash_survivors[q]:
                    inbox.discard(q)
            for q, dropped in ledger.omitted_sends.items():
                if p in dropped:
                    inbox.discard(q)
            drops = ledger.receive_drops.get(p)
            if drops:
                inbox -= {q for q in drops if q != p}
            lane_rows.append(inbox)
        delivered.append(lane_rows)
    wire.delivered = delivered


# ---------------------------------------------------------------------------
# Measurement + history reconstruction
# ---------------------------------------------------------------------------


def _alive_min_max(row, mask, np, chunk: Optional[int]):
    """(min, max) of ``row`` over ``mask`` (numpy), streamed per chunk."""
    size = int(row.shape[0])
    if chunk is None or size <= chunk:
        vals = row if mask is None else row[mask]
        if vals.size == 0:
            return None
        return int(vals.min()), int(vals.max())
    lo = hi = None
    for start in range(0, size, chunk):
        part = row[start : start + chunk]
        if mask is not None:
            part = part[mask[start : start + chunk]]
        if part.size == 0:
            continue
        pmin, pmax = int(part.min()), int(part.max())
        lo = pmin if lo is None else min(lo, pmin)
        hi = pmax if hi is None else max(hi, pmax)
    if lo is None:
        return None
    return lo, hi


def _measure_round(
    array_protocol: ArrayProtocol,
    state: Any,
    lane_states: List[_Lane],
    alive_mask,
    np,
    round_no: int,
    last_disagreement: List[Optional[int]],
    n: int,
    chunk: Optional[int] = None,
) -> None:
    column = array_protocol.clock_column(state)
    for lane in lane_states:
        if np is not None:
            row = column[lane.index]
            mask = alive_mask[lane.index] if lane.live.crashed else None
            spread = _alive_min_max(row, mask, np, chunk)
            if spread is not None and spread[0] != spread[1]:
                last_disagreement[lane.index] = round_no
        else:
            row = column[lane.index]
            values = [row[p] for p in range(n) if p not in lane.live.crashed]
            if values and min(values) != max(values):
                last_disagreement[lane.index] = round_no


def _reconstruct_round(
    protocol: SyncProtocol,
    lane_states: List[_Lane],
    ledgers: List[RoundLedger],
    snapshots: List[Dict[int, Optional[Dict[str, Any]]]],
    edges: Optional[Tuple[Tuple[int, ...], ...]],
    round_no: int,
    n: int,
) -> None:
    """Rebuild one RoundHistory per lane, through the recorder's own assembler."""
    for lane, ledger, states in zip(lane_states, ledgers, snapshots):
        sent: Dict[int, Tuple[Message, ...]] = {}
        for pid in lane.live.alive_order:
            payload = protocol.send(pid, states[pid])
            if payload is None:
                continue
            forged = ledger.forged_sends.get(pid, ())
            sent[pid] = tuple(
                Message(pid, r, round_no, forged[r] if r in forged else payload)
                for r in ledger.receivers(pid)
            )
        # sender-major arrivals: every inbox comes out sender-ascending
        delivered = ledger.deliver(chain.from_iterable(sent.values()))

        lane.rounds.append(
            RoundHistory.filed(
                round_no, n, states, lane.live.crashed, ledger.crashing_now, sent, delivered,
                ledger.omitted_sends, ledger.omitted_receives, ledger.forged_sends, edges,
            )
        )


def _topology_key(topo: Topology, round_no: int) -> Any:
    """Equality-comparable key identifying the topology's round state."""
    if isinstance(topo, DynamicTopology):
        return topo.state_key(round_no)
    return "static"
