"""Pluggable communication topologies for all three substrates.

The paper's model (and the seed engine) hard-codes a completely
connected network: a broadcast is one message to every process.  The
related dynamic-unison literature generalizes exactly this layer — the
protocol stays "broadcast my state each round", but *broadcast* comes
to mean "send along my current out-edges".  This module supplies that
edge relation as a first-class object:

- :class:`CompleteTopology` — the default; behaviorally identical to
  the seed engine (engines normalize it away entirely, so complete-
  graph runs stay byte-for-byte what they were).
- :class:`RingTopology`, :class:`TreeTopology`,
  :class:`RandomTopology`, :class:`ExplicitTopology` — static sparse
  graphs with a BFS :meth:`~Topology.diameter`.
- :class:`DynamicTopology` — a base graph whose effective edge set
  varies per round under a :class:`ChurnSchedule` of join / leave /
  partition / heal events (carried in the ``FaultPlan``).

Conventions shared by every substrate:

- ``receivers(pid, round_no)`` returns the destinations of ``pid``'s
  broadcast in that round, in ascending pid order, **always including
  ``pid`` itself** — self-delivery is sacred kernel-wide and survives
  leaves and partitions (a detached process keeps executing against
  its own state; it is *not* faulty).
- Edges are undirected: ``q in receivers(p)`` iff ``p in
  receivers(q)``.
- Round numbers are the sync engine's (1-based); static topologies
  ignore them.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import accumulate, chain
from typing import Dict, FrozenSet, Iterable, Optional, Sequence, Tuple

from repro.util.rng import make_rng
from repro.util.validation import require

__all__ = [
    "ChurnEvent",
    "ChurnSchedule",
    "CompleteTopology",
    "DynamicTopology",
    "ExplicitTopology",
    "GridTopology",
    "RandomTopology",
    "RingTopology",
    "Topology",
    "TreeTopology",
    "normalize_topology",
    "receiver_columns",
    "round_edges",
]


class Topology:
    """Edge relation consulted by every substrate's delivery layer."""

    n: int
    #: True only for the complete graph; lets engines skip topology
    #: work entirely (the invisible-default guarantee).
    complete: bool = False

    def receivers(self, pid: int, round_no: int = 1) -> Sequence[int]:
        """Destinations of ``pid``'s broadcast: ascending, includes ``pid``."""
        raise NotImplementedError

    def neighbors(self, pid: int, round_no: int = 1) -> Tuple[int, ...]:
        """``receivers`` without the self-edge."""
        return tuple(q for q in self.receivers(pid, round_no) if q != pid)

    def diameter(self) -> int:
        """Longest shortest path of the (static / base) graph."""
        raise NotImplementedError

    def _check_pid(self, pid: int) -> None:
        if not 0 <= pid < self.n:
            raise ValueError(f"pid {pid} out of range for n={self.n}")


class CompleteTopology(Topology):
    """Everyone hears everyone — the seed engine's implicit network."""

    complete = True

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("n must be >= 1")
        self.n = n
        self._receivers = range(n)  # shared, like the engine fast path

    def receivers(self, pid: int, round_no: int = 1) -> Sequence[int]:
        self._check_pid(pid)
        return self._receivers

    def diameter(self) -> int:
        return 1 if self.n > 1 else 0

    def __repr__(self) -> str:
        return f"CompleteTopology(n={self.n})"


class _StaticTopology(Topology):
    """Shared machinery: receivers held as two integer columns + BFS diameter.

    ``indptr`` (length n + 1) and ``src`` are stdlib ``array('q')``
    columns in CSR form: receiver ``p`` hears ``src[indptr[p]:indptr[p +
    1]]``, its ascending senders with ``p`` itself among them (by the
    undirected-edges contract, also the destinations of ``p``'s
    broadcast).  The per-pid tuples that ``receivers`` and
    :func:`round_edges` hand out are derived from the columns on first
    use and then held, so a batched engine that reads only the columns
    never builds n Python tuples.
    """

    def __init__(self, n: int, undirected_edges: Iterable[Tuple[int, int]]):
        if n < 1:
            raise ValueError("n must be >= 1")
        self._hold(n, *_edge_list_columns(n, undirected_edges))

    def _hold(self, n: int, indptr: array, src: array) -> None:
        self.n = n
        self.indptr = indptr
        self.src = src
        self._diameter: Optional[int] = None

    @cached_property
    def _receivers(self) -> Tuple[Tuple[int, ...], ...]:
        """The per-pid tuples, read off the columns once."""
        senders, bounds = self.src.tolist(), self.indptr
        return tuple(tuple(senders[lo:hi]) for lo, hi in zip(bounds, bounds[1:]))

    def receivers(self, pid: int, round_no: int = 1) -> Sequence[int]:
        self._check_pid(pid)
        return self._receivers[pid]

    def diameter(self) -> int:
        if self._diameter is None:
            worst = 0
            for source in range(self.n):
                dist = {source: 0}
                frontier = [source]
                while frontier:
                    nxt = []
                    for u in frontier:
                        for v in self._receivers[u]:
                            if v not in dist:
                                dist[v] = dist[u] + 1
                                nxt.append(v)
                    frontier = nxt
                if len(dist) < self.n:
                    raise ValueError("graph is disconnected; diameter undefined")
                worst = max(worst, max(dist.values()))
            self._diameter = worst
        return self._diameter


def _edge_list_columns(n: int, undirected_edges: Iterable[Tuple[int, int]]):
    """Columns of ``n`` self-loops plus each undirected edge both ways."""
    pairs = set(zip(range(n), range(n)))
    for u, v in undirected_edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        pairs.add((u, v))
        pairs.add((v, u))
    receivers, senders = zip(*sorted(pairs))
    indptr = array("q", map(partial(bisect_left, receivers), range(n + 1)))
    return indptr, array("q", senders)


def _band(first: int, count: int, offsets: Sequence[int]) -> array:
    """``count`` consecutive receivers from ``first``, receiver ``p``
    hearing ``p + d`` for each ``d`` of the ascending ``offsets``: one
    span of senders, copied into one strided slice per offset, with no
    loop over receivers."""
    width, low = len(offsets), offsets[0]
    span = array("q", range(first + low, first + offsets[-1] + count))
    out = array("q", bytes(8 * width * count))
    for slot, d in enumerate(offsets):
        out[slot::width] = span[d - low : d - low + count]
    return out


class RingTopology(_StaticTopology):
    """Bidirectional cycle 0–1–…–(n−1)–0; diameter ``n // 2``."""

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("a ring needs n >= 2")
        if n == 2:
            src = array("q", (0, 1, 0, 1))
        else:  # 0 and n - 1 hear across the wrap, so their rows sort apart
            src = array("q", (0, 1, n - 1))
            src += _band(1, n - 2, (-1, 0, 1))
            src += array("q", (0, n - 2, n - 1))
        width = len(src) // n
        self._hold(n, array("q", range(0, width * n + 1, width)), src)

    def diameter(self) -> int:
        return self.n // 2

    def __repr__(self) -> str:
        return f"RingTopology(n={self.n})"


class GridTopology(_StaticTopology):
    """``rows`` × ``cols`` 4-neighbor mesh; diameter rows+cols−2.

    Row-major numbering: process ``r * cols + c`` sits at (r, c).  The
    workhorse sparse graph for diameter-law sweeps — diameter grows as
    Θ(√n) instead of the ring's Θ(n), so stabilization-time laws can be
    separated from size effects at large n.
    """

    def __init__(self, rows: int, cols: int):
        if rows < 1 or cols < 1:
            raise ValueError("a grid needs rows >= 1 and cols >= 1")
        self.rows = rows
        self.cols = cols
        indptr, src = array("q", [0]), array("q")
        for r in range(rows):
            up = (-cols,) if r else ()
            down = (cols,) if r + 1 < rows else ()
            first = r * cols
            # a row is its two end receivers around one band of inner ones
            if cols == 1:
                parts = [(first, 1, up + (0,) + down)]
            else:
                parts = [
                    (first, 1, up + (0, 1) + down),
                    (first + 1, cols - 2, up + (-1, 0, 1) + down),
                    (first + cols - 1, 1, up + (-1, 0) + down),
                ]
            for start, count, offsets in parts:
                width, edge = len(offsets), indptr[-1]
                indptr += array("q", range(edge + width, edge + width * count + 1, width))
                src += _band(start, count, offsets)
        self._hold(rows * cols, indptr, src)

    def diameter(self) -> int:
        return self.rows + self.cols - 2

    def __repr__(self) -> str:
        return f"GridTopology(rows={self.rows}, cols={self.cols})"


class TreeTopology(_StaticTopology):
    """Complete ``arity``-ary tree rooted at 0 (heap numbering)."""

    def __init__(self, n: int, arity: int = 2):
        if arity < 1:
            raise ValueError("arity must be >= 1")
        self.arity = arity
        super().__init__(n, (((pid - 1) // arity, pid) for pid in range(1, n)))

    def __repr__(self) -> str:
        return f"TreeTopology(n={self.n}, arity={self.arity})"


class RandomTopology(_StaticTopology):
    """Seeded G(n, p) unioned with a seeded random spanning tree.

    The spanning tree guarantees connectivity (so ``diameter`` is always
    defined and unison always converges); the G(n, p) overlay controls
    density.  Same ``(n, p, seed)`` → same graph, everywhere.
    """

    def __init__(self, n: int, p: float = 0.2, seed: int = 0):
        if not 0.0 <= p <= 1.0:
            raise ValueError("p must be in [0, 1]")
        self.p = p
        self.seed = seed
        edges = set()
        rng = make_rng(seed, f"gnp:{n}:{p!r}")
        order = list(range(n))
        rng.shuffle(order)
        for i in range(1, n):
            attach = order[rng.randrange(i)]
            edges.add((min(order[i], attach), max(order[i], attach)))
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < p:
                    edges.add((u, v))
        super().__init__(n, sorted(edges))

    def __repr__(self) -> str:
        return f"RandomTopology(n={self.n}, p={self.p}, seed={self.seed})"


class ExplicitTopology(_StaticTopology):
    """An arbitrary undirected edge list, given outright."""

    def __init__(self, n: int, edges: Iterable[Tuple[int, int]]):
        self.edges = tuple(sorted((min(u, v), max(u, v)) for u, v in edges))
        super().__init__(n, self.edges)

    def __repr__(self) -> str:
        return f"ExplicitTopology(n={self.n}, edges={self.edges})"


# ---------------------------------------------------------------------------
# Churn
# ---------------------------------------------------------------------------

_CHURN_KINDS = ("leave", "join", "partition", "heal")


@dataclass(frozen=True)
class ChurnEvent:
    """One topology change, effective from ``round_no`` onward.

    - ``leave``: ``pids`` detach — they keep running (self-delivery
      only) but no edge touches them.  Not a fault: a detached process
      is correct, merely unreachable.
    - ``join``: ``pids`` re-attach.
    - ``partition``: the network splits into ``groups`` (disjoint pid
      sets); edges live only within a group.  Pids in no group form one
      implicit residual group.
    - ``heal``: the partition ends.
    """

    round_no: int
    kind: str
    pids: Tuple[int, ...] = ()
    groups: Tuple[FrozenSet[int], ...] = ()

    def __post_init__(self):
        if self.kind not in _CHURN_KINDS:
            raise ValueError(f"unknown churn kind {self.kind!r}")
        if self.round_no < 1:
            raise ValueError("churn round_no must be >= 1")
        object.__setattr__(self, "pids", tuple(sorted(self.pids)))
        object.__setattr__(
            self, "groups", tuple(frozenset(g) for g in self.groups)
        )
        if self.kind in ("leave", "join") and not self.pids:
            raise ValueError(f"{self.kind} event needs pids")
        if self.kind == "partition":
            seen: set = set()
            for group in self.groups:
                if seen & group:
                    raise ValueError("partition groups must be disjoint")
                seen |= group


@dataclass(frozen=True)
class ChurnSchedule:
    """An ordered script of :class:`ChurnEvent`\\ s (carried in FaultPlan)."""

    events: Tuple[ChurnEvent, ...] = ()

    def __post_init__(self):
        object.__setattr__(
            self,
            "events",
            tuple(sorted(self.events, key=lambda e: e.round_no)),
        )

    def __bool__(self) -> bool:
        return bool(self.events)

    @property
    def last_round(self) -> int:
        """Round of the final event (0 when empty) — recovery starts after."""
        return self.events[-1].round_no if self.events else 0


class DynamicTopology(Topology):
    """A base graph filtered per round by a :class:`ChurnSchedule`.

    An edge (u, v) of the base graph is live in round r iff neither
    endpoint is detached and both sit in the same partition group at r.
    The self-edge always survives.
    """

    def __init__(self, base: Topology, schedule: ChurnSchedule):
        self.base = base
        self.schedule = schedule
        self.n = base.n
        for event in schedule.events:
            for pid in event.pids:
                base._check_pid(pid)
            for group in event.groups:
                for pid in group:
                    base._check_pid(pid)
        # round -> (detached frozenset, block-of map or None)
        self._states: Dict[int, Tuple[FrozenSet[int], Optional[Dict[int, int]]]] = {}

    def _state(self, round_no: int):
        cached = self._states.get(round_no)
        if cached is not None:
            return cached
        detached: set = set()
        blocks: Optional[Dict[int, int]] = None
        for event in self.schedule.events:
            if event.round_no > round_no:
                break
            if event.kind == "leave":
                detached.update(event.pids)
            elif event.kind == "join":
                detached.difference_update(event.pids)
            elif event.kind == "partition":
                blocks = {}
                for index, group in enumerate(event.groups):
                    for pid in group:
                        blocks[pid] = index
            elif event.kind == "heal":
                blocks = None
        state = (frozenset(detached), blocks)
        self._states[round_no] = state
        return state

    def state_key(self, round_no: int):
        """Equality-comparable churn state at ``round_no``.

        Two rounds with equal keys have identical edge sets; batched
        engines use this to reuse compiled adjacency across rounds.
        """
        return self._state(round_no)

    def receivers(self, pid: int, round_no: int = 1) -> Sequence[int]:
        detached, blocks = self._state(round_no)
        base_receivers = self.base.receivers(pid, round_no)
        if not detached and blocks is None:
            return base_receivers
        if pid in detached:
            return (pid,)
        if blocks is None:
            return tuple(q for q in base_receivers if q == pid or q not in detached)
        my_block = blocks.get(pid, -1)
        return tuple(
            q
            for q in base_receivers
            if q == pid or (q not in detached and blocks.get(q, -1) == my_block)
        )

    def diameter(self) -> int:
        return self.base.diameter()

    def __repr__(self) -> str:
        return f"DynamicTopology({self.base!r}, events={len(self.schedule.events)})"


def normalize_topology(
    n: int, topology: Optional[Topology], churn: Optional[ChurnSchedule] = None
) -> Optional[Topology]:
    """The topology a run of ``n`` processes actually executes on.

    Churn wraps whatever base was given in a :class:`DynamicTopology`; a
    plain complete graph is erased to ``None`` so default runs stay on
    the exact pre-topology code paths (byte-identical histories); a
    sized topology must match ``n``.
    """
    if churn:
        topology = DynamicTopology(topology or CompleteTopology(n), churn)
    elif topology is not None and topology.complete:
        topology = None
    if topology is not None:
        require(
            topology.n == n, f"topology is sized for n={topology.n}, run has n={n}"
        )
    return topology


def round_edges(topology: Topology, round_no: int) -> Tuple[Tuple[int, ...], ...]:
    """The per-pid receiver sets of one round, as narrated/recorded.

    This is the exact value the engines hand to ``Observer.on_topology``
    and recorders attach to ``RoundHistory.edges`` — index p holds p's
    receivers (ascending, self included).  A static graph derives that
    value from its columns once and holds it.
    """
    if _holds_columns(topology):
        return topology._receivers
    return tuple(
        tuple(topology.receivers(pid, round_no)) for pid in range(topology.n)
    )


def receiver_columns(topology: Topology, round_no: int) -> Tuple[array, array]:
    """The receivers of one round as ``(indptr, src)`` ``array('q')`` columns.

    Receiver ``p`` hears ``src[indptr[p]:indptr[p + 1]]`` (ascending, self
    included): :func:`round_edges` in CSR form.  A static graph hands back
    the columns it holds, with no copy and no loop; any other topology (a
    churn state, the complete graph) is walked once through
    :func:`round_edges` and packed.
    """
    if _holds_columns(topology):
        return topology.indptr, topology.src
    rows = round_edges(topology, round_no)
    return (
        array("q", accumulate(map(len, rows), initial=0)),
        array("q", chain.from_iterable(rows)),
    )


def _holds_columns(topology: Topology) -> bool:
    """Do ``topology``'s held columns speak for its ``receivers``?  Not
    once a subclass overrides the walk."""
    return type(topology).receivers is _StaticTopology.receivers
