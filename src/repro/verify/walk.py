"""The walk: the plans of a space as chains that merge.

The explicit engine judges thousands of plans, and most of what they
do is done alike: the same configuration stepped in the same round
under the same fault actions, towards the same end.  A spec fully
determines its run (``run_sync`` is deterministic, a protocol's step a
function of its configuration), and so does any point of it: two plans
that start round ``r`` from the same configuration with the same fault
script left run the same from there to the horizon.  :class:`ChainWalk`
walks every plan of one verification as a chain of such **nodes** —
(round, configuration, remaining fault script) — and files each node's
successor once; a plan that reaches a node another plan walked takes
the whole rest of its run, and its verdicts, by reference.

- **Node key.** The round ``r``; the table's exact configuration before
  round ``r`` (:attr:`Configuration.index`); and the plan's remaining
  script, interned: per round ``>= r`` what its adversary holds (exact
  fault keys, crash schedules), the mid-run corruption that strikes
  (:meth:`~repro.sync.corruption.CorruptionPlan.exact_key`) and the
  round's edges, down to the horizon.  The adversaries a
  :class:`~repro.explore.space.PlanSpec` compiles to hold no RNG and no
  state (``NullAdversary``, ``CrashScheduleAdversary``,
  ``ScriptedAdversary`` and their ``ComposedAdversary``, matched by
  exact type), so the round's plan is a function of the round, the
  configuration and the script.  A plan outside that vocabulary, or a
  configuration without an exact key, is never shared: its nodes are
  private to it and walked through :meth:`RoundTable.step` as ever.
- **Per plan.** A script, compiled once per distinct fault axes; a
  root, the start configuration after its initial corruption (filed);
  the hops to the first node the table already knows; one verdict
  lookup.
- **Verdicts.** Both judges read only the claim's obligation, the
  rounds from ``obliged_after(spec) + 1`` on, and the run from a node is
  unique, so the pair is judged once per obligation node (and what the
  judge reads of the spec besides, ``SyncClaim.judge_reads``).  The
  streaming checker is a monitor (:mod:`repro.explore.checkers`) folded
  over the obligation's filed rounds, each (node, monitor state) stepped
  once: obligations whose chains merge, in the same state, share the
  rest of the fold.
- **Frontier.** The distinct digests are those of the configurations
  the nodes enter (after corruption) and of the end configurations;
  every plan visits ``rounds + 1`` of them.

Beneath the nodes, the :class:`RoundTable` files what a node's
successor is made of (``docs/verify.md``, "The walk"):

- **key** — round number; an exact key of the configuration (states,
  crashed set, faulty set); the round's fault plan (crash survivors,
  send omissions, receive omissions); the round's edges;
- **exactness** — a state value enters the key only if its type is
  exactly one the key spells out (``int``, ``str``, ``bool``, ``None``,
  ``tuple``, ``list``, ``dict``, ``set``, ``frozenset``,
  :class:`~repro.kernel.snapshot.FrozenDict`), tagged with that type and
  in iteration order; a configuration holding anything else (a float, a
  namedtuple, an ``IntEnum``, a dict subclass) is stepped, never looked
  up, and so is a round whose plan forges payloads;
- **value** — the filed :class:`~repro.histories.history.RoundHistory`
  and the next configuration, whose frontier digest is computed once;
- **miss** — steps a private copy of the configuration, so a protocol
  that mutates its state in place cannot reach a filed one.

A walk and its table live for one slice of one ``explicit_verify``
call (:func:`repro.verify.explicit.explicit_verify`), so a protocol
changed between calls is stepped afresh.
"""

from __future__ import annotations

import hashlib
import itertools
from collections.abc import Mapping
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from repro.histories.history import ExecutionHistory, RoundHistory
from repro.kernel.corruptions import corruption_faults
from repro.kernel.delivery import Liveness
from repro.kernel.events import EventBus, FaultEvent, Observer
from repro.kernel.faults import ComposedAdversary, CrashScheduleAdversary
from repro.kernel.recorders import HistoryRecorder
from repro.kernel.snapshot import FrozenDict, snapshot_states
from repro.kernel.topology import normalize_topology, round_edges
from repro.sync import engine
from repro.sync.adversary import NullAdversary, RoundFaultPlan, ScriptedAdversary

__all__ = [
    "ChainWalk",
    "Configuration",
    "FrontierObserver",
    "Node",
    "RoundTable",
    "Transition",
    "state_digest",
]

ProcessId = int


# ---------------------------------------------------------------------------
# Frontier digests
# ---------------------------------------------------------------------------

_ATOMS = frozenset({int, str, bool, float, type(None)})
#: Exact container types that are not mappings: no Mapping ABC check.
_NOT_MAPPINGS = frozenset({list, tuple, set, frozenset})


def _canon(value: Any) -> str:
    """A deterministic textual form for state values.

    ``repr`` alone is not canonical for unordered containers (set and
    frozenset iteration order follows hash seeds for str members, a
    mapping's follows insertion), so mappings — the kernel's
    ``FrozenDict`` snapshots as much as plain dicts — and sets are
    rendered with sorted members.  Exact types are told apart first;
    only another type pays for the ``Mapping`` ABC check.
    """
    kind = type(value)
    if kind in _ATOMS:
        return repr(value)
    if kind is dict or kind is FrozenDict or (
        kind not in _NOT_MAPPINGS and isinstance(value, Mapping)
    ):
        items = ", ".join(
            f"{_canon(k)}: {_canon(value[k])}" for k in sorted(value, key=repr)
        )
        return "{" + items + "}"
    if isinstance(value, (set, frozenset)):
        return "{" + ", ".join(sorted(_canon(item) for item in value)) + "}"
    if isinstance(value, (list, tuple)):
        return "(" + ", ".join(_canon(item) for item in value) + ")"
    return repr(value)


def state_digest(snapshots: Any) -> str:
    """Canonical digest of one global state (pid → state-or-crashed)."""
    parts = []
    for pid in sorted(snapshots):
        state = snapshots[pid]
        parts.append(f"{pid}=" + ("<crashed>" if state is None else _canon(state)))
    content = hashlib.sha256("|".join(parts).encode("utf-8"))
    return content.hexdigest()[:16]


class FrontierObserver(Observer):
    """Digests every per-round global state a run passes through.

    The digests — not the states — ride back to the parent, which
    interns them across *all* plans of the verification: two plans that
    steer the system through the same global state collapse to one
    frontier entry, and the dedup ratio measures how much of the
    fault-plan product re-treads shared ground.  It rides ``run_sync``
    (the per-plan oracle); a chain walk digests each configuration it
    reaches once instead (:attr:`ChainWalk.digests`).
    """

    def __init__(self) -> None:
        self.digests: List[str] = []

    def on_round_start(self, round_no, snapshots) -> None:
        self.digests.append(state_digest(snapshots))

    def on_run_end(self, time, final_states) -> None:
        # The post-final-round state never gets a round row; digest it
        # here so the frontier covers the run end-to-end.
        self.digests.append(state_digest(final_states))


# ---------------------------------------------------------------------------
# Exact keys
# ---------------------------------------------------------------------------


class _Untableable(Exception):
    """A value no key spells out exactly: its round is stepped."""


#: Containers the key spells out, each tagged with its exact type.
_SEQUENCES = frozenset({tuple, list, set, frozenset})
_MAPPINGS = frozenset({dict, FrozenDict})


def _exact(value: Any) -> Any:
    """A hashable key equal only for values of identical types,
    contents and iteration orders (``1`` vs ``True``, a tuple vs a list
    and a dict vs a dict subclass all differ).  Raises
    :class:`_Untableable` for anything it does not spell out."""
    kind = type(value)
    if kind is int or kind is str or value is None:
        return value  # the only untagged keys: no tagged one equals them
    if kind is bool:
        return (bool, value)
    if kind in _MAPPINGS:
        # States are mappings of int and str fields to mostly int and str
        # values: those are their own keys, spelled out inline.
        return (
            kind,
            *[
                (
                    key if type(key) is str or type(key) is int else _exact(key),
                    item if type(item) is int or type(item) is str else _exact(item),
                )
                for key, item in value.items()
            ],
        )
    if kind in _SEQUENCES:
        return (kind, *map(_exact, value))
    raise _Untableable(kind)


_INT = frozenset({int})


def _targets(part: Mapping[ProcessId, Any]) -> tuple:
    """``pid -> pids`` of a fault plan, sorted: the ledger reads these
    as sets, so their order is not part of the transition."""
    if not part:
        return ()
    key = tuple(sorted([(pid, tuple(sorted(pids))) for pid, pids in part.items()]))
    kinds = set(map(type, part))
    for _pid, pids in key:
        kinds.update(map(type, pids))
    if not _INT.issuperset(kinds):
        raise _Untableable(part)
    return key


def _fault_key(plan: RoundFaultPlan) -> Optional[tuple]:
    """The plan's fault actions, or ``None`` when a forgery's mutator
    (code, possibly with its own RNG) is among them."""
    if plan.forgeries:
        return None
    crashes, sends, receives = plan.crashes, plan.send_omissions, plan.receive_omissions
    if not (crashes or sends or receives):
        return ()
    try:
        return (_targets(crashes), _targets(sends), _targets(receives))
    except (_Untableable, TypeError):  # a pid that is not an int
        return None


# ---------------------------------------------------------------------------
# The table
# ---------------------------------------------------------------------------


class Configuration:
    """A global state between rounds: the states (``None`` for the
    crashed) and the :class:`Liveness`.  The table owns both; nothing
    may mutate them (a miss steps copies).  ``index`` is the
    configuration's slot in its table, ``None`` for one no key holds."""

    __slots__ = ("states", "live", "index", "_digest")

    def __init__(self, states, live: Liveness, index: Optional[int]):
        self.states = states
        self.live = live
        self.index = index
        self._digest: Optional[str] = None

    @property
    def digest(self) -> str:
        """The frontier digest, computed once per configuration."""
        if self._digest is None:
            self._digest = state_digest(self.states)
        return self._digest


class Transition(NamedTuple):
    """One filed round: its records and the configuration it leads to."""

    filed: RoundHistory
    after: Configuration


class _RoundFiler(HistoryRecorder):
    """Files the records of the round a miss steps.

    The round is opened on the configuration itself rather than on an
    engine snapshot of the private copy: equal states, and the records'
    ``state_before`` then share the table's (never mutated) dicts.  A
    table reuses one filer, reopened for every miss.
    """

    on_round_start = Observer.on_round_start  # opened by open() instead

    def open(self, n: int, round_no: int, config: "Configuration") -> None:
        self._n = n
        self._crashed = set(config.live.crashed)
        HistoryRecorder.on_round_start(self, round_no, config.states)
        self.filed: Optional[RoundHistory] = None

    def _round_finished(self, round_history):
        self.filed = round_history


class RoundTable:
    """The filed rounds of one verification, keyed by exact transition.

    Bounded by the distinct transitions the plans reach, never by the
    number of plans; ``stepped`` counts the rounds actually stepped.
    """

    def __init__(self) -> None:
        self._configurations: Dict[tuple, Configuration] = {}
        self._rounds: Dict[tuple, Transition] = {}
        self._corruptions: Dict[tuple, Tuple[Configuration, Tuple[FaultEvent, ...]]] = {}
        #: One instance of each fault key and fault event: many rounds share them.
        self._interned: Dict[Any, Any] = {}
        self._filer = _RoundFiler()
        self._filing = EventBus((self._filer,))
        self.stepped = 0
        #: Corruption plans actually applied (the rest were filed).
        self.corrupted = 0

    def configuration(self, states, live: Liveness) -> Configuration:
        """The table's configuration equal to ``(states, live)``."""
        try:
            key = (_exact(states), tuple(sorted(live.crashed)), tuple(sorted(live.faulty)))
        except _Untableable:
            return Configuration(states, live, None)
        found = self._configurations.get(key)
        if found is None:
            found = Configuration(states, live, len(self._configurations))
            self._configurations[key] = found
        return found

    def step(
        self,
        protocol,
        n: int,
        round_no: int,
        config: Configuration,
        plan: RoundFaultPlan,
        edges: Optional[Sequence[Sequence[ProcessId]]],
    ) -> Transition:
        """The round from ``config`` under ``plan`` on ``edges``: filed
        already, or stepped now (and filed if a key holds it)."""
        key = None
        if config.index is not None:
            faults = _fault_key(plan)
            if faults is not None:
                faults = self._interned.setdefault(faults, faults)
                key = (round_no, config.index, faults, edges)
                found = self._rounds.get(key)
                if found is not None:
                    return found
        # A private copy: the protocol may mutate what it is handed, and
        # what it hands back is the next configuration's alone.
        states = snapshot_states(config.states)
        live = config.live.copy()
        filer = self._filer
        filer.open(n, round_no, config)
        engine.step_round(protocol, n, self._filing, round_no, states, live, plan, edges)
        self.stepped += 1
        transition = Transition(filer.filed, self.configuration(states, live))
        if key is not None:
            self._rounds[key] = transition
        return transition

    def corrupt(
        self, plan, protocol, n: int, config: Configuration, time: int
    ) -> Tuple[Configuration, Tuple[FaultEvent, ...]]:
        """``config`` after corruption ``plan`` strikes at ``time``, and
        the faults that narrates: filed already, or applied now (and
        filed if the plan has an exact key and ``config`` an index).
        Both ways the faults are :func:`corruption_faults`, the rule
        ``apply_corruption`` narrates by."""
        key = None
        if config.index is not None:
            exact_key = getattr(plan, "exact_key", None)
            plan_key = None if exact_key is None else exact_key()
            if plan_key is not None:
                key = (plan_key, config.index, time)
                found = self._corruptions.get(key)
                if found is not None:
                    return found
        states = config.states
        corrupted = plan.corrupt(protocol, states, n)
        self.corrupted += 1
        faults = corruption_faults(plan, states, corrupted, n, time)
        filed = (
            self.configuration(corrupted, config.live),
            tuple([self._interned.setdefault(fault, fault) for fault in faults]),
        )
        if key is not None:
            self._corruptions[key] = filed
        return filed


# ---------------------------------------------------------------------------
# Remaining fault scripts
# ---------------------------------------------------------------------------


def _entries(adversary, round_no: int, out: list) -> None:
    """Append what ``adversary`` holds for ``round_no`` to ``out``, in
    the order a :class:`ComposedAdversary` merges it (first wins).
    Matched by exact type: a subclass may plan otherwise."""
    kind = type(adversary)
    if kind is NullAdversary:
        return
    if kind is CrashScheduleAdversary:
        pids = adversary._by_round.get(round_no)
        if pids:
            if not _INT.issuperset(map(type, pids)):
                raise _Untableable(pids)
            out.append((kind, tuple(sorted(pids))))
        return
    if kind is ScriptedAdversary:
        plan = adversary._script.get(round_no)
        if plan is not None:
            key = _fault_key(plan)
            if key is None:
                raise _Untableable(plan)
            if key:
                out.append((kind, key))
        return
    if kind is ComposedAdversary:
        for part in adversary._parts:
            _entries(part, round_no, out)
        return
    raise _Untableable(kind)


def _round_script(adversary, mid_run, edges, round_no: int) -> tuple:
    """Everything round ``round_no`` of a plan reads besides its
    configuration, as an exact key: the adversary's entries with the
    budget they are validated against, the mid-run corruption's key,
    the edges.  Raises :class:`_Untableable` where one has no key."""
    entries: list = []
    _entries(adversary, round_no, entries)
    corruption = mid_run.get(round_no)
    key = None if corruption is None else corruption.exact_key()
    if corruption is not None and key is None:
        raise _Untableable(corruption)
    # An empty plan is valid under any budget the run has kept so far.
    return ((adversary.f, tuple(entries)) if entries else (), key, edges)


#: The remaining script of a run at its horizon: nothing.
_END = 0


class _Script(NamedTuple):
    """A plan's fault script, compiled once for every plan with the same
    fault axes: its adversary, mid-run corruptions and per-round edges,
    and ``futures[r]``, the interned key of what remains of it from
    round ``r`` to the horizon (``None`` where something left has no
    exact key)."""

    n: int
    rounds: int
    adversary: Any
    mid_run: Mapping[int, Any]
    edges: List[Any]
    futures: List[Optional[int]]


def _script_key(spec) -> tuple:
    """The fields of ``spec`` its script is compiled from: every one
    but the initial corruption's (the root's) and ``gst``, which the
    synchronous substrate ignores.  The seed matters only to mid-run
    corruption."""
    mid = spec.corruption_rounds
    return (spec.n, spec.rounds, spec.crashes, spec.omissions, spec.churn, mid,
            spec.seed if mid else None)


def _root_key(spec) -> tuple:
    """The fields of ``spec`` its root is drawn from."""
    drawn = spec.random_corruption
    return (spec.n, drawn, spec.seed if drawn else None, spec.clock_skews)


# ---------------------------------------------------------------------------
# Chains of nodes
# ---------------------------------------------------------------------------


class Node:
    """Round ``round_no`` about to start from ``config`` with a fault
    script left: every plan that reaches it runs the same from here.

    Walked once, it holds its successor: the configuration the round's
    mid-run corruption leaves (``entered``) and that corruption's
    faults, the filed round, and the ``next`` node.  The node after the
    horizon ends the run (``transition`` and ``next`` stay ``None``).
    """

    __slots__ = ("serial", "round_no", "config", "entered", "corruption", "transition", "next")

    def __init__(self, serial: int, round_no: int, config: Configuration):
        self.serial = serial
        self.round_no = round_no
        self.config = config
        #: ``None`` until the node is walked.
        self.entered: Optional[Configuration] = None
        self.corruption: Tuple[FaultEvent, ...] = ()
        self.transition: Optional[Transition] = None
        self.next: Optional[Node] = None


class ChainWalk:
    """Every plan of one verification of ``claim`` at ``at``, as chains
    of nodes that merge (:meth:`judge` per plan).

    Bounded by the distinct nodes the plans reach, never by the number
    of plans.  ``digests`` holds the frontier's distinct digests,
    ``visited`` the frontier arrivals (``rounds + 1`` per plan) and
    ``walked`` the rounds walked: one per node before a horizon.
    """

    def __init__(self, claim, at: int) -> None:
        self.claim = claim
        self.at = at
        self.protocol = claim.protocol()
        self.table = RoundTable()
        self.digests: Set[str] = set()
        self.visited = 0
        self.walked = 0
        self._nodes: Dict[tuple, Node] = {}
        self._futures: Dict[tuple, int] = {}
        self._scripts: Dict[tuple, _Script] = {}
        self._roots: Dict[tuple, Configuration] = {}
        self._verdicts: Dict[tuple, tuple] = {}
        self._serials = itertools.count()
        #: The claim's streaming checker as a fold (``None``: the judge
        #: doubles as it), and its steps: (node serial, state) -> state.
        self.monitor = None if claim.checker is None else claim.checker(at).monitor
        self._folded: Dict[tuple, Any] = {}

    @property
    def monitor_steps(self) -> int:
        """Monitor steps taken: one per distinct (node, monitor state)."""
        return len(self._folded)

    def judge(self, spec) -> Tuple[Any, Any]:
        """``spec``'s ``(streaming, confirm)`` verdicts: walked up to the
        first node the walk knows, judged once per obligation node."""
        script = self._script(spec)
        first = node = self._node(1, self._root(spec), script)
        while node.entered is None:
            self._walk(node, script)
            if node.next is None:
                joined = None
                break
            node = node.next
        else:
            joined = node
        self.visited += script.rounds + 1

        claim = self.claim
        start = claim.obliged_after(spec) + 1
        reads = claim.judge_reads(spec)
        if joined is None or joined.round_no > start:
            return self._obligation(first, start, reads, first, spec)
        key = (joined.serial, start, reads)
        found = self._verdicts.get(key)
        if found is None:
            found = self._verdicts[key] = self._obligation(joined, start, reads, first, spec)
        return found

    # -- nodes ---------------------------------------------------------------

    def _node(self, round_no: int, config: Configuration, script: _Script) -> Node:
        """The node at ``round_no`` from ``config`` with ``script`` left;
        a private one where either has no exact key."""
        future = script.futures[round_no]
        if future is None or config.index is None:
            return Node(next(self._serials), round_no, config)
        key = (round_no, config.index, future)
        node = self._nodes.get(key)
        if node is None:
            node = self._nodes[key] = Node(next(self._serials), round_no, config)
        return node

    def _walk(self, node: Node, script: _Script) -> None:
        """File ``node``'s successor: its round as ``run_sync`` plays it."""
        round_no, config = node.round_no, node.config
        if round_no > script.rounds:
            node.entered = config
            self.digests.add(config.digest)
            return
        self.walked += 1
        table, protocol, n = self.table, self.protocol, script.n
        corruption = script.mid_run.get(round_no)
        if corruption is None:
            entered = config
        else:
            entered, node.corruption = table.corrupt(corruption, protocol, n, config, round_no)
        live = entered.live
        adversary = script.adversary
        plan = adversary.plan_round(round_no, live.alive_view, live.faulty)
        adversary.validate(plan, live.faulty)
        transition = table.step(protocol, n, round_no, entered, plan, script.edges[round_no])
        node.entered, node.transition = entered, transition
        self.digests.add(entered.digest)
        node.next = self._node(round_no + 1, transition.after, script)

    def _script(self, spec) -> _Script:
        key = _script_key(spec)
        script = self._scripts.get(key)
        if script is None:
            script = self._scripts[key] = self._compile(spec)
        return script

    def _compile(self, spec) -> _Script:
        n, rounds, claim = spec.n, spec.rounds, self.claim
        fault_plan = spec.fault_plan()
        view = fault_plan.to_sync()
        adversary = view.adversary or NullAdversary()
        mid_run = view.mid_run_corruptions
        topo = normalize_topology(
            n, None if claim.topology is None else claim.topology(n), fault_plan.churn
        )
        edges: List[Any] = [None] * (rounds + 1)
        if topo is not None:
            for round_no in range(1, rounds + 1):
                edges[round_no] = round_edges(topo, round_no)
        futures: List[Optional[int]] = [None] * (rounds + 2)
        future = futures[rounds + 1] = _END
        interned = self._futures
        for round_no in range(rounds, 0, -1):
            try:
                step = (_round_script(adversary, mid_run, edges[round_no], round_no), future)
                future = interned.setdefault(step, len(interned) + 1)
            except (_Untableable, TypeError):  # TypeError: an unhashable key
                break
            futures[round_no] = future
        return _Script(n, rounds, adversary, mid_run, edges, futures)

    def _root(self, spec) -> Configuration:
        """The start configuration after ``spec``'s initial corruption."""
        key = _root_key(spec)
        root = self._roots.get(key)
        if root is None:
            n, protocol, table = spec.n, self.protocol, self.table
            root = table.configuration(engine.start_states(protocol, n), Liveness(n))
            initial = spec.fault_plan().initial_corruption
            if initial is not None:
                root, _faults = table.corrupt(initial, protocol, n, root, 0)
            self._roots[key] = root
        return root

    # -- verdicts ------------------------------------------------------------

    def _obligation(self, node: Node, start: int, reads, first: Node, spec) -> tuple:
        """The verdict pair of the obligation from round ``start`` on
        the chain through ``node``, judged once per obligation node;
        ``first`` is the chain's first node, which the judge's history
        starts from."""
        while node.round_no < start:
            node = node.next
        key = (node.serial, start, reads)
        found = self._verdicts.get(key)
        if found is None:
            found = self._verdicts[key] = self._judged(node, first, spec)
        return found

    def _judged(self, obliged: Node, first: Node, spec) -> tuple:
        rounds = []
        node = first
        while node.transition is not None:
            rounds.append(node.transition.filed)
            node = node.next
        confirm = self.claim.judge(ExecutionHistory(rounds), spec, self.at)
        if self.monitor is None:
            return confirm, confirm
        return self._fold(obliged, spec.n), confirm

    def _fold(self, node: Node, n: int):
        """The monitor's verdict on the run from ``node`` to its end, as a
        run that starts at ``node``'s round: each filed round, flagged
        where a mid-run corruption struck it.  Nothing before that round
        reaches it (the initial corruption included), so what it
        concludes is a function of the node; and each (node, monitor
        state) is stepped once, however many chains bring it there."""
        monitor, folded = self.monitor, self._folded
        state = monitor.start(n, node.round_no)
        while node.transition is not None:
            key = (node.serial, state)
            after = folded.get(key)
            if after is None:
                after = folded[key] = monitor.step(
                    state, bool(node.corruption), node.transition.filed
                )
            state, node = after, node.next
        return monitor.verdict(state)
