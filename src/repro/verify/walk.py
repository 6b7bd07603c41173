"""The walk: every plan of a space through one table of filed rounds.

The explicit engine judges thousands of plans, and most of their rounds
are the same transition: the same configuration, stepped in the same
round under the same fault actions.  A spec fully determines its run
(``run_sync`` is deterministic, a protocol's step a function of its
configuration), so one stepping of a transition serves every plan that
reaches it.  :func:`walk` narrates one plan's run to its riders the way
``run_sync`` would, and steps a round — through the engine's one round
function, :func:`repro.sync.engine.step_round` — only when the
:class:`RoundTable` has not filed it yet.

What each plan still does for itself, because it is the plan's and not
the transition's: it builds its own protocol and fault plan, asks its
own adversary for every round's plan (RNG streams and budget checks
stay intact), looks its rounds and corruptions up, and gets its own
frontier digests and verdicts.  A corruption is filed like a round
(:meth:`RoundTable.corrupt`), keyed by the plan's
:meth:`~repro.sync.corruption.CorruptionPlan.exact_key`, the
configuration and the time; a plan without a key is applied every
time.  The walk returns the plan's :class:`Path`, from which the proof
plane reads the recorded history and narrates the streaming checker
its obligation (:func:`narrate`), each judged once per distinct
obligation (:attr:`RoundTable.verdicts`).

The table (``docs/verify.md``, "The walk"):

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
- **value** — the filed :class:`~repro.histories.history.RoundHistory`,
  the round's :class:`~repro.kernel.events.FaultEvent` s in engine order
  and the next configuration, whose frontier digest is computed once;
- **miss** — steps a private copy of the configuration, so a protocol
  that mutates its state in place cannot reach a filed one.

A hit narrates what the verify riders read: ``on_round_start`` with the
configuration, the round's faults, and the filed round — through
:meth:`~repro.kernel.recorders.HistoryRecorder.file_round` to a
recorder, ``on_round_end`` to anyone else.  It does not replay sends,
deliveries, topology or state commits, so :func:`walk` refuses a rider
other than a recorder that listens to them.

A table lives for one ``explicit_verify`` call in one thread
(:func:`shared_table`), so a protocol changed between calls is stepped
afresh; a pool worker forked during a call walks without it.
"""

from __future__ import annotations

import hashlib
import os
import threading
from collections.abc import Mapping
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from repro.histories.history import ExecutionHistory, RoundHistory
from repro.kernel.corruptions import corruption_faults
from repro.kernel.delivery import Liveness
from repro.kernel.events import EventBus, FaultEvent, Observer
from repro.kernel.recorders import HistoryRecorder
from repro.kernel.snapshot import FrozenDict, snapshot_states
from repro.kernel.topology import normalize_topology, round_edges
from repro.sync import engine
from repro.sync.adversary import NullAdversary, RoundFaultPlan

__all__ = [
    "Configuration",
    "FrontierObserver",
    "Path",
    "RoundTable",
    "Step",
    "Transition",
    "current_table",
    "shared_table",
    "state_digest",
    "walk",
]

ProcessId = int


# ---------------------------------------------------------------------------
# Frontier digests
# ---------------------------------------------------------------------------

_ATOMS = frozenset({int, str, bool, float, type(None)})


def _canon(value: Any) -> str:
    """A deterministic textual form for state values.

    ``repr`` alone is not canonical for unordered containers (set and
    frozenset iteration order follows hash seeds for str members, a
    mapping's follows insertion), so mappings — the kernel's
    ``FrozenDict`` snapshots as much as plain dicts — and sets are
    rendered with sorted members.
    """
    if type(value) in _ATOMS:  # most values; spares them the Mapping ABC check
        return repr(value)
    if isinstance(value, Mapping):
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
    fault-plan product re-treads shared ground.  A walk hands over the
    digest its table already holds (:meth:`add`).
    """

    def __init__(self) -> None:
        self.digests: List[str] = []

    def add(self, digest: str) -> None:
        self.digests.append(digest)

    def on_round_start(self, round_no, snapshots) -> None:
        self.add(state_digest(snapshots))

    def on_run_end(self, time, final_states) -> None:
        # The post-final-round state never gets a round row; digest it
        # here so the frontier covers the run end-to-end.
        self.add(state_digest(final_states))


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
    """One filed round: its records, its faults in engine order, and
    the configuration it leads to."""

    filed: RoundHistory
    faults: Tuple[FaultEvent, ...]
    after: Configuration


class _RoundFiler(HistoryRecorder):
    """Files the round a miss steps: its records and its faults.

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
        self.faults: List[FaultEvent] = []
        self.filed: Optional[RoundHistory] = None

    def on_fault(self, fault):
        self.faults.append(fault)
        super().on_fault(fault)

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
        #: Verdicts by obligation: the histories read off this table
        #: share it (:meth:`ExecutionHistory.judge_once`), and so does
        #: :meth:`streaming`.
        self.verdicts: Dict[tuple, tuple] = {}
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
        after = self.configuration(states, live)
        faults = tuple([self._interned.setdefault(fault, fault) for fault in filer.faults])
        transition = Transition(filer.filed, faults, after)
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

    def streaming(self, checker, at: int, path: "Path", skipped: int) -> Any:
        """``checker(at)``'s verdict on ``path``'s rounds after round
        ``skipped``, narrated to it alone (:func:`narrate`): once per
        distinct obligation, which the key spells out by the identity of
        what the table filed for it."""
        steps = path.steps[skipped:]
        filed = tuple([step.transition.filed for step in steps])
        corruption = tuple([step.corruption for step in steps])
        key = (checker, at, skipped, id(path.end), *map(id, filed), *map(id, corruption))
        found = self.verdicts.get(key)
        if found is None:
            observer = checker(at)
            narrate(path, observer, skipped)
            # The entry keeps what it was keyed by alive: no id is reused.
            pinned = (filed, corruption, path.end)
            found = self.verdicts[key] = (pinned, observer.verdict())
        return found[1]


class _Scope(threading.local):
    """The table in scope, per thread: two verifications never share one."""

    table: Optional[RoundTable] = None


_SCOPE = _Scope()


@contextmanager
def shared_table() -> Iterator[RoundTable]:
    """One table for every walk inside the block (then dropped)."""
    outer, _SCOPE.table = _SCOPE.table, RoundTable()
    try:
        yield _SCOPE.table
    finally:
        _SCOPE.table = outer


def current_table() -> RoundTable:
    """The table in scope, or a fresh one for a walk outside any."""
    table = _SCOPE.table
    return table if table is not None else RoundTable()


def _forget_shared() -> None:
    _SCOPE.table = None


# A pool worker forked inside a verification must not keep its table
# into the next one.
os.register_at_fork(after_in_child=_forget_shared)


# ---------------------------------------------------------------------------
# The walk
# ---------------------------------------------------------------------------


class Step(NamedTuple):
    """One round of a walked plan: the configuration it starts from
    (after any mid-run corruption), that corruption's faults, and the
    filed round."""

    config: Configuration
    corruption: Tuple[FaultEvent, ...]
    transition: Transition


class Path(NamedTuple):
    """A plan's run as its table holds it: everything a rider of the
    walk is narrated, and what :func:`repro.verify.targets.judge_plan`
    judges."""

    n: int
    protocol: Any
    #: The initial corruption's faults (at time 0, before round 1).
    initial: Tuple[FaultEvent, ...]
    steps: List[Step]
    end: Configuration

    def history(self, verdicts: Optional[Dict[tuple, tuple]] = None) -> ExecutionHistory:
        """The recorded history: the filed rounds, sharing ``verdicts``."""
        return ExecutionHistory([step.transition.filed for step in self.steps], verdicts)


class _Riders:
    """A plan's riders, sorted by how a filed round reaches them."""

    def __init__(self, riders: Sequence[Observer]):
        self.frontiers = [r for r in riders if type(r) is FrontierObserver]
        rest = tuple(r for r in riders if type(r) is not FrontierObserver)
        self.bus = EventBus(rest)
        self.recorders = [r for r in rest if isinstance(r, HistoryRecorder)]
        self.others = [r for r in rest if not isinstance(r, HistoryRecorder)]
        unheard = EventBus(self.others) if self.others else None
        if unheard is not None and (
            unheard.wants_send
            or unheard.wants_deliver
            or unheard.wants_state_commit
            or unheard.wants_topology
        ):
            raise TypeError(
                "a walk narrates round starts, faults and filed rounds only; "
                "a rider that reads sends, deliveries, topology or state "
                "commits must be a HistoryRecorder or ride run_sync"
            )

    def run(self, path: Path) -> None:
        bus = self.bus
        bus.on_run_start(path.n, path.protocol, 1)
        wants_fault = bus.wants_fault
        if wants_fault:
            for fault in path.initial:
                bus.on_fault(fault)
        for round_no, step in enumerate(path.steps, 1):
            if wants_fault:
                for fault in step.corruption:
                    bus.on_fault(fault)
            self.round(round_no, step.config, step.transition)
        for frontier in self.frontiers:
            frontier.add(path.end.digest)
        states = path.end.states
        bus.on_run_end(len(path.steps), {pid: states[pid] for pid in range(path.n)})

    def round(self, round_no: int, config: Configuration, step: Transition) -> None:
        bus = self.bus
        bus.on_round_start(round_no, config.states)
        for frontier in self.frontiers:
            frontier.add(config.digest)
        if bus.wants_fault:
            for fault in step.faults:
                bus.on_fault(fault)
        for recorder in self.recorders:
            recorder.file_round(step.filed)
        for other in self.others:
            other.on_round_end(round_no)


def narrate(path: Path, observer: Observer, skipped: int = 0) -> None:
    """Narrate ``path``'s rounds after round ``skipped`` to ``observer``
    alone, as a run that starts at round ``skipped + 1``: a round's
    mid-run corruption, start, faults and filed round, then the end.
    Nothing before that round reaches it (the initial corruption's
    faults included), so what it concludes is a function of those
    rounds."""
    observer.on_run_start(path.n, path.protocol, skipped + 1)
    files = isinstance(observer, HistoryRecorder)
    for round_no, step in enumerate(path.steps[skipped:], skipped + 1):
        for fault in step.corruption:
            observer.on_fault(fault)
        observer.on_round_start(round_no, step.config.states)
        transition = step.transition
        for fault in transition.faults:
            observer.on_fault(fault)
        if files:
            observer.file_round(transition.filed)
        else:
            observer.on_round_end(round_no)
    states = path.end.states
    observer.on_run_end(len(path.steps), {pid: states[pid] for pid in range(path.n)})


def _trace(claim, spec, table: RoundTable) -> Path:
    """``spec``'s run under ``claim`` through ``table``."""
    n = spec.n
    protocol = claim.protocol()
    fault_plan = spec.fault_plan()
    view = fault_plan.to_sync()
    adversary = view.adversary or NullAdversary()
    mid_run = view.mid_run_corruptions
    topo = normalize_topology(
        n, None if claim.topology is None else claim.topology(n), fault_plan.churn
    )

    config = table.configuration(engine.start_states(protocol, n), Liveness(n))
    initial: Tuple[FaultEvent, ...] = ()
    if view.corruption is not None:
        config, initial = table.corrupt(view.corruption, protocol, n, config, 0)
    steps: List[Step] = []
    for round_no in range(1, spec.rounds + 1):
        corruption: Tuple[FaultEvent, ...] = ()
        if round_no in mid_run:
            config, corruption = table.corrupt(mid_run[round_no], protocol, n, config, round_no)
        live = config.live
        plan = adversary.plan_round(round_no, live.alive_view, live.faulty)
        adversary.validate(plan, live.faulty)
        edges = None if topo is None else round_edges(topo, round_no)
        transition = table.step(protocol, n, round_no, config, plan, edges)
        steps.append(Step(config, corruption, transition))
        config = transition.after
    return Path(n, protocol, initial, steps, config)


def walk(claim, spec, riders: Sequence[Observer], table: RoundTable) -> Path:
    """Narrate ``spec``'s run under ``claim`` (a
    :class:`~repro.explore.targets.SyncClaim`) to ``riders``, as
    ``claim.run(spec, riders)`` would, stepping only what ``table``
    has not filed; return the run's :class:`Path`."""
    narrate_to = _Riders(riders)  # a rider it cannot narrate to is refused first
    path = _trace(claim, spec, table)
    narrate_to.run(path)
    return path
