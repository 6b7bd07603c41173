"""The fault-plan space: declarative specs, enumeration, fuzzing, dedup.

A :class:`PlanSpec` is a *declarative* fault scenario — plain integers
and tuples, picklable and JSON-able — in contrast to the kernel's
:class:`~repro.kernel.faults.FaultPlan`, which may carry arbitrary
adversary objects.  The spec is the unit the exploration engine
enumerates, fuzzes, dedupes, shrinks, and writes into replay artifacts;
:meth:`PlanSpec.fault_plan` compiles it into the kernel vocabulary for
either substrate.

A :class:`PlanSpace` describes a set of specs by its atoms (candidate
crash rounds, omission windows, skew values, corruption toggles, GST
placements) and bounds (how many of each).  Small spaces are enumerated
exhaustively in a deterministic order; large ones are sampled by a
seeded random walk.  Both go through :func:`dedupe`, which normalizes
each spec to a canonical form under process-id permutation so that
symmetric plans run once.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.kernel.faults import FaultPlan
from repro.kernel.topology import ChurnEvent, ChurnSchedule
from repro.sync.adversary import RoundFaultPlan, ScriptedAdversary
from repro.sync.corruption import (
    ClockSkewCorruption,
    CorruptionPlan,
    RandomCorruption,
)
from repro.util.rng import derive_seed, make_rng
from repro.util.validation import require, require_positive, require_process_count

__all__ = [
    "ChurnSpec",
    "ComposedCorruption",
    "OmissionSpec",
    "PlanSpace",
    "PlanSpec",
    "canonical_key",
    "dedupe",
]

#: Omission campaign kinds (subsets of the paper's general omission).
OMISSION_KINDS = ("send", "receive", "general")


class ComposedCorruption(CorruptionPlan):
    """Apply several corruption plans in sequence (later plans last)."""

    def __init__(self, parts: Iterable[CorruptionPlan]):
        self._parts = tuple(parts)

    def corrupt(self, protocol, states, n):
        out = {pid: None if s is None else dict(s) for pid, s in states.items()}
        for part in self._parts:
            out = part.corrupt(protocol, out, n)
        return out

    def exact_key(self):
        if type(self) is not ComposedCorruption:
            return None
        parts = tuple(getattr(part, "exact_key", lambda: None)() for part in self._parts)
        return None if None in parts else (ComposedCorruption, parts)


@dataclass(frozen=True)
class OmissionSpec:
    """One omission campaign: a process misbehaves over a round window.

    ``targets=None`` means "everyone else" (the paper's silence
    pattern); an explicit tuple restricts the campaign to those peers.
    ``kind`` is one of :data:`OMISSION_KINDS`; ``general`` omits both
    directions (the silenced process still hears itself — self-delivery
    is sacred).
    """

    pid: int
    kind: str
    first_round: int
    last_round: int
    targets: Optional[Tuple[int, ...]] = None

    def __post_init__(self):
        require(self.kind in OMISSION_KINDS, f"unknown omission kind {self.kind!r}")
        require_positive(self.first_round, "first_round")
        require(
            self.last_round >= self.first_round,
            f"omission window [{self.first_round}, {self.last_round}] is empty",
        )

    def rounds(self) -> range:
        return range(self.first_round, self.last_round + 1)

    def to_jsonable(self) -> Dict[str, object]:
        return {
            "pid": self.pid,
            "kind": self.kind,
            "first_round": self.first_round,
            "last_round": self.last_round,
            "targets": None if self.targets is None else list(self.targets),
        }

    @staticmethod
    def from_jsonable(data: Dict[str, object]) -> "OmissionSpec":
        targets = data.get("targets")
        return OmissionSpec(
            pid=int(data["pid"]),
            kind=str(data["kind"]),
            first_round=int(data["first_round"]),
            last_round=int(data["last_round"]),
            targets=None if targets is None else tuple(int(t) for t in targets),
        )


@dataclass(frozen=True)
class ChurnSpec:
    """One churn episode: a process detaches, and optionally rejoins.

    Compiles to ``leave``/``join`` events on the plan's
    :class:`~repro.kernel.topology.ChurnSchedule`.  Churn is a topology
    change, not a process failure — the detached process keeps
    executing (self-delivery only) and never enters the faulty set, so
    churn specs do not count against the fault budget.
    """

    pid: int
    leave_round: int
    rejoin_round: Optional[int] = None

    def __post_init__(self):
        require_positive(self.leave_round, "leave_round")
        if self.rejoin_round is not None:
            require(
                self.rejoin_round > self.leave_round,
                f"rejoin round {self.rejoin_round} must come after "
                f"leave round {self.leave_round}",
            )

    def to_jsonable(self) -> Dict[str, object]:
        return {
            "pid": self.pid,
            "leave_round": self.leave_round,
            "rejoin_round": self.rejoin_round,
        }

    @staticmethod
    def from_jsonable(data: Dict[str, object]) -> "ChurnSpec":
        rejoin = data.get("rejoin_round")
        return ChurnSpec(
            pid=int(data["pid"]),
            leave_round=int(data["leave_round"]),
            rejoin_round=None if rejoin is None else int(rejoin),
        )


@dataclass(frozen=True)
class PlanSpec:
    """One declarative fault scenario, compilable to a kernel plan.

    Attributes
    ----------
    n, rounds:
        System size and horizon.  The synchronous targets read
        ``rounds`` as actual rounds; the asynchronous target reads it
        as the virtual-time horizon.
    seed:
        Master seed for every randomized ingredient the spec enables
        (random corruption, scheduler delays); sub-streams are derived
        with :func:`repro.util.rng.derive_seed`, so a spec fully
        determines its run.
    crashes:
        ``(pid, time)`` pairs (clean crashes, both substrates).
    omissions:
        Omission campaigns (synchronous substrate only).
    clock_skews:
        ``(pid, clock)`` pairs: initial round-variable corruption — the
        paper's minimal systemic failure.
    random_corruption:
        Scramble *every* process's initial state from the protocol's
        arbitrary-state generator (the headline self-stabilization
        regime), seeded from ``seed``.
    corruption_rounds:
        Mid-run rounds at which random corruption strikes again.
    gst:
        Global stabilization time (asynchronous substrate only).
    churn:
        :class:`ChurnSpec` episodes compiled into the plan's churn
        schedule (topology changes; orthogonal to the fault budget).
    """

    n: int
    rounds: int
    seed: int = 0
    crashes: Tuple[Tuple[int, int], ...] = ()
    omissions: Tuple[OmissionSpec, ...] = ()
    clock_skews: Tuple[Tuple[int, int], ...] = ()
    random_corruption: bool = False
    corruption_rounds: Tuple[int, ...] = ()
    gst: int = 0
    churn: Tuple[ChurnSpec, ...] = ()

    def __post_init__(self):
        require_process_count(self.n)
        require_positive(self.rounds, "rounds")
        pids_seen = set()
        for pid, time in self.crashes:
            require(0 <= pid < self.n, f"crash pid {pid} out of range")
            require(pid not in pids_seen, f"pid {pid} crashes twice")
            require_positive(time, "crash time")
            pids_seen.add(pid)
        for om in self.omissions:
            require(0 <= om.pid < self.n, f"omission pid {om.pid} out of range")
            for t in om.targets or ():
                require(0 <= t < self.n, f"omission target {t} out of range")
            require(
                om.last_round <= self.rounds,
                f"omission window ends at {om.last_round} > rounds {self.rounds}",
            )
        skewed = set()
        for pid, _clock in self.clock_skews:
            require(0 <= pid < self.n, f"skew pid {pid} out of range")
            require(pid not in skewed, f"pid {pid} skewed twice")
            skewed.add(pid)
        for r in self.corruption_rounds:
            require(1 <= r <= self.rounds, f"corruption round {r} out of range")
        churned = set()
        for ch in self.churn:
            require(0 <= ch.pid < self.n, f"churn pid {ch.pid} out of range")
            require(ch.pid not in churned, f"pid {ch.pid} churns twice")
            require(
                ch.leave_round <= self.rounds,
                f"churn leave round {ch.leave_round} > rounds {self.rounds}",
            )
            churned.add(ch.pid)

    # -- derived properties --------------------------------------------------

    @property
    def fault_budget(self) -> int:
        """Distinct processes this spec makes faulty (process failures)."""
        return len({pid for pid, _ in self.crashes} | {o.pid for o in self.omissions})

    @property
    def is_symmetric_instance(self) -> bool:
        """Whether pid relabeling preserves the spec's semantics.

        Seeded random corruption draws per-pid values in pid order, so a
        relabeled spec would corrupt *differently* — such specs are only
        deduped as exact duplicates, never up to symmetry.
        """
        return not self.random_corruption and not self.corruption_rounds

    # -- compilation to the kernel vocabulary --------------------------------

    def _omission_adversary(self) -> Optional[ScriptedAdversary]:
        if not self.omissions:
            return None
        script: Dict[int, RoundFaultPlan] = {}
        everyone = frozenset(range(self.n))
        for om in self.omissions:
            others = (
                everyone - {om.pid}
                if om.targets is None
                else frozenset(om.targets) - {om.pid}
            )
            for round_no in om.rounds():
                plan = script.setdefault(round_no, RoundFaultPlan())
                if om.kind in ("send", "general"):
                    merged = plan.send_omissions.get(om.pid, frozenset()) | others
                    plan.send_omissions[om.pid] = merged
                if om.kind in ("receive", "general"):
                    merged = plan.receive_omissions.get(om.pid, frozenset()) | others
                    plan.receive_omissions[om.pid] = merged
        return ScriptedAdversary(f=len({o.pid for o in self.omissions}), script=script)

    def _initial_corruption(self) -> Optional[CorruptionPlan]:
        parts: List[CorruptionPlan] = []
        if self.random_corruption:
            parts.append(RandomCorruption(seed=derive_seed(self.seed, "explore:init")))
        if self.clock_skews:
            parts.append(ClockSkewCorruption(dict(self.clock_skews)))
        if not parts:
            return None
        return parts[0] if len(parts) == 1 else ComposedCorruption(parts)

    def _churn_schedule(self) -> Optional[ChurnSchedule]:
        if not self.churn:
            return None
        events: List[ChurnEvent] = []
        for ch in self.churn:
            events.append(ChurnEvent(ch.leave_round, "leave", pids=(ch.pid,)))
            if ch.rejoin_round is not None:
                events.append(ChurnEvent(ch.rejoin_round, "join", pids=(ch.pid,)))
        return ChurnSchedule(tuple(events))

    def fault_plan(self) -> FaultPlan:
        """Compile the spec into the kernel's unified fault plan."""
        mid = {
            r: RandomCorruption(seed=derive_seed(self.seed, f"explore:mid:{r}"))
            for r in self.corruption_rounds
        }
        return FaultPlan(
            crashes={pid: time for pid, time in self.crashes},
            omissions=self._omission_adversary(),
            initial_corruption=self._initial_corruption(),
            mid_corruptions=mid,
            gst=float(self.gst),
            f=self.fault_budget or None,
            churn=self._churn_schedule(),
        )

    # -- serialization -------------------------------------------------------

    def to_jsonable(self) -> Dict[str, object]:
        data = {
            "n": self.n,
            "rounds": self.rounds,
            "seed": self.seed,
            "crashes": [list(pair) for pair in self.crashes],
            "omissions": [om.to_jsonable() for om in self.omissions],
            "clock_skews": [list(pair) for pair in self.clock_skews],
            "random_corruption": self.random_corruption,
            "corruption_rounds": list(self.corruption_rounds),
            "gst": self.gst,
        }
        if self.churn:
            # Emitted only when present: churn-free artifacts stay
            # byte-identical to the pre-topology schema.
            data["churn"] = [ch.to_jsonable() for ch in self.churn]
        return data

    @staticmethod
    def from_jsonable(data: Dict[str, object]) -> "PlanSpec":
        return PlanSpec(
            n=int(data["n"]),
            rounds=int(data["rounds"]),
            seed=int(data.get("seed", 0)),
            crashes=tuple(
                (int(pid), int(time)) for pid, time in data.get("crashes", ())
            ),
            omissions=tuple(
                OmissionSpec.from_jsonable(om) for om in data.get("omissions", ())
            ),
            clock_skews=tuple(
                (int(pid), int(clock)) for pid, clock in data.get("clock_skews", ())
            ),
            random_corruption=bool(data.get("random_corruption", False)),
            corruption_rounds=tuple(int(r) for r in data.get("corruption_rounds", ())),
            gst=int(data.get("gst", 0)),
            churn=tuple(
                ChurnSpec.from_jsonable(ch) for ch in data.get("churn", ())
            ),
        )

    def sort_key(self) -> tuple:
        """A total order on specs (used for canonicalization)."""
        return (
            self.n,
            self.rounds,
            self.seed,
            tuple(sorted(self.crashes)),
            tuple(
                sorted(
                    (o.pid, o.kind, o.first_round, o.last_round, _targets_key(o.targets))
                    for o in self.omissions
                )
            ),
            tuple(sorted(self.clock_skews)),
            self.random_corruption,
            self.corruption_rounds,
            self.gst,
            tuple(
                sorted(
                    (ch.pid, ch.leave_round, ch.rejoin_round or 0)
                    for ch in self.churn
                )
            ),
        )


def _targets_key(targets: Optional[Iterable[int]]) -> tuple:
    """``None`` omits to everyone and ``()`` to nobody, so they key apart."""
    return () if targets is None else (tuple(targets),)


def _relabeled_key(spec: PlanSpec, perm: Dict[int, int]) -> tuple:
    """``sort_key()`` of the same spec with process ids mapped through
    ``perm[old] = new``, read off the spec without building it."""
    return (
        spec.n,
        spec.rounds,
        spec.seed,
        tuple(sorted([(perm[pid], t) for pid, t in spec.crashes])),
        tuple(
            sorted(
                [
                    (
                        perm[o.pid],
                        o.kind,
                        o.first_round,
                        o.last_round,
                        _targets_key(o.targets and sorted([perm[t] for t in o.targets])),
                    )
                    for o in spec.omissions
                ]
            )
        ),
        tuple(sorted([(perm[pid], c) for pid, c in spec.clock_skews])),
        spec.random_corruption,
        spec.corruption_rounds,
        spec.gst,
        tuple(
            sorted([(perm[ch.pid], ch.leave_round, ch.rejoin_round or 0) for ch in spec.churn])
        ),
    )


def canonical_key(spec: PlanSpec, symmetric: bool = True) -> tuple:
    """A key equal for specs identical up to process-id relabeling.

    Sound only when the target treats all processes alike
    (``symmetric=True`` and the spec carries no seeded per-pid
    randomness); otherwise the key degrades to the spec itself, deduping
    exact duplicates only.  The key reads only the ``k`` pids the spec
    touches, so the minimum over the ``k!`` bijections from them onto
    ``0..k-1`` is the minimum over all ``n!`` relabelings: compacting
    any injection onto ``0..k-1`` in order keeps every list sorted and
    lowers no pid.
    """
    if not symmetric or not spec.is_symmetric_instance:
        return spec.sort_key()
    touched = sorted(
        {pid for pid, _ in spec.crashes}
        | {o.pid for o in spec.omissions}
        | {t for o in spec.omissions if o.targets for t in o.targets}
        | {pid for pid, _ in spec.clock_skews}
        | {ch.pid for ch in spec.churn}
    )
    return min(
        _relabeled_key(spec, dict(zip(touched, perm)))
        for perm in itertools.permutations(range(len(touched)))
    )


def dedupe(
    specs: Iterable[PlanSpec], symmetric: bool = True
) -> "Tuple[List[PlanSpec], int]":
    """Drop specs equivalent to an earlier one; keep first occurrences.

    Returns ``(kept, dropped_count)``.  Order is preserved, so the
    surviving list (and everything downstream) is deterministic.
    """
    seen = set()
    kept: List[PlanSpec] = []
    dropped = 0
    for spec in specs:
        key = canonical_key(spec, symmetric=symmetric)
        if key in seen:
            dropped += 1
            continue
        seen.add(key)
        kept.append(spec)
    return kept, dropped


@dataclass(frozen=True)
class PlanSpace:
    """A set of fault plans, described by its atoms and bounds.

    Enumeration iterates the product of all choices in a fixed
    deterministic order (crash assignments × omission campaigns × skew
    assignments × corruption toggles × GST placements); sampling draws
    each ingredient independently from the same atoms.
    """

    n: int
    rounds: int
    crash_rounds: Tuple[int, ...] = ()
    max_crashes: int = 0
    omission_windows: Tuple[Tuple[int, int], ...] = ()
    omission_kinds: Tuple[str, ...] = ("general",)
    max_omissions: int = 0
    skew_values: Tuple[int, ...] = ()
    max_skews: int = 0
    corruption_choices: Tuple[bool, ...] = (False,)
    corruption_round_choices: Tuple[Tuple[int, ...], ...] = ((),)
    gst_choices: Tuple[int, ...] = (0,)
    seeds: Tuple[int, ...] = (0,)
    churn_windows: Tuple[Tuple[int, Optional[int]], ...] = ()
    max_churn: int = 0

    def __post_init__(self):
        require_process_count(self.n)
        require_positive(self.rounds, "rounds")
        require(
            self.max_crashes + self.max_omissions < self.n,
            "the fault budget must leave at least one correct process",
        )
        for kind in self.omission_kinds:
            require(kind in OMISSION_KINDS, f"unknown omission kind {kind!r}")

    # -- exhaustive enumeration ----------------------------------------------

    def _crash_assignments(self) -> Iterator[Tuple[Tuple[int, int], ...]]:
        yield ()
        for k in range(1, self.max_crashes + 1):
            for pids in itertools.combinations(range(self.n), k):
                for times in itertools.product(self.crash_rounds, repeat=k):
                    yield tuple(zip(pids, times))

    def _omission_assignments(self) -> Iterator[Tuple[OmissionSpec, ...]]:
        yield ()
        campaigns = [
            (kind, window)
            for kind in self.omission_kinds
            for window in self.omission_windows
        ]
        for k in range(1, self.max_omissions + 1):
            for pids in itertools.combinations(range(self.n), k):
                for choice in itertools.product(campaigns, repeat=k):
                    yield tuple(
                        OmissionSpec(
                            pid=pid, kind=kind, first_round=first, last_round=last
                        )
                        for pid, (kind, (first, last)) in zip(pids, choice)
                    )

    def _skew_assignments(self) -> Iterator[Tuple[Tuple[int, int], ...]]:
        yield ()
        for k in range(1, self.max_skews + 1):
            for pids in itertools.combinations(range(self.n), k):
                for values in itertools.product(self.skew_values, repeat=k):
                    yield tuple(zip(pids, values))

    def _churn_assignments(self) -> Iterator[Tuple[ChurnSpec, ...]]:
        yield ()
        for k in range(1, self.max_churn + 1):
            for pids in itertools.combinations(range(self.n), k):
                for windows in itertools.product(self.churn_windows, repeat=k):
                    yield tuple(
                        ChurnSpec(pid=pid, leave_round=leave, rejoin_round=rejoin)
                        for pid, (leave, rejoin) in zip(pids, windows)
                    )

    def enumerate_plans(self) -> Iterator[PlanSpec]:
        """Every spec in the space, in a fixed deterministic order."""
        for crashes in self._crash_assignments():
            for omissions in self._omission_assignments():
                if len({p for p, _ in crashes} | {o.pid for o in omissions}) >= self.n:
                    continue  # would leave no correct process
                for skews in self._skew_assignments():
                    for churn in self._churn_assignments():
                        for corrupt in self.corruption_choices:
                            for mid in self.corruption_round_choices:
                                for gst in self.gst_choices:
                                    for seed in self.seeds:
                                        yield PlanSpec(
                                            n=self.n,
                                            rounds=self.rounds,
                                            seed=seed,
                                            crashes=crashes,
                                            omissions=omissions,
                                            clock_skews=skews,
                                            random_corruption=corrupt,
                                            corruption_rounds=mid,
                                            gst=gst,
                                            churn=churn,
                                        )

    # -- serialization -------------------------------------------------------

    def to_jsonable(self) -> Dict[str, object]:
        """A JSON-able description of the space's atoms and bounds.

        Proof certificates (:mod:`repro.verify.certificates`) embed this
        so a "no violation exists" claim names the exact space it
        quantified over; :meth:`from_jsonable` round-trips it.
        """
        return {
            "n": self.n,
            "rounds": self.rounds,
            "crash_rounds": list(self.crash_rounds),
            "max_crashes": self.max_crashes,
            "omission_windows": [list(w) for w in self.omission_windows],
            "omission_kinds": list(self.omission_kinds),
            "max_omissions": self.max_omissions,
            "skew_values": list(self.skew_values),
            "max_skews": self.max_skews,
            "corruption_choices": list(self.corruption_choices),
            "corruption_round_choices": [
                list(c) for c in self.corruption_round_choices
            ],
            "gst_choices": list(self.gst_choices),
            "seeds": list(self.seeds),
            "churn_windows": [list(w) for w in self.churn_windows],
            "max_churn": self.max_churn,
        }

    @staticmethod
    def from_jsonable(data: Dict[str, object]) -> "PlanSpace":
        return PlanSpace(
            n=int(data["n"]),
            rounds=int(data["rounds"]),
            crash_rounds=tuple(int(r) for r in data.get("crash_rounds", ())),
            max_crashes=int(data.get("max_crashes", 0)),
            omission_windows=tuple(
                (int(a), int(b)) for a, b in data.get("omission_windows", ())
            ),
            omission_kinds=tuple(
                str(k) for k in data.get("omission_kinds", ("general",))
            ),
            max_omissions=int(data.get("max_omissions", 0)),
            skew_values=tuple(int(v) for v in data.get("skew_values", ())),
            max_skews=int(data.get("max_skews", 0)),
            corruption_choices=tuple(
                bool(c) for c in data.get("corruption_choices", (False,))
            ),
            corruption_round_choices=tuple(
                tuple(int(r) for r in choice)
                for choice in data.get("corruption_round_choices", ((),))
            ),
            gst_choices=tuple(int(g) for g in data.get("gst_choices", (0,))),
            seeds=tuple(int(s) for s in data.get("seeds", (0,))),
            churn_windows=tuple(
                (int(leave), None if rejoin is None else int(rejoin))
                for leave, rejoin in data.get("churn_windows", ())
            ),
            max_churn=int(data.get("max_churn", 0)),
        )

    # -- seeded random walk --------------------------------------------------

    def sample_plans(self, seed: int, count: int) -> Iterator[PlanSpec]:
        """``count`` random specs; draw ``i`` depends only on ``(seed, i)``.

        Per-index seeding means the stream neither shifts when the count
        changes nor depends on consumption order — the fuzzing
        counterpart of :func:`repro.util.rng.sweep_seed`.
        """
        for index in range(count):
            rng = make_rng(seed, f"explore:plan:{index}")
            pids = list(range(self.n))
            crash_pool: List[int] = []
            if self.max_crashes and self.crash_rounds:
                crash_pool = rng.sample(pids, rng.randint(0, self.max_crashes))
            crashes = tuple(
                sorted((pid, rng.choice(self.crash_rounds)) for pid in crash_pool)
            )
            omissions: Tuple[OmissionSpec, ...] = ()
            if self.max_omissions and self.omission_windows:
                remaining = [p for p in pids if p not in crash_pool]
                budget = min(self.max_omissions, max(len(remaining) - 1, 0))
                chosen = rng.sample(remaining, rng.randint(0, budget)) if budget else []
                omissions = tuple(
                    sorted(
                        (
                            OmissionSpec(
                                pid=pid,
                                kind=rng.choice(self.omission_kinds),
                                first_round=window[0],
                                last_round=window[1],
                            )
                            for pid, window in (
                                (p, rng.choice(self.omission_windows)) for p in chosen
                            )
                        ),
                        key=lambda o: o.pid,
                    )
                )
            skews: Tuple[Tuple[int, int], ...] = ()
            if self.max_skews and self.skew_values:
                chosen = rng.sample(pids, rng.randint(0, self.max_skews))
                skews = tuple(
                    sorted((pid, rng.choice(self.skew_values)) for pid in chosen)
                )
            churn: Tuple[ChurnSpec, ...] = ()
            if self.max_churn and self.churn_windows:
                chosen = rng.sample(pids, rng.randint(0, self.max_churn))
                churn = tuple(
                    sorted(
                        (
                            ChurnSpec(pid=pid, leave_round=leave, rejoin_round=rejoin)
                            for pid, (leave, rejoin) in (
                                (p, rng.choice(self.churn_windows)) for p in chosen
                            )
                        ),
                        key=lambda c: c.pid,
                    )
                )
            yield PlanSpec(
                n=self.n,
                rounds=self.rounds,
                seed=derive_seed(seed, f"explore:spec:{index}"),
                crashes=crashes,
                omissions=omissions,
                clock_skews=skews,
                random_corruption=rng.choice(self.corruption_choices),
                corruption_rounds=rng.choice(self.corruption_round_choices),
                gst=rng.choice(self.gst_choices),
                churn=churn,
            )
