"""Process-failure injection for the synchronous simulator.

The paper admits *general omission* process failures: send omission,
receive omission, and crashing.  An adversary decides, round by round,
which processes suffer which failures.  The engine enforces the global
fault budget ``f`` (the paper's bound on the number of faulty
processes): an adversary whose plan would push the number of deviating
processes past ``f`` triggers :class:`FaultBudgetExceeded` — a loud
configuration error rather than a silently invalid experiment.

Three adversaries are provided:

- :class:`NullAdversary` — failure-free runs.
- :class:`ScriptedAdversary` — exact per-round plans; used to realize
  the worst-case scenarios from the paper's proofs (e.g. the hidden
  process of Theorem 1 that omits everything until it "reveals itself").
- :class:`RandomAdversary` — seeded randomized campaigns over a chosen
  fault mode, for sweeps and property tests.
"""

from __future__ import annotations

import enum
import random
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Iterable, Mapping, Optional, Set

from repro.util.rng import make_rng
from repro.util.validation import require, require_non_negative

__all__ = [
    "Adversary",
    "FaultBudgetExceeded",
    "FaultMode",
    "NullAdversary",
    "RandomAdversary",
    "RoundFaultPlan",
    "ScriptedAdversary",
]

ProcessId = int


class FaultBudgetExceeded(RuntimeError):
    """An adversary tried to make more than ``f`` processes faulty."""


class FaultMode(enum.Enum):
    """Which class of process failures a randomized adversary may inject.

    The classes are ordered by severity exactly as in the literature:
    crashes are a special case of send omission (omit everything
    forever), and general omission subsumes both omission kinds.
    """

    CRASH = "crash"
    SEND_OMISSION = "send-omission"
    RECEIVE_OMISSION = "receive-omission"
    GENERAL_OMISSION = "general-omission"


#: A payload forgery: maps the true payload to the lie.
PayloadMutator = Callable[[object], object]


@dataclass
class RoundFaultPlan:
    """The failures injected in one round.

    Attributes
    ----------
    crashes:
        ``pid -> receivers`` that still get the crashing process's final
        broadcast (possibly empty — a clean crash before sending).  The
        process is dead from this round onward.
    send_omissions:
        ``pid -> receivers`` to whom this process's broadcast is dropped.
    receive_omissions:
        ``pid -> senders`` whose messages this process fails to receive.
    forgeries:
        ``pid -> (receiver -> mutator)``: Byzantine-value lies — the
        copy to ``receiver`` carries ``mutator(true_payload)`` instead.
        Different receivers may get different lies (two-faced behaviour).
        Beyond the paper's general-omission model; used by the EXT-BYZ
        experiment.

    Self-delivery is sacred (paper footnote: every process, correct or
    faulty, correctly receives its own broadcast); the engine ignores
    any plan entry that would drop or forge a self-message.
    """

    crashes: Dict[ProcessId, FrozenSet[ProcessId]] = field(default_factory=dict)
    send_omissions: Dict[ProcessId, FrozenSet[ProcessId]] = field(default_factory=dict)
    receive_omissions: Dict[ProcessId, FrozenSet[ProcessId]] = field(
        default_factory=dict
    )
    forgeries: Dict[ProcessId, Dict[ProcessId, PayloadMutator]] = field(
        default_factory=dict
    )

    def targets(self) -> FrozenSet[ProcessId]:
        """All processes this plan makes (or keeps) faulty."""
        return frozenset().union(
            self.crashes, self.send_omissions, self.receive_omissions, self.forgeries
        )

    @staticmethod
    def empty() -> "RoundFaultPlan":
        return RoundFaultPlan()


class Adversary(ABC):
    """Decides the process failures for each round.

    ``plan_round`` receives the actual round number, the set of
    still-alive processes, and the set of processes already faulty (from
    previous rounds), and returns the failures for this round.  The
    engine validates the returned plan against the fault budget.
    """

    def __init__(self, f: int):
        self.f = require_non_negative(f, "f")

    @abstractmethod
    def plan_round(
        self,
        round_no: int,
        alive: FrozenSet[ProcessId],
        faulty_so_far: FrozenSet[ProcessId],
    ) -> RoundFaultPlan:
        """The failures to inject in ``round_no``."""

    def validate(
        self, plan: RoundFaultPlan, faulty_so_far: FrozenSet[ProcessId]
    ) -> None:
        """Raise :class:`FaultBudgetExceeded` if the plan busts the budget."""
        total = faulty_so_far | plan.targets()
        if len(total) > self.f:
            raise FaultBudgetExceeded(
                f"plan makes {len(total)} processes faulty but f={self.f}: "
                f"{sorted(total)}"
            )


class NullAdversary(Adversary):
    """No process failures at all (f = 0)."""

    def __init__(self) -> None:
        super().__init__(f=0)

    def plan_round(
        self,
        round_no: int,
        alive: FrozenSet[ProcessId],
        faulty_so_far: FrozenSet[ProcessId],
    ) -> RoundFaultPlan:
        return RoundFaultPlan.empty()


class ScriptedAdversary(Adversary):
    """Replays an exact per-round failure script.

    ``script`` maps actual round numbers to :class:`RoundFaultPlan`;
    rounds absent from the script are failure-free.  This is how the
    impossibility-theorem scenarios and the unit tests pin down precise
    failure patterns.
    """

    def __init__(self, f: int, script: Mapping[int, RoundFaultPlan]):
        super().__init__(f=f)
        self._script = dict(script)

    def plan_round(
        self,
        round_no: int,
        alive: FrozenSet[ProcessId],
        faulty_so_far: FrozenSet[ProcessId],
    ) -> RoundFaultPlan:
        plan = self._script.get(round_no)
        return RoundFaultPlan.empty() if plan is None else plan

    @staticmethod
    def silence(
        pids: Iterable[ProcessId],
        rounds: Iterable[int],
        n: int,
        f: Optional[int] = None,
    ) -> "ScriptedAdversary":
        """Convenience: ``pids`` send- and receive-omit everything in ``rounds``.

        This is the paper's "does not communicate" pattern (Theorems 1
        and 2): the silenced processes neither deliver to, nor hear
        from, anyone else — though they still receive their own
        broadcasts.
        """
        pids = frozenset(pids)
        everyone = frozenset(range(n))
        plan_rounds: Dict[int, RoundFaultPlan] = {}
        for r in rounds:
            plan_rounds[r] = RoundFaultPlan(
                send_omissions={p: everyone - {p} for p in pids},
                receive_omissions={p: everyone - {p} for p in pids},
            )
        return ScriptedAdversary(f=len(pids) if f is None else f, script=plan_rounds)


class ByzantineAdversary(Adversary):
    """Byzantine-value lies: victims forge payloads to random subsets.

    Each round, each of the (at most ``f``) pre-drawn victims forges
    with probability ``rate``, sending ``mutator(rng, payload)`` to a
    random subset of receivers — potentially a different lie per
    receiver (the mutator draws from a per-copy rng stream).  This is
    *stronger* than anything the paper's synchronous model admits
    (general omission); it exists to run §1.2's comparison between
    tolerating systemic failures (every process corrupted, once) and
    tolerating malicious processes (a bounded fraction, forever).
    """

    def __init__(
        self,
        n: int,
        f: int,
        mutator: Callable[[random.Random, object], object],
        rate: float = 0.5,
        seed: int = 0,
    ):
        super().__init__(f=f)
        require(0.0 <= rate <= 1.0, f"rate must be in [0, 1], got {rate}")
        require(f <= n, f"fault budget f={f} exceeds system size n={n}")
        self.n = n
        self.rate = rate
        self._mutator = mutator
        self._rng = make_rng(seed, "byzantine-adversary")
        self._victims = frozenset(self._rng.sample(range(n), f))

    @property
    def victims(self) -> FrozenSet[ProcessId]:
        return self._victims

    def plan_round(
        self,
        round_no: int,
        alive: FrozenSet[ProcessId],
        faulty_so_far: FrozenSet[ProcessId],
    ) -> RoundFaultPlan:
        plan = RoundFaultPlan()
        for pid in sorted(self._victims):
            if pid not in alive or self._rng.random() >= self.rate:
                continue
            receivers = [
                q for q in range(self.n) if q != pid and self._rng.random() < 0.6
            ]
            if not receivers:
                receivers = [self._rng.choice([q for q in range(self.n) if q != pid])]
            lies = {}
            for receiver in receivers:
                copy_rng = make_rng(
                    self._rng.randrange(1 << 30), f"lie:{round_no}:{pid}:{receiver}"
                )
                mutator = self._mutator
                lies[receiver] = (
                    lambda payload, _rng=copy_rng, _m=mutator: _m(_rng, payload)
                )
            plan.forgeries[pid] = lies
        return plan


class RandomAdversary(Adversary):
    """Seeded randomized failure campaigns.

    Each round, each process from a pre-drawn pool of at most ``f``
    victims independently misbehaves with probability ``rate`` in the
    style permitted by ``mode``.  Drawing the victim pool up front keeps
    the budget respected by construction while still exercising varied
    interleavings.
    """

    def __init__(
        self,
        n: int,
        f: int,
        mode: FaultMode = FaultMode.GENERAL_OMISSION,
        rate: float = 0.3,
        seed: int = 0,
        crash_probability: float = 0.05,
    ):
        super().__init__(f=f)
        require(0.0 <= rate <= 1.0, f"rate must be in [0, 1], got {rate}")
        require(
            0.0 <= crash_probability <= 1.0,
            f"crash_probability must be in [0, 1], got {crash_probability}",
        )
        require(f <= n, f"fault budget f={f} exceeds system size n={n}")
        self.n = n
        self.mode = mode
        self.rate = rate
        self.crash_probability = crash_probability
        self._rng = make_rng(seed, "random-adversary")
        self._victims = frozenset(self._rng.sample(range(n), f))
        self._crashed: Set[ProcessId] = set()

    @property
    def victims(self) -> FrozenSet[ProcessId]:
        """The processes this adversary may ever make faulty."""
        return self._victims

    def plan_round(
        self,
        round_no: int,
        alive: FrozenSet[ProcessId],
        faulty_so_far: FrozenSet[ProcessId],
    ) -> RoundFaultPlan:
        plan = RoundFaultPlan()
        others = frozenset(range(self.n))
        for pid in sorted(self._victims):
            if pid not in alive or pid in self._crashed:
                continue
            if self._rng.random() >= self.rate:
                continue
            if self.mode is FaultMode.CRASH or (
                self.mode is not FaultMode.RECEIVE_OMISSION
                and self._rng.random() < self.crash_probability
            ):
                survivors = self._random_subset(others - {pid})
                plan.crashes[pid] = survivors
                self._crashed.add(pid)
                continue
            if self.mode in (FaultMode.SEND_OMISSION, FaultMode.GENERAL_OMISSION):
                dropped = self._random_subset(others - {pid}, ensure_nonempty=True)
                plan.send_omissions[pid] = dropped
            if self.mode in (FaultMode.RECEIVE_OMISSION, FaultMode.GENERAL_OMISSION):
                dropped = self._random_subset(others - {pid}, ensure_nonempty=True)
                plan.receive_omissions[pid] = dropped
        return plan

    def _random_subset(
        self, pool: FrozenSet[ProcessId], ensure_nonempty: bool = False
    ) -> FrozenSet[ProcessId]:
        members = [p for p in sorted(pool) if self._rng.random() < 0.5]
        if ensure_nonempty and not members and pool:
            members = [self._rng.choice(sorted(pool))]
        return frozenset(members)
