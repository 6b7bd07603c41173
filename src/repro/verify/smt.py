"""The SMT engine: bounded model checking with symbolic initial clocks.

Optional — requires ``z3-solver`` (``pip install repro[smt]``).  This
module is **import-safe without z3**: importing it never raises; every
solver entry point degrades to a structured :class:`SmtUnavailableError`
so callers (and CI environments without the extra) get a capability
error, not an ImportError.

What the engine exploits
------------------------

Two structural facts about the synchronous substrate make the encoding
small:

1. **Deliveries are fault-plan-determined.**  Which messages arrive in
   which round depends only on the plan's crashes and omission
   campaigns — never on the clock values being checked.  The per-round
   sender sets are therefore *concrete* (computed by
   :func:`delivered_senders`, a replay of the kernel's own round
   ledger), and only the clocks are symbolic.
2. **The obligation structure is clock-independent.**  Stable-coterie
   windows, faulty sets, and obligation spans derive from deviations
   (crashes/omissions), so one concrete reference run of the plan
   yields the exact windows Definition 2.4 quantifies over; the solver
   then asks whether *any* initial clock assignment can violate Σ
   inside them.

The resulting verdict is **stronger** than the explicit engine's on
corrupted plans: where explicit-state checking runs the seeded
corruption draws the spaces enumerate, the solver quantifies over *all*
non-negative initial clocks.  For claims the paper proves (Theorem 3's
``fig1``), the two engines agree — ``unsat`` over a superset implies no
seeded draw can violate either; a disagreement in the other direction
(SMT refutes, explicit proves) would mean the claim only held for the
sampled corruptions, which is precisely worth a loud CI failure.

Supported targets: ``fig1`` and ``thm1`` (the round-agreement clock
protocols).  The compiled FloodMin (``fig3``) and the churn topologies
(``unison``) carry non-clock state the clock encoding does not model —
:class:`SmtUnsupportedError`, by design, rather than a silently wrong
answer.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.experiments.base import run_sweep
from repro.explore.space import PlanSpace, PlanSpec
from repro.explore.targets import _post_corruption_suffix
from repro.kernel.delivery import Liveness, Probe, RoundLedger
from repro.kernel.topology import Topology, normalize_topology, round_edges
from repro.sync.adversary import NullAdversary
from repro.verify.result import VerifyResult
from repro.verify.targets import VerifyTarget, confirm_verdict

__all__ = [
    "SmtUnavailableError",
    "SmtUnsupportedError",
    "SMT_TARGETS",
    "concrete_clocks",
    "delivered_senders",
    "smt_available",
    "smt_verify",
]

#: Targets the clock encoding models.
SMT_TARGETS = ("fig1", "thm1")


class SmtUnavailableError(RuntimeError):
    """z3 is not importable in this environment.

    The SMT engine is an optional capability: install it with
    ``pip install repro[smt]`` (or ``pip install z3-solver``), or use
    ``--engine explicit``, which proves the same bounded claims in pure
    Python.
    """

    def __init__(self, message: Optional[str] = None):
        super().__init__(
            message
            or "the SMT engine requires z3 (pip install repro[smt]); "
            "the explicit engine (--engine explicit) needs no extras"
        )


class SmtUnsupportedError(ValueError):
    """The target or plan uses features the clock encoding cannot model."""


def smt_available() -> bool:
    """Is z3 importable?  Never raises."""
    try:
        import z3  # noqa: F401
    except Exception:
        return False
    return True


def _z3():
    try:
        import z3
    except ImportError as exc:
        raise SmtUnavailableError() from exc
    return z3


# ---------------------------------------------------------------------------
# The delivery and clock model
# ---------------------------------------------------------------------------
#
# These two functions ARE the model: the z3 encoding below is a direct
# symbolic transcription of them.  They import no solver, so the
# property suite pins them against the real engine (run_sync histories)
# in every environment.  Deliveries are not re-derived here: they are the
# kernel's own round ledger (docs/kernel.md, "The round ledger"), so
# topologies and churn come with it.


def delivered_senders(
    spec: PlanSpec, topology: Optional[Topology] = None
) -> Dict[int, Dict[int, FrozenSet[int]]]:
    """``senders[r][i]``: whose round-``r`` states reach ``i``'s row ``r+1``.

    A replay of ``spec.fault_plan()``'s adversary through the kernel's
    liveness record and round ledger — exactly what ``run_sync`` does,
    minus the payloads (the clock protocols broadcast every round).
    Only receivers alive at row ``r+1`` get an entry.
    """
    n, plan = spec.n, spec.fault_plan()
    adversary = plan.to_sync().adversary or NullAdversary()
    topo = normalize_topology(n, topology, plan.churn)
    live = Liveness(n)
    senders: Dict[int, Dict[int, FrozenSet[int]]] = {}
    for r in range(1, spec.rounds):
        ledger = RoundLedger(
            adversary.plan_round(r, live.alive_view, live.faulty),
            n,
            live,
            r,
            None if topo is None else round_edges(topo, r),
        )
        heard = ledger.deliver(
            Probe(j, i) for j in live.alive_order for i in ledger.receivers(j)
        )
        senders[r] = {
            i: frozenset(copy.sender for copy in inbox) for i, inbox in heard.items()
        }
        live.fold(ledger)
    return senders


def _row_owners(spec: PlanSpec, senders, row: int):
    """The pids that own history row ``row``: everyone owns row 1, later
    rows belong to whoever survived the round before."""
    return range(spec.n) if row <= 1 else sorted(senders[row - 1])


def concrete_clocks(
    spec: PlanSpec,
    initial_row: Optional[Dict[int, int]] = None,
    first_round: int = 1,
) -> Dict[int, Dict[int, int]]:
    """Evolve the clock protocol concretely from ``initial_row``.

    Returns ``rows[r][pid]`` for ``r`` in ``first_round .. spec.rounds``
    — the pure-Python twin of ``run_sync(RoundAgreementProtocol(), ...)``
    restricted to the clock field.  With no ``initial_row``, row 1 is
    the clean start: skewed pids at their skew value, everyone else at
    clock 1 (seeded corruption has no closed form — pass the engine's
    recorded row instead).
    """
    senders = delivered_senders(spec)
    if initial_row is None:
        skew = dict(spec.clock_skews)
        initial_row = {
            pid: skew.get(pid, 1) for pid in _row_owners(spec, senders, first_round)
        }
    rows: Dict[int, Dict[int, int]] = {first_round: dict(initial_row)}
    for r in range(first_round, spec.rounds):
        nxt: Dict[int, int] = {}
        for i, arrived in senders[r].items():
            heard = [rows[r][j] for j in arrived if j in rows[r]]
            if heard:
                nxt[i] = 1 + max(heard)
        rows[r + 1] = nxt
    return rows


# ---------------------------------------------------------------------------
# The symbolic transcription
# ---------------------------------------------------------------------------


def _check_target_modelable(target: VerifyTarget) -> None:
    if target.name not in SMT_TARGETS:
        raise SmtUnsupportedError(
            f"target {target.name!r} carries non-clock state the SMT "
            f"encoding does not model; supported: {', '.join(SMT_TARGETS)} "
            "(the explicit engine covers every target)"
        )


def _check_modelable(target: VerifyTarget, spec: PlanSpec) -> None:
    _check_target_modelable(target)
    if spec.churn:
        raise SmtUnsupportedError("churn schedules are not modeled by the SMT engine")
    if spec.gst:
        raise SmtUnsupportedError("GST is asynchronous-only; not modeled")


def _symbolic_rows(spec: PlanSpec, z3, solver, start_row: int, symbolic_start: bool):
    """Clock variables/values for rows ``start_row .. spec.rounds``."""
    rows: Dict[int, Dict[int, object]] = {}
    first: Dict[int, object] = {}
    skew = dict(spec.clock_skews)
    senders = delivered_senders(spec)
    for pid in _row_owners(spec, senders, start_row):
        if symbolic_start:
            var = z3.Int(f"clock_r{start_row}_p{pid}")
            solver.add(var >= 0)
            first[pid] = var
        else:
            first[pid] = z3.IntVal(skew.get(pid, 1))
    rows[start_row] = first
    for r in range(start_row, spec.rounds):
        nxt: Dict[int, object] = {}
        for i, arrived in senders[r].items():
            heard = [rows[r][j] for j in arrived if j in rows[r]]
            if not heard:
                continue
            acc = heard[0]
            for term in heard[1:]:
                acc = z3.If(term > acc, term, acc)
            nxt[i] = 1 + acc
        rows[r + 1] = nxt
    return rows


def _sigma_atoms(z3, rows, obligations) -> List[object]:
    """Σ violation atoms (clock agreement): any one sat = a violation.

    ``obligations`` is ``[(first, last, faulty, live_by_round)]`` —
    mirrors :class:`~repro.core.problems.ClockAgreementProblem` over a
    window: pairwise agreement each round, +1 rate across consecutive
    rounds, among live non-faulty processes.
    """
    atoms: List[object] = []
    for first, last, faulty, live in obligations:
        for r in range(first, last + 1):
            members = sorted(
                pid for pid in live.get(r, ()) if pid not in faulty and pid in rows.get(r, {})
            )
            for a in range(len(members)):
                for b in range(a + 1, len(members)):
                    atoms.append(rows[r][members[a]] != rows[r][members[b]])
            if r < last:
                for pid in members:
                    if pid in live.get(r + 1, ()) and pid in rows.get(r + 1, {}):
                        atoms.append(rows[r + 1][pid] != rows[r][pid] + 1)
    return atoms


def _reference_obligations(target: VerifyTarget, at: int, spec: PlanSpec):
    """Windows, faulty sets, and liveness from one concrete run.

    These depend only on deliveries and deviations — never on clock
    values — so the reference run fixes them for every symbolic start.
    Returns ``None`` when nothing is obliged (trivially holds).
    """
    from repro.core.rounds import RoundAgreementProtocol
    from repro.histories.stability import stable_windows
    from repro.sync.engine import run_sync

    result = run_sync(
        RoundAgreementProtocol(),
        n=spec.n,
        rounds=spec.rounds,
        fault_plan=spec.fault_plan(),
    )
    full = result.history

    def live_map(first: int, last: int) -> Dict[int, FrozenSet[int]]:
        return {
            r: frozenset(
                pid for pid, clock in full.clocks(r).items() if clock is not None
            )
            for r in range(first, last + 1)
        }

    obligations = []
    if target.name == "fig1":
        history = _post_corruption_suffix(full, spec)
        if history is None:
            return None
        faulty_by_round = history.faulty_by_round()
        for window in stable_windows(history):
            span = window.obligation_span(at)
            if span is None:
                continue
            first, last = span
            faulty = faulty_by_round[last - history.first_round]
            obligations.append((first, last, faulty, live_map(first, last)))
    else:  # thm1: Tentative Definition 1 on the r-suffix, whole-run faulty
        if at >= len(full):
            return None
        first = full.first_round + at
        last = full.first_round + len(full) - 1
        faulty = full.faulty()
        obligations.append((first, last, faulty, live_map(first, last)))
    return obligations or None


def _smt_worker(task: Tuple[str, int, PlanSpec]) -> Dict[str, object]:
    """Solve one plan.  Module-level and pure, for pool + cache."""
    from repro.verify.targets import get_verify_target

    target_name, at, spec = task
    target = get_verify_target(target_name)
    _check_modelable(target, spec)
    z3 = _z3()

    obligations = _reference_obligations(target, at, spec)
    if obligations is None:
        return {"holds": True, "clocks": {}}

    solver = z3.Solver()
    if spec.corruption_rounds:
        start_row, symbolic = max(spec.corruption_rounds), True
    else:
        start_row, symbolic = 1, bool(spec.random_corruption)
    rows = _symbolic_rows(spec, z3, solver, start_row, symbolic)
    atoms = _sigma_atoms(z3, rows, obligations)
    if not atoms:
        return {"holds": True, "clocks": {}}
    outcome = solver.check(z3.Or(atoms))
    if outcome == z3.unsat:
        return {"holds": True, "clocks": {}}
    if outcome != z3.sat:
        raise RuntimeError(f"z3 returned {outcome!r} for {spec!r}")
    model = solver.model()
    clocks = {}
    if symbolic:
        for pid in sorted(rows[start_row]):
            var = rows[start_row][pid]
            value = model.eval(var, model_completion=True)
            clocks[pid] = value.as_long()
    return {"holds": False, "clocks": clocks}


def smt_verify(
    target: VerifyTarget,
    at: int,
    space: PlanSpace,
    jobs: Optional[int] = None,
    max_plans: Optional[int] = None,
) -> VerifyResult:
    """Exhaust ``space`` symbolically.  Same contract as the explicit engine.

    Raises :class:`SmtUnavailableError` without z3 and
    :class:`SmtUnsupportedError` for unmodelable targets/plans — always
    loudly, never a silently partial proof.
    """
    from repro.verify.explicit import enumerate_space

    # Unsupported-target is a property of the request, not the
    # environment: report it even where z3 is absent.
    _check_target_modelable(target)
    if not smt_available():
        raise SmtUnavailableError()
    specs, raw_count, dropped = enumerate_space(
        space, target.symmetric, max_plans=max_plans
    )
    for spec in specs:
        _check_modelable(target, spec)
    outcomes = run_sweep(
        _smt_worker,
        [(target.name, at, spec) for spec in specs],
        jobs,
        cache=f"verify:smt:{target.name}@verify",
    )

    counterexample: Optional[PlanSpec] = None
    counterexample_clocks: Dict[int, int] = {}
    violating = 0
    for spec, outcome in zip(specs, outcomes):
        if outcome["holds"]:
            continue
        violating += 1
        if counterexample is None:
            counterexample = spec
            counterexample_clocks = dict(outcome["clocks"])

    verdict = None
    if counterexample is not None and not counterexample_clocks:
        # Fully concrete plan: the definition-grade oracle replays it.
        verdict = confirm_verdict(target, at, counterexample)
    return VerifyResult(
        target=target.name,
        at=at,
        engine="smt",
        verdict="refuted" if counterexample is not None else "proved",
        raw_plans=raw_count,
        examined=len(specs),
        symmetry_dropped=dropped,
        violating=violating,
        frontier=None,
        counterexample=counterexample,
        counterexample_verdict=verdict,
        counterexample_clocks=counterexample_clocks,
    )
