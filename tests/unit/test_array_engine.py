"""The batched array engine against the reference engine, byte for byte.

Every scenario here runs through :func:`repro.array.conformance
.check_conformance`, which reconstructs a value-identical
``ExecutionHistory`` per lane from the array columns and compares
canonical digests against ``run_sync`` on the same (protocol, plan,
topology) — the csr twins on *both* data planes (NumPy when installed,
and the pure-Python fallback always), the dense twins on NumPy, the one
plane they run on.  Eligibility failures must be loud
``ArrayEligibilityError``s, never silent wrong answers.
"""

import pytest

from repro.array import (
    ArrayEligibilityError,
    as_array_protocol,
    assert_conformance,
    has_numpy,
    pick_backend,
    run_array,
)
from repro.array.backend import ENV_BACKEND
from repro.core.canonical import CanonicalRunner
from repro.core.compiler import compile_protocol
from repro.core.rounds import RoundAgreementProtocol
from repro.kernel.faults import FaultPlan
from repro.array.conformance import check_conformance
from repro.array.engine import _CsrGraph
from repro.kernel.topology import (
    ChurnEvent,
    ChurnSchedule,
    DynamicTopology,
    GridTopology,
    RandomTopology,
    RingTopology,
    TreeTopology,
    receiver_columns,
    round_edges,
)
from repro.detectors.stack import DetectorStack
from repro.detectors.strong import ALIVE, DEAD
from repro.protocols.floodmin import FloodMinConsensus
from repro.protocols.phaseking import PhaseQueenConsensus
from repro.protocols.unison import BoundedUnison, MinUnison
from repro.sync.adversary import (
    ByzantineAdversary,
    FaultMode,
    RandomAdversary,
    RoundFaultPlan,
    ScriptedAdversary,
)
from repro.histories.history import CLOCK_KEY
from repro.sync.corruption import (
    ClockSkewCorruption,
    CorruptionPlan,
    RandomCorruption,
)
from repro.util.rng import make_rng

BACKENDS = ["python"] + (["numpy"] if has_numpy() else [])

backends = pytest.mark.parametrize("backend", BACKENDS)
#: Dense twins run on the NumPy plane only (the Python plane refuses them).
dense_backends = pytest.mark.parametrize("backend", BACKENDS[1:])


@backends
def test_fault_free_complete_graph(backend):
    assert_conformance(MinUnison(), n=6, rounds=8, backend=backend)


@backends
def test_ring_with_crashes_multi_lane(backend):
    def crashy(seed):
        return lambda: FaultPlan(
            crashes={seed % 5: 2.0, (seed + 2) % 5: 4.0},
            initial_corruption=RandomCorruption(seed=seed),
        )

    assert_conformance(
        MinUnison(),
        n=5,
        rounds=10,
        plan_factories=[crashy(0), crashy(1), None],
        topology=RingTopology(5),
        backend=backend,
    )


@backends
def test_grid_omissions_and_mid_run_corruption(backend):
    def plan():
        script = {
            2: RoundFaultPlan(send_omissions={1: frozenset({2, 5})}),
            3: RoundFaultPlan(receive_omissions={4: frozenset({0, 7})}),
            5: RoundFaultPlan(crashes={3: frozenset({0, 6})}),
        }
        return FaultPlan(
            omissions=ScriptedAdversary(3, script),
            initial_corruption=RandomCorruption(seed=11),
            mid_corruptions={6.0: ClockSkewCorruption({0: 9, 4: 2, 8: 5})},
        )

    assert_conformance(
        MinUnison(),
        n=9,
        rounds=12,
        plan_factories=[plan, plan],
        topology=GridTopology(3, 3),
        backend=backend,
    )


#: Π -> (Π, rounds): phase-queen's final_round is 4, so 16 rounds cross
#: iteration resets whatever clocks the corruption leaves.
COMPILED = {
    "floodmin": (lambda: FloodMinConsensus(f=2, proposals=[4, 1, 3, 2, 5, 0]), 8),
    "phase-queen": (lambda: PhaseQueenConsensus(f=1, n=6, proposals=[1, 0, 1, 0, 1, 0]), 16),
}


@dense_backends
@pytest.mark.parametrize("mode", [FaultMode.CRASH, FaultMode.GENERAL_OMISSION])
@pytest.mark.parametrize("use_suspects", [True, False], ids=["suspects", "nosuspects"])
@pytest.mark.parametrize("pi", sorted(COMPILED))
def test_compiled_random_adversary(backend, mode, use_suspects, pi):
    """Figure 3 over every Π twin, with the suspect filter on and off."""
    make, rounds = COMPILED[pi]
    protocol = compile_protocol(make(), use_suspects=use_suspects)

    def plan():
        return FaultPlan(
            omissions=RandomAdversary(6, 2, mode=mode, rate=0.4, seed=7),
            initial_corruption=RandomCorruption(seed=3),
        )

    assert_conformance(
        protocol, n=6, rounds=rounds, plan_factories=[plan, plan], backend=backend
    )


@dense_backends
def test_ft_floodmin_crashes(backend):
    protocol = CanonicalRunner(FloodMinConsensus(f=2, proposals=[4, 1, 3, 2, 5]))

    def plan():
        return FaultPlan(crashes={0: 1.0, 4: 2.0})

    assert_conformance(protocol, n=5, rounds=4, plan_factories=[plan], backend=backend)


@backends
def test_bounded_unison_conformance(backend):
    def plan():
        return FaultPlan(initial_corruption=RandomCorruption(seed=2))

    assert_conformance(
        BoundedUnison(n=6), n=6, rounds=9, plan_factories=[plan], backend=backend
    )


@backends
def test_churn_gauntlet_on_ring(backend):
    churn = ChurnSchedule(
        (
            ChurnEvent(2, "leave", pids=(1,)),
            ChurnEvent(4, "partition", groups=(frozenset({0, 2, 3}),)),
            ChurnEvent(6, "heal"),
            ChurnEvent(7, "join", pids=(1,)),
        )
    )

    def plan():
        return FaultPlan(
            crashes={5: 3.0},
            churn=churn,
            initial_corruption=RandomCorruption(seed=9),
        )

    assert_conformance(
        MinUnison(),
        n=6,
        rounds=10,
        plan_factories=[plan, plan],
        topology=RingTopology(6),
        backend=backend,
    )


@backends
def test_round_agreement_fig1(backend):
    def plan():
        return FaultPlan(
            omissions=RandomAdversary(
                5, 1, mode=FaultMode.SEND_OMISSION, rate=0.3, seed=13
            ),
            initial_corruption=RandomCorruption(seed=1),
        )

    assert_conformance(
        RoundAgreementProtocol(), n=5, rounds=8, plan_factories=[plan], backend=backend
    )


# -- batched twins for PhaseQueen consensus and the detector stack -----------


@dense_backends
def test_phase_queen_twin_conformance(backend):
    def protocol():
        return CanonicalRunner(PhaseQueenConsensus(f=1, n=5, proposals=[1, 0, 1, 0, 1]))

    def plan(seed):
        return lambda: FaultPlan(
            crashes={seed % 5: 2.0},
            initial_corruption=RandomCorruption(seed=seed),
        )

    assert_conformance(
        protocol(),
        n=5,
        rounds=6,
        plan_factories=[plan(0), plan(3), None],
        backend=backend,
        protocol_factory=protocol,
    )


@dense_backends
def test_detector_stack_twin_conformance(backend):
    def plan():
        return FaultPlan(
            crashes={1: 3.0},
            omissions=RandomAdversary(
                6, 1, mode=FaultMode.GENERAL_OMISSION, rate=0.3, seed=5
            ),
            initial_corruption=RandomCorruption(seed=4),
        )

    assert_conformance(
        DetectorStack(initial_timeout=1, max_timeout=4),
        n=6,
        rounds=12,
        plan_factories=[plan, plan],
        backend=backend,
    )


@dense_backends
def test_detector_adoption_keeps_the_first_best_sender(backend):
    """Figure 4 adopts only a strictly larger version, so of the senders
    offering the same best ``num`` the first one's ``status`` wins.
    With versions drawn from {0, 1, 2} and verdicts from both, senders
    tie with unequal verdicts in most rounds of most lanes."""
    n, detector = 5, DetectorStack(initial_timeout=1, max_timeout=4)

    def tied(seed):
        rng = make_rng(seed, "detector-ties")
        return {
            pid: {
                **detector.initial_state(pid, n),
                "num": [rng.choice((0, 1, 2)) for _ in range(n)],
                "status": [rng.choice((ALIVE, DEAD)) for _ in range(n)],
            }
            for pid in range(n)
        }

    assert_conformance(
        detector, n=n, rounds=4, initial_states=[tied(seed) for seed in range(20)], backend=backend
    )


# -- the dense forgery path: Byzantine plans stay on the array engine --------


@backends
def test_scripted_forgeries_conform(backend):
    def plan():
        return FaultPlan(
            omissions=ScriptedAdversary(
                1,
                {
                    2: RoundFaultPlan(
                        forgeries={0: {1: lambda payload: payload + 40, 3: lambda _: 0}}
                    ),
                    4: RoundFaultPlan(forgeries={0: {2: lambda payload: payload * 2}}),
                },
            ),
            initial_corruption=RandomCorruption(seed=6),
        )

    assert_conformance(
        MinUnison(), n=4, rounds=7, plan_factories=[plan, plan], backend=backend
    )


@backends
def test_byzantine_adversary_conforms(backend):
    def mutator(rng, payload):
        return (payload or 0) + rng.randrange(-3, 4)

    def plan(seed):
        return lambda: FaultPlan(
            omissions=ByzantineAdversary(5, 1, mutator, rate=0.6, seed=seed),
            initial_corruption=RandomCorruption(seed=seed),
        )

    assert_conformance(
        MinUnison(),
        n=5,
        rounds=9,
        plan_factories=[plan(1), plan(8)],
        topology=RingTopology(5),
        backend=backend,
    )


@dense_backends
def test_forged_detector_vectors_conform(backend):
    def scramble(rng, payload):
        nums, statuses = payload
        forged = list(nums)
        forged[rng.randrange(len(forged))] = rng.randrange(0, 1 << 20)
        return (tuple(forged), statuses)

    def plan():
        return FaultPlan(omissions=ByzantineAdversary(5, 1, scramble, rate=0.5, seed=2))

    assert_conformance(
        DetectorStack(initial_timeout=1, max_timeout=4),
        n=5,
        rounds=10,
        plan_factories=[plan],
        backend=backend,
    )


# -- chunked execution: bounded-memory temporaries, identical digests --------


class _Overwriting(CorruptionPlan):
    """Hands back a state for every pid — crashed ones included, which
    breaks the ``CorruptionPlan`` contract (the dead stay ``None``)."""

    def __init__(self):
        self.returned = []

    def corrupt(self, protocol, states, n):
        self.returned.append({pid: {CLOCK_KEY: 100 + pid} for pid in range(n)})
        return self.returned[-1]


@backends
def test_corruption_cannot_revive_a_crashed_process(backend, monkeypatch):
    n, dead = 6, 2
    twin_class = type(as_array_protocol(MinUnison()))
    loaded = []
    load_states = twin_class.load_states
    monkeypatch.setattr(
        twin_class,
        "load_states",
        lambda self, state, lane, mappings: loaded.append(mappings)
        or load_states(self, state, lane, mappings),
    )
    initial = _Overwriting()
    result = run_array(
        MinUnison(),
        n,
        5,
        fault_plans=[
            FaultPlan(
                crashes={dead: 2.0},
                initial_corruption=initial,
                mid_corruptions={4.0: _Overwriting()},
            )
        ],
        topology=RingTopology(n),
        backend=backend,
    )
    # nobody had crashed at the start: the plan's own dict is ingested as is
    assert loaded[0] is initial.returned[0]
    # by round 4 pid 2 is dead; its state, had it been read back, would
    # have pulled its neighbour 3 down to 104
    assert result.crashed == [frozenset({dead})]
    assert result.final_state(0, dead) is None
    assert result.final_clocks(0) == {0: 102, 1: 102, 2: None, 3: 105, 4: 102, 5: 102}


@backends
@pytest.mark.parametrize("chunk", [2, 5])
def test_chunked_conformance_on_ring(backend, chunk):
    def plan(seed):
        return lambda: FaultPlan(
            crashes={seed % 6: 3.0},
            initial_corruption=RandomCorruption(seed=seed),
        )

    assert_conformance(
        MinUnison(),
        n=6,
        rounds=9,
        plan_factories=[plan(0), plan(4)],
        topology=RingTopology(6),
        backend=backend,
        chunk=chunk,
    )


@backends
def test_max_bytes_chunking_conformance(backend):
    def plan():
        return FaultPlan(
            omissions=RandomAdversary(
                9, 2, mode=FaultMode.SEND_OMISSION, rate=0.3, seed=17
            ),
            initial_corruption=RandomCorruption(seed=9),
        )

    assert_conformance(
        MinUnison(),
        n=9,
        rounds=8,
        plan_factories=[plan, plan],
        topology=GridTopology(3, 3),
        backend=backend,
        max_bytes=1 << 12,
    )


# -- eligibility: loud refusals, never silent wrong answers ------------------


def test_unencodable_forged_patch_is_rejected():
    def plan():
        return FaultPlan(
            omissions=ScriptedAdversary(
                1,
                {2: RoundFaultPlan(forgeries={0: {1: lambda payload: 0.5}})},
            )
        )

    with pytest.raises(ArrayEligibilityError):
        run_array(MinUnison(), 4, 5, fault_plans=[plan()], backend="python")


def _bad_columns(np):
    """(why, pids, columns) a clock twin must refuse."""
    cases = [
        ("unexpected field", [0, 1], {CLOCK_KEY: [4, 5], "decision": [0, 0]}),
        ("no clock", [0, 1], {"decision": [0, 0]}),
        ("no column", [0, 1], {}),
        ("float cell", [0, 1], {CLOCK_KEY: [4, 5.0]}),
        ("bool cell", [0, 1], {CLOCK_KEY: [4, True]}),
        ("too short", [0, 1, 2], {CLOCK_KEY: [4, 5]}),
        ("too long", [0], {CLOCK_KEY: [4, 5]}),
        ("beyond int64", [0, 1], {CLOCK_KEY: [4, 1 << 70]}),
        ("at BIG", [0, 1], {CLOCK_KEY: [4, 1 << 62]}),
        ("below SMALL", [0, 1], {CLOCK_KEY: [-(1 << 62) - 1, 4]}),
    ]
    if np is not None:
        cases += [
            ("int64 at BIG", [0, 1], {CLOCK_KEY: np.array([4, 1 << 62], dtype=np.int64)}),
            ("int64 near overflow", [0, 1], {CLOCK_KEY: np.array([(1 << 63) - 2, 4])}),
            ("float dtype", [0, 1], {CLOCK_KEY: np.array([4.0, 5.0])}),
            ("bool dtype", [0, 1], {CLOCK_KEY: np.array([True, False])}),
            ("uint64 dtype", [0, 1], {CLOCK_KEY: np.array([4, 5], dtype=np.uint64)}),
            ("two-dimensional", [0, 1], {CLOCK_KEY: np.array([[4, 5]])}),
            ("array too short", [0, 1, 2], {CLOCK_KEY: np.array([4, 5])}),
        ]
    return cases


@backends
@pytest.mark.parametrize("protocol", [MinUnison(), BoundedUnison(n=4)], ids=lambda p: p.name)
def test_load_columns_refuses_bad_columns_and_leaves_the_lane_untouched(backend, protocol):
    np = None
    if has_numpy():
        import numpy as np
    n, twin = 4, as_array_protocol(protocol)
    state = twin.initial_states(n, 2, backend)
    twin.load_columns(state, 1, range(n), {CLOCK_KEY: [9, 8, 7, 6]})
    before = [twin.read_states(state, lane) for lane in range(2)]
    for why, pids, columns in _bad_columns(np):
        with pytest.raises(ArrayEligibilityError):
            twin.load_columns(state, 1, pids, columns)
        assert [twin.read_states(state, lane) for lane in range(2)] == before, why
    # what it accepts: a list, any narrower integer dtype, a subset of pids
    twin.load_columns(state, 0, [1, 3], {CLOCK_KEY: [-2, 11]})
    if np is not None:
        twin.load_columns(state, 1, [0, 2], {CLOCK_KEY: np.array([3, 4], dtype=np.uint32)})
        before[1] = [{CLOCK_KEY: 3}, before[1][1], {CLOCK_KEY: 4}, before[1][3]]
    assert twin.read_states(state, 0) == [
        before[0][0], {CLOCK_KEY: -2}, before[0][2], {CLOCK_KEY: 11}
    ]
    assert twin.read_states(state, 1) == before[1]
    assert all(type(cell[CLOCK_KEY]) is int for cell in twin.read_states(state, 1))


@backends
@pytest.mark.parametrize("clock", [1 << 62, (1 << 63) - 2, 1 << 70, -(1 << 62) - 1])
def test_a_clock_int64_cannot_hold_is_refused_and_leaves_the_lane_untouched(backend, clock):
    twin = as_array_protocol(RoundAgreementProtocol())
    state = twin.initial_states(3, 2, backend)
    before = [twin.read_states(state, lane) for lane in range(2)]
    with pytest.raises(ArrayEligibilityError):
        twin.load_states(state, 1, {0: {CLOCK_KEY: 7}, 2: {CLOCK_KEY: clock}})
    assert [twin.read_states(state, lane) for lane in range(2)] == before
    with pytest.raises(ArrayEligibilityError):  # the run the columns would overflow
        run_array(
            RoundAgreementProtocol(),
            3,
            3,
            initial_states=[{0: {CLOCK_KEY: clock}, 1: {CLOCK_KEY: 1}, 2: {CLOCK_KEY: 1}}],
            backend=backend,
        )


@dense_backends
def test_every_twin_accepts_columns_through_its_dict_bridge(backend):
    """The base ``load_columns`` builds the dicts and validates as ``load_states``."""
    n = 4
    protocol = CanonicalRunner(FloodMinConsensus(f=1, proposals=list(range(n))))
    twin = as_array_protocol(protocol)
    by_dicts, by_columns = (twin.initial_states(n, 1, backend) for _ in range(2))
    states = {pid: protocol.arbitrary_state(pid, n, make_rng(pid)) for pid in (0, 2, 3)}
    twin.load_states(by_dicts, 0, states)
    columns = {field: [states[pid][field] for pid in states] for field in states[0]}
    twin.load_columns(by_columns, 0, list(states), columns)
    assert twin.read_states(by_columns, 0) == twin.read_states(by_dicts, 0)
    for bad in ({**columns, CLOCK_KEY: [1, 2]}, {**columns, CLOCK_KEY: [1, 2.5, 3]}):
        with pytest.raises(ArrayEligibilityError):
            twin.load_columns(by_columns, 0, list(states), bad)
        assert twin.read_states(by_columns, 0) == twin.read_states(by_dicts, 0)


class _FloatColumns(CorruptionPlan):
    """A third-party plan whose columns a clock twin cannot hold."""

    def corrupt(self, protocol, states, n):
        raise AssertionError("columns were offered; the dict bridge must not run")

    def corrupt_columns(self, protocol, alive, n):
        return alive, {CLOCK_KEY: [0.5] * len(alive)}


def test_a_plan_offering_unencodable_columns_is_rejected():
    plan = FaultPlan(initial_corruption=_FloatColumns())
    with pytest.raises(ArrayEligibilityError):
        run_array(MinUnison(), 4, 3, fault_plans=[plan], backend="python")


def test_shared_adversary_object_across_lanes_is_rejected():
    adversary = RandomAdversary(4, 1, mode=FaultMode.CRASH, seed=0)
    plans = [FaultPlan(omissions=adversary), FaultPlan(omissions=adversary)]
    with pytest.raises(ArrayEligibilityError):
        run_array(MinUnison(), 4, 5, fault_plans=plans, backend="python")


def test_lanes_with_different_churn_are_rejected():
    churned = FaultPlan(churn=ChurnSchedule((ChurnEvent(2, "leave", pids=(1,)),)))
    with pytest.raises(ArrayEligibilityError):
        run_array(
            MinUnison(),
            4,
            5,
            fault_plans=[churned, None],
            topology=RingTopology(4),
            backend="python",
        )


def test_protocol_without_batched_twin_is_rejected():
    class Custom(MinUnison):
        """A subclass may override update(); exact-type match must miss."""

    assert as_array_protocol(Custom()) is None
    with pytest.raises(ArrayEligibilityError):
        run_array(Custom(), 4, 5, backend="python")


def test_backend_env_and_explicit_selection(monkeypatch):
    monkeypatch.setenv(ENV_BACKEND, "python")
    assert pick_backend(None) == "python"
    result = run_array(MinUnison(), 4, 3)
    assert result.backend == "python"
    monkeypatch.delenv(ENV_BACKEND)
    assert pick_backend("python") == "python"
    with pytest.raises(ValueError):
        pick_backend("fortran")


def test_measure_disagreement_matches_history_scan():
    plans = [
        FaultPlan(initial_corruption=RandomCorruption(seed=seed)) for seed in range(3)
    ]
    measured = run_array(
        MinUnison(),
        8,
        12,
        fault_plans=plans,
        topology=RingTopology(8),
        measure_disagreement=True,
        backend="python",
    )
    recorded = run_array(
        MinUnison(),
        8,
        12,
        fault_plans=[
            FaultPlan(initial_corruption=RandomCorruption(seed=seed))
            for seed in range(3)
        ],
        topology=RingTopology(8),
        record_history=True,
        backend="python",
    )
    for lane in range(3):
        last = 0
        for round_history in recorded.histories[lane]:
            clocks = {
                record.clock_before
                for record in round_history.records
                if record.clock_before is not None
            }
            if len(clocks) > 1:
                last = round_history.round_no
        assert (measured.last_disagreement[lane] or 0) == last


def test_grid_topology_shape():
    grid = GridTopology(3, 4)
    assert grid.n == 12
    assert grid.diameter() == 5
    # Interior process: 4 neighbors + self.
    assert set(grid.receivers(5)) == {1, 4, 5, 6, 9}
    # Corner: 2 neighbors + self.
    assert set(grid.receivers(0)) == {0, 1, 4}


# -- the CSR compile: vectorised src/indptr, edge ids by bisect --------------


def _reference_csr(edges):
    """The straightforward list-built compile the vectorised one replaced."""
    src, indptr, dst = [], [0], []
    for p, senders in enumerate(edges):
        src.extend(senders)
        dst.extend([p] * len(senders))
        indptr.append(len(src))
    edge_index = {(q, p): e for e, (q, p) in enumerate(zip(src, dst))}
    return src, indptr, edge_index


_CHURNED_RING = DynamicTopology(
    RingTopology(6), ChurnSchedule((ChurnEvent(2, "leave", pids=(1,)),))
)


@backends
@pytest.mark.parametrize(
    "topology,round_no",
    [
        (RingTopology(7), 1),
        (GridTopology(3, 4), 1),
        (TreeTopology(9), 1),
        (RandomTopology(10, p=0.3, seed=2), 1),
        (_CHURNED_RING, 1),
        (_CHURNED_RING, 2),  # the epoch change: pid 1 detached
    ],
)
def test_csr_graph_matches_list_built_reference(backend, topology, round_no):
    edges = round_edges(topology, round_no)
    n = len(edges)
    src, indptr, edge_index = _reference_csr(edges)
    csr = _CsrGraph(*receiver_columns(topology, round_no), backend)
    assert (csr.n, csr.num_edges) == (n, len(src))
    assert list(csr.src) == src
    assert list(csr.indptr) == indptr
    for sender in range(n):
        for receiver in range(-1, n + 1):
            assert csr.edge_id(sender, receiver) == edge_index.get((sender, receiver))


@backends
def test_crash_omission_and_forgery_share_one_ring_run(backend):
    """One run whose rounds put every per-copy fault on the wire (the
    omissions, and a partial crash delivery, all found by ``edge_id``) and
    silence a sender (the crash, then its death) next to a forged copy."""

    def plan():
        return FaultPlan(
            omissions=ScriptedAdversary(
                3,
                {
                    2: RoundFaultPlan(
                        send_omissions={4: frozenset({5, 9})},  # 9: not a neighbor
                        forgeries={8: {7: lambda payload: payload + 25}},
                    ),
                    3: RoundFaultPlan(
                        crashes={11: frozenset({10})},  # final broadcast reaches 10 only
                        receive_omissions={4: frozenset({3})},
                    ),
                    5: RoundFaultPlan(forgeries={8: {9: lambda _: 0}}),
                },
            ),
            initial_corruption=RandomCorruption(seed=16),
        )

    report = check_conformance(
        MinUnison(),
        16,
        8,
        plan_factories=[plan, plan],
        topology=RingTopology(16),
        backend=backend,
    )
    assert report.ok, report
