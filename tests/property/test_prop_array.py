"""Property-based conformance: the batched engine IS the reference engine.

Hypothesis draws random (protocol, topology, fault plan, seeds)
scenarios — crashes, omission campaigns, initial and mid-run systemic
corruption, churn — and requires digest-identical histories, identical
faulty sets and identical final states between ``run_sync`` and
``run_array`` on every data plane (pure-Python always; NumPy when
installed).  This is the generative widening of the pinned scenarios in
``tests/unit/test_array_engine.py``.
"""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.array import (
    ArrayEligibilityError,
    ArrayProtocol,
    as_array_protocol,
    assert_conformance,
    has_numpy,
    run_array,
)
from repro.array.engine import _CsrGraph, RoundWire
from repro.array.protocols import BIG, SMALL
from repro.net.conformance import history_digest
from repro.core.canonical import CanonicalRunner
from repro.core.compiler import compile_protocol
from repro.core.rounds import (
    FreeRunningRoundProtocol,
    MinMergeRoundProtocol,
    RoundAgreementProtocol,
)
from repro.detectors.stack import DetectorStack
from repro.histories.history import CLOCK_KEY
from repro.kernel.faults import FaultPlan
from repro.kernel.topology import (
    ChurnEvent,
    ChurnSchedule,
    DynamicTopology,
    ExplicitTopology,
    GridTopology,
    RandomTopology,
    RingTopology,
    TreeTopology,
    round_edges,
)
from repro.protocols.floodmin import FloodMinConsensus
from repro.protocols.phaseking import PhaseQueenConsensus
from repro.protocols.unison import BoundedUnison, MinUnison
from repro.sync.adversary import ByzantineAdversary, FaultMode, RandomAdversary
from repro.sync.corruption import ClockSkewCorruption, RandomCorruption
from repro.util import rng as rng_module
from repro.util.rng import BLOCK_MIN_COUNT, make_rng, randrange_block

BACKENDS = ["python"] + (["numpy"] if has_numpy() else [])

ROUNDS = 8


def _make_protocol(name, n):
    if name == "min-unison":
        return MinUnison()
    if name == "round-agreement":
        return RoundAgreementProtocol()
    if name == "bounded-unison":
        return BoundedUnison(n=n)
    return compile_protocol(
        FloodMinConsensus(f=1, proposals=[(3 * pid + 1) % 7 for pid in range(n)])
    )


def _make_topology(name, n, seed=0):
    if name == "ring":
        return RingTopology(n)
    if name == "grid":
        return GridTopology(2, n // 2)
    if name == "tree":
        return TreeTopology(n)
    if name == "star":
        return ExplicitTopology(n, [(0, pid) for pid in range(1, n)])
    if name == "random":
        return RandomTopology(n, p=0.3, seed=seed)
    return None  # complete graph


def _forge(rng, payload):
    return (payload or 0) + rng.randrange(-3, 4)


#: The clock protocols broadcast a bare int, which ``_forge`` can lie about.
FORGEABLE = ("min-unison", "round-agreement", "bounded-unison")
OMISSION_MODES = [
    FaultMode.CRASH,
    FaultMode.SEND_OMISSION,
    FaultMode.RECEIVE_OMISSION,
    FaultMode.GENERAL_OMISSION,
]


@st.composite
def scenarios(draw):
    n = draw(st.integers(min_value=4, max_value=8))
    # star and tree are the skewed shapes: with ring and grid they put
    # both CSR kernels (see ``columnar`` below) under every fault kind
    shapes = ["complete", "ring", "star", "tree"] + ([] if n % 2 else ["grid"])
    topology_name = draw(st.sampled_from(shapes))
    protocol_name = draw(
        st.sampled_from(
            ["min-unison", "round-agreement", "bounded-unison", "compiled-floodmin"]
        )
    )

    lanes = draw(st.integers(min_value=1, max_value=3))
    lane_specs = []
    churn_flag = draw(st.booleans()) and topology_name != "complete"
    for _ in range(lanes):
        crash_pids = draw(
            st.lists(
                st.integers(min_value=0, max_value=n - 1), max_size=2, unique=True
            )
        )
        spec = {
            "crashes": {
                pid: float(draw(st.integers(min_value=1, max_value=ROUNDS)))
                for pid in crash_pids
            },
            "adversary": None,
            "corrupt_seed": draw(st.one_of(st.none(), st.integers(0, 50))),
            "skew_round": draw(st.one_of(st.none(), st.integers(2, ROUNDS - 1))),
            "skew_pid": draw(st.integers(0, n - 1)),
            "skew_value": draw(st.integers(-3, 12)),
        }
        if draw(st.booleans()):
            spec["adversary"] = (
                draw(st.integers(min_value=0, max_value=2)),  # f
                draw(
                    st.sampled_from(
                        OMISSION_MODES
                        + (["forge"] if protocol_name in FORGEABLE else [])
                    )
                ),
                draw(st.floats(min_value=0.0, max_value=0.5)),
                draw(st.integers(0, 100)),  # seed
            )
        lane_specs.append(spec)
    churn = None
    if churn_flag:
        leave_pid = draw(st.integers(0, n - 1))
        events = [ChurnEvent(2, "leave", pids=(leave_pid,))]
        if draw(st.booleans()):
            events.append(
                ChurnEvent(
                    4,
                    "partition",
                    groups=(frozenset(range(n // 2)),),
                )
            )
            events.append(ChurnEvent(6, "heal"))
        events.append(ChurnEvent(ROUNDS - 1, "join", pids=(leave_pid,)))
        churn = ChurnSchedule(tuple(events))
    return n, protocol_name, topology_name, tuple(lane_specs), churn


def _plan_factory(n, spec, churn):
    def make():
        adversary = None
        if spec["adversary"] is not None:
            f, mode, rate, seed = spec["adversary"]
            if mode == "forge":
                adversary = ByzantineAdversary(n, f, _forge, rate=rate, seed=seed)
            else:
                adversary = RandomAdversary(n, f, mode=mode, rate=rate, seed=seed)
        mid = {}
        if spec["skew_round"] is not None:
            mid[float(spec["skew_round"])] = ClockSkewCorruption(
                {spec["skew_pid"]: spec["skew_value"]}
            )
        return FaultPlan(
            crashes=dict(spec["crashes"]),
            omissions=adversary,
            initial_corruption=(
                RandomCorruption(seed=spec["corrupt_seed"])
                if spec["corrupt_seed"] is not None
                else None
            ),
            mid_corruptions=mid,
            churn=churn,
        )

    return make


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=25, deadline=None)
@given(scenario=scenarios())
def test_random_scenarios_are_digest_identical(backend, scenario):
    n, protocol_name, topology_name, lane_specs, churn = scenario
    assert_conformance(
        _make_protocol(protocol_name, n),
        n=n,
        rounds=ROUNDS,
        plan_factories=[_plan_factory(n, spec, churn) for spec in lane_specs],
        topology=_make_topology(topology_name, n),
        backend=backend,
    )


# -- chunk boundaries: bounded temporaries never change a digest -------------
#
# Explicit ``chunk=`` values are honored verbatim (no floor), so tiny
# chunks at property-test sizes force many boundary crossings per round
# — and the drawn crashes / mid-run corruption / churn epochs land on
# or next to those edges.  Conformance against ``run_sync`` pins the
# chunked run to the reference engine; the direct chunked-vs-unchunked
# digest comparison pins it to the unchunked batched run as well.  A
# graph picks its own CSR kernel and at these sizes always picks
# ``reduceat``; the drawn ``columnar`` overrides the pick, so the column
# kernel meets the same crashes, omissions, forgeries and churn epochs.


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=20, deadline=None)
@given(
    scenario=scenarios(),
    chunk=st.integers(min_value=1, max_value=40),
    columnar=st.booleans(),
)
def test_chunked_random_scenarios_match_run_sync(backend, scenario, chunk, columnar):
    n, protocol_name, topology_name, lane_specs, churn = scenario
    with mock.patch.object(_CsrGraph, "columnar", columnar):
        assert_conformance(
            _make_protocol(protocol_name, n),
            n=n,
            rounds=ROUNDS,
            plan_factories=[_plan_factory(n, spec, churn) for spec in lane_specs],
            topology=_make_topology(topology_name, n),
            backend=backend,
            chunk=chunk,
        )


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=15, deadline=None)
@given(
    scenario=scenarios(),
    chunk=st.integers(min_value=1, max_value=40),
    max_bytes=st.one_of(st.none(), st.integers(min_value=1 << 8, max_value=1 << 14)),
)
def test_chunked_equals_unchunked_batched_run(backend, scenario, chunk, max_bytes):
    n, protocol_name, topology_name, lane_specs, churn = scenario

    def batched(**kwargs):
        return run_array(
            _make_protocol(protocol_name, n),
            n,
            ROUNDS,
            fault_plans=[_plan_factory(n, spec, churn)() for spec in lane_specs],
            topology=_make_topology(topology_name, n),
            record_history=True,
            backend=backend,
            **kwargs,
        )

    plain = batched()
    chunked = batched(chunk=chunk, max_bytes=max_bytes)
    assert chunked.faulty == plain.faulty
    for lane in range(len(lane_specs)):
        assert history_digest(chunked.histories[lane]) == history_digest(
            plain.histories[lane]
        )
        assert chunked.final_states(lane) == plain.final_states(lane)


# -- the wire's reduction: one definition, three kernels ---------------------
#
# ``RoundWire.reduce`` is the only thing a CSR twin asks of the wire.  On
# the NumPy plane two kernels answer it (slot columns for bounded
# in-degree, ``reduceat`` otherwise), and the column kernel lays its slots
# out by offset on a lattice (slices, plus gathers for the boundary) or
# by gather elsewhere; the Python plane is a third kernel.  All must equal
# the definition, cell for cell, under any ``keep`` mask and any chunk
# budget.


def _csr_wire(backend, edges, lanes, kept, chunk, **layout):
    """A CSR wire over ``edges`` whose lane ``l`` keeps edge ``e`` iff
    ``kept[l][e]`` (``kept=None``: an unmasked wire); ``layout`` overrides
    the graph's own picks (``columnar``, ``shifts``)."""
    graph = _CsrGraph(edges, backend)
    for name, value in layout.items():
        setattr(graph, name, value)
    wire = RoundWire(backend, lanes, len(edges), chunk)
    wire.graph = graph
    if kept is not None and backend == "numpy":
        import numpy as np

        wire.keep = np.array(kept, dtype=bool)
    elif kept is not None:
        wire.keep = [{e for e, bit in enumerate(row) if not bit} for row in kept]
    return wire


def _ring_plus(n, extra=()):
    return ExplicitTopology(n, [(p, (p + 1) % n) for p in range(n)] + list(extra))


def _small(family):
    def build(draw):
        n = 2 * draw(st.integers(min_value=2, max_value=6))
        return _make_topology(family, n, draw(st.integers(0, 20)))

    return build


def _grid_cut(draw):
    side = draw(st.integers(33, 36))
    cut = (side + 1, 2 * side + 1)  # a vertical edge in column 1, far from the middle
    grid = round_edges(GridTopology(side, side), 1)
    return ExplicitTopology(
        side * side,
        [(p, q) for p, near in enumerate(grid) for q in near if p < q and (p, q) != cut],
    )


def _circulant(draw):
    n = draw(st.integers(40, 64))
    return _ring_plus(n, [(p, (p + 2) % n) for p in range(n)])


def _churned_ring(draw):
    n = draw(st.integers(48, 96))
    leaver = draw(st.integers(0, n - 1))
    return DynamicTopology(
        RingTopology(n), ChurnSchedule((ChurnEvent(1, "leave", (leaver,)),))
    )


#: family -> (draw a topology, does the column kernel lay it out by offset?)
#: The small graphs are never lattices; the lattices are drawn just large
#: enough that their boundary fits the layout's ``n / 8``.
WIRE_GRAPHS = {
    "tree": (_small("tree"), False),
    "star": (_small("star"), False),
    "random": (_small("random"), False),
    "ring": (lambda draw: RingTopology(draw(st.integers(16, 64))), True),
    "grid": (lambda draw: GridTopology(32, 32), True),
    "oblong-grid": (lambda draw: GridTopology(30, draw(st.integers(40, 44))), True),
    "ring-chord": (
        lambda draw: _ring_plus(32 + 2 * draw(st.integers(0, 16)), [(3, 17)]),
        True,
    ),
    "grid-cut": (_grid_cut, True),
    "circulant": (_circulant, True),
    "churn": (_churned_ring, True),
}


@st.composite
def reductions(draw):
    family = draw(st.sampled_from(sorted(WIRE_GRAPHS)))
    build, sliced = WIRE_GRAPHS[family]
    edges = round_edges(build(draw), 1)
    n, num_edges = len(edges), sum(map(len, edges))
    lanes = draw(st.integers(min_value=1, max_value=3))
    rng = draw(st.randoms(use_true_random=False))
    column = [[rng.randint(-50, 50) for _ in range(n)] for _ in range(lanes)]
    kept = None
    if draw(st.booleans()):
        kept = [[rng.random() < 0.5 for _ in range(num_edges)] for _ in range(lanes)]
        # one receiver of lane 0 hears only itself
        lonely = draw(st.integers(0, n - 1))
        first = sum(map(len, edges[:lonely]))
        for slot, sender in enumerate(edges[lonely]):
            kept[0][first + slot] = sender == lonely
    return edges, column, kept, sliced


@pytest.mark.skipif(not has_numpy(), reason="compares the two NumPy kernels")
@settings(max_examples=60, deadline=None)
@given(
    drawn=reductions(),
    chunk=st.sampled_from([1, 2, 3, None]),
    op=st.sampled_from(["min", "max"]),
)
def test_wire_reduce_kernels_agree_with_the_definition(drawn, chunk, op):
    import numpy as np

    edges, column, kept, sliced = drawn
    lanes = len(column)
    best_of, identity = (min, BIG) if op == "min" else (max, SMALL)
    expected, edge = [[] for _ in range(lanes)], 0
    for senders in edges:  # edges[p] is also p's in-neighborhood
        for lane in range(lanes):
            heard = [
                column[lane][q]
                for slot, q in enumerate(senders)
                if kept is None or kept[lane][edge + slot]
            ]
            expected[lane].append(best_of(heard, default=identity))
        edge += len(senders)

    def reduced(backend, **layout):
        wire = _csr_wire(backend, edges, lanes, kept, chunk, **layout)
        if backend == "numpy":
            return wire.reduce(np.array(column, dtype=np.int64), op).tolist()
        return wire.reduce(column, op)

    assert (_CsrGraph(edges, "numpy").shifts is not None) == sliced
    assert reduced("python") == expected
    assert reduced("numpy", columnar=True) == expected  # by offset where it may
    assert reduced("numpy", columnar=True, shifts=None) == expected  # by gather
    assert reduced("numpy", columnar=False) == expected


# -- the state bridge: bulk is the primitive, per-cell a view of it ----------
#
# Each twin hand-writes one ``load_states`` and one ``read_states``; the
# per-cell calls are base-class one-liners over them.  Ground truth is
# the reference protocol itself: whatever ``arbitrary_state`` draws must
# come back from the columns as the same plain-Python dict.

BRIDGE_N = 5


def _floodmin():
    return FloodMinConsensus(
        f=1, proposals=[(3 * pid + 1) % 7 for pid in range(BRIDGE_N)]
    )


TWINS = {
    "round-agreement": RoundAgreementProtocol,
    "min-merge": MinMergeRoundProtocol,
    "free-running": FreeRunningRoundProtocol,
    "min-unison": MinUnison,
    "bounded-unison": lambda: BoundedUnison(n=BRIDGE_N),
    "ft-floodmin": lambda: CanonicalRunner(_floodmin()),
    "compiled-floodmin": lambda: compile_protocol(_floodmin()),
    "phase-queen": lambda: CanonicalRunner(
        PhaseQueenConsensus(f=1, n=BRIDGE_N, proposals=[1, 0, 1, 0, 1])
    ),
    "detector": lambda: DetectorStack(initial_timeout=1, max_timeout=4),
}


def _concrete_twins(cls=ArrayProtocol):
    for sub in cls.__subclasses__():
        if not getattr(sub, "__abstractmethods__", None):
            yield sub
        yield from _concrete_twins(sub)


def test_bridge_properties_cover_every_registered_twin():
    covered = {type(as_array_protocol(make())) for make in TWINS.values()}
    assert covered == set(_concrete_twins())


def _assert_plain(value):
    """Only builtin types all the way down: a NumPy scalar would change
    the canonical form the conformance digests hash."""
    assert type(value).__module__ == "builtins", type(value)
    if isinstance(value, dict):
        for key, item in value.items():
            _assert_plain(key)
            _assert_plain(item)
    elif isinstance(value, (list, tuple, set, frozenset)):
        for item in value:
            _assert_plain(item)


pid_sets = st.sets(st.integers(min_value=0, max_value=BRIDGE_N - 1))


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("twin", sorted(TWINS))
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000), loaded=pid_sets, crashed=pid_sets)
def test_bulk_bridge_agrees_with_per_cell_bridge(backend, twin, seed, loaded, crashed):
    n = BRIDGE_N
    protocol = TWINS[twin]()
    array_protocol = as_array_protocol(protocol)
    rng = make_rng(seed, f"bridge:{twin}")
    mappings = {pid: protocol.arbitrary_state(pid, n, rng) for pid in sorted(loaded)}

    bulk = array_protocol.initial_states(n, 2, backend)
    cellwise = array_protocol.initial_states(n, 2, backend)
    array_protocol.load_states(bulk, 1, mappings)  # a partial (maybe empty) mapping
    for pid, mapping in mappings.items():
        array_protocol.load_state(cellwise, 1, pid, mapping)

    for lane in (0, 1):
        cells = array_protocol.read_states(bulk, lane)
        _assert_plain(cells)
        assert cells == array_protocol.read_states(cellwise, lane)
        assert cells == [array_protocol.read_state(bulk, lane, pid) for pid in range(n)]
        for pid, cell in enumerate(cells):
            expected = mappings.get(pid) if lane == 1 else None
            assert cell == (expected or protocol.initial_state(pid, n))

    # crashed cells are skipped, the survivors keep their order
    alive = [pid for pid in range(n) if pid not in crashed]
    cells = array_protocol.read_states(bulk, 1)
    assert array_protocol.read_states(bulk, 1, alive) == [cells[pid] for pid in alive]


DAMAGE = {
    "missing-clock": lambda m: {k: v for k, v in m.items() if k != CLOCK_KEY},
    "bool-clock": lambda m: {**m, CLOCK_KEY: True},
    "float-clock": lambda m: {**m, CLOCK_KEY: 2.0},
    "str-clock": lambda m: {**m, CLOCK_KEY: "2"},
    "extra-field": lambda m: {**m, "bogus": 1},
}


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("twin", sorted(TWINS))
@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    victim=st.integers(0, BRIDGE_N - 1),
    damage=st.sampled_from(sorted(DAMAGE)),
)
def test_malformed_states_are_refused_per_value(backend, twin, seed, victim, damage):
    n = BRIDGE_N
    protocol = TWINS[twin]()
    array_protocol = as_array_protocol(protocol)
    rng = make_rng(seed, f"bridge:{twin}")
    mappings = {pid: protocol.arbitrary_state(pid, n, rng) for pid in range(n)}
    mappings[victim] = DAMAGE[damage](mappings[victim])

    state = array_protocol.initial_states(n, 1, backend)
    before = array_protocol.read_states(state, 0)
    with pytest.raises(ArrayEligibilityError):
        array_protocol.load_states(state, 0, mappings)
    with pytest.raises(ArrayEligibilityError):
        array_protocol.load_state(state, 0, victim, mappings[victim])
    # every value is validated before the first cell is written
    assert array_protocol.read_states(state, 0) == before


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 50), crashed=pid_sets)
def test_final_states_skip_crashed_cells(backend, seed, crashed):
    n = BRIDGE_N
    result = run_array(
        MinUnison(),
        n,
        4,
        fault_plans=[
            FaultPlan(
                crashes={pid: 2.0 for pid in crashed},
                initial_corruption=RandomCorruption(seed=seed),
            )
        ],
        topology=RingTopology(n),
        backend=backend,
    )
    states = result.final_states(0)
    assert list(states) == list(range(n))
    assert states == {pid: result.final_state(0, pid) for pid in range(n)}
    assert {pid for pid, cell in states.items() if cell is None} == crashed
    clocks = result.final_clocks(0)  # read off the clock column, not the dicts
    _assert_plain(clocks)
    assert clocks == {
        pid: None if cell is None else cell[CLOCK_KEY] for pid, cell in states.items()
    }


# -- the column bridge: a systemic failure without a dict --------------------
#
# A plan that answers ``corrupt_columns`` and a twin that overrides
# ``load_columns`` never build a state dict, and above
# ``BLOCK_MIN_COUNT`` victims the draw itself is one block.  Ground truth
# stays the per-process loop: ``run_sync`` for whole runs, a literal
# ``arbitrary_state`` loop for the plan.


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("twin", sorted(TWINS))
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000), loaded=pid_sets)
def test_column_bridge_agrees_with_dict_bridge(backend, twin, seed, loaded):
    n = BRIDGE_N
    protocol = TWINS[twin]()
    array_protocol = as_array_protocol(protocol)
    rng = make_rng(seed, f"bridge:{twin}")
    pids = sorted(loaded)
    mappings = {pid: protocol.arbitrary_state(pid, n, rng) for pid in pids}
    fields = list(protocol.initial_state(0, n))
    columns = {field: [mappings[pid][field] for pid in pids] for field in fields}

    by_dicts = array_protocol.initial_states(n, 2, backend)
    by_columns = array_protocol.initial_states(n, 2, backend)
    array_protocol.load_states(by_dicts, 1, mappings)
    array_protocol.load_columns(by_columns, 1, pids, columns)
    for lane in (0, 1):
        cells = array_protocol.read_states(by_columns, lane)
        _assert_plain(cells)
        assert cells == array_protocol.read_states(by_dicts, lane)


BLOCK_N = BLOCK_MIN_COUNT + 40


def _blocked(n):
    """Does a draw for ``n`` victims take the block path on this install?"""
    return not isinstance(randrange_block(make_rng(0), 0, 8, n), list)


def _systemic_plans(n):
    """Two lanes: everyone corrupted at the start; after pid 3 crashes, a
    ``victims`` subset (the dead pid among them) and then everyone alive."""
    victims = frozenset(range(0, n, 3))

    def lane(seed, mid):
        return lambda: FaultPlan(
            crashes={3: 2.0},
            initial_corruption=RandomCorruption(seed=seed),
            mid_corruptions={4.0: mid()},
        )

    return [
        lane(1, lambda: RandomCorruption(seed=7, victims=victims)),
        lane(2, lambda: RandomCorruption(seed=8)),
    ]


CLOCK_TWINS = {
    "min-unison": lambda n: MinUnison(),
    "round-agreement": lambda n: RoundAgreementProtocol(),
    "bounded-unison": lambda n: BoundedUnison(n=n),
}


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("protocol", sorted(CLOCK_TWINS))
def test_block_drawn_ring_runs_are_digest_identical(backend, protocol):
    n = BLOCK_N
    assert _blocked(n) == has_numpy()
    assert_conformance(
        CLOCK_TWINS[protocol](n),
        n=n,
        rounds=6,
        plan_factories=_systemic_plans(n),
        topology=RingTopology(n),
        backend=backend,
    )


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("protocol", sorted(CLOCK_TWINS))
def test_block_drawn_complete_graph_runs_are_digest_identical(
    backend, protocol, monkeypatch
):
    # a recorded complete-graph round is n^2 messages: lower the constant
    # (a cost model, never semantics) so n = 24 is above it
    monkeypatch.setattr(rng_module, "BLOCK_MIN_COUNT", 4)
    n = 24
    assert _blocked(n // 3) == has_numpy()
    assert_conformance(
        CLOCK_TWINS[protocol](n),
        n=n,
        rounds=6,
        plan_factories=_systemic_plans(n),
        backend=backend,
    )


def _loop_corrupt(seed, victims, protocol, states, n):
    """``RandomCorruption.corrupt`` as the per-process loop it used to be."""
    rng = make_rng(seed, f"corruption:{protocol.name}")
    out = {}
    for pid in sorted(states):
        state = states[pid]
        if state is None or not (victims is None or pid in victims):
            out[pid] = None if state is None else dict(state)
        else:
            out[pid] = protocol.arbitrary_state(pid, n, rng)
    return out


@pytest.mark.parametrize(
    "protocol",
    [MinUnison(), BoundedUnison(n=BLOCK_N), DetectorStack(initial_timeout=1, max_timeout=4)],
    ids=lambda p: p.name,
)
@pytest.mark.parametrize("victims", [None, frozenset(range(BLOCK_N + 9)) - {5, 6}])
def test_random_corruption_equals_the_per_process_loop(protocol, victims):
    """One that offers columns (twice) and one that does not."""
    n = BLOCK_N
    offered = protocol.arbitrary_columns(range(n), n, make_rng(0)) is not None
    assert offered == (not isinstance(protocol, DetectorStack))
    states = {pid: protocol.initial_state(pid, n) for pid in reversed(range(n))}
    states[9] = states[n - 1] = None  # crashed: never drawn for, never revived
    corrupted = RandomCorruption(seed=12, victims=victims).corrupt(protocol, states, n)
    _assert_plain(corrupted)
    assert list(corrupted) == list(range(n))
    assert corrupted == _loop_corrupt(12, victims, protocol, states, n)
    assert all(corrupted[pid] is not states[pid] for pid in range(n) if states[pid])
