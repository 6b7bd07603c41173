"""run_sweep's array routing and work-balanced chunk sizing.

The batched backend must be loud about every fallback, keep its cache
entries in a disjoint ``@array`` namespace, and report per-backend
executed counters; the chunker must isolate heavy points instead of
serializing them behind cheap neighbors (the old fixed-size chunking
regression).
"""

import pytest

import repro.cache
from repro.array.protocols import ArrayEligibilityError
from repro.array import run_array
from repro.core.rounds import RoundAgreementProtocol
from repro.experiments.base import _work_chunks, run_sweep, shutdown_pool
from repro.histories.history import CLOCK_KEY
from repro.kernel.faults import FaultPlan
from repro.sync.corruption import RandomCorruption
from repro.sync.engine import run_sync

CALLS = {"batch": 0, "single": 0}


@pytest.fixture(autouse=True)
def _reset():
    CALLS["batch"] = 0
    CALLS["single"] = 0
    yield
    shutdown_pool()
    repro.cache.configure()


def plain_worker(point):
    CALLS["single"] += 1
    n, seed = point
    return n * 10 + seed


def batched_worker(point):
    CALLS["single"] += 1
    n, seed = point
    return n * 10 + seed


def _batch(points):
    CALLS["batch"] += 1
    return [n * 10 + seed for n, seed in points]


batched_worker.array_batch = _batch


def picky_worker(point):
    CALLS["single"] += 1
    n, seed = point
    return n * 10 + seed


picky_worker.array_batch = _batch
picky_worker.array_eligible = lambda point: point[0] % 2 == 0


def refusing_worker(point):
    CALLS["single"] += 1
    n, seed = point
    return n * 10 + seed


def _refuse(points):
    raise ArrayEligibilityError("scripted refusal")


refusing_worker.array_batch = _refuse


def lying_worker(point):
    n, seed = point
    return n * 10 + seed


lying_worker.array_batch = lambda points: [0]  # wrong length


def costed_worker(point):
    n, seed = point
    return n * 10 + seed


costed_worker.estimate_cost = lambda point: float(point[0])

POINTS = [(n, seed) for n in (1, 2, 3) for seed in (0, 1)]
EXPECTED = [n * 10 + seed for n, seed in POINTS]


#: Figure 1 from one oversized clock (``None``: a random corruption whose
#: domain reaches past int64): clocks the array columns cannot hold.
WIDE = RoundAgreementProtocol(max_corrupt_clock=1 << 64)


def _skewed(clock):
    return {0: {CLOCK_KEY: clock}, 1: {CLOCK_KEY: 1}, 2: {CLOCK_KEY: 1}}


def _corruption(clock):
    return RandomCorruption(seed=3) if clock is None else None


def wide_clock_worker(point):
    (clock,) = point
    initial = None if clock is None else _skewed(clock)
    result = run_sync(
        WIDE, n=3, rounds=3, corruption=_corruption(clock), initial_states=initial
    )
    return sorted(result.final_clocks().values())


def _wide_batch(points):
    result = run_array(
        WIDE,
        3,
        3,
        initial_states=[None if clock is None else _skewed(clock) for (clock,) in points],
        fault_plans=[FaultPlan(initial_corruption=_corruption(clock)) for (clock,) in points],
    )
    return [sorted(result.final_clocks(lane).values()) for lane in range(len(points))]


wide_clock_worker.array_batch = _wide_batch


# -- chunk sizing (the heterogeneous-cost regression) ------------------------


def test_work_chunks_isolate_heavy_points():
    indices = list(range(6))
    weights = [1.0, 1.0, 1.0, 100.0, 1.0, 1.0]
    chunks = _work_chunks(indices, weights, target_chunks=4)
    # Contiguous cover, in order.
    assert [i for chunk in chunks for i in chunk] == indices
    # The heavy point rides alone: nothing cheap queues behind it.
    assert [3] in chunks


def test_work_chunks_uniform_weights_stay_balanced():
    chunks = _work_chunks(list(range(16)), [1.0] * 16, target_chunks=4)
    assert [i for chunk in chunks for i in chunk] == list(range(16))
    assert max(len(chunk) for chunk in chunks) <= 5


def test_work_chunks_empty():
    assert _work_chunks([], [], target_chunks=4) == []


def test_mixed_size_sweep_results_stay_ordered():
    points = [(n, seed) for n in (1, 500, 2, 300, 3) for seed in (0,)]
    outcomes = run_sweep(costed_worker, points, jobs=2)
    assert outcomes == [n * 10 + seed for n, seed in points]


# -- array routing -----------------------------------------------------------


def test_array_backend_batches_everything():
    outcomes = run_sweep(batched_worker, POINTS, jobs=1, backend="array")
    assert outcomes == EXPECTED
    assert CALLS["batch"] == 1
    assert CALLS["single"] == 0


def test_unknown_backend_rejected():
    with pytest.raises(ValueError):
        run_sweep(plain_worker, POINTS, jobs=1, backend="gpu")


def test_array_backend_warns_without_batched_twin():
    with pytest.warns(RuntimeWarning, match="no .*array_batch"):
        outcomes = run_sweep(plain_worker, POINTS, jobs=1, backend="array")
    assert outcomes == EXPECTED
    assert CALLS["single"] == len(POINTS)


def test_array_backend_partial_eligibility_splits_loudly():
    with pytest.warns(RuntimeWarning, match="not array-eligible"):
        outcomes = run_sweep(picky_worker, POINTS, jobs=1, backend="array")
    assert outcomes == EXPECTED
    assert CALLS["batch"] == 1
    assert CALLS["single"] == 4  # the four odd-n points fell back


def test_array_backend_refusal_falls_back_loudly():
    with pytest.warns(RuntimeWarning, match="refused"):
        outcomes = run_sweep(refusing_worker, POINTS, jobs=1, backend="array")
    assert outcomes == EXPECTED
    assert CALLS["single"] == len(POINTS)


@pytest.mark.parametrize("clock", [(1 << 63) - 2, 1 << 70, None])
def test_a_clock_past_int64_falls_back_to_the_exact_answer(clock):
    """The NumPy plane once wrapped ``2**63 - 2`` to a negative clock and
    crashed on ``2**70`` with an ``OverflowError`` nobody caught."""
    with pytest.warns(RuntimeWarning, match="refused"):
        (outcome,) = run_sweep(wide_clock_worker, [(clock,)], jobs=1, backend="array")
    assert outcome == wide_clock_worker((clock,))
    if clock is not None:
        assert outcome == [clock + 3] * 3


def test_array_batch_length_mismatch_is_an_error():
    with pytest.raises(RuntimeError, match="outcomes for"):
        run_sweep(lying_worker, POINTS, jobs=1, backend="array")


def test_array_backend_shards_across_the_pool():
    points = [(n, seed) for n in (1, 2, 3, 4, 5) for seed in (0, 1)]
    outcomes = run_sweep(batched_worker, points, jobs=3, backend="array")
    assert outcomes == [n * 10 + seed for n, seed in points]
    # Nothing fell back to the single-point path in the parent (the
    # batch calls themselves ran in pool children).
    assert CALLS["single"] == 0


def test_sharded_refusal_falls_back_loudly():
    with pytest.warns(RuntimeWarning, match="refused"):
        outcomes = run_sweep(refusing_worker, POINTS, jobs=2, backend="array")
    # The refused points fell back and re-ran through the pool (the
    # parent's call counter stays 0 — children executed them).
    assert outcomes == EXPECTED


def test_fallback_counter_tallies_unbatched_points(tmp_path):
    repro.cache.configure(root=tmp_path / "cache", enabled=True)
    store = repro.cache.get_cache()

    with pytest.warns(RuntimeWarning, match="not array-eligible"):
        run_sweep(picky_worker, POINTS, jobs=1, cache="PK", backend="array")
    # Four odd-n points fell back: counted once each, under both the
    # sync-executed and the fallback tallies.
    assert store.stats.executed_array == 2
    assert store.stats.executed_sync == 4
    assert store.stats.executed_fallback == 4

    # An all-batched sweep leaves the fallback counter untouched.
    run_sweep(batched_worker, POINTS, jobs=1, cache="BW", backend="array")
    assert store.stats.executed_fallback == 4


def test_array_cache_namespace_and_backend_counters(tmp_path):
    repro.cache.configure(root=tmp_path / "cache", enabled=True)
    store = repro.cache.get_cache()

    first = run_sweep(batched_worker, POINTS, jobs=1, cache="AS", backend="array")
    assert first == EXPECTED
    assert store.stats.executed_array == len(POINTS)
    assert store.stats.executed_sync == 0
    store.flush()
    assert "AS@array" in store.summary()["namespaces"]

    # Warm pass: answered from the @array namespace, nothing executes.
    again = run_sweep(batched_worker, POINTS, jobs=1, cache="AS", backend="array")
    assert again == EXPECTED
    assert CALLS["batch"] == 1

    # The reference backend must NOT see the array entries: disjoint
    # namespaces, and its executions count under executed_sync.
    reference = run_sweep(batched_worker, POINTS, jobs=1, cache="AS")
    assert reference == EXPECTED
    assert CALLS["single"] == len(POINTS)
    assert store.stats.executed_sync == len(POINTS)
