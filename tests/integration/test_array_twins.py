"""ARRAY-TWINS end to end: every kind batches, nothing falls back.

The sharp acceptance assertion for the non-unison twins: on the NumPy
plane, a ``run_sweep(backend="array")`` over PhaseQueen-consensus,
detector-stack, and Byzantine-forgery points executes *every* point on
the array engine (``executed_array == len(points)``), records zero
fallbacks, emits no fallback ``RuntimeWarning`` — and the batched
outcomes are value-identical to the reference engine's, point by
point.  On the Python plane the dense twins are refused, so the mixed
shard falls back whole, under one warning, to the same outcomes.
"""

import warnings

import pytest

import repro.cache
from repro.array import pick_backend
from repro.experiments import array_twins
from repro.experiments.base import run_sweep, shutdown_pool


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path):
    repro.cache.configure(root=tmp_path / "cache", enabled=True)
    yield
    shutdown_pool()
    repro.cache.configure()


def test_every_kind_executes_on_the_array_backend():
    tasks = array_twins.tasks_for(range(2))
    store = repro.cache.get_cache()

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        batched = run_sweep(
            array_twins._measure, tasks, jobs=1, cache="ARRAY-TWINS", backend="array"
        )
    fallbacks = [w for w in caught if issubclass(w.category, RuntimeWarning)]

    if pick_backend() == "numpy":
        assert fallbacks == []
        assert store.stats.executed_array == len(tasks)
        assert store.stats.executed_sync == 0
        assert store.stats.executed_fallback == 0
    else:  # the dense twins refuse the Python plane: the shard falls back whole
        assert len(fallbacks) == 1 and "reference engine" in str(fallbacks[0].message)
        assert store.stats.executed_array == 0
        assert store.stats.executed_fallback == len(tasks)
    store.flush()
    assert "ARRAY-TWINS@array" in store.summary()["namespaces"]

    reference = [array_twins._measure(task) for task in tasks]
    assert batched == reference


def test_experiment_verdicts_hold_in_fast_mode():
    result = array_twins.run(fast=True)
    assert result.failures == []


def test_forgery_points_disagree_and_detector_converges():
    (pq_distinct, pq_decided) = array_twins._measure(("phase-queen", 5, 1))
    assert pq_distinct == 1 and pq_decided == 4
    suspected_by, live = array_twins._measure(("detector", 6, 0))
    assert suspected_by == live == 5
    last, rounds = array_twins._measure(("forged-unison", 8, 0))
    assert 0 < last <= rounds
