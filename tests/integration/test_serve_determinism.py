"""Determinism audit: HTTP-served sweeps are byte-identical to local ones.

The acceptance matrix of the serving layer: for every combination of
server parallelism (1 and 4 workers), cache state (off, cold, warm),
and fleet fabric (in-process threads, spawned TCP workers), a served
sweep must pickle to exactly the bytes a direct
:func:`repro.experiments.base.run_sweep` produces — and the warm pass
must execute zero simulations.

The local references are computed (at jobs 1 *and* 4, which must agree
with each other first) before any server starts, so the fork pool is
torn down before the first event loop exists.
"""

from __future__ import annotations

import pickle

import pytest

import repro.cache
from repro.experiments import fig4, unison
from repro.experiments.base import run_sweep, shutdown_pool
from repro.serve.client import ServeClient
from repro.serve.runner import ServerThread

SWEEPS = {
    "FIG4": {
        "worker": fig4._measure,
        "points": ((4, False), (4, True)),
        "seeds": (0, 1),
    },
    "UNISON": {
        "worker": unison._measure,
        "points": (("complete", 6), ("ring", 6)),
        "seeds": (0,),
    },
}


def _tasks(spec):
    return [(*point, seed) for point in spec["points"] for seed in spec["seeds"]]


@pytest.fixture(scope="module")
def local_reference():
    """Pickled local outcomes, agreed between jobs=1 and jobs=4."""
    reference = {}
    for experiment, spec in SWEEPS.items():
        sequential = run_sweep(spec["worker"], _tasks(spec), jobs=1)
        parallel = run_sweep(spec["worker"], _tasks(spec), jobs=4)
        sequential_bytes = pickle.dumps(list(sequential), 4)
        assert pickle.dumps(list(parallel), 4) == sequential_bytes
        reference[experiment] = sequential_bytes
    shutdown_pool()  # no fork pool may survive into the serving loops
    return reference


@pytest.mark.parametrize("fleet", ["inproc", "tcp"])
@pytest.mark.parametrize("workers", [1, 4])
def test_served_sweeps_byte_identical_across_matrix(
    local_reference, fleet, workers, tmp_path
):
    repro.cache.configure(root=tmp_path / "serve-cache")
    try:
        with ServerThread(fleet_kind=fleet, workers=workers) as server:
            client = ServeClient(server.url)
            for experiment, spec in SWEEPS.items():
                expected = local_reference[experiment]
                total = len(_tasks(spec))

                off = client.sweep(
                    experiment,
                    points=spec["points"],
                    seeds=list(spec["seeds"]),
                    no_cache=True,
                )
                assert off.ok and pickle.dumps(off.outcomes, 4) == expected
                assert off.end["executed"] == total

                cold = client.sweep(
                    experiment, points=spec["points"], seeds=list(spec["seeds"])
                )
                assert cold.ok and pickle.dumps(cold.outcomes, 4) == expected
                assert cold.end["executed"] == total
                assert cold.end["cache_hits"] == 0

                warm = client.sweep(
                    experiment, points=spec["points"], seeds=list(spec["seeds"])
                )
                assert warm.ok and pickle.dumps(warm.outcomes, 4) == expected
                assert warm.end["executed"] == 0
                assert warm.end["cache_hits"] == total
    finally:
        repro.cache.configure()


@pytest.mark.parametrize("fleet", ["inproc", "tcp"])
@pytest.mark.parametrize("workers", [1, 4])
def test_one_pooled_client_across_every_cache_state(
    local_reference, fleet, workers, tmp_path
):
    """Keep-alive changes no byte: every cache state rides one connection."""
    repro.cache.configure(root=tmp_path / "serve-cache")
    try:
        with ServerThread(fleet_kind=fleet, workers=workers) as server, ServeClient(
            server.url
        ) as client:
            sweeps = 0
            for no_cache in (True, False, False):  # off, cold, warm
                for experiment, spec in SWEEPS.items():
                    summary = client.sweep(
                        experiment,
                        points=spec["points"],
                        seeds=list(spec["seeds"]),
                        no_cache=no_cache,
                    )
                    sweeps += 1
                    assert summary.ok
                    assert pickle.dumps(summary.outcomes, 4) == local_reference[experiment]
            assert summary.end["executed"] == 0  # the last pass was warm
            assert client.stats()["connections"] == {"accepted": 1, "requests": sweeps + 1}
    finally:
        repro.cache.configure()
