"""Catalog-wide checks: what a surface advertises, its worker accepts."""

from __future__ import annotations

import pytest

from repro.serve.catalog import default_catalog

CATALOG = default_catalog()


@pytest.mark.parametrize("experiment", CATALOG.ids())
def test_default_points_build_tasks_the_worker_accepts(experiment):
    """Every listed surface's default points survive the served path:
    JSON point -> ``coerce_point`` -> ``build_task`` -> the surface's own
    worker (a point shape that already carries the seed would hand the
    worker one component too many)."""
    surface = CATALOG.get(experiment)
    assert surface.default_points
    for point in surface.default_points:
        coerced = surface.coerce_point(list(point))
        assert coerced == point
        task = surface.build_task(coerced, 0)
        assert len(task) == len(surface.point_fields) + 1
        surface.worker(task)  # must not raise
