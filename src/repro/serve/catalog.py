"""The catalog of servable work: sweep surfaces and the explore job.

A :class:`SweepSurface` publishes one experiment's sweep worker over
the network: the *same* module-level pure function and the *same* cache
namespace the experiment's own :func:`repro.experiments.base.run_sweep`
call uses, so the service's content-addressed store and every local
run share entries bidirectionally — a sweep the CI ran locally is a
cache hit for the service, and vice versa (the read-through remote
tier, :mod:`repro.cache.remote`, leans on exactly this key equality).

Clients name a surface by experiment id and send JSON ``points``; the
surface validates each point's shape, coerces it to the tuple form the
worker pattern-matches on, and combines it with a seed into the task
tuple the experiment would have built itself.

``EXPLORE`` jobs are a one-task surface over
:func:`repro.explore.engine.explore`: the whole exploration is one
deterministic function of ``(target, budget, seed, mode)`` and runs
inside a single fleet worker with ``jobs=1`` (the serving event loop
must never grow a fork pool — see :mod:`repro.serve.fleet`).

The ``SERVE-DEBUG`` surface is deliberately unlisted and uncacheable:
tests and the load benchmark use it to simulate slow, crashing, or
failing workers without touching a real simulation.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from repro.cache.digest import worker_ref
from repro.experiments import array_scale, array_twins, fig1, fig2, fig3, fig4, unison
from repro.serve.protocol import ProtocolError

__all__ = ["Catalog", "SweepSurface", "default_catalog", "run_explore_job"]


@dataclass(frozen=True)
class SweepSurface:
    """One experiment's network-servable sweep.

    ``worker`` must be the module-level function the experiment itself
    sweeps with (its ``module:qualname`` doubles as the wire reference
    and the cache-key component); ``point_fields`` documents the point
    shape for ``GET /v1/experiments`` and drives validation.
    """

    experiment: str
    worker: Callable[[Any], Any]
    #: (name, type) per point component, e.g. (("n", int), ("f", int)).
    point_fields: Tuple[Tuple[str, type], ...]
    default_points: Tuple[Tuple[Any, ...], ...]
    #: Cache namespace (== the experiment's own run_sweep(cache=...)).
    namespace: str = ""
    cacheable: bool = True
    listed: bool = True

    def __post_init__(self):
        if not self.namespace:
            object.__setattr__(self, "namespace", self.experiment)

    @property
    def worker_ref(self) -> str:
        return worker_ref(self.worker)

    def coerce_point(self, raw: Any) -> Tuple[Any, ...]:
        """Validate one JSON point and coerce it to the worker's tuple."""
        if not isinstance(raw, list):
            raw = [raw]
        if len(raw) != len(self.point_fields):
            raise ProtocolError(
                "bad-points",
                f"{self.experiment} points have {len(self.point_fields)} "
                f"component(s) ({', '.join(n for n, _ in self.point_fields)}); "
                f"got {raw!r}",
            )
        coerced = []
        for value, (name, kind) in zip(raw, self.point_fields):
            if kind is int and (isinstance(value, bool) or not isinstance(value, int)):
                raise ProtocolError(
                    "bad-points", f"{self.experiment} point field {name!r} must be an int"
                )
            if kind is bool and not isinstance(value, bool):
                raise ProtocolError(
                    "bad-points", f"{self.experiment} point field {name!r} must be a bool"
                )
            if kind is str and not isinstance(value, str):
                raise ProtocolError(
                    "bad-points", f"{self.experiment} point field {name!r} must be a string"
                )
            coerced.append(value)
        return tuple(coerced)

    def build_task(self, point: Tuple[Any, ...], seed: int) -> Tuple[Any, ...]:
        """The worker's task tuple for one (point, seed)."""
        return (*point, seed)

    def describe(self) -> Dict[str, Any]:
        return {
            "experiment": self.experiment,
            "worker": self.worker_ref,
            "point_fields": [
                {"name": name, "type": kind.__name__} for name, kind in self.point_fields
            ],
            "default_points": [list(point) for point in self.default_points],
            "cacheable": self.cacheable,
        }


class Catalog:
    """Experiment id → :class:`SweepSurface`, with stable iteration."""

    def __init__(self) -> None:
        self._surfaces: Dict[str, SweepSurface] = {}

    def add(self, surface: SweepSurface) -> None:
        if surface.experiment in self._surfaces:
            raise ValueError(f"duplicate sweep surface {surface.experiment!r}")
        self._surfaces[surface.experiment] = surface

    def ids(self, listed_only: bool = True) -> Tuple[str, ...]:
        return tuple(
            name
            for name, surface in self._surfaces.items()
            if surface.listed or not listed_only
        )

    def get(self, experiment: str) -> SweepSurface:
        try:
            return self._surfaces[experiment]
        except KeyError:
            raise ProtocolError(
                "unknown-experiment",
                f"no servable sweep surface {experiment!r}; "
                f"known: {', '.join(self.ids())}",
                status=404,
            ) from None

    def describe(self) -> Dict[str, Any]:
        return {"experiments": [self._surfaces[name].describe() for name in self.ids()]}


# ---------------------------------------------------------------------------
# Workers that exist only for serving
# ---------------------------------------------------------------------------


def run_explore_job(task: Tuple[str, int, int, str]) -> Dict[str, Any]:
    """One whole exploration as a pure, cacheable job.

    Runs :func:`repro.explore.engine.explore` with ``jobs=1`` (never a
    fork pool inside a serving worker) and summarizes the result as a
    JSON-shaped dict: spec payloads travel via ``to_jsonable`` so the
    summary is wire- and cache-friendly.
    """
    from repro.explore.engine import explore

    target, budget, seed, mode = task
    result = explore(target, budget=budget, seed=seed, jobs=1, mode=mode)
    return {
        "target": result.target,
        "mode": result.mode,
        "exhaustive": result.exhaustive,
        "generated": result.generated,
        "deduped_away": result.deduped_away,
        "examined": result.examined,
        "flagged": len(result.flagged),
        "mismatches": len(result.mismatches),
        "findings": [
            {
                "original": finding.original.to_jsonable(),
                "minimal": finding.minimal.to_jsonable(),
                "holds": finding.verdict.holds,
                "violations": list(finding.verdict.violations[:3]),
                "shrink_oracle_calls": finding.shrink_oracle_calls,
            }
            for finding in result.findings
        ],
    }


def debug_worker(task: Tuple[Any, ...]) -> Any:
    """The ``SERVE-DEBUG`` surface: scripted latency and failure.

    ``(op, value, seed)`` tasks:

    - ``("echo", v, s)``    — return ``("echo", v, s)`` immediately;
    - ``("sleep", ms, s)``  — sleep ``ms`` milliseconds, return ``ms``;
    - ``("fail", v, s)``    — raise (a deterministic worker *error*,
      never retried);
    - ``("exit", code, s)`` — kill the worker process (crash path,
      retried once on a respawned worker);
    - ``("exit-once", path, s)`` — crash unless ``path`` exists,
      creating it first — so the single retry succeeds.
    """
    op, value, seed = task
    if op == "echo":
        return ("echo", value, seed)
    if op == "sleep":
        time.sleep(value / 1000.0)
        return value
    if op == "fail":
        raise RuntimeError(f"debug worker asked to fail: {value!r}")
    if op == "exit":
        os._exit(int(value))
    if op == "exit-once":
        if not os.path.exists(value):
            with open(value, "w", encoding="utf-8") as marker:
                marker.write("crashed-once\n")
            os._exit(1)
        return ("recovered", seed)
    raise RuntimeError(f"unknown debug op {op!r}")


def default_catalog() -> Catalog:
    """The surfaces every server exposes."""
    catalog = Catalog()
    catalog.add(
        SweepSurface(
            experiment="FIG1",
            worker=fig1._measure,
            point_fields=(("n", int), ("f", int)),
            default_points=tuple(fig1.POINTS),
        )
    )
    catalog.add(
        SweepSurface(
            experiment="FIG2",
            worker=fig2._measure,
            point_fields=(("case_index", int),),
            default_points=((0,), (1,)),
        )
    )
    catalog.add(
        SweepSurface(
            experiment="FIG3",
            worker=fig3._measure,
            point_fields=(("case_index", int),),
            default_points=((0,), (1,)),
        )
    )
    catalog.add(
        SweepSurface(
            experiment="FIG4",
            worker=fig4._measure,
            point_fields=(("n", int), ("corrupt", bool)),
            default_points=((4, False), (4, True)),
        )
    )
    catalog.add(
        SweepSurface(
            experiment="UNISON",
            worker=unison._measure,
            point_fields=(("family", str), ("n", int)),
            default_points=(("complete", 8), ("ring", 8), ("tree", 8)),
        )
    )
    catalog.add(
        SweepSurface(
            # The one surface whose worker ships a batched twin
            # (array_batch); requests with backend="array" route whole
            # shards through repro.array here.
            experiment="ARRAY-SCALE",
            worker=array_scale._measure,
            point_fields=(("family", str), ("n", int)),
            default_points=(("ring", 400), ("grid", 400)),
        )
    )
    catalog.add(
        SweepSurface(
            # The non-unison batched twins (PhaseQueen consensus, the
            # ◇S detector stack, forged unison on the dense forgery
            # path); backend="array" requests batch every kind on NumPy.
            experiment="ARRAY-TWINS",
            worker=array_twins._measure,
            point_fields=(("kind", str), ("n", int)),
            default_points=(("phase-queen", 5), ("detector", 6), ("forged-unison", 8)),
        )
    )
    catalog.add(
        SweepSurface(
            experiment="SERVE-DEBUG",
            worker=debug_worker,
            point_fields=(("op", str), ("value", object)),
            default_points=(("echo", 0),),
            cacheable=False,
            listed=False,
        )
    )
    return catalog


#: Namespace for served explorations (the cached_call twin on the
#: client side would use the same string, keeping entries shareable).
EXPLORE_NAMESPACE = "SERVE-EXPLORE"

#: Optional per-request summary key for explore jobs.
EXPLORE_WORKER_REF = worker_ref(run_explore_job)
