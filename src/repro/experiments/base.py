"""Experiment plumbing: results, expectations, sweeps, and the registry.

Every experiment module exposes ``run(fast: bool = False, jobs:
Optional[int] = None) -> ExperimentResult``: it executes the sweep,
builds the claim-vs-measured table, and *checks the paper's claim
itself* via :class:`Expectations` — so the pass/fail knowledge lives
with the experiment, and every front-end (the pytest-benchmark harness,
the ``python -m repro.experiments`` CLI, a notebook) gets the same
verdicts.

``fast=True`` shrinks seed counts and run lengths for smoke runs; the
recorded EXPERIMENTS.md numbers come from the full (default) settings.

Sweeps run through :func:`run_sweep`, the kernel-era replacement for
the hand-rolled ``for seed in seeds`` loops: one executor that is
deterministic (results in input order, seeds namespaced per point via
:func:`repro.util.rng.sweep_seed` inside the workers), per-point
isolated (with ``jobs > 1`` each point runs in its own forked worker
process), parallel on demand (``--jobs N`` on the CLI, or the
``REPRO_JOBS`` environment knob), and memoized on request (``cache=``
names a :mod:`repro.cache` namespace; known points are answered from
the content-addressed run cache and only the misses execute).
"""

from __future__ import annotations

import atexit
import importlib
import os
import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, TypeVar, Union

import repro.cache as run_cache_module
from repro.analysis.report import ExperimentReport
from repro.cache.digest import CanonicalizationError

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

__all__ = [
    "ExperimentResult",
    "Expectations",
    "Registry",
    "SWEEP_BACKENDS",
    "default_jobs",
    "run_sweep",
    "shutdown_pool",
]

#: Execution backends ``run_sweep`` can route a sweep to.
SWEEP_BACKENDS = ("sync", "array")

Point = TypeVar("Point")
Outcome = TypeVar("Outcome")


def default_jobs() -> int:
    """Sweep parallelism when the caller passes ``jobs=None``.

    Reads the ``REPRO_JOBS`` environment variable (default 1 —
    sequential, zero-surprise).  Invalid or non-positive values fall
    back to 1.
    """
    raw = os.environ.get("REPRO_JOBS", "")
    try:
        jobs = int(raw)
    except ValueError:
        return 1
    return jobs if jobs >= 1 else 1


#: The persistent sweep pool: forked once, reused by every subsequent
#: ``run_sweep`` call with the same worker count.  Experiments run many
#: small sweeps back to back (one per figure row, one per exploration
#: batch); paying the fork + executor startup per *campaign* instead of
#: per *sweep* is where the pool's time goes.
_POOL: Optional[ProcessPoolExecutor] = None
_POOL_WORKERS = 0


def _get_pool(workers: int) -> ProcessPoolExecutor:
    global _POOL, _POOL_WORKERS
    if _POOL is not None and _POOL_WORKERS != workers:
        shutdown_pool()
    if _POOL is None:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        context = multiprocessing.get_context("fork")
        _POOL = ProcessPoolExecutor(max_workers=workers, mp_context=context)
        _POOL_WORKERS = workers
    return _POOL


def shutdown_pool() -> None:
    """Tear down the persistent sweep pool (tests, benchmarks, atexit).

    Safe to call when no pool exists; the next parallel ``run_sweep``
    simply forks a fresh one.  Also flushes the run cache's buffered
    writes: outcomes are cached parent-side as chunks complete, and a
    torn-down pool must not strand them in memory.
    """
    global _POOL, _POOL_WORKERS
    if _POOL is not None:
        _POOL.shutdown(wait=True)
        _POOL = None
        _POOL_WORKERS = 0
    run_cache_module.flush()


atexit.register(shutdown_pool)


def _run_chunk(worker: Callable[[Point], Outcome], chunk: List[Point]) -> List[Outcome]:
    """Module-level (hence picklable) chunk executor for the fork pool."""
    return [worker(point) for point in chunk]


#: Placeholder for a not-yet-computed outcome slot (never a real outcome).
_PENDING = object()


def _work_chunks(
    indices: List[int], weights: Sequence[float], target_chunks: int
) -> List[List[int]]:
    """Contiguous partition of ``indices`` balanced by estimated work.

    The old fixed ``len // (jobs * 4)`` chunk size serialized one huge
    point behind a chunk of tiny ones; here a chunk closes once it
    carries ``total / target_chunks`` worth of work, and closes *early*
    when the next point alone would overshoot — so an n=10^5 point gets
    its own chunk instead of queueing behind n=10 neighbors.
    """
    if not indices:
        return []
    total = sum(weights)
    target = total / max(1, min(target_chunks, len(indices)))
    chunks: List[List[int]] = []
    current: List[int] = []
    acc = 0.0
    for index, weight in zip(indices, weights):
        if current and acc + weight > target:
            chunks.append(current)
            current = []
            acc = 0.0
        current.append(index)
        acc += weight
        if acc >= target:
            chunks.append(current)
            current = []
            acc = 0.0
    if current:
        chunks.append(current)
    return chunks


def run_sweep(
    worker: Callable[[Point], Outcome],
    points: Sequence[Point],
    jobs: Optional[int] = None,
    cache: Optional[str] = None,
    on_outcome: Optional[Callable[[int, Point, Outcome], None]] = None,
    backend: Optional[str] = None,
) -> List[Outcome]:
    """Run ``worker`` over every sweep point, optionally in parallel.

    Results come back in input order regardless of completion order, so
    verdicts never depend on scheduling.  With ``jobs <= 1`` the sweep
    runs sequentially in-process (no pickling constraints); with
    ``jobs > 1`` the points are fanned out over a ``fork``-based
    :class:`~concurrent.futures.ProcessPoolExecutor`, which requires
    ``worker`` to be a module-level function and ``points``/outcomes to
    be picklable — experiment workers therefore return small summary
    tuples/dicts, not engine objects.  Each point then executes in its
    own process: a crash or runaway allocation at one point cannot
    corrupt another (per-seed isolation).

    Determinism does not rely on ``jobs``: workers derive all
    randomness from their point via
    :func:`repro.util.rng.sweep_seed`-namespaced seeds, so
    ``run_sweep(w, ps, jobs=4) == run_sweep(w, ps, jobs=1)``.

    ``cache`` opts the sweep into the content-addressed run cache
    (:mod:`repro.cache`) under the given namespace — normally the
    experiment id.  Points whose outcome is already cached are answered
    without executing; only the misses are dispatched, and their
    outcomes are written back *by the parent* (workers never touch the
    cache).  This requires what the pool already requires: ``worker``
    must be a pure, module-level function of its point.  Points without
    a canonical encoding silently bypass the cache.

    ``on_outcome(index, point, outcome)`` is invoked in input order as
    results become available — cache hits immediately, dispatched
    chunks as each completes — so progress observers don't wait for the
    whole sweep.

    The worker pool is *persistent*: the first parallel sweep forks it,
    and later sweeps with the same ``jobs`` reuse it instead of paying
    executor startup per call (see :func:`shutdown_pool`).  Dispatch is
    chunked (one ``submit`` per chunk, results gathered in submission
    order) so a large sweep costs O(chunks) round trips while early
    chunks surface as soon as they finish.  Chunks are sized by
    *estimated work*, not point count: when the worker exposes
    ``estimate_cost(point) -> float`` (typically n × rounds), heavy
    points are isolated instead of serializing a chunk of cheap ones.

    ``backend="array"`` routes cache misses through the worker's
    batched twin — ``worker.array_batch(points) -> [outcome, ...]``,
    executing all points in one vectorized pass via
    :func:`repro.array.run_array` — and falls back **loudly**
    (``RuntimeWarning``) to the per-point reference path for workers
    without a batched twin, points the optional
    ``worker.array_eligible(point)`` predicate rejects, or batches the
    array engine refuses (``ArrayEligibilityError``).  Cached outcomes
    never cross backends: an array-backed sweep reads and writes the
    ``{cache}@array`` namespace, so its fingerprints are disjoint from
    the reference engine's.
    """
    if jobs is None:
        jobs = default_jobs()
    if backend is not None and backend not in SWEEP_BACKENDS:
        raise ValueError(
            f"unknown sweep backend {backend!r}; expected one of {SWEEP_BACKENDS}"
        )
    use_array = backend == "array"
    if use_array and cache:
        cache = f"{cache}@array"

    store = run_cache_module.active_cache() if cache else None
    keys: Optional[List[str]] = None
    if store is not None:
        try:
            keys = [store.key(cache, worker, point) for point in points]
        except CanonicalizationError:
            store = None  # uncacheable points: plain execution

    results: List[Outcome] = [_PENDING] * len(points)  # type: ignore[list-item]
    if store is not None and keys is not None:
        miss_indices = []
        for index, key in enumerate(keys):
            hit, value = store.get(key, cache)
            if hit:
                results[index] = value
            else:
                miss_indices.append(index)
    else:
        miss_indices = list(range(len(points)))

    emitted = 0

    def _emit_ready() -> None:
        nonlocal emitted
        while emitted < len(results) and results[emitted] is not _PENDING:
            if on_outcome is not None:
                on_outcome(emitted, points[emitted], results[emitted])
            emitted += 1

    def _record(index: int, outcome: Outcome) -> None:
        results[index] = outcome
        if store is not None and keys is not None:
            store.put(
                keys[index],
                outcome,
                namespace=cache,
                worker=worker,
                point=points[index],
            )

    _emit_ready()

    if use_array and miss_indices:
        miss_indices = _run_array_batch(
            worker, points, miss_indices, store, _record, jobs
        )
        _emit_ready()

    if store is not None and miss_indices:
        store.note_executed("sync", len(miss_indices))
    if jobs <= 1 or len(miss_indices) <= 1:
        for index in miss_indices:
            _record(index, worker(points[index]))
            _emit_ready()
        return results

    pool = _get_pool(jobs)
    estimate = getattr(worker, "estimate_cost", None)
    if estimate is not None:
        weights = [max(float(estimate(points[i])), 1.0) for i in miss_indices]
    else:
        weights = [1.0] * len(miss_indices)
    chunks = _work_chunks(miss_indices, weights, jobs * 4)
    futures = [
        pool.submit(_run_chunk, worker, [points[i] for i in chunk])
        for chunk in chunks
    ]
    for chunk, future in zip(chunks, futures):
        for index, outcome in zip(chunk, future.result()):
            _record(index, outcome)
        _emit_ready()
    return results


def _run_array_chunk(worker, chunk_points):
    """One shard's batched execution (module-level, hence picklable).

    Refusals come back as values, not raised exceptions, so a shard
    refused by the array engine falls back without poisoning its
    siblings in the pool.
    """
    from repro.array.protocols import ArrayEligibilityError

    try:
        return ("ok", worker.array_batch(chunk_points))
    except ArrayEligibilityError as exc:
        return ("refused", str(exc))


def _run_array_batch(
    worker: Callable[[Point], Outcome],
    points: Sequence[Point],
    miss_indices: List[int],
    store,
    record: Callable[[int, Outcome], None],
    jobs: int,
) -> List[int]:
    """Route eligible cache misses through ``worker.array_batch``.

    With ``jobs > 1`` the eligible batch is sharded into contiguous,
    work-balanced lane chunks (the same :func:`_work_chunks` sizing the
    reference path uses) and fanned out over the persistent fork pool —
    each worker process runs one multi-lane ``run_array`` — with
    outcomes merged back by point index, so the result is independent
    of shard count and completion order.

    Returns the indices still pending for the reference path:
    ineligible points, plus every shard the array engine refused.  All
    fallbacks aggregate into **one** ``RuntimeWarning`` per sweep that
    lists each reason — loud, but not once per miss chunk — and are
    tallied on the cache's ``executed_fallback`` counter.
    """
    reasons: List[str] = []
    pending: List[int] = []

    def _finish() -> List[int]:
        pending.sort()
        if reasons:
            warnings.warn(
                "run_sweep(backend='array'): "
                + "; ".join(reasons)
                + f"; {len(pending)} points fall back to the reference engine",
                RuntimeWarning,
                stacklevel=4,
            )
        if store is not None and pending:
            store.note_fallback(len(pending))
        return pending

    array_batch = getattr(worker, "array_batch", None)
    if array_batch is None:
        reasons.append(f"worker {worker!r} has no array_batch twin")
        pending.extend(miss_indices)
        return _finish()
    eligible_check = getattr(worker, "array_eligible", None)
    if eligible_check is None:
        batch = list(miss_indices)
    else:
        batch = [i for i in miss_indices if eligible_check(points[i])]
        if len(batch) < len(miss_indices):
            reasons.append(
                f"{len(miss_indices) - len(batch)} of {len(miss_indices)} "
                "points are not array-eligible"
            )
            chosen = set(batch)
            pending.extend(i for i in miss_indices if i not in chosen)
    if not batch:
        return _finish()

    if jobs > 1 and len(batch) > 1:
        estimate = getattr(worker, "estimate_cost", None)
        if estimate is not None:
            weights = [max(float(estimate(points[i])), 1.0) for i in batch]
        else:
            weights = [1.0] * len(batch)
        shards = _work_chunks(batch, weights, jobs)
    else:
        shards = [batch]

    if len(shards) == 1:
        payloads = [_run_array_chunk(worker, [points[i] for i in shards[0]])]
    else:
        pool = _get_pool(jobs)
        futures = [
            pool.submit(_run_array_chunk, worker, [points[i] for i in shard])
            for shard in shards
        ]
        payloads = [future.result() for future in futures]

    executed = 0
    for shard, (status, result) in zip(shards, payloads):
        if status == "refused":
            reason = f"batched path refused ({result})"
            if reason not in reasons:
                reasons.append(reason)
            pending.extend(shard)
            continue
        if len(result) != len(shard):
            raise RuntimeError(
                f"array_batch returned {len(result)} outcomes for "
                f"{len(shard)} points"
            )
        executed += len(shard)
        for index, outcome in zip(shard, result):
            record(index, outcome)
    if store is not None and executed:
        store.note_executed("array", executed)
    return _finish()


@dataclass
class ExperimentResult:
    """One experiment's table plus the verdicts on the paper's claims."""

    report: ExperimentReport
    failures: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def render(self) -> str:
        lines = [self.report.render()]
        if self.passed:
            lines.append("verdict: PASS")
        else:
            lines.append("verdict: FAIL")
            lines.extend(f"  - {failure}" for failure in self.failures)
        return "\n".join(lines)


class Expectations:
    """Collects claim checks so one failure doesn't hide the rest."""

    def __init__(self) -> None:
        self.failures: List[str] = []

    def check(self, condition: bool, message: str) -> bool:
        if not condition:
            self.failures.append(message)
        return condition


#: An experiment entry point.
Runner = Callable[..., ExperimentResult]


class Registry:
    """Name → runner mapping with stable iteration order.

    A runner may be given as the name of a module whose ``run`` it is;
    that module is imported on the first :meth:`get`, so listing the
    registry imports no experiment.
    """

    def __init__(self) -> None:
        self._runners: Dict[str, Union[Runner, str]] = {}

    def add(self, experiment_id: str, runner: Union[Runner, str]) -> None:
        if experiment_id in self._runners:
            raise ValueError(f"duplicate experiment id {experiment_id!r}")
        self._runners[experiment_id] = runner

    def ids(self) -> List[str]:
        return list(self._runners)

    def get(self, experiment_id: str) -> Runner:
        try:
            runner = self._runners[experiment_id]
        except KeyError:
            raise KeyError(
                f"unknown experiment {experiment_id!r}; "
                f"known: {', '.join(self._runners)}"
            ) from None
        if isinstance(runner, str):
            runner = self._runners[experiment_id] = importlib.import_module(runner).run
        return runner

    def run(
        self,
        experiment_id: str,
        fast: bool = False,
        jobs: Optional[int] = None,
    ) -> ExperimentResult:
        return self.get(experiment_id)(fast=fast, jobs=jobs)


#: Every experiment of DESIGN.md's index, by the module that runs it.
REGISTRY = Registry()
for _id, _module in [
    ("FIG1", "fig1"),
    ("FIG2", "fig2"),
    ("FIG3", "fig3"),
    ("FIG4", "fig4"),
    ("THM1", "thm1"),
    ("THM2", "thm2"),
    ("THM3", "thm3"),
    ("THM4", "thm4"),
    ("THM5", "thm5"),
    ("ASYNC-CONS", "async_cons"),
    ("ABL-SUSPECT", "abl_suspect"),
    ("ABL-RETX", "abl_retx"),
    ("ABL-MERGE", "abl_merge"),
    ("EXT-BOUNDED", "ext_bounded"),
    ("EXT-BYZ", "ext_byz"),
    ("EXT-EARLY", "ext_early"),
    ("EXT-HEARTBEAT", "ext_heartbeat"),
    ("EXT-SKEW", "ext_skew"),
    ("EXT-RSM", "ext_rsm"),
    ("EXPLORE", "explore_ev"),
    ("VERIFY", "verify_ev"),
    ("NET-LIVE", "net_live"),
    ("UNISON", "unison"),
    ("UNISON-CHURN", "unison_churn"),
    ("ARRAY-SCALE", "array_scale"),
    ("ARRAY-TWINS", "array_twins"),
]:
    REGISTRY.add(_id, f"repro.experiments.{_module}")
