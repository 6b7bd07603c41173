"""The six workloads: set-up, one timed pass, and its correctness check.

Every workload does *identical* work on every pass; only ``--seed``
changes the inputs (seed offsets into catalog tasks, corruption seeds,
verify-space seeds).  A pass times calls into the program's public
functions from outside and checks every outcome afterwards, outside
the timed region.

The end-to-end runs touch ``default_catalog``, ``run_sweep``,
``run_array``, ``verify``, ``ServeClient``, the ``repro.serve`` CLI and
``repro.cache.configure`` only; the traced runs of the serving
workloads additionally host the server in-process (``ServerThread``)
so that the span wrappers can see it.

``repro`` is imported in :meth:`Workload.load`, never at module import,
so that the parent process and the tests stay light.
"""

from __future__ import annotations

import gc
import hashlib
import os
import pickle
import resource
import select
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import harness
from harness import expect

#: ``--seed`` values map to disjoint blocks of task seeds.
SEED_BLOCK = 100_000

#: Sizes of one pass, frozen so that numbers stay comparable across
#: commits; the ``smoke`` column only proves the plumbing.
SIZES: Dict[str, Dict[str, Dict[str, Any]]] = {
    "sync_sweep": {"full": {"seeds": 12}, "smoke": {"seeds": 2}},
    "async_sweep": {"full": {"seeds": 30}, "smoke": {"seeds": 3}},
    "array_scale": {
        "full": {
            "grid_side": 100, "grid_lanes": 2, "grid_calls": 2,
            "ring_n": 100_000, "ring_lanes": 2, "ring_rounds": 24, "ring_calls": 1,
        },
        "smoke": {
            "grid_side": 20, "grid_lanes": 2, "grid_calls": 1,
            "ring_n": 2_000, "ring_lanes": 2, "ring_rounds": 12, "ring_calls": 1,
        },
    },
    "verify_space": {
        "full": {"targets": ("fig1", "fig3", "unison", "thm1", "thm2")},
        "smoke": {"targets": ("fig3", "unison", "thm1", "thm2")},
    },
    "serve_cold": {"full": {"requests_per_client": 12}, "smoke": {"requests_per_client": 2}},
    "serve_warm": {
        "full": {"requests_per_client": 12, "replays": 25},
        "smoke": {"requests_per_client": 2, "replays": 5},
    },
}

#: Closed-loop client threads of the serving workloads; never more than
#: the box has cores.
CLIENTS = 2
SEEDS_PER_REQUEST = 1
RING_CHUNK = 1 << 14


@dataclass
class Pass:
    """What one timed pass measured and whether its outputs were right."""

    wall_s: float
    cpu_s: float
    ops: int
    failed: int
    latencies_ms: List[float]
    digest: str
    #: ``perf_counter`` bounds of the timed region(s), for span attribution.
    windows: List[Tuple[float, float]]
    #: Facts a layer metric is computed from (counts, per-case seconds).
    extras: Dict[str, Any] = field(default_factory=dict)
    #: Request ids in the order each closed loop sent them; ``latencies_ms``
    #: lists the loops one after another.  ``None``: one loop, ids 0..n-1.
    schedule: Optional[List[List[int]]] = None

    def loops(self) -> List[List[int]]:
        return self.schedule or [list(range(len(self.latencies_ms)))]


def digest_of(value: Any) -> str:
    return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()


class Workload:
    """One workload; subclasses fill in load/setup/run_pass/teardown."""

    name = ""
    #: What one op is, for the report.
    op = ""

    def __init__(self, seed: int, smoke: bool, workdir: Path, tracer: Any) -> None:
        self.seed = seed
        self.base_seed = seed * SEED_BLOCK
        self.size = SIZES[self.name]["smoke" if smoke else "full"]
        self.workdir = workdir
        self.tracer = tracer

    def load(self) -> None:
        """Import the program and switch the run cache off."""
        import repro.cache

        repro.cache.configure(enabled=False)
        harness.assert_cache_isolated(self.workdir)

    def setup(self) -> None:
        raise NotImplementedError

    def reset(self) -> None:
        """Put the process back where a pass may start (untimed).

        Passes must do identical work from an identical state.  The
        kernel's snapshot layer pins every value it proves immutable
        until a 65,536-entry generation turns over, so a long-lived
        process slows down pass after pass and then recovers; without
        this reset the median would depend on how many passes fit.
        """
        from repro.kernel import snapshot

        snapshot.clear_caches()
        gc.collect()

    def run_pass(self, inproc: bool = False) -> Pass:
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# sync_sweep / async_sweep
# ---------------------------------------------------------------------------

#: Does one outcome of a catalog surface satisfy the paper's claim?
OUTCOME_HOLDS: Dict[str, Callable[[Any], bool]] = {
    # (ftss@1 holds, measured stabilization) — Theorem 3's bound is 1.
    "FIG1": lambda o: o[0] is True and (o[1] is None or o[1] <= 1),
    # (ftss holds, iterations decided) — the experiment's own floor is 8.
    "FIG3": lambda o: o[0] is True and o[1] >= 8,
    # (stabilization, diameter) — the diameter law.
    "UNISON": lambda o: o[0] <= o[1],
    # (strong completeness, eventual weak accuracy, ...).
    "FIG4": lambda o: o[0] is True and o[1] is True,
}


class SweepWorkload(Workload):
    """``run_sweep(surface.worker, tasks, jobs=1)`` over catalog surfaces.

    A *request* is what one caller asks for in one go (one seed of a
    figure's points); its latency is the wall of its ``run_sweep`` calls.
    """

    op = "judged run"

    def load(self) -> None:
        super().load()
        import repro.experiments.base as base
        from repro.serve.catalog import default_catalog

        self._base = base
        self._catalog = default_catalog()

    def build_requests(self) -> List[List[Tuple[str, Callable, List[Tuple]]]]:
        raise NotImplementedError

    def setup(self) -> None:
        self.requests = self.build_requests()

    def _call(self, experiment: str, points: Sequence[Tuple], seed: int):
        surface = self._catalog.get(experiment)
        return (experiment, surface.worker, [surface.build_task(p, seed) for p in points])

    def run_pass(self, inproc: bool = False) -> Pass:
        tracer = self.tracer
        base = self._base  # looked up per call, so an installed wrapper is seen
        results, latencies = [], []
        cpu0, t0 = time.process_time(), time.perf_counter()
        for op_id, calls in enumerate(self.requests):
            started = time.perf_counter()
            with tracer.span("suite.request", op_id):
                outcomes = [base.run_sweep(worker, tasks, jobs=1) for _e, worker, tasks in calls]
            latencies.append((time.perf_counter() - started) * 1000.0)
            results.append(outcomes)
        t1, cpu1 = time.perf_counter(), time.process_time()
        ops = failed = 0
        for calls, outcomes in zip(self.requests, results):
            for (experiment, _worker, tasks), outs in zip(calls, outcomes):
                holds = OUTCOME_HOLDS[experiment]
                ops += len(tasks)
                failed += sum(1 for outcome in outs if not expect(holds(outcome)))
        return Pass(t1 - t0, cpu1 - cpu0, ops, failed, latencies, digest_of(results), [(t0, t1)])


class SyncSweep(SweepWorkload):
    name = "sync_sweep"

    def build_requests(self):
        requests = []
        for index in range(self.size["seeds"]):
            seed = self.base_seed + index
            requests.append(
                [
                    self._call(name, self._catalog.get(name).default_points, seed)
                    for name in ("FIG1", "FIG3", "UNISON")
                ]
            )
        return requests


class AsyncSweep(SweepWorkload):
    name = "async_sweep"

    def build_requests(self):
        # Default points only: an n=8 run costs anything from 60 to 160 ms
        # depending on its seed, which ten seconds of passes cannot average.
        points = self._catalog.get("FIG4").default_points
        return [
            [self._call("FIG4", points, self.base_seed + index)]
            for index in range(self.size["seeds"])
        ]


# ---------------------------------------------------------------------------
# array_scale
# ---------------------------------------------------------------------------


class ArrayScale(Workload):
    """``run_array(MinUnison(), ..., backend="numpy")`` on two shapes.

    ``grid1e4`` is bound by the per-round step (208 rounds of 10^4
    processes); ``ring1e5`` by the per-call fixed cost and the chunk
    loop (24 rounds of 10^5 processes).  A gain for one that costs the
    other shows.
    """

    name = "array_scale"
    op = "process-round"

    def load(self) -> None:
        super().load()
        import repro.array as array
        from repro.kernel.faults import FaultPlan
        from repro.kernel.topology import GridTopology, RingTopology
        from repro.protocols.unison import MinUnison
        from repro.sync.corruption import RandomCorruption

        if not array.has_numpy():
            raise harness.SuiteError("array_scale needs the NumPy data plane")
        self._array = array
        self._protocol = MinUnison
        self._ring = RingTopology
        self._grid = GridTopology
        self._plan = lambda seed: FaultPlan(initial_corruption=RandomCorruption(seed=seed))

    def _plans(self, first_seed: int, lanes: int) -> list:
        # Corruption plans are stateful: every call gets fresh ones.
        return [self._plan(self.base_seed + first_seed + lane) for lane in range(lanes)]

    def setup(self) -> None:
        size = self.size
        self.grid = self._grid(size["grid_side"], size["grid_side"])
        self.grid_n = size["grid_side"] ** 2
        self.grid_rounds = self.grid.diameter() + 10
        self.ring = self._ring(size["ring_n"])
        # The chunked plane must be bitwise invisible: the reference is
        # the same lanes run unchunked.
        reference = self._array.run_array(
            self._protocol(), size["ring_n"], size["ring_rounds"],
            fault_plans=self._plans(50_000, size["ring_lanes"]),
            topology=self.ring, backend="numpy",
        )
        self.ring_reference = [
            reference.final_clocks(lane) for lane in range(size["ring_lanes"])
        ]
        conformance = self._array.check_conformance(
            self._protocol(), 16, 12,
            plan_factories=[lambda: self._plan(self.base_seed + 60_000)],
            topology=self._ring(16), backend="numpy",
        )
        self.conformant = conformance.ok

    def run_pass(self, inproc: bool = False) -> Pass:
        size, tracer, array = self.size, self.tracer, self._array
        latencies: List[float] = []
        facts: List[Any] = []
        ops = failed = 0
        case_s = {"grid1e4": 0.0, "ring1e5": 0.0}
        case_ops = {"grid1e4": 0, "ring1e5": 0}
        cpu_s = 0.0
        windows: List[Tuple[float, float]] = []
        calls = [("grid1e4", call) for call in range(size["grid_calls"])]
        calls += [("ring1e5", call) for call in range(size["ring_calls"])]
        for op_id, (case, call) in enumerate(calls):
            if case == "grid1e4":
                lanes, n, rounds = size["grid_lanes"], self.grid_n, self.grid_rounds
                kwargs = dict(
                    fault_plans=self._plans(1_000 * call, lanes), topology=self.grid,
                    backend="numpy", measure_disagreement=True,
                )
            else:
                lanes, n, rounds = size["ring_lanes"], size["ring_n"], size["ring_rounds"]
                kwargs = dict(
                    fault_plans=self._plans(50_000, lanes), topology=self.ring,
                    backend="numpy", chunk=RING_CHUNK,
                )
            cpu0, started = time.process_time(), time.perf_counter()
            with tracer.span("suite.request", op_id):
                result = array.run_array(self._protocol(), n, rounds, **kwargs)
            ended = time.perf_counter()
            elapsed = ended - started
            cpu_s += time.process_time() - cpu0
            windows.append((started, ended))
            latencies.append(elapsed * 1000.0)
            work = n * rounds * lanes
            case_s[case] += elapsed
            case_ops[case] += work
            ops += work
            if case == "grid1e4":
                # Diameter law: corruption registers, and disagreement
                # ends within a diameter.
                stab = [result.last_disagreement[lane] or 0 for lane in range(lanes)]
                good = self.conformant and all(0 < s <= self.grid.diameter() for s in stab)
                facts.append(stab)
            else:
                clocks = [result.final_clocks(lane) for lane in range(lanes)]
                good = self.conformant and clocks == self.ring_reference
                facts.append([digest_of(sorted(c.items())) for c in clocks])
            if not expect(good):
                failed += work
        wall = sum(case_s.values())  # the checks between calls are not timed
        extras = {"case_s": case_s, "case_ops": case_ops}
        return Pass(wall, cpu_s, ops, failed, latencies, digest_of(facts), windows, extras)


# ---------------------------------------------------------------------------
# verify_space
# ---------------------------------------------------------------------------

VERIFY_EXPECT = {
    "fig1": "proved", "fig3": "proved", "unison": "proved",
    "thm1": "refuted", "thm2": "refuted",
}


class VerifySpace(Workload):
    """``verify(target, space=..., engine="explicit", jobs=1)``, curated spaces.

    Many tiny streaming + confirm runs, enumeration, symmetry dedup and
    frontier digesting: the short-run, no-history use of the sync engine
    that ``sync_sweep`` does not exercise.
    """

    name = "verify_space"
    op = "plan examined"

    def load(self) -> None:
        super().load()
        import repro.verify as verify

        self._verify = verify

    def setup(self) -> None:
        # The curated spaces, with --seed feeding their corruption draws.
        # Each is walked slice by slice along its corruption axes (the
        # same plans: fig1's 2040 arrive as 129 + 3 x 637), because a
        # request is taken at its floor and a two-second call never sees
        # an undisturbed box where four half-second ones do.
        self.requests = []
        for name in self.size["targets"]:
            space = replace(self._verify.VERIFY_TARGETS[name].space, seeds=(self.base_seed,))
            for corrupt in space.corruption_choices:
                for rounds in space.corruption_round_choices:
                    self.requests.append((name, replace(
                        space, corruption_choices=(corrupt,), corruption_round_choices=(rounds,)
                    )))

    def run_pass(self, inproc: bool = False) -> Pass:
        tracer, verify = self.tracer, self._verify
        latencies, results = [], []
        cpu0, t0 = time.process_time(), time.perf_counter()
        for op_id, (name, space) in enumerate(self.requests):
            started = time.perf_counter()
            with tracer.span("suite.request", op_id):
                result = verify.verify(name, space=space, engine="explicit", jobs=1)
            latencies.append((time.perf_counter() - started) * 1000.0)
            results.append(result)
        t1, cpu1 = time.perf_counter(), time.process_time()
        ops = failed = 0
        visited = hits = dropped = 0
        facts = []
        for result in results:
            ops += result.examined
            good = result.verdict == VERIFY_EXPECT[result.target] and result.mismatches == []
            if not expect(good):
                failed += result.examined
            visited += result.frontier.states_visited
            hits += result.frontier.dedup_hits
            dropped += result.symmetry_dropped
            facts.append((result.target, result.verdict, result.examined, result.frontier.digest))
        extras = {
            "examined": ops,
            "states_visited": visited,
            "dedup_hit_ratio": hits / visited if visited else 0.0,
            "symmetry_dropped": dropped,
        }
        return Pass(t1 - t0, cpu1 - cpu0, ops, failed, latencies, digest_of(facts), [(t0, t1)], extras)


# ---------------------------------------------------------------------------
# serve_cold / serve_warm
# ---------------------------------------------------------------------------

CLK_TCK = os.sysconf("SC_CLK_TCK")


class ServerProcess:
    """``python -m repro.serve serve --port 0`` with its own fresh store."""

    BOOT_TIMEOUT_S = 60.0

    def __init__(self, store: Path, workdir: Path) -> None:
        self._log = open(workdir / f"server-{store.name}.err", "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "serve", "--port", "0"],
            env=harness.scrubbed_env(workdir, {"REPRO_CACHE_DIR": str(store)}),
            cwd=workdir,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=self._log,
            bufsize=0,  # select() below must see every byte the pipe holds
        )
        try:
            self.url = self._await_url()
        except BaseException:
            self.stop()
            raise

    def _await_url(self) -> str:
        deadline = time.monotonic() + self.BOOT_TIMEOUT_S
        while True:
            remaining = deadline - time.monotonic()
            ready, _, _ = select.select([self.proc.stdout], [], [], max(0.0, remaining))
            line = self.proc.stdout.readline() if ready else b""
            if line.startswith(b"listening on "):
                return line.split()[2].decode("ascii")
            if not line:
                raise harness.SuiteError(
                    f"server did not come up (exit code {self.proc.poll()}); see {self._log.name}"
                )

    def cpu_s(self) -> float:
        """User + system seconds of the server process so far."""
        with open(f"/proc/{self.proc.pid}/stat", "rb") as handle:
            fields = handle.read().rsplit(b")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / CLK_TCK

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)  # the CLI drains on interrupt
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        self.proc.stdout.close()
        self._log.close()


class ServerInProcess:
    """The same service on a thread of this process (traced runs only)."""

    def __init__(self, store: Path, workdir: Path) -> None:
        import repro.cache
        from repro.serve.runner import ServerThread

        repro.cache.configure(root=store, enabled=True)
        harness.assert_cache_isolated(workdir)
        self._thread = ServerThread(fleet_kind="inproc", workers=2).start()
        self.url = self._thread.url

    def cpu_s(self) -> float:
        return time.process_time()

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def stop(self) -> None:
        import repro.cache

        self._thread.stop()
        repro.cache.configure(enabled=False)


class ServeWorkload(Workload):
    """Closed loop: each client sends its next sweep when the last stream ended.

    A request is the FIG4 default points x 1 seed = 2 tasks; requests
    use disjoint seeds, so no request can answer for another.
    """

    op = "task streamed"
    EXPERIMENT = "FIG4"

    def load(self) -> None:
        super().load()
        import repro.experiments.base as base
        from repro.serve.catalog import default_catalog
        from repro.serve.client import ServeClient

        self._base = base
        self._client = ServeClient
        self._surface = default_catalog().get(self.EXPERIMENT)
        self._stores = 0
        self.peak_server_rss_mb = 0.0

    def _fresh_store(self) -> Path:
        self._stores += 1
        store = self.workdir / f"store-{self._stores}"
        store.mkdir()
        return store

    def _boot(self, inproc: bool):
        kind = ServerInProcess if inproc else ServerProcess
        return kind(self._fresh_store(), self.workdir)

    def _stop(self, server) -> None:
        self.peak_server_rss_mb = max(self.peak_server_rss_mb, server.peak_rss_mb())
        server.stop()

    def peak_rss_mb(self) -> float:
        return self.peak_server_rss_mb

    def _seeds(self, request: int) -> List[int]:
        first = self.base_seed + request * SEEDS_PER_REQUEST
        return list(range(first, first + SEEDS_PER_REQUEST))

    def _tasks(self, request: int) -> List[Tuple]:
        return [
            self._surface.build_task(point, seed)
            for point in self._surface.default_points
            for seed in self._seeds(request)
        ]

    def _plan_requests(self) -> None:
        per_client = self.size["requests_per_client"]
        self.distinct = CLIENTS * per_client
        self.tasks_per_request = len(self._tasks(0))
        #: Client i owns requests [i * per_client, (i + 1) * per_client).
        self.owned = [
            list(range(slot * per_client, (slot + 1) * per_client)) for slot in range(CLIENTS)
        ]
        self.warmup_request = self.distinct + 1_000  # a seed block nobody else uses
        for request in list(range(self.distinct)) + [self.warmup_request]:
            for seed in self._seeds(request):
                self.tracer.op_of_seed[seed] = request

    def _sweep(self, client, request: int):
        return client.sweep(self.EXPERIMENT, seeds=self._seeds(request))

    def _drive(self, url: str, schedule: List[List[int]]) -> List[Tuple[int, float, Any]]:
        """Run the closed loop; ``(request, latency_ms, summary-or-error)`` each."""
        collected: List[List[Tuple[int, float, Any]]] = [[] for _ in schedule]

        def loop(slot: int) -> None:
            client = self._client(url)
            for request in schedule[slot]:
                started = time.perf_counter()
                try:
                    with self.tracer.span("suite.request", request):
                        answer = self._sweep(client, request)
                except Exception as error:  # a failed request is a result, not a crash
                    answer = error
                latency = (time.perf_counter() - started) * 1000.0
                collected[slot].append((request, latency, answer))

        threads = [
            threading.Thread(target=loop, args=(slot,), name=f"suite-client-{slot}")
            for slot in range(len(schedule))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return [item for slot in collected for item in slot]

    def _request_good(self, answer: Any, request: int, cached: int) -> bool:
        return (
            not isinstance(answer, Exception)
            and answer.ok
            and answer.header["cached"] == cached
            and pickle.dumps(answer.outcomes, 4) == self.reference[request]
        )

    def _judge(self, served, cached: int) -> Tuple[int, int, str]:
        ops = failed = 0
        first: Dict[int, bytes] = {}
        for request, _latency, answer in served:
            ops += self.tasks_per_request
            if not expect(self._request_good(answer, request, cached)):
                failed += self.tasks_per_request
            elif request not in first:
                first[request] = pickle.dumps(answer.outcomes, 4)
        digest = hashlib.sha256(b"".join(first[r] for r in sorted(first))).hexdigest()
        return ops, failed, digest


def _stats_extras(before: Dict[str, Any], after: Dict[str, Any]) -> Dict[str, Any]:
    """``/v1/stats`` counters of one pass (after minus before)."""
    delta = lambda group, key: after[group][key] - before[group][key]  # noqa: E731
    total = delta("tasks", "total")
    return {
        "serve.executed": delta("tasks", "executed"),
        "serve.retried": delta("tasks", "retried"),
        "serve.failed": delta("tasks", "failed"),
        "serve.hit_ratio": delta("tasks", "cache_hits") / total if total else 0.0,
        "cache.hits": delta("cache", "hits"),
        "cache.misses": delta("cache", "misses"),
        "cache.stores": delta("cache", "stores"),
        "cache.executed": delta("tasks", "executed"),
    }


class ServeCold(ServeWorkload):
    """Every task misses: fleet dispatch, store writes and engine time meet.

    Each pass gets a fresh store and a fresh server (plus one warm-up
    request on a seed of its own), so passes are identical.
    """

    name = "serve_cold"

    def setup(self) -> None:
        self._plan_requests()
        # The same tasks run directly: the reference outcomes, and the
        # engine-only time the served pass is compared against.
        started = time.perf_counter()
        self.reference = {
            request: pickle.dumps(
                self._base.run_sweep(self._surface.worker, self._tasks(request), jobs=1), 4
            )
            for request in range(self.distinct)
        }
        self.direct_s_per_task = (time.perf_counter() - started) / (
            self.distinct * self.tasks_per_request
        )

    def run_pass(self, inproc: bool = False) -> Pass:
        server = self._boot(inproc)
        try:
            client = self._client(server.url)
            warmup = self._sweep(client, self.warmup_request)
            before = client.stats()
            cpu0, t0 = server.cpu_s(), time.perf_counter()
            served = self._drive(server.url, self.owned)
            t1, cpu1 = time.perf_counter(), server.cpu_s()
            after = client.stats()
        finally:
            self._stop(server)
        ops, failed, digest = self._judge(served, cached=0)
        extras = _stats_extras(before, after)
        if not expect(warmup.ok and after["tasks"]["failed"] == 0):
            failed = ops
        wall = t1 - t0
        extras["serve.cold_overhead_ms_per_task"] = (wall / ops - self.direct_s_per_task) * 1000.0
        extras["serve.cold_overhead_share"] = 1.0 - self.direct_s_per_task / (wall / ops)
        latencies = [latency for _r, latency, _a in served]
        return Pass(wall, cpu1 - cpu0, ops, failed, latencies, digest, [(t0, t1)], extras, self.owned)


class ServeWarm(ServeWorkload):
    """Every task hits: parse, key, tier, encode are the whole cost.

    One server, its store pre-populated in set-up with the requests
    ``serve_cold`` sends; the engine stays idle.
    """

    name = "serve_warm"

    def _populated(self, inproc: bool):
        """A server whose store already holds every request's outcomes."""
        server = self._boot(inproc)
        try:
            client = self._client(server.url)
            cold = {request: self._sweep(client, request) for request in range(self.distinct)}
        except BaseException:
            self._stop(server)
            raise
        return server, cold

    def setup(self) -> None:
        self._plan_requests()
        self.server, cold = self._populated(inproc=False)
        self.populated_ok = all(a.ok and a.header["cached"] == 0 for a in cold.values())
        # "Byte-identical to the cold ones": the miss-path answers are
        # the reference of every replay.
        self.reference = {r: pickle.dumps(a.outcomes, 4) for r, a in cold.items()}
        self.inproc_server = None

    def teardown(self) -> None:
        for server in (self.server, self.inproc_server):
            if server is not None:
                self._stop(server)
        self.server = self.inproc_server = None

    def run_pass(self, inproc: bool = False) -> Pass:
        if inproc and self.inproc_server is None:
            self.inproc_server, _cold = self._populated(inproc=True)
        server = self.inproc_server if inproc else self.server
        client = self._client(server.url)
        schedule = [owned * self.size["replays"] for owned in self.owned]
        before = client.stats()
        cpu0, t0 = server.cpu_s(), time.perf_counter()
        served = self._drive(server.url, schedule)
        t1, cpu1 = time.perf_counter(), server.cpu_s()
        after = client.stats()
        ops, failed, digest = self._judge(served, cached=self.tasks_per_request)
        extras = _stats_extras(before, after)
        idle_engine = extras["serve.executed"] == 0 and extras["serve.hit_ratio"] == 1.0
        if not expect(self.populated_ok and idle_engine):
            failed = ops
        latencies = [latency for _r, latency, _a in served]
        self.peak_server_rss_mb = max(self.peak_server_rss_mb, server.peak_rss_mb())
        return Pass(t1 - t0, cpu1 - cpu0, ops, failed, latencies, digest, [(t0, t1)], extras, schedule)


WORKLOADS = {
    cls.name: cls
    for cls in (SyncSweep, AsyncSweep, ArrayScale, VerifySpace, ServeCold, ServeWarm)
}
