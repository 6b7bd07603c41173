"""Array-backend microbenchmarks: the ≥ 50x throughput claim, gated.

Measures end-to-end engine throughput (``processes_per_sec`` = n ×
rounds × lanes / wall seconds) and peak resident memory (``peak_mb``,
``ru_maxrss`` of a forked child that runs the workload once) for the
engines on the same unison workload (min-rule unison, randomly
corrupted clocks, no history):

- ``reference`` — the per-process :func:`repro.sync.engine.run_sync`
  loop, one lane at a time;
- ``array-numpy`` — :func:`repro.array.engine.run_array` on the NumPy
  data plane, all lanes in one batched pass (skipped, with a note row,
  when NumPy is absent — the committed baseline always has it); the
  grid and ring rows ride the wire's column kernel laid out by offset
  (slices, lattices), the ``tree`` row the same kernel laid out by
  gather (bounded in-degree, no shared offsets), the ``star`` row its
  ``reduceat`` kernel (one hub of degree n);
- ``array-python`` — the same batched driver on the pure-Python
  fallback data plane, at a smaller n (the fallback is a correctness
  path, not a performance claim; its row documents that batching alone
  does not regress below the reference engine);
- ``array-numpy-chunked/ring-1000000`` — the headline scale row: one
  million processes per lane through the chunked lane executor, which
  is the memory ceiling this file documents (``peak_mb``);
- ``array-numpy-chunked/ring-1000000-crash`` — the same run with one
  clean crash in lane 0: what a silenced sender costs at that scale.

``speedup_vs_ref`` rows are the machine-independent gate:
``benchmarks/compare.py`` (25% band) compares a fresh emission against
the committed ``benchmarks/results/BENCH_ARRAY.json``, and the
``array-smoke`` CI job fails if the NumPy speedup decays below 75% of
the committed value — the paper-scale claim (≥ 50x at n = 10^4) is
asserted directly by the ARRAY-SCALE experiment.

``--chunked`` emits the separate ARRAY-CHUNK report instead: a fast
chunked run at n = 10^5 on *both* data planes, gated in CI on
``processes_per_sec`` and ``peak_mb`` against
``benchmarks/results/BENCH_ARRAY_CHUNK.json`` (wider band — these two
fields are machine-dependent, the gate catches collapses, not noise).

Usage::

    PYTHONPATH=src python benchmarks/microbench/bench_array.py \
        [--quick] [--chunked] [--out PATH]
"""

from __future__ import annotations

import argparse
import dataclasses
import multiprocessing
import resource
import time

if __package__ in (None, ""):
    from _harness import best_per_call, emit, ratio
else:
    from ._harness import best_per_call, emit, ratio

from repro.analysis.report import ExperimentReport
from repro.array import has_numpy, run_array
from repro.experiments.array_scale import _corruption, make_topology
from repro.kernel.faults import FaultPlan
from repro.kernel.topology import ExplicitTopology, TreeTopology
from repro.protocols.unison import MinUnison
from repro.sync.engine import run_sync

#: NumPy rows run at paper scale; the pure-Python fallback rows at a
#: size where a batch still finishes in benchmark time.
N_NUMPY = 10_000
N_PYTHON = 1_024
LANES = 4
ROUNDS = 60
#: The reference engine gets a shorter run (throughput is per
#: process-round, so fewer rounds measure the same rate without
#: spending seconds per call at n = 10^4).
REFERENCE_ROUNDS = 10

#: The chunked-scale rows: small chunk to genuinely exercise the chunk
#: loop (ring n=10^5 rides the column kernel: 7 receiver ranges of 3
#: in-edge slots each per round).
N_CHUNK = 100_000
CHUNK_CELLS = 1 << 14
CHUNK_LANES = 2
CHUNK_ROUNDS = {"numpy": 12, "python": 3}

#: The headline memory-ceiling row: a million processes per lane.
N_CEILING = 1_000_000
CEILING_LANES = 2
CEILING_ROUNDS = 6
#: The ceiling's fault row: lane 0's process 7 crashes cleanly in round 2.
CEILING_CRASHES = {7: 2.0}


def _topology(family: str, n: int):
    if family == "star":
        return ExplicitTopology(n, [(0, pid) for pid in range(1, n)])
    if family == "tree":
        return TreeTopology(n)
    return make_topology(family, n)


def _plans(family: str, n: int, lanes: int, crashes=None):
    plans = [
        FaultPlan(initial_corruption=_corruption(family, n, seed))
        for seed in range(lanes)
    ]
    if crashes:
        plans[0] = dataclasses.replace(plans[0], crashes=crashes)
    return plans


def _array_call(
    family: str, n: int, rounds: int, lanes: int, backend: str, chunk=None, crashes=None
):
    topology = _topology(family, n)
    plans = _plans(family, n, lanes, crashes)

    def call():
        run_array(
            MinUnison(),
            n,
            rounds,
            fault_plans=plans,
            topology=topology,
            backend=backend,
            chunk=chunk,
        )

    return call


def _reference_call(family: str, n: int, rounds: int):
    topology = _topology(family, n)

    def call():
        run_sync(
            MinUnison(),
            n=n,
            rounds=rounds,
            corruption=_corruption(family, n, 0),
            topology=topology,
            record_history=False,
        )

    return call


def _probe_child(call, queue):
    started = time.perf_counter()
    call()
    seconds = time.perf_counter() - started
    queue.put((seconds, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0))


def _fork_probe(call):
    """Run ``call`` once in a forked child: (wall seconds, peak RSS MB).

    A fresh child per probe keeps the parent's own allocations (and the
    other rows' leftovers) out of ``ru_maxrss``; the fork baseline is
    the parent's *current* RSS, which the interpreter keeps small by
    probing before any in-parent timing run at the same size.
    """
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # no fork on this platform: measure in-process
        started = time.perf_counter()
        call()
        seconds = time.perf_counter() - started
        return seconds, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    queue = ctx.SimpleQueue()
    child = ctx.Process(target=_probe_child, args=(call, queue))
    child.start()
    try:
        result = queue.get()
    finally:
        child.join()
    return result


def _pps(seconds: float, n: int, rounds: int, lanes: int) -> float:
    return round(n * rounds * lanes / seconds, 1)


def _main_report(repeat: int) -> ExperimentReport:
    report = ExperimentReport(
        experiment_id="ARRAY",
        title="Batched array backend vs the reference engine",
        claim=(
            "one vectorized pass over all lanes sustains orders of "
            "magnitude more process-rounds per second than the "
            "per-process reference loop, inside a bounded memory ceiling"
        ),
        headers=[
            "benchmark",
            "n",
            "lanes",
            "processes_per_sec",
            "speedup_vs_ref",
            "peak_mb",
        ],
    )

    for family, n, backend, available in (
        ("grid", N_NUMPY, "numpy", has_numpy()),
        ("tree", N_NUMPY, "numpy", has_numpy()),
        ("star", N_NUMPY, "numpy", has_numpy()),
        ("grid", N_PYTHON, "python", True),
    ):
        ref_call = _reference_call(family, n, REFERENCE_ROUNDS)
        _, ref_peak = _fork_probe(ref_call)
        ref_s = best_per_call(ref_call, number=1, repeat=repeat)
        ref_pps = _pps(ref_s, n, REFERENCE_ROUNDS, 1)
        report.add_row(f"reference/{family}-{n}", n, 1, ref_pps, None, round(ref_peak, 1))
        if not available:
            report.add_row(f"array-{backend}/{family}-{n}", n, LANES, None, None, None)
            continue
        array_call = _array_call(family, n, ROUNDS, LANES, backend)
        _, array_peak = _fork_probe(array_call)
        array_s = best_per_call(array_call, number=1, repeat=repeat)
        array_pps = _pps(array_s, n, ROUNDS, LANES)
        report.add_row(
            f"array-{backend}/{family}-{n}",
            n,
            LANES,
            array_pps,
            ratio(1.0 / ref_pps, 1.0 / array_pps),
            round(array_peak, 1),
        )

    # The memory-ceiling headline: n = 10^6 through the chunked lane
    # executor, measured once (fork) — no timing repeats at this size —
    # fault-free, then with one crash.
    for suffix, crashes in (("", None), ("-crash", CEILING_CRASHES)):
        name = f"array-numpy-chunked/ring-{N_CEILING}{suffix}"
        if not has_numpy():
            report.add_row(name, N_CEILING, CEILING_LANES, None, None, None)
            continue
        seconds, peak = _fork_probe(
            _array_call(
                "ring",
                N_CEILING,
                CEILING_ROUNDS,
                CEILING_LANES,
                "numpy",
                chunk=CHUNK_CELLS,
                crashes=crashes,
            )
        )
        report.add_row(
            name,
            N_CEILING,
            CEILING_LANES,
            _pps(seconds, N_CEILING, CEILING_ROUNDS, CEILING_LANES),
            None,
            round(peak, 1),
        )
    return report


def _chunked_report() -> ExperimentReport:
    report = ExperimentReport(
        experiment_id="ARRAY-CHUNK",
        title="Chunked lane executor at n = 10^5, both data planes",
        claim=(
            "bounded-memory chunking keeps throughput and the memory "
            "ceiling flat at scale on both data planes"
        ),
        headers=["benchmark", "n", "lanes", "processes_per_sec", "peak_mb"],
    )
    for backend, available in (("numpy", has_numpy()), ("python", True)):
        if not available:
            report.add_row(
                f"array-{backend}-chunked/ring-{N_CHUNK}",
                N_CHUNK,
                CHUNK_LANES,
                None,
                None,
            )
            continue
        rounds = CHUNK_ROUNDS[backend]
        seconds, peak = _fork_probe(
            _array_call(
                "ring", N_CHUNK, rounds, CHUNK_LANES, backend, chunk=CHUNK_CELLS
            )
        )
        report.add_row(
            f"array-{backend}-chunked/ring-{N_CHUNK}",
            N_CHUNK,
            CHUNK_LANES,
            _pps(seconds, N_CHUNK, rounds, CHUNK_LANES),
            round(peak, 1),
        )
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bench_array")
    parser.add_argument("--quick", action="store_true", help="fewer repeats")
    parser.add_argument(
        "--chunked",
        action="store_true",
        help="emit the ARRAY-CHUNK n=10^5 report instead of the main one",
    )
    parser.add_argument("--out", metavar="PATH", help="write JSON here")
    args = parser.parse_args(argv)
    repeat = 2 if args.quick else 3

    report = _chunked_report() if args.chunked else _main_report(repeat)
    emit(report, args.out)
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
