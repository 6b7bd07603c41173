"""Kernel-primitive microbenchmarks: snapshot, round loop, sweep dispatch.

Times the primitives every experiment and exploration run bottoms out
in, and emits ``benchmarks/results/BENCH_MICRO.json`` for
``benchmarks/compare.py``.  Five rows carry a ``speedup_vs_ref`` ratio
against an in-file reference implementation (the seed's uncached
snapshot walk, a recorded-history round loop, a fresh-pool-per-sweep
dispatch); ratios are machine-independent, so CI regresses on them
while the absolute ``per_call_us`` columns stay informational.

Usage::

    PYTHONPATH=src python benchmarks/microbench/bench_kernel.py [--quick] [--out PATH]
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import sys
from typing import Any, Dict, Mapping, Sequence

if __package__ in (None, ""):
    from _harness import best_per_call, emit, ratio, us
else:
    from ._harness import best_per_call, emit, ratio, us

from repro.analysis.report import ExperimentReport
from repro.analysis.stabilization import empirical_stabilization
from repro.core.solvability import ftss_check
from repro.experiments import base as experiments_base
from repro.experiments import fig1, fig4
from repro.histories.history import CLOCK_KEY, ExecutionHistory, Message
from repro.kernel import snapshot
from repro.kernel.snapshot import copy_payload, snapshot_states
from repro.sync.adversary import FaultMode, RandomAdversary
from repro.sync.engine import run_sync
from repro.sync.protocol import SyncProtocol

# ----------------------------------------------------------------------
# Reference implementation: the seed's uncached immutability walk.
# Kept verbatim so `speedup_vs_ref` measures exactly what the interning
# layer buys over re-proving immutability from scratch on every call.

_ATOMS = (int, float, complex, bool, str, bytes, type(None))


def _ref_is_deeply_immutable(value: Any) -> bool:
    if isinstance(value, _ATOMS):
        return True
    if isinstance(value, (tuple, frozenset)):
        return all(_ref_is_deeply_immutable(item) for item in value)
    if (
        dataclasses.is_dataclass(value)
        and not isinstance(value, type)
        and value.__dataclass_params__.frozen
    ):
        return all(
            _ref_is_deeply_immutable(getattr(value, field.name))
            for field in dataclasses.fields(value)
        )
    return False


def _ref_copy_value(value: Any) -> Any:
    if _ref_is_deeply_immutable(value):
        return value
    kind = type(value)
    if kind is dict:
        return {key: _ref_copy_value(item) for key, item in value.items()}
    if kind is list:
        return [_ref_copy_value(item) for item in value]
    if kind is set:
        return {_ref_copy_value(item) for item in value}
    if kind is tuple:
        return tuple(_ref_copy_value(item) for item in value)
    if kind is frozenset:
        return frozenset(_ref_copy_value(item) for item in value)
    return copy.deepcopy(value)


def _ref_snapshot_states(states):
    return {
        pid: None if state is None else
        {key: _ref_copy_value(item) for key, item in state.items()}
        for pid, state in states.items()
    }


# ----------------------------------------------------------------------
# Representative workload: full-information states whose views are
# nested tuples (Figure 2's canonical form sends (pid, inner state)).


def make_state_vector(n: int = 8, depth: int = 24) -> Dict[int, Dict[str, Any]]:
    """``n`` process states, each holding a ``depth``-round view tuple."""
    states = {}
    for pid in range(n):
        view = tuple(
            tuple((peer, r + peer) for peer in range(n)) for r in range(depth)
        )
        states[pid] = {
            CLOCK_KEY: depth,
            "inner": {"view": view, "round": depth, "decision": None},
            "halted": False,
            "n": n,
        }
    return states


def make_view_payload(n: int = 8, depth: int = 24) -> Any:
    return (
        0,
        tuple(tuple((peer, r + peer) for peer in range(n)) for r in range(depth)),
    )


_FD_NUMS = list(range(8))
_FD_STATUSES = ["alive", "dead"] * 4


def make_flat_payload() -> Any:
    """A fresh Figure 4 gossip payload, as ``fd_tick`` builds one per tick:
    never seen before, so no cached proof can answer for it."""
    return ("fd", tuple(_FD_NUMS), tuple(_FD_STATUSES))


class ViewProtocol(SyncProtocol):
    """Full-information broadcast with a bounded growing view window."""

    name = "bench-view"

    def __init__(self, window: int = 8):
        self._window = window

    def initial_state(self, pid: int, n: int) -> Dict[str, Any]:
        return {CLOCK_KEY: 1, "view": (), "n": n}

    def send(self, pid: int, state: Mapping[str, Any]) -> Any:
        return (pid, state[CLOCK_KEY], state["view"])

    def update(
        self, pid: int, state: Mapping[str, Any], delivered: Sequence[Message]
    ) -> Dict[str, Any]:
        digest = tuple((m.payload[0], m.payload[1]) for m in delivered)
        view = (state["view"] + (digest,))[-self._window:]
        return {CLOCK_KEY: state[CLOCK_KEY] + 1, "view": view, "n": state["n"]}


_ROUNDS = 60
_N = 6


def _run_recorded() -> None:
    run_sync(ViewProtocol(), n=_N, rounds=_ROUNDS)


def _run_streaming() -> None:
    run_sync(ViewProtocol(), n=_N, rounds=_ROUNDS, record_history=False)


def _run_faulty() -> None:
    adversary = RandomAdversary(
        n=_N, f=2, mode=FaultMode.GENERAL_OMISSION, rate=0.2, seed=7
    )
    run_sync(ViewProtocol(), n=_N, rounds=_ROUNDS, adversary=adversary)


# ----------------------------------------------------------------------
# Sweep dispatch: the fixed cost of fanning a sweep over workers.


def _sweep_worker(point: int) -> int:
    return point * point


_SWEEP_POINTS = list(range(24))


def _sweep_persistent() -> None:
    experiments_base.run_sweep(_sweep_worker, _SWEEP_POINTS, jobs=2)


def _sweep_fresh() -> None:
    # Pre-interning seed has no persistent pool to shut down; the
    # fallback makes the ratio an honest 1.0x there.
    getattr(experiments_base, "shutdown_pool", lambda: None)()
    experiments_base.run_sweep(_sweep_worker, _SWEEP_POINTS, jobs=2)


def _run_fig4() -> None:
    fig4.one_run(4, 0, False)


def _clear_snapshot_caches() -> None:
    getattr(snapshot, "clear_caches", lambda: None)()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="CI settings: fewer repeats"
    )
    parser.add_argument("--out", metavar="PATH", help="write the JSON here instead")
    args = parser.parse_args(argv)

    repeat = 3 if args.quick else 7
    scale = 0.2 if args.quick else 1.0

    def n_of(number: int) -> int:
        return max(1, int(number * scale))

    states = make_state_vector()
    payload = make_view_payload()

    report = ExperimentReport(
        experiment_id="MICRO",
        title="Kernel hot-path microbenchmarks",
        claim="interned snapshots, lean dispatch and the persistent sweep "
        "pool keep the per-run constant factor >= 2x below the uncached "
        "reference implementations",
        headers=["benchmark", "per_call_us", "ref_us", "speedup_vs_ref"],
    )

    def row(name, seconds, ref_seconds=None):
        if ref_seconds is None:
            report.add_row(name, us(seconds), None, None)
        else:
            report.add_row(
                name, us(seconds), us(ref_seconds), ratio(ref_seconds, seconds)
            )

    # -- snapshotting ----------------------------------------------------
    hot = best_per_call(
        lambda: snapshot_states(states), number=n_of(300), repeat=repeat
    )
    ref = best_per_call(
        lambda: _ref_snapshot_states(states), number=n_of(300), repeat=repeat
    )
    row("snapshot/hot", hot, ref)

    cold = best_per_call(
        lambda: snapshot_states(states),
        number=1,
        repeat=max(repeat, 5) * 20,
        setup=_clear_snapshot_caches,
    )
    row("snapshot/cold", cold)

    pay = best_per_call(
        lambda: copy_payload(payload), number=n_of(2000), repeat=repeat
    )
    pay_ref = best_per_call(
        lambda: _ref_copy_value(payload), number=n_of(2000), repeat=repeat
    )
    row("payload/view", pay, pay_ref)

    flat = best_per_call(
        lambda: copy_payload(make_flat_payload()), number=n_of(2000), repeat=repeat
    )
    flat_ref = best_per_call(
        lambda: _ref_copy_value(make_flat_payload()), number=n_of(2000), repeat=repeat
    )
    row("payload/flat", flat, flat_ref)

    # -- the round loop --------------------------------------------------
    recorded = best_per_call(_run_recorded, number=n_of(10), repeat=repeat)
    row("round/recorded", recorded)
    streaming = best_per_call(_run_streaming, number=n_of(10), repeat=repeat)
    row("round/streaming", streaming, recorded)
    faulty = best_per_call(_run_faulty, number=n_of(10), repeat=repeat)
    row("round/faulty", faulty)

    # -- judging a recorded history ---------------------------------------
    fig1_rounds = tuple(fig1.one_run(16, 5, 0).history)

    def judge() -> None:
        # What FIG1's worker does with its run.  A history built afresh
        # has no coterie timeline yet, so each call pays for the one pass.
        history = ExecutionHistory(fig1_rounds)
        ftss_check(history, fig1.SIGMA, stabilization_time=1)
        empirical_stabilization(history, fig1.SIGMA)

    row("history/judge", best_per_call(judge, number=n_of(10), repeat=repeat))

    # -- the asynchronous event loop --------------------------------------
    fig4_run = best_per_call(
        _run_fig4, number=n_of(10), repeat=repeat, setup=_clear_snapshot_caches
    )
    row("async/fig4_run", fig4_run)

    # -- sweep dispatch --------------------------------------------------
    fresh = best_per_call(_sweep_fresh, number=1, repeat=max(2, repeat))
    persistent = best_per_call(
        _sweep_persistent, number=n_of(10), repeat=max(2, repeat)
    )
    row("sweep/dispatch", persistent, fresh)

    emit(report, out=args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
