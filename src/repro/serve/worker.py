"""The fleet worker process (``python -m repro.serve.worker``).

Spawned by :class:`repro.serve.fleet.ProcessFleet`, a worker dials the
fleet's loopback TCP listener, authenticates with the one-shot token
from its command line, then loops: read a ``shard`` frame, resolve the
named sweep worker, execute the task slice in order, answer a
``result`` frame (or an ``error`` frame when the worker function
raises — a deterministic failure the fleet never retries).  A
``shutdown`` frame ends the loop cleanly.

The process is plain blocking I/O on purpose: a worker does exactly one
thing at a time, and the parent's supervision (connection EOF = crash)
is simplest when the socket dies with the process.  So this module holds
everything a worker runs (:func:`execute_tasks` and the frame ceiling
included, which :mod:`repro.serve.fleet` imports from here) and boots
without ``asyncio`` or ``concurrent.futures``.  Caching is entirely
parent-side — the fleet spawns workers with ``REPRO_CACHE=0``, so
:mod:`repro.cache` is inert here (same contract as ``run_sweep``'s
fork-pool children).
"""

from __future__ import annotations

import argparse
import os
import socket
import sys
import traceback
import warnings
from typing import Any, List, Optional, Sequence, Tuple

from repro.cache.store import _resolve_worker
from repro.net.framing import FrameDecoder, encode_frame

_READ_CHUNK = 1 << 16

#: Worker-protocol frame ceiling: shards carry many tasks, so allow
#: more than one client HTTP frame's worth.
WORKER_MAX_FRAME = 1 << 26


class ShardFailed(Exception):
    """The shard's worker raised; deterministic, so never retried."""


def _try_array_batch(worker, tasks: Sequence[Any]) -> Optional[List[Any]]:
    """One all-or-nothing batched attempt; None means fall back per-task."""
    batch = getattr(worker, "array_batch", None)
    if batch is None:
        warnings.warn(
            "array backend requested but the worker has no array_batch; "
            "falling back to per-task execution",
            RuntimeWarning,
            stacklevel=3,
        )
        return None
    eligible = getattr(worker, "array_eligible", None)
    if eligible is not None and not all(eligible(task) for task in tasks):
        warnings.warn(
            "array backend requested but the shard contains array-ineligible "
            "tasks; falling back to per-task execution",
            RuntimeWarning,
            stacklevel=3,
        )
        return None
    from repro.array.protocols import ArrayEligibilityError

    try:
        outcomes = list(batch(list(tasks)))
    except ArrayEligibilityError as error:
        warnings.warn(
            f"array batch refused the shard ({error}); falling back to "
            "per-task execution",
            RuntimeWarning,
            stacklevel=3,
        )
        return None
    if len(outcomes) != len(tasks):
        raise ShardFailed(
            f"array_batch returned {len(outcomes)} outcomes for {len(tasks)} tasks"
        )
    return outcomes


def execute_tasks(
    worker, tasks: Sequence[Any], backend: str = "sync"
) -> Tuple[List[Any], str]:
    """Run one shard's task slice; returns ``(outcomes, backend_used)``.

    ``backend="array"`` tries the worker's batched twin
    (``worker.array_batch``, the same contract
    :func:`repro.experiments.base.run_sweep` routes through) on the
    whole slice, falling back loudly — RuntimeWarning, then per-task
    reference execution — when the worker has no batched twin, any
    task is ineligible, or the batch itself raises
    :class:`~repro.array.protocols.ArrayEligibilityError`.  The second
    return value reports what actually ran (a fallback executes as
    ``"sync"``), so executed-by-backend counters never lie.
    """
    if backend == "array":
        outcomes = _try_array_batch(worker, tasks)
        if outcomes is not None:
            return outcomes, "array"
    return [worker(task) for task in tasks], "sync"



def _read_frame(sock: socket.socket, decoder: FrameDecoder):
    """Next frame from the parent (None on EOF)."""
    while True:
        data = sock.recv(_READ_CHUNK)
        if not data:
            decoder.eof()
            return None
        frames = decoder.feed(data)
        if frames:
            return frames[0]


def serve_shards(sock: socket.socket, token: str, slot: int) -> int:
    """The worker loop over an already-connected socket."""
    decoder = FrameDecoder(WORKER_MAX_FRAME)
    sock.sendall(
        encode_frame(
            {"kind": "hello", "token": token, "slot": slot, "pid": os.getpid()},
            WORKER_MAX_FRAME,
        )
    )
    workers = {}
    while True:
        frame = _read_frame(sock, decoder)
        if frame is None or frame.get("kind") == "shutdown":
            return 0
        if frame.get("kind") != "shard":
            continue
        shard_id = frame.get("id")
        ref = frame.get("worker")
        try:
            worker = workers.get(ref)
            if worker is None:
                worker = _resolve_worker(ref)
                if worker is None:
                    raise RuntimeError(f"cannot resolve sweep worker {ref!r}")
                workers[ref] = worker
            outcomes, used_backend = execute_tasks(
                worker, frame.get("tasks", []), frame.get("backend", "sync")
            )
        except BaseException as error:  # noqa: BLE001 — reported, not retried
            if isinstance(error, (KeyboardInterrupt, SystemExit)):
                raise
            sock.sendall(
                encode_frame(
                    {
                        "kind": "error",
                        "id": shard_id,
                        "message": "".join(
                            traceback.format_exception_only(type(error), error)
                        ).strip(),
                    },
                    WORKER_MAX_FRAME,
                )
            )
            continue
        sock.sendall(
            encode_frame(
                {
                    "kind": "result",
                    "id": shard_id,
                    "outcomes": outcomes,
                    "backend": used_backend,
                },
                WORKER_MAX_FRAME,
            )
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="repro.serve.worker")
    parser.add_argument("--connect", required=True, metavar="HOST:PORT")
    parser.add_argument("--token", required=True)
    parser.add_argument("--slot", type=int, default=0)
    args = parser.parse_args(argv)

    host, _, port = args.connect.rpartition(":")
    with socket.create_connection((host, int(port)), timeout=30) as sock:
        sock.settimeout(None)
        return serve_shards(sock, args.token, args.slot)


if __name__ == "__main__":
    sys.exit(main())
