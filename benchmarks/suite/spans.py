"""Spans recorded from outside the program, and their arithmetic.

The suite measures layers without touching ``src/``: :class:`Tracer`
replaces every reference a ``repro.*`` module or class holds to the
public callables of :data:`WRAP_TABLE` with a recording wrapper, for
the duration of the traced passes only.  A span is ``[name, start,
end, parent, op, thread, count]``; spans stay in memory and are written
out when the run ends.

Self time is a span's duration minus the part its child spans cover.
Where several threads are inside layers at once (the serving
workloads), the instant is split equally between them, so that a
workload's layer rows plus :data:`UNATTRIBUTED` always sum to its wall.
Spans named ``suite.*`` belong to the benchmark (a client waiting for
its stream): they own an instant only when no layer does, which lands
in the unattributed row.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

NAME, START, END, PARENT, OP, THREAD, COUNT = range(7)

UNATTRIBUTED = "suite.unattributed"

_MISSING = object()


# ---------------------------------------------------------------------------
# Annotators: op id and work count, read off a finished call
# ---------------------------------------------------------------------------
# Each takes (tracer, span, args, kwargs, result).  They are best effort:
# a signature that moved yields a span without the annotation.


def _seed_op(tracer: "Tracer", task: Any) -> Any:
    return tracer.op_of_seed.get(task[-1])


def _note_run_array(tracer, span, args, kwargs, result) -> None:
    span[COUNT] = result.n * result.executed_rounds * result.lanes


def _note_async_run(tracer, span, args, kwargs, result) -> None:
    span[COUNT] = result.duration


def _note_explicit_verify(tracer, span, args, kwargs, result) -> None:
    span[COUNT] = result.examined


def _note_execute_tasks(tracer, span, args, kwargs, result) -> None:
    tasks = args[1]
    span[COUNT] = len(tasks)
    if span[OP] is None:
        span[OP] = _seed_op(tracer, tasks[0])


def _note_cache_key(tracer, span, args, kwargs, result) -> None:
    if span[OP] is None:
        span[OP] = _seed_op(tracer, args[3])
    tracer.op_of_key[result] = span[OP]


def _note_cache_access(tracer, span, args, kwargs, result) -> None:
    if span[OP] is None:
        span[OP] = tracer.op_of_key.get(args[1])


def _note_parse(tracer, span, args, kwargs, result) -> None:
    if span[OP] is None:
        span[OP] = _seed_op(tracer, result.tasks[0])


#: (span name, module, attribute path, annotator).  The layer of a span
#: is its name up to the last dot.
WRAP_TABLE: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("experiments.run_sweep", "repro.experiments.base", "run_sweep", None),
    ("sync.run_sync", "repro.sync.engine", "run_sync", None),
    ("array.run_array", "repro.array.engine", "run_array", _note_run_array),
    ("core.ftss_check", "repro.core.solvability", "ftss_check", None),
    ("histories.coterie", "repro.histories.coterie", "coterie", None),
    ("histories.coterie_timeline", "repro.histories.coterie", "coterie_timeline", None),
    (
        "analysis.empirical_stabilization",
        "repro.analysis.stabilization",
        "empirical_stabilization",
        None,
    ),
    ("asyncnet.run", "repro.asyncnet.scheduler", "AsyncScheduler.run", _note_async_run),
    ("detectors.strong_completeness", "repro.detectors.properties", "strong_completeness", None),
    (
        "detectors.eventual_weak_accuracy",
        "repro.detectors.properties",
        "eventual_weak_accuracy",
        None,
    ),
    ("verify.streaming_verdict", "repro.verify.targets", "streaming_verdict", None),
    ("verify.confirm_verdict", "repro.verify.targets", "confirm_verdict", None),
    ("verify.explicit_verify", "repro.verify.explicit", "explicit_verify", _note_explicit_verify),
    ("explore.enumerate_space", "repro.verify.explicit", "enumerate_space", None),
    ("cache.key", "repro.cache.store", "RunCache.key", _note_cache_key),
    ("cache.get", "repro.cache.store", "RunCache.get", _note_cache_access),
    ("cache.put", "repro.cache.store", "RunCache.put", _note_cache_access),
    ("cache.flush", "repro.cache.store", "RunCache.flush", None),
    ("serve.protocol.parse_sweep_request", "repro.serve.protocol", "parse_sweep_request", _note_parse),
    ("serve.protocol.encode_stream_line", "repro.serve.protocol", "encode_stream_line", None),
    ("serve.client.decode_stream_line", "repro.serve.protocol", "decode_stream_line", None),
    ("serve.fleet.execute_tasks", "repro.serve.fleet", "execute_tasks", _note_execute_tasks),
)

#: Async generators of the serving layer, recorded per resumption.
ASYNCGEN_TABLE: Tuple[Tuple[str, str, str], ...] = (
    ("serve.service.stream", "repro.serve.service", "SweepService._stream"),
)


def layer_of(name: str) -> str:
    return name.rsplit(".", 1)[0]


class Tracer:
    """Records spans; installs and removes the wrappers."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.recording = False
        #: Serving workloads register request seeds here so that spans on
        #: server threads can be tied to the client request that caused them.
        self.op_of_seed: Dict[int, Any] = {}
        self.op_of_key: Dict[str, Any] = {}
        #: Span names whose wrap-table entry no longer resolves, with why.
        self.unresolved: Dict[str, str] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: List[Tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, op: Any = None) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if op is None and parent is not None:
            op = self.spans[parent][OP]
        span = [name, 0.0, None, parent, op, threading.get_ident(), None]
        with self._lock:  # client, event-loop and worker threads all record
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        span[START] = time.perf_counter()
        return index

    def end(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()

    @contextmanager
    def span(self, name: str, op: Any = None):
        """A span opened by the suite itself (``suite.*`` names)."""
        if not self.recording:
            yield
            return
        index = self.begin(name, op)
        try:
            yield
        finally:
            self.end(index)

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, annotate: Optional[Callable]) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            index = tracer.begin(name)
            result = _MISSING
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer.end(index)
                if annotate is not None and result is not _MISSING:
                    try:
                        annotate(tracer, tracer.spans[index], args, kwargs, result)
                    except (AttributeError, IndexError, KeyError, TypeError):
                        pass

        return wrapper

    def _wrap_asyncgen(self, name: str, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            generator = fn(*args, **kwargs)
            try:
                while True:
                    try:
                        item = await _Sliced(tracer, name, generator.__anext__())
                    except StopAsyncIteration:
                        return
                    yield item
            finally:
                await _Sliced(tracer, name, generator.aclose())

        return wrapper

    def install(self) -> None:
        """Replace every ``repro.*`` reference to the wrapped callables."""
        for name, module_name, path, annotate in WRAP_TABLE:
            self._install_one(name, module_name, path, lambda fn, n=name, a=annotate: self._wrap(n, fn, a))
        for name, module_name, path in ASYNCGEN_TABLE:
            self._install_one(name, module_name, path, lambda fn, n=name: self._wrap_asyncgen(n, fn))

    def _install_one(self, name: str, module_name: str, path: str, make: Callable) -> None:
        try:
            module = importlib.import_module(module_name)
            owner: Any = module
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part)
            original = getattr(owner, parts[-1])
        except (ImportError, AttributeError) as error:
            self.unresolved[name] = f"span {name}: {module_name}:{path} does not resolve ({error})"
            return
        wrapper = make(original)
        if owner is not module:  # a method: the class is the only holder
            self._patched.append((owner, parts[-1], original))
            setattr(owner, parts[-1], wrapper)
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []


class _Sliced:
    """Await ``inner``, recording one span per stretch it actually runs.

    An async generator is suspended most of its life; its own work
    happens between a resumption and the next suspension, on the event
    loop's thread, with the synchronous calls it makes nested inside.
    """

    def __init__(self, tracer: Tracer, name: str, inner: Any) -> None:
        self._tracer = tracer
        self._name = name
        self._inner = inner

    def __await__(self):
        iterator = self._inner.__await__()
        step, argument = iterator.send, None
        while True:
            index = self._tracer.begin(self._name) if self._tracer.recording else None
            try:
                future = step(argument)
            except StopIteration as stop:
                return stop.value
            finally:
                if index is not None:
                    self._tracer.end(index)
            try:
                argument = yield future
                step = iterator.send
            except BaseException as error:  # forwarded, never swallowed
                argument, step = error, iterator.throw


# ---------------------------------------------------------------------------
# Arithmetic
# ---------------------------------------------------------------------------


def _thread_segments(indices: Sequence[int], spans: Sequence[list]) -> List[Tuple[float, float, int]]:
    """Innermost-span segments of one thread: ``(start, end, span index)``."""
    segments: List[Tuple[float, float, int]] = []
    stack: List[int] = []
    cursor = 0.0

    def close_until(limit: float) -> None:
        nonlocal cursor
        while stack and spans[stack[-1]][END] <= limit:
            top = stack.pop()
            if spans[top][END] > cursor:
                segments.append((cursor, spans[top][END], top))
                cursor = spans[top][END]

    for index in indices:
        start = spans[index][START]
        close_until(start)
        if stack and start > cursor:
            segments.append((cursor, start, stack[-1]))
        stack.append(index)
        cursor = max(cursor, start)
    close_until(float("inf"))
    return segments


def attribute(spans: Sequence[list], t0: float, t1: float) -> Dict[str, float]:
    """Split the wall ``[t0, t1]`` into self seconds per span name.

    The result's values sum to ``t1 - t0`` exactly; whatever no layer
    span covers is under :data:`UNATTRIBUTED`.
    """
    by_thread: Dict[int, List[int]] = {}
    for index, span in enumerate(spans):
        if span[END] is None or span[END] <= t0 or span[START] >= t1:
            continue
        by_thread.setdefault(span[THREAD], []).append(index)
    events: List[Tuple[float, int, int, str]] = []
    for thread, indices in by_thread.items():
        indices.sort(key=lambda i: (spans[i][START], -spans[i][END]))
        for start, end, index in _thread_segments(indices, spans):
            start, end = max(start, t0), min(end, t1)
            if end > start:
                name = spans[index][NAME]
                events.append((start, 1, thread, name))
                events.append((end, 0, thread, name))
    events.sort(key=lambda e: (e[0], e[1]))
    shares: Dict[str, float] = {UNATTRIBUTED: 0.0}
    active: Dict[int, str] = {}
    cursor = t0
    for when, opening, thread, name in events:
        if when > cursor:
            layers = [n for n in active.values() if not n.startswith("suite.")]
            if layers:
                part = (when - cursor) / len(layers)
                for layer_name in layers:
                    shares[layer_name] = shares.get(layer_name, 0.0) + part
            else:
                shares[UNATTRIBUTED] += when - cursor
            cursor = when
        if opening:
            active[thread] = name
        elif active.get(thread) == name:
            del active[thread]
    shares[UNATTRIBUTED] += max(0.0, t1 - cursor)
    return shares


def summarize(spans: Sequence[list], windows: Iterable[Tuple[float, float]]) -> Dict[str, Any]:
    """Per-name calls, inclusive and self seconds over the timed windows."""
    windows = list(windows)
    wall = sum(t1 - t0 for t0, t1 in windows)
    rows: Dict[str, Dict[str, float]] = {}

    def row_of(name: str) -> Dict[str, float]:
        return rows.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "count": 0.0})

    for t0, t1 in windows:
        for name, seconds in attribute(spans, t0, t1).items():
            row_of(name)["self_s"] += seconds
        for span in spans:
            if span[END] is None or not (t0 <= span[START] < t1):
                continue
            row = row_of(span[NAME])
            row["calls"] += 1
            row["total_s"] += span[END] - span[START]
            if span[COUNT] is not None:
                row["count"] += span[COUNT]
    return {"wall_s": wall, "rows": rows}


def layer_shares(summary: Dict[str, Any]) -> Dict[str, float]:
    """Self-time share of the wall per layer; sums to 1 with the unattributed row."""
    wall = summary["wall_s"]
    shares: Dict[str, float] = {}
    for name, row in summary["rows"].items():
        layer = name if name == UNATTRIBUTED else layer_of(name)
        shares[layer] = shares.get(layer, 0.0) + (row["self_s"] / wall if wall else 0.0)
    return shares


def export(spans: Sequence[list], origin: float) -> List[list]:
    """Spans as JSON rows, times in microseconds since ``origin``."""
    return [
        [
            span[NAME],
            round((span[START] - origin) * 1e6),
            None if span[END] is None else round((span[END] - origin) * 1e6),
            span[PARENT],
            span[OP],
            span[THREAD],
            span[COUNT],
        ]
        for span in spans
    ]
