"""A stdlib HTTP client for the serving API.

:class:`ServeClient` wraps :mod:`http.client` (which handles chunked
transfer-encoding transparently) and the protocol vocabulary of
:mod:`repro.serve.protocol`, so callers get back *decoded* tasks and
outcomes — tuples and all — in a :class:`~repro.serve.protocol.StreamSummary`.
The CLI (``python -m repro.serve request``), the example, the load
benchmark, and the tests all go through this one class.
"""

from __future__ import annotations

import http.client
import json
import weakref
from contextlib import closing
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union
from urllib.parse import urlsplit

from repro.cache.store import ENTRY_WIRE_MAX
from repro.net.framing import FrameDecoder
from repro.serve.protocol import StreamSummary, decode_stream_line

__all__ = ["ServeClient", "ServeError"]


class ServeError(Exception):
    """The server answered a structured error (or unparseable bytes)."""

    def __init__(self, status: int, code: str, message: str):
        super().__init__(f"[{status} {code}] {message}")
        self.status = status
        self.code = code


def _error_from(status: int, body: bytes) -> ServeError:
    try:
        parsed = json.loads(body.decode("utf-8"))
        error = parsed["error"]
        return ServeError(status, str(error["code"]), str(error["message"]))
    except Exception:
        return ServeError(status, "unparseable", body[:200].decode("utf-8", "replace"))


def _close_idle(idle: List[http.client.HTTPConnection]) -> None:
    while idle:
        try:
            idle.pop().close()
        except IndexError:  # another thread took the last one
            return


class ServeClient:
    """One server's API surface over a shared pool of keep-alive connections.

    Every call, unary or streamed, takes an idle connection from the
    pool (or opens one) and sends ``Connection: keep-alive``.  The
    connection goes back to the pool only after its whole response was
    read and that response did not say close; a stream abandoned
    mid-way closes its connection, which is how the server learns to
    cancel the request's shards.  A pooled connection the server closed
    while it sat idle costs one transparent reconnect and resend.

    The pool is shared by every thread using the client.  ``close()``
    (or leaving a ``with`` block, or the client being collected) closes
    the idle connections.
    """

    def __init__(self, url: str, timeout: float = 60.0):
        split = urlsplit(url if "//" in url else f"http://{url}")
        if split.scheme == "https":
            self._connection_class: type = http.client.HTTPSConnection
            default_port = 443
        elif split.scheme == "http":
            self._connection_class = http.client.HTTPConnection
            default_port = 80
        else:
            raise ValueError(f"unsupported scheme in server URL {url!r}")
        if not split.hostname:
            raise ValueError(f"cannot parse server URL {url!r}")
        self.host = split.hostname
        self.port = split.port or default_port
        self.base = split.path.rstrip("/")
        self.timeout = timeout
        #: Idle connections; ``list.pop`` and ``append`` are atomic, so
        #: threads share the pool without a lock.
        self._idle: List[http.client.HTTPConnection] = []
        weakref.finalize(self, _close_idle, self._idle)

    def close(self) -> None:
        """Close every idle connection; the client stays usable."""
        _close_idle(self._idle)

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- the connection pool -------------------------------------------------

    def _send(
        self,
        method: str,
        path: str,
        body: Optional[bytes] = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> Tuple[http.client.HTTPConnection, http.client.HTTPResponse]:
        """Send one request; return its connection and response head."""
        url = self.base + path
        headers = {"Connection": "keep-alive", **(headers or {})}
        try:
            connection = self._idle.pop()
        except IndexError:
            pass
        else:
            try:
                return connection, _exchange(connection, method, url, body, headers)
            except ConnectionError:
                pass  # closed by the server while idle: resend once, below
        connection = self._connection_class(self.host, self.port, timeout=self.timeout)
        return connection, _exchange(connection, method, url, body, headers)

    def _release(
        self,
        connection: http.client.HTTPConnection,
        response: http.client.HTTPResponse,
        complete: bool,
    ) -> None:
        """Pool ``connection`` again iff its response was read whole and kept it."""
        if complete and not response.will_close:
            self._idle.append(connection)
        else:
            connection.close()

    # -- unary calls ---------------------------------------------------------

    def _get(self, path: str) -> Tuple[int, bytes]:
        connection, response = self._send("GET", path)
        complete = False
        try:
            body = response.read()
            complete = True
        finally:
            self._release(connection, response, complete)
        return response.status, body

    def _get_json(self, path: str) -> Dict[str, Any]:
        status, body = self._get(path)
        if status != 200:
            raise _error_from(status, body)
        return json.loads(body.decode("utf-8"))

    def stats(self) -> Dict[str, Any]:
        """``GET /v1/stats``."""
        return self._get_json("/v1/stats")

    def experiments(self) -> Dict[str, Any]:
        """``GET /v1/experiments``."""
        return self._get_json("/v1/experiments")

    def cache_entry(self, key: str) -> Optional[Dict[str, Any]]:
        """``GET /v1/cache/<key>`` — the decoded entry dict, or None on 404.

        Entries travel as tagged-JSON frames (never pickle); the frame
        is decoded here, so callers see the plain entry mapping.
        """
        status, body = self._get(f"/v1/cache/{key}")
        if status == 200:
            decoder = FrameDecoder(ENTRY_WIRE_MAX)
            frames = decoder.feed(body)
            decoder.eof()
            return frames[0] if frames else None
        if status == 404:
            return None
        raise _error_from(status, body)

    # -- streaming calls -----------------------------------------------------

    def stream(
        self, path: str, body: Dict[str, Any]
    ) -> Iterator[Dict[str, Any]]:
        """POST ``body`` and yield decoded ND-JSON stream lines."""
        payload = json.dumps(body).encode("utf-8")
        connection, response = self._send(
            "POST", path, payload, {"Content-Type": "application/json"}
        )
        complete = False
        try:
            if response.status != 200:
                error = _error_from(response.status, response.read())
                complete = True
                raise error
            while True:
                line = response.readline()
                if not line:
                    break
                line = line.strip()
                if line:
                    yield decode_stream_line(line)
            complete = True
        finally:
            self._release(connection, response, complete)

    def _collect(
        self,
        path: str,
        body: Dict[str, Any],
        on_line: Optional[Callable[[Dict[str, Any]], None]] = None,
    ) -> StreamSummary:
        summary = StreamSummary()
        # closing(): an error line raised below releases the connection
        # now, not whenever the traceback holding the generator dies.
        with closing(self.stream(path, body)) as lines:
            for line in lines:
                summary.feed(line)
                if on_line is not None:
                    on_line(line)
                if line.get("kind") == "error":
                    raise ServeError(200, str(line.get("code")), str(line.get("message")))
        return summary

    def sweep(
        self,
        experiment: str,
        points: Optional[Sequence[Sequence[Any]]] = None,
        seeds: Union[int, Sequence[int]] = 1,
        deadline_s: Optional[float] = None,
        no_cache: bool = False,
        backend: Optional[str] = None,
        on_line: Optional[Callable[[Dict[str, Any]], None]] = None,
    ) -> StreamSummary:
        """``POST /v1/sweep`` and gather the whole ordered stream.

        ``summary.outcomes`` is exactly the list a local
        :func:`repro.experiments.base.run_sweep` over the same tasks
        returns (byte-identical under pickling); a worker failure
        raises :class:`ServeError`; a deadline expiry does *not* raise
        — check ``summary.truncated``.  ``backend="array"`` asks the
        server to route shards through the workers' batched twins
        (with loud per-shard fallback, mirroring
        ``run_sweep(backend="array")``).
        """
        body: Dict[str, Any] = {"experiment": experiment, "seeds": _seeds(seeds)}
        if points is not None:
            body["points"] = [list(point) for point in points]
        if deadline_s is not None:
            body["deadline_s"] = deadline_s
        if no_cache:
            body["no_cache"] = True
        if backend is not None:
            body["backend"] = backend
        return self._collect("/v1/sweep", body, on_line)

    def explore(
        self,
        target: str,
        budget: int = 200,
        seed: int = 0,
        mode: str = "auto",
        deadline_s: Optional[float] = None,
        no_cache: bool = False,
    ) -> StreamSummary:
        """``POST /v1/explore`` — one exploration summary as a stream."""
        body: Dict[str, Any] = {
            "target": target,
            "budget": budget,
            "seed": seed,
            "mode": mode,
        }
        if deadline_s is not None:
            body["deadline_s"] = deadline_s
        if no_cache:
            body["no_cache"] = True
        return self._collect("/v1/explore", body)


def _seeds(seeds: Union[int, Sequence[int]]) -> Union[int, List[int]]:
    return seeds if isinstance(seeds, int) else list(seeds)


def _exchange(
    connection: http.client.HTTPConnection,
    method: str,
    url: str,
    body: Optional[bytes],
    headers: Dict[str, str],
) -> http.client.HTTPResponse:
    """One request on ``connection``; closes it if no response head arrives."""
    try:
        connection.request(method, url, body=body, headers=headers)
        return connection.getresponse()
    except BaseException:
        connection.close()
        raise
