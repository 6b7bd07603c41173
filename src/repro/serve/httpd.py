"""A minimal asyncio HTTP/1.1 front-end (stdlib only).

Deliberately small: the serving API needs exactly four verbs of HTTP —
parse a request with a bounded body, answer a JSON document, stream an
ND-JSON body batch-by-batch as results land, and notice a client that
went away mid-stream.  Nothing here knows about sweeps; the router
callback (:mod:`repro.serve.service`) owns the semantics.

Contract:

- Requests are limited: request line and each header line at 8 KiB
  (the ``asyncio`` stream-reader limit), at most 100 header lines, and
  a body ceiling set by the server config — violations answer a
  *structured* JSON error (:func:`repro.serve.protocol.error_body`)
  with 400/413/431 and close the connection.
- Unary responses carry ``Content-Length`` and keep the connection
  alive unless the request says ``Connection: close``.  Streaming
  responses are chunked, one chunk per batch of ready ND-JSON lines;
  what is ready before the producer first waits shares one write with
  the head, so a producer that never waits is answered in one write.
  A stream keeps its connection for the next request only when the
  request carried ``Connection: keep-alive`` *and* the producer ended
  cleanly; every other stream (no such header, a producer error, a
  client byte or EOF mid-stream) closes when done.
- While the producer waits, the connection's read side is watched: an
  EOF, reset or stray byte cancels the producer *at its current await
  point* (its ``finally`` blocks run, so the service can cancel
  in-flight shards) — the mechanism behind "client disconnect cancels
  the shard".  The watch is cancelled before the terminating chunk
  goes out, so it never consumes a byte of the next request.
- A producer runs on the connection's task until it first waits, then
  on a pump task: it must hold no ``asyncio.current_task()`` scope
  (``asyncio.timeout``, ``TaskGroup``, 3.12's ``wait_for``) across a wait.
- The server counts the connections it accepted and the requests it
  read on them (:meth:`HttpServer.counters`).
"""

from __future__ import annotations

import asyncio
import json
import types
from dataclasses import dataclass, field
from typing import Any, AsyncIterator, Awaitable, Callable, Dict, Optional, Tuple
from urllib.parse import parse_qs, unquote, urlsplit

from repro.serve.protocol import error_body

__all__ = [
    "HttpError",
    "HttpRequest",
    "HttpServer",
    "Response",
    "StreamResponse",
    "json_response",
]

#: StreamReader line limit — caps the request line and each header line.
MAX_LINE_BYTES = 8 << 10
MAX_HEADER_LINES = 100

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    411: "Length Required",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class HttpError(Exception):
    """A malformed or over-limit request; answered as a structured error."""

    def __init__(self, status: int, code: str, message: str):
        super().__init__(message)
        self.status = status
        self.code = code


@dataclass
class HttpRequest:
    """One parsed request."""

    method: str
    path: str
    query: Dict[str, str]
    headers: Dict[str, str]
    body: bytes = b""


@dataclass
class Response:
    """A unary response: full body known up front."""

    status: int = 200
    body: bytes = b""
    content_type: str = "application/json"
    headers: Dict[str, str] = field(default_factory=dict)


@dataclass
class StreamResponse:
    """A chunked ND-JSON response; ``lines`` yields batches of encoded lines."""

    lines: AsyncIterator[bytes]
    status: int = 200
    content_type: str = "application/x-ndjson"


def json_response(obj: Any, status: int = 200) -> Response:
    return Response(
        status=status,
        body=(json.dumps(obj, sort_keys=True) + "\n").encode("utf-8"),
    )


#: The router: request → Response | StreamResponse (raise HttpError /
#: ProtocolError for structured failures).
Handler = Callable[[HttpRequest], Awaitable[Any]]


async def _read_request(
    reader: asyncio.StreamReader, max_body: int
) -> Optional[HttpRequest]:
    """Parse one request; None on a clean EOF between requests."""
    try:
        request_line = await reader.readline()
    except (asyncio.LimitOverrunError, ValueError):
        raise HttpError(431, "oversize-line", "request line exceeds the 8 KiB limit")
    if not request_line:
        return None
    try:
        method, target, version = request_line.decode("ascii").split()
    except (UnicodeDecodeError, ValueError):
        raise HttpError(400, "bad-request-line", "malformed HTTP request line")
    if not version.startswith("HTTP/1."):
        raise HttpError(400, "bad-version", f"unsupported protocol {version!r}")

    headers: Dict[str, str] = {}
    for _ in range(MAX_HEADER_LINES):
        try:
            line = await reader.readline()
        except (asyncio.LimitOverrunError, ValueError):
            raise HttpError(431, "oversize-header", "header line exceeds the 8 KiB limit")
        if line in (b"\r\n", b"\n", b""):
            break
        try:
            name, _, value = line.decode("latin-1").partition(":")
        except UnicodeDecodeError:
            raise HttpError(400, "bad-header", "undecodable header line")
        if not _ or not name.strip():
            raise HttpError(400, "bad-header", f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()
    else:
        raise HttpError(431, "too-many-headers", f"more than {MAX_HEADER_LINES} headers")

    body = b""
    if method in ("POST", "PUT"):
        if "transfer-encoding" in headers:
            raise HttpError(
                411, "length-required", "chunked request bodies are not supported"
            )
        raw_length = headers.get("content-length", "0")
        try:
            length = int(raw_length)
        except ValueError:
            raise HttpError(400, "bad-length", f"invalid Content-Length {raw_length!r}")
        if length < 0:
            raise HttpError(400, "bad-length", "negative Content-Length")
        if length > max_body:
            raise HttpError(
                413,
                "oversize-body",
                f"request body of {length} bytes exceeds the {max_body}-byte limit",
            )
        if length:
            try:
                body = await reader.readexactly(length)
            except asyncio.IncompleteReadError:
                raise HttpError(400, "truncated-body", "connection closed mid-body")

    split = urlsplit(target)
    query = {
        key: values[-1]
        for key, values in parse_qs(split.query, keep_blank_values=True).items()
    }
    return HttpRequest(
        method=method,
        path=unquote(split.path),
        query=query,
        headers=headers,
        body=body,
    )


def _head(status: int, content_type: str, extra: Dict[str, str]) -> bytes:
    reason = _REASONS.get(status, "Unknown")
    lines = [f"HTTP/1.1 {status} {reason}", f"Content-Type: {content_type}"]
    lines += [f"{name}: {value}" for name, value in extra.items()]
    return ("\r\n".join(lines) + "\r\n").encode("latin-1")


def _unary_bytes(response: Response, keep_alive: bool) -> bytes:
    extra = dict(response.headers)
    extra["Content-Length"] = str(len(response.body))
    extra["Connection"] = "keep-alive" if keep_alive else "close"
    return _head(response.status, response.content_type, extra) + b"\r\n" + response.body


def _chunk(data: bytes) -> bytes:
    return b"%x\r\n" % len(data) + data + b"\r\n"


def _error_chunk(error: Exception) -> bytes:
    tail = json.dumps(error_body("internal", f"{type(error).__name__}: {error}"))
    return _chunk((tail + "\n").encode("utf-8"))


@types.coroutine
def _resume(step, parked):
    """Await ``step``, an ``__anext__`` stepped by hand that yielded ``parked``;
    the task's wake-ups and throws (a cancel) are relayed into ``step``."""
    while True:
        try:
            try:
                yield parked
            except BaseException as error:
                parked = step.throw(error)
            else:
                parked = step.send(None)
        except StopIteration as done:
            return done.value


async def _pump(pending: Awaitable[bytes], lines: AsyncIterator[bytes], writer) -> bool:
    """Write ``pending`` and each later batch as a chunk; True iff the producer ended cleanly.

    A producer exception ends the body with a structured error line
    (the head already went out, so the status cannot say it).  A write
    failure propagates: the client is gone.
    """
    try:
        while True:
            try:
                batch = await pending
            except StopAsyncIteration:
                return True
            except Exception as error:  # producer bug: end the stream loudly
                writer.write(_error_chunk(error))
                return False
            writer.write(_chunk(batch))
            await writer.drain()
            pending = lines.__anext__()
    finally:
        await lines.aclose()


async def _settle(task: "asyncio.Future[Any]") -> None:
    """Cancel ``task`` if it still runs and absorb however it ended."""
    task.cancel()
    try:
        await task
    except (asyncio.CancelledError, Exception):
        pass


class HttpServer:
    """One listening socket fanning requests into the router callback."""

    def __init__(
        self,
        handler: Handler,
        host: str = "127.0.0.1",
        port: int = 0,
        max_body: int = 8 << 20,
    ):
        self._handler = handler
        self._host = host
        self._requested_port = port
        self._max_body = max_body
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: set = set()
        self._accepted = 0
        self._requests = 0

    @property
    def port(self) -> int:
        assert self._server is not None, "server not started"
        return self._server.sockets[0].getsockname()[1]

    @property
    def host(self) -> str:
        return self._host

    def counters(self) -> Dict[str, int]:
        """Connections accepted and requests read on them, since construction."""
        return {"accepted": self._accepted, "requests": self._requests}

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._serve_connection,
            self._host,
            self._requested_port,
            limit=MAX_LINE_BYTES,
        )

    async def stop(self) -> None:
        server, self._server = self._server, None
        if server is not None:
            server.close()
        # Idle keep-alive connections go first: from Python 3.12 on,
        # wait_closed() waits for every open connection.
        for task in list(self._connections):
            await _settle(task)
        if server is not None:
            await server.wait_closed()

    # -- connection loop -----------------------------------------------------

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._connections.add(task)
        self._accepted += 1
        try:
            await self._request_loop(reader, writer)
        except (asyncio.CancelledError, ConnectionError):
            pass
        finally:
            self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, Exception):
                pass

    async def _request_loop(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        while True:
            try:
                request = await _read_request(reader, self._max_body)
            except HttpError as error:
                writer.write(
                    _unary_bytes(
                        json_response(error_body(error.code, str(error)), error.status),
                        keep_alive=False,
                    )
                )
                await writer.drain()
                return
            if request is None:
                return
            self._requests += 1
            response = await self._dispatch(request)
            connection = request.headers.get("connection", "").lower()
            if isinstance(response, StreamResponse):
                keep_alive = connection == "keep-alive"
                if not await self._write_stream(reader, writer, response, keep_alive):
                    return
                continue
            keep_alive = connection != "close"
            writer.write(_unary_bytes(response, keep_alive))
            await writer.drain()
            if not keep_alive:
                return

    async def _dispatch(self, request: HttpRequest) -> Any:
        from repro.serve.protocol import ProtocolError

        try:
            return await self._handler(request)
        except HttpError as error:
            return json_response(error_body(error.code, str(error)), error.status)
        except ProtocolError as error:
            return json_response(error.body(), error.status)
        except asyncio.CancelledError:
            raise
        except Exception as error:  # noqa: BLE001 — the boundary of last resort
            return json_response(
                error_body("internal", f"{type(error).__name__}: {error}"), 500
            )

    async def _write_stream(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        response: StreamResponse,
        keep_alive: bool,
    ) -> bool:
        """Stream one response; True iff the connection may serve another request.

        The batches the producer hands over without waiting share one
        write with the head, and with the terminator if it ends so (no
        task is started).  Once it waits, a pump task writes the rest
        while the read side is watched; a watch that fires first (EOF,
        reset, or a stray byte) cancels the pump, so the producer stops
        at its await point and the connection closes.
        """
        lines = response.lines
        ready = [
            _head(
                response.status,
                response.content_type,
                {
                    "Transfer-Encoding": "chunked",
                    "Connection": "keep-alive" if keep_alive else "close",
                },
            )
            + b"\r\n"
        ]
        clean, heard = True, False
        try:
            # Stepped by hand while the producer hands batches over without
            # waiting; the first step that parks goes, still parked, to the pump.
            while True:
                step = lines.__anext__()
                try:
                    parked = step.send(None)
                except StopIteration as produced:
                    ready.append(_chunk(produced.value))
                else:
                    break
        except StopAsyncIteration:
            step = None
        except Exception as error:  # producer bug: end the stream loudly
            ready.append(_error_chunk(error))
            step, clean = None, False
        if step is not None:
            writer.write(b"".join(ready))
            ready = []
            pump = asyncio.ensure_future(_pump(_resume(step, parked), lines, writer))
            eof_watch = asyncio.ensure_future(reader.read(1))
            try:
                await asyncio.wait({pump, eof_watch}, return_when=asyncio.FIRST_COMPLETED)
            finally:
                interrupted = not pump.done()
                if interrupted:
                    # The client went away (or sent a byte mid-stream): stop
                    # the producer so its finally blocks cancel in-flight work.
                    await _settle(pump)
                heard = eof_watch.done()
                await _settle(eof_watch)
            if interrupted:
                return False
        try:
            if step is not None:
                clean = pump.result()
            writer.write(b"".join(ready) + b"0\r\n\r\n")
            await writer.drain()
        except (ConnectionError, OSError):
            return False
        return keep_alive and clean and not heard


def split_path(path: str) -> Tuple[str, ...]:
    """``"/v1/cache/abc"`` → ``("v1", "cache", "abc")``."""
    return tuple(part for part in path.split("/") if part)
