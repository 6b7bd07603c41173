"""HTTP front-end tests: limits, structured errors, keep-alive, streams."""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.serve.httpd import (
    HttpServer,
    Response,
    StreamResponse,
    json_response,
    split_path,
)


async def _toy_handler(request):
    if request.path == "/echo":
        return json_response({"method": request.method, "body": request.body.decode()})
    if request.path == "/stream":

        async def lines():
            for index in range(3):
                yield (json.dumps({"i": index}) + "\n").encode()

        return StreamResponse(lines=lines())
    if request.path == "/buggy-stream":

        async def exploding():
            yield b'{"i": 0}\n'
            raise RuntimeError("producer bug")

        return StreamResponse(lines=exploding())
    if request.path == "/boom":
        raise RuntimeError("handler bug")
    return Response(status=404, body=b"{}")


async def _roundtrip(raw_request: bytes, half_close: bool = True) -> bytes:
    """Send raw bytes at a toy server, return everything it answers.

    ``half_close=False`` keeps the client's write side open — required
    for streaming requests, where an early EOF is (by design) treated
    as a client disconnect and cancels the stream.
    """
    server = HttpServer(_toy_handler, max_body=1024)
    await server.start()
    try:
        reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
        writer.write(raw_request)
        await writer.drain()
        if half_close:
            writer.write_eof()
        data = await asyncio.wait_for(reader.read(), timeout=10)
        writer.close()
        return data
    finally:
        await server.stop()


def _status(response: bytes) -> int:
    return int(response.split(b" ", 2)[1])


def _body_json(response: bytes) -> dict:
    head, _, body = response.partition(b"\r\n\r\n")
    if b"chunked" in head:
        decoded = b""
        while body:
            size, _, body = body.partition(b"\r\n")
            size = int(size, 16)
            if size == 0:
                break
            decoded += body[:size]
            body = body[size + 2 :]
        body = decoded
    return json.loads(body.decode().strip().splitlines()[-1])


def test_simple_post_round_trip():
    response = asyncio.run(
        _roundtrip(b"POST /echo HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello")
    )
    assert _status(response) == 200
    assert _body_json(response) == {"method": "POST", "body": "hello"}


def test_malformed_request_line_is_structured_400():
    response = asyncio.run(_roundtrip(b"GARBAGE\r\n\r\n"))
    assert _status(response) == 400
    assert _body_json(response)["error"]["code"] == "bad-request-line"


def test_oversize_request_line_is_431():
    response = asyncio.run(_roundtrip(b"GET /" + b"a" * 9000 + b" HTTP/1.1\r\n\r\n"))
    assert _status(response) == 431
    assert _body_json(response)["error"]["code"] == "oversize-line"


def test_too_many_headers_is_431():
    headers = b"".join(b"X-H%d: v\r\n" % i for i in range(150))
    response = asyncio.run(_roundtrip(b"GET /echo HTTP/1.1\r\n" + headers + b"\r\n"))
    assert _status(response) == 431
    assert _body_json(response)["error"]["code"] == "too-many-headers"


def test_oversize_body_is_413():
    response = asyncio.run(
        _roundtrip(b"POST /echo HTTP/1.1\r\nContent-Length: 9999\r\n\r\n")
    )
    assert _status(response) == 413
    assert _body_json(response)["error"]["code"] == "oversize-body"


def test_chunked_request_body_is_411():
    response = asyncio.run(
        _roundtrip(b"POST /echo HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n")
    )
    assert _status(response) == 411


def test_truncated_body_is_400():
    response = asyncio.run(
        _roundtrip(b"POST /echo HTTP/1.1\r\nContent-Length: 50\r\n\r\nshort")
    )
    assert _status(response) == 400
    assert _body_json(response)["error"]["code"] == "truncated-body"


def test_handler_exception_is_structured_500():
    response = asyncio.run(_roundtrip(b"GET /boom HTTP/1.1\r\n\r\n"))
    assert _status(response) == 500
    assert "handler bug" in _body_json(response)["error"]["message"]


def test_keep_alive_serves_sequential_requests():
    async def run():
        server = HttpServer(_toy_handler, max_body=1024)
        await server.start()
        try:
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            for payload in (b"one", b"two"):
                writer.write(
                    b"POST /echo HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s"
                    % (len(payload), payload)
                )
                await writer.drain()
                head = await reader.readuntil(b"\r\n\r\n")
                length = int(
                    [
                        line.split(b":")[1]
                        for line in head.split(b"\r\n")
                        if line.lower().startswith(b"content-length")
                    ][0]
                )
                body = await reader.readexactly(length)
                assert json.loads(body)["body"] == payload.decode()
            writer.close()
        finally:
            await server.stop()

    asyncio.run(run())


def test_stream_is_chunked_and_closes():
    response = asyncio.run(_roundtrip(b"GET /stream HTTP/1.1\r\n\r\n", half_close=False))
    assert _status(response) == 200
    assert b"Transfer-Encoding: chunked" in response
    assert _body_json(response) == {"i": 2}  # last line of the stream
    assert response.endswith(b"0\r\n\r\n")


def test_producer_exception_ends_stream_with_error_line():
    response = asyncio.run(
        _roundtrip(b"GET /buggy-stream HTTP/1.1\r\n\r\n", half_close=False)
    )
    assert _status(response) == 200  # head already went out
    last = _body_json(response)
    assert last["error"]["code"] == "internal"
    assert "producer bug" in last["error"]["message"]


def test_split_path():
    assert split_path("/v1/cache/abc") == ("v1", "cache", "abc")
    assert split_path("/") == ()


async def _read_chunked(reader: asyncio.StreamReader):
    """One chunked response off ``reader``: (head, decoded body lines)."""
    head = await reader.readuntil(b"\r\n\r\n")
    body = b""
    while True:
        size = int(await reader.readuntil(b"\r\n"), 16)
        chunk = await reader.readexactly(size + 2)
        if size == 0:
            return head, body.splitlines()
        body += chunk[:-2]


async def _with_server(handler, client):
    server = HttpServer(handler, max_body=1024)
    await server.start()
    try:
        reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
        try:
            return await asyncio.wait_for(client(server, reader, writer), timeout=10)
        finally:
            writer.close()
    finally:
        await server.stop()


def test_keep_alive_streams_share_one_connection():
    async def client(server, reader, writer):
        heads = []
        for _ in range(2):
            # The second request goes out the instant the first's
            # terminating chunk is read: had the EOF watch outlived the
            # stream, it would eat this request's first byte.
            writer.write(b"GET /stream HTTP/1.1\r\nConnection: keep-alive\r\n\r\n")
            head, lines = await _read_chunked(reader)
            heads.append(head)
            assert [json.loads(line) for line in lines] == [{"i": i} for i in range(3)]
        assert all(b"Connection: keep-alive" in head for head in heads)
        return server.counters()

    assert asyncio.run(_with_server(_toy_handler, client)) == {"accepted": 1, "requests": 2}


def test_producer_exception_closes_even_with_keep_alive():
    async def client(server, reader, writer):
        writer.write(b"GET /buggy-stream HTTP/1.1\r\nConnection: keep-alive\r\n\r\n")
        _head, lines = await _read_chunked(reader)
        return json.loads(lines[-1]), await reader.read()

    last, rest = asyncio.run(_with_server(_toy_handler, client))
    assert last["error"]["code"] == "internal"
    assert "producer bug" in last["error"]["message"]
    assert rest == b""  # the server closed after the terminating chunk


def test_client_byte_mid_stream_cancels_and_closes():
    cancelled = []

    async def handler(request):
        async def parked():
            yield b'{"i": 0}\n'
            try:
                await asyncio.sleep(60)
            finally:
                cancelled.append(request.path)
            yield b'{"i": 1}\n'

        return StreamResponse(lines=parked())

    async def client(server, reader, writer):
        writer.write(b"GET /parked HTTP/1.1\r\nConnection: keep-alive\r\n\r\n")
        await reader.readuntil(b"\r\n\r\n")
        await reader.readuntil(b"\r\n")  # the first chunk's size line
        writer.write(b"X")  # a stray byte is a client going away
        return await reader.read()

    rest = asyncio.run(_with_server(handler, client))
    assert rest == b'{"i": 0}\n\r\n'  # the first chunk's data; no terminator
    assert cancelled == ["/parked"]


def _spy_on_writes(monkeypatch):
    """Every ``StreamWriter.write`` as (calling task, bytes), in order."""
    writes = []
    original = asyncio.StreamWriter.write

    def write(self, data):
        writes.append((asyncio.current_task(), bytes(data)))
        original(self, data)

    monkeypatch.setattr(asyncio.StreamWriter, "write", write)
    return writes


def test_finished_producer_is_one_write_and_starts_no_task(monkeypatch):
    writes = _spy_on_writes(monkeypatch)
    spawned = []  # (creating task, coroutine) of every task made

    def factory(loop, coro, **kwargs):
        spawned.append((asyncio.current_task(), coro))
        return asyncio.Task(coro, loop=loop, **kwargs)

    async def client(server, reader, writer):
        asyncio.get_running_loop().set_task_factory(factory)
        writer.write(b"GET /stream HTTP/1.1\r\nConnection: keep-alive\r\n\r\n")
        head, lines = await _read_chunked(reader)
        asyncio.get_running_loop().set_task_factory(None)
        return asyncio.current_task(), head, lines

    me, head, lines = asyncio.run(_with_server(_toy_handler, client))
    [(connection, raw)] = [(task, data) for task, data in writes if task is not me]
    # The bytes the pump would write: head, one chunk per batch, terminator.
    assert raw == head + b"".join(b"9\r\n%s\n\r\n" % line for line in lines) + b"0\r\n\r\n"
    assert not [coro for creator, coro in spawned if creator is connection]
    assert [json.loads(line) for line in lines] == [{"i": i} for i in range(3)]


def test_waiting_producer_writes_head_with_first_batch(monkeypatch):
    writes = _spy_on_writes(monkeypatch)

    async def handler(request):
        async def batches():
            yield b'{"i": 0}\n{"i": 1}\n'
            await asyncio.sleep(0.01)  # a shard in flight
            yield b'{"i": 2}\n'

        return StreamResponse(lines=batches())

    async def client(server, reader, writer):
        writer.write(b"GET /waits HTTP/1.1\r\nConnection: keep-alive\r\n\r\n")
        _head, lines = await _read_chunked(reader)
        return asyncio.current_task(), lines

    me, lines = asyncio.run(_with_server(handler, client))
    served = [data for task, data in writes if task is not me]
    assert served[0].endswith(b"\r\n\r\n12\r\n" + b'{"i": 0}\n{"i": 1}\n' + b"\r\n")
    assert served[1:] == [b'9\r\n{"i": 2}\n\r\n', b"0\r\n\r\n"]
    assert [json.loads(line) for line in lines] == [{"i": i} for i in range(3)]


@pytest.mark.parametrize("parks_on", ["future", "bare-yield"])
def test_hang_up_before_the_first_shard_cancels_producer_and_shard(parks_on):
    shards, ended = [], []

    async def handler(request):
        async def waits():
            shard = asyncio.get_running_loop().create_future()
            shards.append(shard)
            yield b'{"kind": "header"}\n'
            try:
                if parks_on == "future":
                    await asyncio.shield(shard)
                while not shard.done():
                    await asyncio.sleep(0)  # a bare yield: the cancel is thrown in
                yield shard.result()
            except asyncio.CancelledError:
                ended.append("cancelled")
                raise
            finally:
                shard.cancel()  # what the service's finally does to its shards

        return StreamResponse(lines=waits())

    async def client(server, reader, writer):
        writer.write(b"GET /waits HTTP/1.1\r\nConnection: keep-alive\r\n\r\n")
        await reader.readuntil(b"\r\n\r\n")
        assert await reader.readuntil(b"\r\n") == b"13\r\n"
        writer.write_eof()  # hang up mid-stream
        rest = await reader.read()
        while not shards[0].done():
            await asyncio.sleep(0.01)
        return rest

    assert asyncio.run(_with_server(handler, client)) == b'{"kind": "header"}\n\r\n'
    assert ended == ["cancelled"] and shards[0].cancelled()


def test_hang_up_before_the_first_batch_cancels_the_producer():
    # A producer that waits before its header (the service's cache
    # partition yields every few hundred tasks) is watched from that wait.
    ended = []

    async def handler(request):
        async def partition():
            try:
                await asyncio.sleep(60)
            except asyncio.CancelledError:
                ended.append("cancelled")
                raise
            yield b'{"kind": "header"}\n'

        return StreamResponse(lines=partition())

    async def client(server, reader, writer):
        writer.write(b"GET /partition HTTP/1.1\r\nConnection: keep-alive\r\n\r\n")
        head = await reader.readuntil(b"\r\n\r\n")
        writer.write_eof()  # hang up before the first batch
        return head, await reader.read()

    head, rest = asyncio.run(_with_server(handler, client))
    assert b"Transfer-Encoding: chunked" in head and rest == b""
    assert ended == ["cancelled"]
