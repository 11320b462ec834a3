"""HTTP boundary: malformed or oversized requests get an answer.

A garbled request line or a bad ``Content-Length`` is a 400, a body
over the service's cap is a 413 answered before any body byte is read,
a blank line or EOF closes the connection quietly, and no case escapes
``handle_client`` as an exception (which asyncio would log as
unhandled). Each case feeds raw bytes to a real ``StreamReader``; one
test repeats the worst case over a live socket.
"""

import asyncio
import json
import socket
import threading

import pytest

from repro.service import SweepBroker
from repro.service.http import MAX_BODY_BYTES, SweepService, serve_async


class _Writer:
    """The slice of ``StreamWriter`` that ``handle_client`` uses."""

    def __init__(self) -> None:
        self.data = b""
        self.closed = False

    def write(self, data: bytes) -> None:
        self.data += data

    async def drain(self) -> None:
        pass

    def close(self) -> None:
        self.closed = True

    async def wait_closed(self) -> None:
        pass


@pytest.fixture
def service(tmp_path):
    broker = SweepBroker(
        state_dir=tmp_path / "state",
        cache_dir=tmp_path / "cache",
        pool="inline",
    )
    yield SweepService(broker)
    broker.shutdown(wait=False)


def exchange(service, raw: bytes, eof: bool = True):
    """Run ``handle_client`` on ``raw``; returns (status, payload)."""

    async def main() -> _Writer:
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        if eof:
            reader.feed_eof()
        writer = _Writer()
        await service.handle_client(reader, writer)
        return writer

    writer = asyncio.run(main())
    assert writer.closed
    if not writer.data:
        return None, None
    head, _, body = writer.data.partition(b"\r\n\r\n")
    status = int(head.split()[1])
    return status, json.loads(body)


def post(length: str, body: bytes = b"") -> bytes:
    return (
        b"POST /jobs HTTP/1.1\r\nHost: x\r\n"
        + f"Content-Length: {length}\r\n\r\n".encode()
        + body
    )


class TestContentLength:
    @pytest.mark.parametrize("length", ["abc", "1.5", "0x10", "12abc"])
    def test_non_numeric_is_400(self, service, length):
        status, payload = exchange(service, post(length))
        assert status == 400
        assert "Content-Length" in payload["error"]

    @pytest.mark.parametrize("length", ["-1", "-4096"])
    def test_negative_is_400(self, service, length):
        status, payload = exchange(service, post(length, b"{}"))
        assert status == 400
        assert "Content-Length" in payload["error"]

    def test_over_cap_is_413_without_reading_the_body(self, service):
        # No body bytes and no EOF: reading any would block forever.
        status, payload = exchange(
            service, post(str(MAX_BODY_BYTES + 1)), eof=False
        )
        assert status == 413
        assert str(MAX_BODY_BYTES) in payload["error"]

    def test_at_cap_is_read(self, service):
        body = b" " * MAX_BODY_BYTES
        status, payload = exchange(service, post(str(len(body)), body))
        assert status == 400  # read in full, then rejected as a grid
        assert "bad grid payload" in payload["error"]

    def test_short_body_closes_quietly(self, service):
        assert exchange(service, post("100", b"{}")) == (None, None)

    def test_undecodable_header_is_400(self, service):
        raw = b"POST /jobs HTTP/1.1\r\nX-Bad: \xff\xfe\r\n\r\n"
        status, _ = exchange(service, raw)
        assert status == 400


class TestRequestLine:
    @pytest.mark.parametrize(
        "raw", [b"GARBAGE\r\n\r\n", b"GET /jobs\r\n\r\n"]
    )
    def test_garbled_request_line_is_400(self, service, raw):
        status, payload = exchange(service, raw)
        assert status == 400
        assert "malformed request line" in payload["error"]

    @pytest.mark.parametrize("raw", [b"", b"\r\n"])
    def test_blank_line_or_eof_closes_quietly(self, service, raw):
        assert exchange(service, raw) == (None, None)


class TestLiveSocket:
    def test_bad_lengths_answered_and_nothing_logged(self, service):
        loop = asyncio.new_event_loop()
        unhandled = []
        loop.set_exception_handler(lambda _loop, ctx: unhandled.append(ctx))
        started = threading.Event()
        box = {}

        async def main():
            server = await serve_async(service.broker, port=0)
            box["server"] = server
            box["port"] = server.sockets[0].getsockname()[1]
            started.set()
            async with server:
                await server.serve_forever()

        def run():
            asyncio.set_event_loop(loop)
            try:
                loop.run_until_complete(main())
            except asyncio.CancelledError:
                pass

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        assert started.wait(timeout=10)

        def send(raw: bytes) -> bytes:
            with socket.create_connection(
                ("127.0.0.1", box["port"]), timeout=10
            ) as sock:
                sock.sendall(raw)
                chunks = []
                while True:
                    chunk = sock.recv(65536)
                    if not chunk:
                        return b"".join(chunks)
                    chunks.append(chunk)

        try:
            assert send(post("abc")).startswith(b"HTTP/1.1 400 ")
            assert send(post("-1")).startswith(b"HTTP/1.1 400 ")
            assert send(post(str(10**12))).startswith(b"HTTP/1.1 413 ")
            assert send(b"GARBAGE\r\n\r\n").startswith(b"HTTP/1.1 400 ")
            assert send(b"GET /healthz HTTP/1.1\r\n\r\n").startswith(
                b"HTTP/1.1 200 "
            )
        finally:
            loop.call_soon_threadsafe(box["server"].close)
            loop.call_soon_threadsafe(
                lambda: [t.cancel() for t in asyncio.all_tasks(loop)]
            )
            thread.join(timeout=10)
        assert not thread.is_alive()
        loop.close()
        assert unhandled == []
