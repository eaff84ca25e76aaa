"""Benchmark-owned fixture servers, hosted on the child's event loop.

These are the "microservice instances" for the workloads whose service
the benchmark owns (``echo_small``, ``http_form``) plus the byte relay
used to tamper with (``pg_outgoing`` negative control) or tap (layer
replay capture) a connection.  Nothing here imports ``repro``: a fixture
is what RDDR protects, not part of it.

Every fixture's nondeterminism comes from ``random.Random`` seeded with
the run seed and the instance index, so the same ``--seed`` gives the
same bytes on every run.
"""

from __future__ import annotations

import asyncio
import functools
import random
import string

Address = tuple[str, int]

#: Requests carrying this marker are answered differently by the one
#: instance built with ``diverge=True`` — the negative control.
DIVERGE_MARKER = b"perfbench-diverge"

_ALNUM = string.ascii_letters + string.digits


class Fixture:
    """A started asyncio TCP server with symmetric start/close."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self.host = host
        self.port = port
        self._server: asyncio.base_events.Server | None = None
        self._writers: set[asyncio.StreamWriter] = set()

    @property
    def address(self) -> Address:
        return (self.host, self.port)

    async def start(self) -> "Fixture":
        self._server = await asyncio.start_server(self._guarded, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
        for writer in list(self._writers):
            writer.close()

    async def _guarded(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._writers.add(writer)
        try:
            await self.serve(reader, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            # Loop teardown cancels parked handlers; the connection is
            # going away regardless, so end quietly (py3.11 logs a
            # cancelled stream handler as an unretrieved exception).
            pass
        finally:
            self._writers.discard(writer)
            writer.close()

    async def serve(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        raise NotImplementedError


class EchoFixture(Fixture):
    """Newline-framed echo: the smallest possible instance."""

    def __init__(self, *, diverge: bool = False, **kwargs) -> None:
        super().__init__(**kwargs)
        self.diverge = diverge

    async def serve(self, reader, writer) -> None:
        while line := await reader.readline():
            if self.diverge and DIVERGE_MARKER in line:
                line = b"diverged\n"
            writer.write(line)
            await writer.drain()


# ---------------------------------------------------------------- http form

PAGE_LINES = 200
_TOKEN_LINE = 20
_NOISE_LINES = (50, 90, 130, 170)
_ECHO_LINE = 190
_FLIP_LINE = 100
TOKEN_LENGTH = 24
NOISE_LENGTH = 8
FIELD_LENGTH = 12

TOKEN_PREFIX = b'<input type="hidden" name="csrf" value="'
ECHO_PREFIX = b'<p id="echo">'


@functools.cache
def _page_template() -> tuple[bytes, ...]:
    """The static page, split at the six dynamic fields.

    ``template[0] + token + template[1] + noise0 + ... + template[5] +
    echo + template[6]`` is one ~18 KB body.  The filler is fixed text
    (not seeded): every instance of every run serves the same static
    lines, so only the fields below differ.
    """
    filler = random.Random("perfbench-page")
    lines = []
    for number in range(PAGE_LINES):
        words = " ".join(
            "".join(filler.choices(string.ascii_lowercase, k=filler.randint(3, 9)))
            for _ in range(12)
        )
        lines.append(f'<div class="row" id="r{number:03d}">{words:<62.62}</div>')
    lines[_TOKEN_LINE] = TOKEN_PREFIX.decode() + "\x00" + '">'
    for noise_line in _NOISE_LINES:
        lines[noise_line] = "<!-- render-id " + "\x00" + " -->"
    lines[_ECHO_LINE] = ECHO_PREFIX.decode() + "\x00" + "</p>"
    return tuple(part.encode() for part in "\n".join(lines).split("\x00"))


class FormFixture(Fixture):
    """HTTP/1.1 CSRF form service: ``GET /form`` and ``POST /submit``.

    Every page carries one fresh per-instance CSRF token and four short
    per-instance noise ids.  Every request after a connection's first
    must present the token of the previous page (``csrf=`` in the query
    string or the form body); a wrong or missing token is *rejected* and
    counted, which is how the benchmark knows RDDR rewrote each
    instance's own token into its copy of the request.
    """

    def __init__(
        self, *, seed: int, index: int, powered_by: str, diverge: bool = False, **kwargs
    ) -> None:
        super().__init__(**kwargs)
        self.diverge = diverge
        self.rejected = 0
        self._rng = random.Random(f"form:{seed}:{index}")
        self._outstanding: set[bytes] = set()
        self._template = _page_template()
        self._head = (
            "HTTP/1.1 {status}\r\n"
            "Content-Type: text/html\r\n"
            f"X-Powered-By: {powered_by}\r\n"
            "Content-Length: {length}\r\n\r\n"
        )

    def _random(self, length: int) -> bytes:
        return "".join(self._rng.choices(_ALNUM, k=length)).encode()

    def _page(self, echo: bytes, *, flip: bool) -> bytes:
        token = self._random(TOKEN_LENGTH)
        self._outstanding.add(token)
        fields = [token, *(self._random(NOISE_LENGTH) for _ in _NOISE_LINES), echo]
        parts = [self._template[0]]
        for field, static in zip(fields, self._template[1:]):
            parts.append(field)
            parts.append(static)
        body = b"".join(parts)
        if flip:
            lines = body.split(b"\n")
            lines[_FLIP_LINE] = lines[_FLIP_LINE].swapcase()
            body = b"\n".join(lines)
        return body

    async def serve(self, reader, writer) -> None:
        first = True
        while True:
            try:
                head = await reader.readuntil(b"\r\n\r\n")
            except asyncio.IncompleteReadError:
                return
            request_line, _, headers = head.partition(b"\r\n")
            method, target, _ = request_line.split(b" ", 2)
            body = b""
            marker = headers.lower().find(b"content-length:")
            if marker >= 0:
                end = headers.index(b"\r\n", marker)
                body = await reader.readexactly(int(headers[marker + 15 : end]))
            path, _, query = target.partition(b"?")
            params = dict(
                pair.split(b"=", 1)
                for pair in (query or body).split(b"&")
                if b"=" in pair
            )
            token = params.get(b"csrf")
            accepted = (
                token in self._outstanding
                if token is not None
                else first and method == b"GET"
            )
            self._outstanding.discard(token)
            first = False
            if not accepted:
                self.rejected += 1
                page, status = b"csrf token rejected\n", "403 Forbidden"
            else:
                echo = b"form" if method == b"GET" else b"accepted " + params.get(b"field", b"")
                flip = self.diverge and DIVERGE_MARKER in target
                page, status = self._page(echo.ljust(9 + FIELD_LENGTH), flip=flip), "200 OK"
            writer.write(self._head.format(status=status, length=len(page)).encode() + page)
            await writer.drain()


# -------------------------------------------------------------------- relay

_CHUNK = 64 * 1024


class Relay(Fixture):
    """Byte relay onto one backend, optionally tampering or tapping.

    ``tamper`` upper-cases the ``/*perfbench-diverge*/`` SQL comment on
    its way to the backend (same length, so framing holds) — the one
    relay of ``pg_outgoing`` that makes the *outgoing* proxy see a split.
    ``tap`` records every chunk as ``(toward_backend, bytes)`` for the
    layer replay; under a closed loop with one connection the direction
    flips are exactly the message boundaries.
    """

    def __init__(
        self,
        backend: Address,
        *,
        tamper: bool = False,
        tap: list[tuple[bool, bytes]] | None = None,
        **kwargs,
    ) -> None:
        super().__init__(**kwargs)
        self.backend = backend
        self.tamper = tamper
        self.tap = tap

    async def serve(self, reader, writer) -> None:
        # Dial once the client commits bytes, as repro's RelayServer does:
        # a connect-only probe must not join an outgoing connection group.
        first = await reader.read(_CHUNK)
        if not first:
            return
        backend_reader, backend_writer = await asyncio.open_connection(*self.backend)
        self._writers.add(backend_writer)
        pumps = [
            asyncio.ensure_future(self._pump(reader, backend_writer, True, first)),
            asyncio.ensure_future(self._pump(backend_reader, writer, False, b"")),
        ]
        try:
            await asyncio.wait(pumps, return_when=asyncio.FIRST_COMPLETED)
        finally:
            for pump in pumps:
                pump.cancel()
            await asyncio.gather(*pumps, return_exceptions=True)
            self._writers.discard(backend_writer)
            backend_writer.close()

    async def _pump(self, source, sink, toward_backend: bool, chunk: bytes) -> None:
        marker = b"/*" + DIVERGE_MARKER + b"*/"
        try:
            while True:
                if not chunk:
                    chunk = await source.read(_CHUNK)
                    if not chunk:
                        return
                if self.tamper and toward_backend and marker in chunk:
                    chunk = chunk.replace(marker, marker.upper())
                if self.tap is not None:
                    self.tap.append((toward_backend, chunk))
                sink.write(chunk)
                await sink.drain()
                chunk = b""
        except (ConnectionError, OSError):
            return


def tapped_messages(tap: list[tuple[bool, bytes]]) -> tuple[list[bytes], list[bytes]]:
    """Coalesce a closed-loop tap into ``(requests, replies)``."""
    requests: list[bytes] = []
    replies: list[bytes] = []
    previous = None
    for toward_backend, chunk in tap:
        side = requests if toward_backend else replies
        if toward_backend == previous:
            side[-1] += chunk
        else:
            side.append(chunk)
        previous = toward_backend
    return requests, replies
