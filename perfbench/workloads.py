"""The five workloads: seeded request streams, reply framing, oracles.

A :class:`Session` is the client half of one connection, sans I/O: it
makes the next request, says when the bytes received so far hold one
complete reply, and checks that reply against what a client-side model
predicts.  Everything a session sends derives from ``--seed`` and the
connection index; nothing here imports ``repro`` — the load generator
speaks the wire protocols itself, as a real client would.
"""

from __future__ import annotations

import hashlib
import random
import struct
from dataclasses import dataclass

from perfbench.fixtures import (
    DIVERGE_MARKER,
    ECHO_PREFIX,
    FIELD_LENGTH,
    TOKEN_LENGTH,
    TOKEN_PREFIX,
)

KV_KEYS = 64
PG_ACCOUNTS = 10_000  # pgbench scale 1 in this repository


class Session:
    """Client half of one connection.  Subclasses set ``expected`` (or
    override :meth:`check`) when they make a request."""

    #: Bytes sent once after connecting, answered by one reply that
    #: :meth:`check_handshake` validates (pgwire startup).
    handshake: bytes | None = None
    #: Whether the protocol module classifies the last request made as
    #: state-changing — what a configured journal records.
    writes = False
    #: Commands pipelined to every instance before the run (kv preload).
    preload: list[bytes] = []
    #: What :meth:`fetch_reference` read over the direct arm, if anything.
    reference = None

    def __init__(self, seed: int, connection: int) -> None:
        self.rng = random.Random(f"{type(self).__name__}:{seed}:{connection}")
        self.connection = connection
        self.sent = 0
        self.expected = b""

    def next_request(self) -> bytes:
        raise NotImplementedError

    def reply_length(self, buffer: bytearray) -> int:
        """Length of the complete reply at the head of ``buffer``, or 0."""
        raise NotImplementedError

    def check(self, reply: bytes) -> bool:
        return reply == self.expected

    def check_handshake(self, reply: bytes) -> bool:
        return True

    @staticmethod
    def fetch_reference(exchange):
        """Read what the oracle needs from the unproxied service;
        ``exchange(request) -> reply`` talks to the direct arm."""
        return None

    def control_request(self) -> bytes:
        """The negative control: a request one instance answers differently."""
        raise NotImplementedError

    def blocked(self, reply: bytes | None) -> bool:
        """Whether ``reply`` (``None`` = connection closed) is RDDR's
        intervention rather than an answer."""
        return reply is None


# --------------------------------------------------------------- echo_small


class EchoSession(Session):
    #: ``tcp`` has no state classifier: a journal records every line.
    writes = True

    def next_request(self) -> bytes:
        self.sent += 1
        line = b"echo c%d %06d %012x\n" % (self.connection, self.sent, self.rng.getrandbits(48))
        self.expected = line
        return line

    def reply_length(self, buffer: bytearray) -> int:
        return buffer.find(b"\n") + 1

    def control_request(self) -> bytes:
        return b"echo " + DIVERGE_MARKER + b"\n"


# ----------------------------------------------------------------- kv_read/write


def _resp_command(*parts: bytes) -> bytes:
    return b"*%d\r\n" % len(parts) + b"".join(
        b"$%d\r\n%s\r\n" % (len(part), part) for part in parts
    )


def _resp_bulk(value: bytes | None) -> bytes:
    return b"$-1\r\n" if value is None else b"$%d\r\n%s\r\n" % (len(value), value)


def kv_preload(seed: int) -> dict[bytes, bytes]:
    """The 64 keys every kv instance holds before the run starts."""
    rng = random.Random(f"kv-preload:{seed}")
    return {b"key:%02d" % index: b"v%016x" % rng.getrandbits(64) for index in range(KV_KEYS)}


KV_SNAPSHOT = _resp_command(b"SNAPSHOT")
#: Written to one instance behind the proxy's back: the kv negative control.
KV_CONTROL_WRITE = _resp_command(b"SET", DIVERGE_MARKER, b"1")


class _KvSession(Session):
    def __init__(self, seed: int, connection: int) -> None:
        super().__init__(seed, connection)
        self.preloaded = kv_preload(seed)
        self.preload = [
            _resp_command(b"SET", key, value) for key, value in self.preloaded.items()
        ]

    def reply_length(self, buffer: bytearray) -> int:
        end = buffer.find(b"\r\n")
        if end < 0:
            return 0
        if buffer[0:1] != b"$" or buffer[1:2] == b"-":
            return end + 2
        total = end + 2 + int(buffer[1:end]) + 2
        return total if len(buffer) >= total else 0

    def control_request(self) -> bytes:
        return _resp_command(b"GET", DIVERGE_MARKER)

    def blocked(self, reply: bytes | None) -> bool:
        return reply is None or reply.startswith(b"-RDDRERR")


class KvReadSession(_KvSession):
    def __init__(self, seed: int, connection: int) -> None:
        super().__init__(seed, connection)
        self.items = list(self.preloaded.items())

    def next_request(self) -> bytes:
        self.sent += 1
        key, value = self.rng.choice(self.items)
        self.expected = _resp_bulk(value)
        return _resp_command(b"GET", key)


class KvWriteSession(_KvSession):
    """90% SET / 10% DEL over this connection's own 64 keys, so the
    model below predicts every reply whatever the other connection does."""

    writes = True

    def __init__(self, seed: int, connection: int) -> None:
        super().__init__(seed, connection)
        self.model: dict[bytes, bytes] = {}

    def next_request(self) -> bytes:
        self.sent += 1
        key = b"c%d:%02d" % (self.connection, self.rng.randrange(KV_KEYS))
        if self.rng.random() < 0.9:
            value = b"w%016x" % self.rng.getrandbits(64)
            self.model[key] = value
            self.expected = b"+OK\r\n"
            return _resp_command(b"SET", key, value)
        self.expected = b":%d\r\n" % (self.model.pop(key, None) is not None)
        return _resp_command(b"DEL", key)


def kv_snapshot(state: dict[bytes, bytes]) -> bytes:
    """The SNAPSHOT reply a kvstore holding ``state`` must give."""
    blob = b"".join(
        b"%d %s%d %s" % (len(key), key, len(state[key]), state[key]) for key in sorted(state)
    )
    return _resp_bulk(blob)


# ---------------------------------------------------------------- http_form


class FormSession(Session):
    """``GET /form`` -> ``POST /submit`` -> ..., each request presenting
    the CSRF token of the previous page."""

    def __init__(self, seed: int, connection: int) -> None:
        super().__init__(seed, connection)
        self.token = b""
        self.field = b""

    def next_request(self) -> bytes:
        self.sent += 1
        self.writes = self.sent % 2 == 0  # safe methods are not journaled
        if not self.writes:
            self.field = b""
            query = b"?csrf=" + self.token if self.token else b""
            return b"GET /form" + query + b" HTTP/1.1\r\nHost: perfbench\r\n\r\n"
        self.field = b"%0*x" % (FIELD_LENGTH, self.rng.getrandbits(4 * FIELD_LENGTH))
        body = b"csrf=" + self.token + b"&field=" + self.field
        return (
            b"POST /submit HTTP/1.1\r\nHost: perfbench\r\n"
            b"Content-Type: application/x-www-form-urlencoded\r\n"
            b"Content-Length: %d\r\n\r\n" % len(body)
        ) + body

    def reply_length(self, buffer: bytearray) -> int:
        head = buffer.find(b"\r\n\r\n")
        if head < 0:
            return 0
        marker = buffer.find(b"Content-Length: ", 0, head)
        length = int(buffer[marker + 16 : buffer.find(b"\r\n", marker)])
        total = head + 4 + length
        return total if len(buffer) >= total else 0

    def check(self, reply: bytes) -> bool:
        at = reply.find(TOKEN_PREFIX)
        if not reply.startswith(b"HTTP/1.1 200 ") or at < 0:
            return False
        at += len(TOKEN_PREFIX)
        self.token = reply[at : at + TOKEN_LENGTH]
        echo = b"accepted " + self.field if self.field else b"form"
        return ECHO_PREFIX + echo.ljust(9 + FIELD_LENGTH) + b"</p>" in reply

    def control_request(self) -> bytes:
        return b"GET /form?x=" + DIVERGE_MARKER + b" HTTP/1.1\r\nHost: perfbench\r\n\r\n"

    def blocked(self, reply: bytes | None) -> bool:
        return reply is None or reply.startswith(b"HTTP/1.1 403 ") and b"RDDR intervened" in reply


# -------------------------------------------------------------- pg_outgoing

_INT32 = struct.Struct(">i")


def _pg_query(sql: bytes) -> bytes:
    return b"Q" + _INT32.pack(len(sql) + 5) + sql + b"\x00"


def _pg_data_row(values: list[bytes]) -> bytes:
    body = struct.pack(">h", len(values)) + b"".join(
        _INT32.pack(len(value)) + value for value in values
    )
    return b"D" + _INT32.pack(len(body) + 4) + body


_PG_READY = b"Z\x00\x00\x00\x05I"
PG_ALL_ACCOUNTS = _pg_query(b"SELECT aid, abalance FROM pgbench_accounts;")


def pg_parse_rows(reply: bytes) -> list[list[bytes]]:
    """The DataRow values of one simple-query reply."""
    rows = []
    offset = 0
    while offset < len(reply):
        (length,) = _INT32.unpack_from(reply, offset + 1)
        if reply[offset : offset + 1] == b"D":
            (columns,) = struct.unpack_from(">h", reply, offset + 5)
            at, row = offset + 7, []
            for _ in range(columns):
                (size,) = _INT32.unpack_from(reply, at)
                row.append(reply[at + 4 : at + 4 + size])
                at += 4 + size
            rows.append(row)
        offset += 1 + length
    return rows


class PgSession(Session):
    """pgbench ``-S``: one indexed point SELECT per transaction.

    ``reference`` (aid -> abalance) is read from the database over the
    *direct* arm before the timed blocks, so every reply through RDDR is
    checked against what the unproxied database said.
    """

    _params = b"user\x00postgres\x00database\x00postgres\x00\x00"
    handshake = _INT32.pack(len(_params) + 8) + _INT32.pack(196608) + _params

    def __init__(self, seed: int, connection: int) -> None:
        super().__init__(seed, connection)
        self.aid = 0

    @staticmethod
    def fetch_reference(exchange) -> dict[int, bytes]:
        return {int(aid): abalance for aid, abalance in pg_parse_rows(exchange(PG_ALL_ACCOUNTS))}

    def next_request(self) -> bytes:
        self.sent += 1
        self.aid = self.rng.randint(1, PG_ACCOUNTS)
        return _pg_query(b"SELECT abalance FROM pgbench_accounts WHERE aid = %d;" % self.aid)

    def reply_length(self, buffer: bytearray) -> int:
        offset = 0
        while offset + 5 <= len(buffer):
            (length,) = _INT32.unpack_from(buffer, offset + 1)
            end = offset + 1 + length
            if end > len(buffer):
                return 0
            if buffer[offset : offset + 1] == b"Z":
                return end
            offset = end
        return 0

    def check(self, reply: bytes) -> bool:
        return (
            reply.endswith(_PG_READY)
            and _pg_data_row([self.reference[self.aid]]) in reply
        )

    def check_handshake(self, reply: bytes) -> bool:
        return reply.startswith(b"R") and reply.endswith(_PG_READY)

    def control_request(self) -> bytes:
        return _pg_query(
            b"/*" + DIVERGE_MARKER + b"*/SELECT abalance FROM pgbench_accounts WHERE aid = 1;"
        )

    def blocked(self, reply: bytes | None) -> bool:
        return reply is None or reply.startswith(b"E") and b"RDDR intervened" in reply


# ----------------------------------------------------------------- registry


@dataclass(frozen=True)
class Workload:
    name: str
    session: type[Session]
    why: str
    #: Deployed with a fsynced journal (the kv pair).
    journal: bool = False
    #: Served through an outgoing proxy as well (Table-I row 9).
    outgoing: bool = False


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            "echo_small", EchoSession,
            "smallest message on the unanimous fast path: per-message proxy cost "
            "(framing, fan-out, collect, wake-ups) is nearly all of the exchange",
        ),
        Workload(
            "http_form", FormSession,
            "18 KB CSRF form pages with per-instance tokens and noise: tokenize, "
            "ephemeral, de-noise and masked diff dominate; transport is diluted",
        ),
        Workload(
            "kv_read", KvReadSession,
            "100% GET on a journaled deployment that never appends: a journal or "
            "mutates_state change that taxes reads shows here and nowhere else",
            journal=True,
        ),
        Workload(
            "kv_write", KvWriteSession,
            "90% SET / 10% DEL, every exchange journaled and fsynced before the "
            "reply: the only workload where the journal does most of the work",
            journal=True,
        ),
        Workload(
            "pg_outgoing", PgSession,
            "pgbench SELECT through incoming proxy, 3 relays, outgoing proxy and "
            "one database: the only workload that exercises the outgoing proxy",
            outgoing=True,
        ),
    )
}


def request_digest(name: str, seed: int, *, connections: int = 2, requests: int = 500) -> str:
    """SHA-256 over the first ``requests`` requests of each connection's
    stream, generated offline — the same seed must give the same digest."""
    digest = hashlib.sha256()
    for connection in range(connections):
        session = WORKLOADS[name].session(seed, connection)
        for _ in range(requests):
            payload = session.next_request()
            digest.update(len(payload).to_bytes(4, "big") + payload)
    return digest.hexdigest()
