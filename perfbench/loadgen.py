"""The load generator: one process, one thread, closed loop.

Each connection sends its next request only after the previous reply has
arrived and been checked — the paper's own load model (pgbench with *c*
clients) and the model of any caller that waits for its answer.  With
one connection the loop blocks in ``recv``; with more it multiplexes
them through ``selectors``, still on one thread, and never opens more
connections than the machine has processors.

:class:`Child` is the other half of the process model: it spawns the
system under test (``python -m perfbench.sut``) and speaks the JSON-lines
control pipe.
"""

from __future__ import annotations

import gc
import json
import os
import selectors
import socket
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path

from perfbench.spans import SpanLog
from perfbench.workloads import Session

ROOT = Path(__file__).resolve().parent.parent
SOCKET_TIMEOUT = 20.0


class BenchmarkError(RuntimeError):
    """The run cannot produce a result (set-up failed, the child died)."""


class Connection:
    """One client connection and the session that drives it."""

    def __init__(self, address, session: Session) -> None:
        self.session = session
        self.buffer = bytearray()
        self.started = 0
        self.sent = 0
        self.sock = socket.create_connection(tuple(address), timeout=SOCKET_TIMEOUT)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        if session.handshake is not None:
            self.sock.sendall(session.handshake)
            reply = self.read_reply()
            if reply is None or not session.check_handshake(reply):
                raise BenchmarkError(f"handshake refused: {reply!r}")

    def read_reply(self) -> bytes | None:
        """Block until one complete reply; ``None`` if the peer closed."""
        while True:
            reply = self.take_reply()
            if reply is not None:
                return reply
            try:
                data = self.sock.recv(1 << 16)
            except (ConnectionError, socket.timeout):
                return None
            if not data:
                return None
            self.buffer += data

    def take_reply(self) -> bytes | None:
        length = self.session.reply_length(self.buffer) if self.buffer else 0
        if not length:
            return None
        reply = bytes(self.buffer[:length])
        del self.buffer[:length]
        return reply

    def exchange(self, request: bytes) -> bytes | None:
        self.sock.sendall(request)
        return self.read_reply()

    def close(self) -> None:
        self.sock.close()


@dataclass
class Block:
    """What one timed block observed."""

    latencies_ns: array = field(default_factory=lambda: array("q"))
    attempted: int = 0
    failed: int = 0
    writes: int = 0
    wall_s: float = 0.0
    loadgen_cpu_s: float = 0.0
    #: The child's resource counters over the block (set by the runner).
    sut_cpu_s: float = 0.0
    sut_ctx_switches: int = 0
    sut_gc_gen0: int = 0
    sut_lags_ms: list = field(default_factory=list)

    @property
    def completed(self) -> int:
        return self.attempted - self.failed


def run_block(
    connections: list[Connection],
    seconds: float,
    *,
    max_exchanges: int | None = None,
    spans: SpanLog | None = None,
) -> Block:
    """Drive ``connections`` closed-loop for ``seconds``.

    Latency is client-observed: from just before the request is written
    to the moment its last reply byte has been read.  A wrong reply is a
    failure and the connection carries on; a closed connection is a
    failure and the connection retires.  With ``spans`` every exchange
    also records ``loadgen.exchange`` > ``send`` / ``recv`` / ``check``.
    """
    block = Block()
    now = time.perf_counter_ns
    selector = selectors.DefaultSelector() if len(connections) > 1 else None
    gc_was_enabled = gc.isenabled()
    gc.disable()  # the generator's own collector must not stall a reply
    cpu_started = time.process_time()
    started = now()
    deadline = started + int(seconds * 1e9)
    live = 0

    def send(connection: Connection) -> None:
        request = connection.session.next_request()
        block.attempted += 1
        block.writes += connection.session.writes
        connection.started = now()
        connection.sock.sendall(request)
        if spans is not None:
            connection.sent = now()

    def finish(connection: Connection, reply: bytes | None) -> bool:
        """Record one outcome; returns whether to send the next request."""
        done = now()
        block.latencies_ns.append(done - connection.started)
        ok = reply is not None and connection.session.check(reply)
        if not ok:
            block.failed += 1
        if spans is not None:
            checked = now()
            exchange = block.attempted
            root = spans.add("loadgen.exchange", connection.started, checked, -1, exchange)
            spans.add("loadgen.send", connection.started, connection.sent, root, exchange)
            spans.add("loadgen.recv", connection.sent, done, root, exchange)
            spans.add("loadgen.check", done, checked, root, exchange)
        if reply is None:
            return False
        return done < deadline and (max_exchanges is None or block.attempted < max_exchanges)

    try:
        for connection in connections:
            send(connection)
            live += 1
            if selector is not None:
                selector.register(connection.sock, selectors.EVENT_READ, connection)
        if selector is None:
            connection = connections[0]
            while finish(connection, connection.read_reply()):
                send(connection)
        else:
            while live:
                for key, _ in selector.select(SOCKET_TIMEOUT):
                    connection = key.data
                    try:
                        data = connection.sock.recv(1 << 16)
                    except ConnectionError:
                        data = b""
                    connection.buffer += data
                    reply = connection.take_reply() if data else None
                    if data and reply is None:
                        continue  # partial reply: wait for the rest
                    if finish(connection, reply):
                        send(connection)
                    else:
                        selector.unregister(connection.sock)
                        live -= 1
    finally:
        if selector is not None:
            selector.close()
        block.wall_s = (now() - started) / 1e9
        block.loadgen_cpu_s = time.process_time() - cpu_started
        if gc_was_enabled:
            gc.enable()
    return block


class Child:
    """The system-under-test process and its control pipe."""

    def __init__(self, workdir: str, *, cpu: int | None = None) -> None:
        environment = dict(os.environ)
        environment["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT), str(ROOT / "src"), environment.get("PYTHONPATH", "")]
        ).rstrip(os.pathsep)
        # Same string hashes in every run: one less thing that differs
        # between two runs of the same seed.
        environment["PYTHONHASHSEED"] = "0"
        self.process = subprocess.Popen(
            [sys.executable, "-m", "perfbench.sut", workdir],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=environment,
            cwd=str(ROOT),
        )
        if cpu is not None:
            os.sched_setaffinity(self.process.pid, {cpu})

    def call(self, cmd: str, **arguments) -> dict:
        message = json.dumps({"cmd": cmd, **arguments}) + "\n"
        try:
            self.process.stdin.write(message.encode())
            self.process.stdin.flush()
            line = self.process.stdout.readline()
        except BrokenPipeError:
            line = b""
        if not line:
            raise BenchmarkError(
                f"system under test exited (code {self.process.poll()}) during {cmd!r}"
            )
        reply = json.loads(line)
        if "error" in reply:
            raise BenchmarkError(f"{cmd} failed in the system under test:\n{reply['error']}")
        return reply

    def close(self) -> None:
        """Stop the child and wait until it has ended."""
        if self.process.stdin is not None:
            self.process.stdin.close()
        try:
            self.process.wait(timeout=5)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()
