"""Fault × degraded-quorum matrix against the pipelined replication path.

PR 7 made the hot path concurrent in two places: the incoming proxy's
replicate stage buffers every link's write before draining any of them,
and response collection runs under one shared deadline timer
(``asyncio.wait``) instead of a ``wait_for`` per link.  The outgoing
proxy's fan-back got the same write-all-then-drain-all treatment.  These
tests pin the *semantics* across that change: a link that fails mid-write
or stalls past the deadline degrades the exchange exactly as the
sequential code did — dropped under quorum, blocked below it — and the
surviving majority's responses are untouched.
"""

from __future__ import annotations

import asyncio
import contextlib

from repro.apps.echo import EchoServer
from repro.apps.kvstore import RedisLikeServer
from repro.core import events as ev
from repro.core.config import RddrConfig
from repro.core.incoming import IncomingRequestProxy
from repro.core.outgoing import OutgoingRequestProxy
from repro.faults import FaultProxy, FaultSchedule, FaultSpec
from repro.obs import Observer
from repro.protocols import get_protocol
from repro.protocols.resp import encode_command
from repro.transport.retry import open_connection_retry
from repro.transport.streams import ConnectionClosed, close_writer, drain_write
from tests.helpers import run

DEADLINE = 0.3


def _config(**overrides) -> RddrConfig:
    base = dict(
        protocol="tcp",
        exchange_timeout=5.0,
        instance_response_deadline=DEADLINE,
        ephemeral_state=False,
        divergence_policy="vote",
        degraded_quorum=True,
    )
    base.update(overrides)
    return RddrConfig(**base)


async def _client(address, lines: list[bytes], timeout: float = 3.0) -> list[bytes]:
    reader, writer = await open_connection_retry(*address)
    replies: list[bytes] = []
    try:
        for line in lines:
            writer.write(line + b"\n")
            await writer.drain()
            try:
                replies.append(await asyncio.wait_for(reader.readline(), timeout))
            except (asyncio.TimeoutError, ConnectionError):
                replies.append(b"")
    except ConnectionError:
        pass
    finally:
        await close_writer(writer)
    replies.extend(b"" for _ in range(len(lines) - len(replies)))
    return replies


def _drain_killing_port(target_port: int):
    """A drain_write that fails for writers dialed to ``target_port`` —
    deterministic "instance died mid-write" for the replicate drain loop."""

    async def drain(writer):
        peer = writer.get_extra_info("peername")
        if peer is not None and peer[1] == target_port:
            raise ConnectionClosed("injected: instance died mid-write")
        await drain_write(writer)

    return drain


class TestIncomingMidWriteDeath:
    def test_death_mid_write_degrades_under_quorum(self, monkeypatch):
        async def main():
            servers = [await EchoServer().start() for _ in range(3)]
            proxy = IncomingRequestProxy(
                [s.address for s in servers], get_protocol("tcp"), _config()
            )
            monkeypatch.setattr(
                "repro.core.incoming.drain_write",
                _drain_killing_port(servers[2].address[1]),
            )
            await proxy.start()
            try:
                replies = await _client(proxy.address, [b"a", b"b", b"c"])
            finally:
                await proxy.close()
                for server in servers:
                    await server.close()
            return proxy, replies

        proxy, replies = run(main())
        # Served throughout on the surviving pair; one DEGRADED drop.
        assert replies == [b"a\n", b"b\n", b"c\n"]
        degraded = proxy.events.events(ev.DEGRADED)
        assert len(degraded) == 1
        assert "instance 2" in degraded[0].detail
        assert "replicate" in degraded[0].detail
        assert proxy.metrics.degraded_exchanges == 1
        assert proxy.metrics.exchanges_blocked == 0

    def test_death_mid_write_blocks_below_quorum(self, monkeypatch):
        async def main():
            servers = [await EchoServer().start() for _ in range(3)]
            proxy = IncomingRequestProxy(
                [s.address for s in servers],
                get_protocol("tcp"),
                _config(degraded_quorum=False),
            )
            monkeypatch.setattr(
                "repro.core.incoming.drain_write",
                _drain_killing_port(servers[2].address[1]),
            )
            await proxy.start()
            try:
                replies = await _client(proxy.address, [b"a"])
            finally:
                await proxy.close()
                for server in servers:
                    await server.close()
            return proxy, replies

        proxy, replies = run(main())
        assert replies == [b""]  # tcp block response is a silent close
        assert proxy.metrics.exchanges_blocked == 1
        assert proxy.metrics.degraded_exchanges == 0
        assert any(
            "connection lost" in event.detail
            for event in proxy.events.events(ev.DIVERGENCE)
        )


class TestIncomingCollectFaults:
    def test_slow_link_stall_degrades_at_the_shared_deadline(self):
        """One stalled instance trips the single asyncio.wait timer; the
        survivors' responses are served, the straggler is dropped."""

        async def main():
            servers = [await EchoServer().start() for _ in range(3)]
            schedule = FaultSchedule(
                specs=[
                    FaultSpec(
                        kind="stall", instance=1, exchange=1, delay_ms=800.0
                    )
                ]
            )
            shims = [
                await FaultProxy(server.address, schedule, instance=i).start()
                for i, server in enumerate(servers)
            ]
            proxy = IncomingRequestProxy(
                [shim.address for shim in shims], get_protocol("tcp"), _config()
            )
            await proxy.start()
            try:
                replies = await _client(proxy.address, [b"a", b"b", b"c"])
            finally:
                await proxy.close()
                for shim in shims:
                    await shim.close()
                for server in servers:
                    await server.close()
            return proxy, replies

        proxy, replies = run(main())
        assert replies == [b"a\n", b"b\n", b"c\n"]
        degraded = proxy.events.events(ev.DEGRADED)
        assert len(degraded) == 1
        assert "instance 1" in degraded[0].detail
        assert proxy.metrics.degraded_exchanges == 1
        assert proxy.metrics.timeouts == 0

    def test_kill_during_fanout_degrades_and_keeps_serving(self):
        """N=3, an instance dies mid-exchange (its link closes with a
        half-written response during the fan-out): quorum absorbs it."""

        async def main():
            servers = [await EchoServer().start() for _ in range(3)]
            schedule = FaultSchedule(
                specs=[
                    FaultSpec(
                        kind="close_mid_response",
                        instance=2,
                        exchange=1,
                        offset=1,
                    )
                ]
            )
            shims = [
                await FaultProxy(server.address, schedule, instance=i).start()
                for i, server in enumerate(servers)
            ]
            proxy = IncomingRequestProxy(
                [shim.address for shim in shims], get_protocol("tcp"), _config()
            )
            await proxy.start()
            try:
                replies = await _client(proxy.address, [b"a", b"b", b"c"])
            finally:
                await proxy.close()
                for shim in shims:
                    await shim.close()
                for server in servers:
                    await server.close()
            return proxy, replies

        proxy, replies = run(main())
        assert replies == [b"a\n", b"b\n", b"c\n"]
        degraded = proxy.events.events(ev.DEGRADED)
        assert len(degraded) == 1
        assert "instance 2" in degraded[0].detail
        assert proxy.metrics.exchanges_blocked == 0


class TestOutgoingFanBack:
    async def _drive(self, config: RddrConfig, monkeypatch, kill_member: int):
        backend = await EchoServer().start()
        proxy = OutgoingRequestProxy(
            backend.address, 3, get_protocol("tcp"), config
        )
        await proxy.start()
        # Fail the fan-back drain for one member: accepted sockets keep
        # the proxy's per-instance listen port as their sockname.
        target_port = proxy.address_for_instance(kill_member)[1]

        async def drain(writer):
            sock = writer.get_extra_info("sockname")
            if sock is not None and sock[1] == target_port:
                raise ConnectionClosed("injected: member died in fan-back")
            await drain_write(writer)

        monkeypatch.setattr("repro.core.outgoing.drain_write", drain)
        members = [
            await open_connection_retry(*proxy.address_for_instance(i))
            for i in range(3)
        ]

        async def member_request(index: int) -> bytes:
            reader, writer = members[index]
            writer.write(b"query\n")
            await writer.drain()
            try:
                return await asyncio.wait_for(reader.readline(), 2.0)
            except (asyncio.TimeoutError, ConnectionError):
                return b""

        replies = await asyncio.gather(*(member_request(i) for i in range(3)))

        async def teardown():
            for _, writer in members:
                await close_writer(writer)
            await proxy.close()
            await backend.close()

        return proxy, members, list(replies), teardown

    def test_member_death_in_fanback_degrades_under_quorum(self, monkeypatch):
        async def main():
            proxy, members, replies, teardown = await self._drive(
                _config(), monkeypatch, kill_member=2
            )
            try:
                # The degraded group keeps serving the two survivors
                # (both must speak before the merge, so write both first).
                for index in (0, 1):
                    members[index][1].write(b"again\n")
                    await members[index][1].drain()
                second = [
                    await asyncio.wait_for(members[index][0].readline(), 2.0)
                    for index in (0, 1)
                ]
                return proxy, replies, second
            finally:
                await teardown()

        proxy, replies, second = run(main())
        assert replies[0] == b"query\n"
        assert replies[1] == b"query\n"
        assert second == [b"again\n", b"again\n"]
        degraded = proxy.events.events(ev.DEGRADED)
        assert len(degraded) == 1
        assert "instance 2" in degraded[0].detail
        assert "fan-back" in degraded[0].detail
        assert proxy.metrics.degraded_exchanges == 1
        assert proxy.metrics.exchanges_blocked == 0

    def test_member_death_in_fanback_tears_down_below_quorum(self, monkeypatch):
        async def main():
            proxy, members, replies, teardown = await self._drive(
                _config(degraded_quorum=False), monkeypatch, kill_member=2
            )
            try:
                # Torn down: every member's connection is closed; a further
                # request gets no reply.
                reader, writer = members[0]
                writer.write(b"again\n")
                with contextlib.suppress(ConnectionError):
                    await writer.drain()
                trailing = await asyncio.wait_for(reader.read(), 2.0)
                return proxy, trailing
            finally:
                await teardown()

        proxy, trailing = run(main())
        assert trailing == b""  # EOF: the group was torn down
        assert proxy.metrics.degraded_exchanges == 0
        assert any(
            "fan-back" in event.detail
            for event in proxy.events.events(ev.INSTANCE_ERROR)
        )


class TestOutgoingMemberLostMidRequest:
    """A member whose request is truncated mid-message (its read raises,
    unlike a clean EOF between messages) is one ``lost`` member, not an
    error that tears the group down."""

    async def _drive(self, config: RddrConfig):
        backend = await RedisLikeServer().start()
        observer = Observer()
        proxy = OutgoingRequestProxy(
            backend.address, 3, get_protocol("resp"), config, observer=observer
        )
        await proxy.start()
        members = [
            await open_connection_retry(*proxy.address_for_instance(i))
            for i in range(3)
        ]
        ping = encode_command("PING")
        for reader, writer in members[:2]:
            writer.write(ping)
            await writer.drain()
        # Member 2 dies with its bulk string half sent.
        members[2][1].write(ping[:-3])
        await members[2][1].drain()
        await close_writer(members[2][1])

        async def reply(reader) -> bytes:
            try:
                return await asyncio.wait_for(reader.readline(), 2.0)
            except (asyncio.TimeoutError, ConnectionError):
                return b""

        replies = [await reply(reader) for reader, _ in members[:2]]
        for _, writer in members[:2]:
            await close_writer(writer)
        await proxy.close()
        await backend.close()
        return proxy, observer, replies

    def test_lost_member_is_dropped_under_quorum(self):
        proxy, observer, replies = run(self._drive(_config(protocol="resp")))
        assert replies == [b"+PONG\r\n", b"+PONG\r\n"]
        degraded = proxy.events.events(ev.DEGRADED)
        assert len(degraded) == 1
        assert "instance 2 dropped" in degraded[0].detail
        assert proxy.metrics.degraded_exchanges == 1
        assert proxy.metrics.exchanges_blocked == 0
        assert observer.sink.traces()[0]["verdict"] == "degraded"

    def test_lost_member_blocks_below_quorum(self):
        proxy, observer, replies = run(
            self._drive(_config(protocol="resp", degraded_quorum=False))
        )
        assert replies == [b"", b""]  # blocked: the group is torn down
        assert proxy.metrics.exchanges_blocked == 1
        assert proxy.metrics.degraded_exchanges == 0
        assert observer.sink.traces()[0]["verdict"] == "instance_error"
        assert any(
            "instance 2" in event.detail
            for event in proxy.events.events(ev.DIVERGENCE)
        )
