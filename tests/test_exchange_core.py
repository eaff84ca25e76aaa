"""The shared exchange engine (``repro.core.exchange``), driven directly.

Only behaviour that is otherwise reachable solely through full-proxy
soaks: how ``collect`` classifies and cleans up reads, that ``settle``
keeps shadows out of the quorum decision, and which members ``fan_out``
reports.  Everything else the engine does is pinned through the proxies.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core import events as ev
from repro.core.config import RddrConfig
from repro.core.exchange import (
    ExchangeCore,
    Member,
    ReadFailure,
    collect,
    fan_out,
)
from repro.obs import Observer
from repro.recovery.directory import InstanceDirectory
from repro.transport.streams import ConnectionClosed, close_writer, drain_write
from tests.helpers import run


def _core(directory: InstanceDirectory | None = None, **config) -> ExchangeCore:
    config.setdefault("divergence_policy", "vote")
    config.setdefault("degraded_quorum", True)
    return ExchangeCore(
        "tcp",
        RddrConfig(protocol="tcp", **config),
        name="core",
        event_log=None,
        metrics=None,
        observer=Observer(),
        directory=directory,
    )


def _trace(core: ExchangeCore):
    return core.observer.begin_exchange(
        proxy=core.name, protocol="tcp", direction="incoming", exchange=0
    )


def _readers(count: int) -> list[Member]:
    return [Member(index, reader=asyncio.StreamReader()) for index in range(count)]


async def _loopback(count: int):
    """``count`` accepted connections as members, and their peer streams."""
    accepted: asyncio.Queue = asyncio.Queue()

    async def on_connect(reader, writer):
        await accepted.put((reader, writer))

    server = await asyncio.start_server(on_connect, "127.0.0.1", 0)
    port = server.sockets[0].getsockname()[1]
    peers, members = [], []
    for index in range(count):
        peers.append(await asyncio.open_connection("127.0.0.1", port))
        members.append(Member(index, *await accepted.get()))

    async def teardown():
        for member in members:
            await close_writer(member.writer)
        for _, writer in peers:
            await close_writer(writer)
        server.close()
        await server.wait_closed()

    return members, peers, teardown


class TestCollect:
    def test_straggler_past_the_deadline_is_a_deadline_failure(self):
        async def main():
            members = _readers(2)
            members[0].reader.feed_data(b"pong\n")
            return await collect(
                members, lambda m: m.reader.readline(), 0.05, _trace(_core())
            )

        (first, second), failed = run(main())
        assert first == b"pong\n"
        assert isinstance(second, ReadFailure) and second.kind == "deadline"
        assert [(member.index, failure) for member, failure in failed] == [(1, second)]

    def test_reset_connection_is_a_lost_failure_not_an_exception(self):
        async def main():
            members = _readers(2)
            members[0].reader.feed_data(b"pong\n")
            members[1].reader.set_exception(ConnectionResetError("peer reset"))
            return await collect(
                members, lambda m: m.reader.readline(), 1.0, _trace(_core())
            )

        (first, second), failed = run(main())
        assert first == b"pong\n"
        assert second == ReadFailure("lost", "peer reset")
        assert [(member.index, failure) for member, failure in failed] == [(1, second)]

    def test_cancellation_cancels_and_awaits_every_read(self):
        async def main():
            members = _readers(3)
            started, finished = [], []

            async def read(member):
                started.append(member.index)
                try:
                    return await member.reader.readline()
                finally:
                    finished.append(member.index)

            task = asyncio.ensure_future(
                collect(members, read, 5.0, _trace(_core()))
            )
            while len(started) < 3:
                await asyncio.sleep(0)
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task
            return finished

        # Every read had unwound by the time collect() re-raised.
        assert sorted(run(main())) == [0, 1, 2]


class TestSettle:
    def test_shadow_failure_never_degrades(self):
        async def main():
            directory = InstanceDirectory([("h", port) for port in range(4)])
            reported = []
            directory.on_failure(lambda *report: reported.append(report))
            core = _core(directory)
            members, _, teardown = await _loopback(4)
            members[3].shadow = True
            try:
                survivors = await core.settle(
                    members, [(members[3], "no response")], "collect", exchange=7
                )
                closed = members[3].writer.is_closing()
            finally:
                await teardown()
            return core, survivors, members, reported, closed

        core, survivors, members, reported, closed = run(main())
        assert survivors == members[:3]
        assert closed
        assert reported == [(3, "shadow read failed: no response", False)]
        assert core.events.events(ev.DEGRADED) == []
        assert core.metrics.degraded_exchanges == 0

    def test_below_quorum_returns_none_and_records_nothing(self):
        async def main():
            core = _core()
            three = [Member(index) for index in range(3)]
            pair = [Member(index) for index in range(2)]
            one_of_three = await core.settle(three, [(three[2], "gone")], exchange=1)
            two_of_three = await core.settle(
                three, [(three[1], "gone"), (three[2], "gone")], exchange=2
            )
            one_of_two = await core.settle(pair, [(pair[1], "gone")], exchange=3)
            return core, three, one_of_three, two_of_three, one_of_two

        core, three, one_of_three, two_of_three, one_of_two = run(main())
        assert one_of_three == three[:2]
        assert two_of_three is None
        assert one_of_two is None  # N=2 never degrades
        degraded = core.events.events(ev.DEGRADED)
        assert [event.detail for event in degraded] == ["instance 2 dropped: gone"]
        assert degraded[0].exchange == 1
        assert core.metrics.degraded_exchanges == 1


class TestFanOut:
    def test_reports_exactly_the_members_whose_drain_failed(self):
        async def main():
            members, peers, teardown = await _loopback(3)

            async def drain(writer):
                if writer is members[1].writer:
                    raise ConnectionClosed("injected")
                await drain_write(writer)

            trace = _trace(_core())
            try:
                with trace.span("replicate") as stage:
                    failed = await fan_out(
                        members, [b"a\n", b"b\n", b"c\n"], trace, stage, drain
                    )
                received = [
                    await asyncio.wait_for(peers[index][0].readline(), 2.0)
                    for index in (0, 2)
                ]
            finally:
                await teardown()
            return members, failed, received, trace

        members, failed, received, trace = run(main())
        assert failed == [members[1]]
        assert received == [b"a\n", b"c\n"]  # each member got its own payload
        sends = trace.root.children[0].children
        assert [span.attrs["instance"] for span in sends] == [0, 1, 2]
