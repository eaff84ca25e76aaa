"""Unit tests for the repro.recovery building blocks: circuit breaker,
admission controller, instance directory, and health monitor."""

from __future__ import annotations

import asyncio

import pytest

from repro.apps.echo import EchoServer
from repro.core import events as ev
from repro.core.config import RddrConfig
from repro.core.outgoing import OutgoingRequestProxy
from repro.recovery import (
    MODE_OUT,
    MODE_SHADOW,
    AdmissionController,
    CircuitBreaker,
    HealthMonitor,
    InstanceDirectory,
)
from repro.recovery.breaker import CLOSED, HALF_OPEN, OPEN
from repro.transport.retry import CircuitOpenError, open_connection_retry
from repro.transport.streams import close_writer
from tests.helpers import run


class _Clock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestCircuitBreaker:
    def test_opens_after_threshold_and_half_open_trial_closes(self):
        clock = _Clock()
        transitions = []
        breaker = CircuitBreaker(
            failure_threshold=3,
            reset_timeout=10.0,
            clock=clock,
            on_transition=lambda old, new: transitions.append((old, new)),
        )
        assert breaker.state == CLOSED
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == CLOSED and breaker.allow()
        breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.allow()  # still within the reset timeout
        clock.now = 10.0
        assert breaker.allow()  # the half-open trial
        assert breaker.state == HALF_OPEN
        assert not breaker.allow()  # only one trial at a time
        breaker.record_success()
        assert breaker.state == CLOSED
        assert transitions == [
            (CLOSED, OPEN),
            (OPEN, HALF_OPEN),
            (HALF_OPEN, CLOSED),
        ]

    def test_half_open_failure_reopens_and_resets_the_timer(self):
        clock = _Clock()
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=5.0, clock=clock)
        breaker.record_failure()
        assert breaker.state == OPEN
        clock.now = 5.0
        assert breaker.allow()
        breaker.record_failure()  # the trial failed
        assert breaker.state == OPEN
        clock.now = 9.9  # the timer restarted at t=5
        assert not breaker.allow()
        clock.now = 10.0
        assert breaker.allow()

    def test_success_resets_the_failure_count(self):
        breaker = CircuitBreaker(failure_threshold=2, reset_timeout=5.0)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CLOSED

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(reset_timeout=-1.0)

    def test_half_open_admits_exactly_one_concurrent_probe(self):
        """Regression: two simultaneous dials racing into the half-open
        window must admit exactly one trial — the loser fails fast with
        CircuitOpenError and never touches the socket."""

        async def main():
            connections: list[object] = []

            async def handler(reader, writer):
                connections.append(writer.get_extra_info("peername"))
                writer.close()

            server = await asyncio.start_server(handler, "127.0.0.1", 0)
            host, port = server.sockets[0].getsockname()[:2]
            try:
                clock = _Clock()
                breaker = CircuitBreaker(
                    failure_threshold=1, reset_timeout=5.0, clock=clock
                )
                breaker.record_failure()
                assert breaker.state == OPEN
                clock.now = 5.0  # the reset window is open for one trial
                results = await asyncio.gather(
                    open_connection_retry(
                        host, port, breaker=breaker, attempts=1
                    ),
                    open_connection_retry(
                        host, port, breaker=breaker, attempts=1
                    ),
                    return_exceptions=True,
                )
                rejected = [
                    r for r in results if isinstance(r, CircuitOpenError)
                ]
                admitted = [r for r in results if not isinstance(r, Exception)]
                assert len(admitted) == 1, results
                assert len(rejected) == 1, results
                await asyncio.sleep(0.05)
                assert len(connections) == 1  # the loser made no socket work
                _, writer = admitted[0]
                writer.close()
                # the successful trial closed the circuit for everyone
                assert breaker.state == CLOSED
                assert breaker.allow()
            finally:
                server.close()
                await server.wait_closed()

        run(main())


class TestRetryBreakerIntegration:
    def test_open_circuit_fails_fast_without_dialing(self):
        async def main():
            clock = _Clock()
            breaker = CircuitBreaker(failure_threshold=1, reset_timeout=30.0, clock=clock)
            with pytest.raises(ConnectionError):
                await open_connection_retry(
                    "127.0.0.1", 1, attempts=1, breaker=breaker
                )
            assert breaker.state == OPEN
            with pytest.raises(CircuitOpenError):
                await open_connection_retry(
                    "127.0.0.1", 1, attempts=1, breaker=breaker
                )

        run(main())

    def test_successful_trial_closes_the_circuit(self):
        async def main():
            clock = _Clock()
            breaker = CircuitBreaker(failure_threshold=1, reset_timeout=1.0, clock=clock)
            breaker.record_failure()
            clock.now = 1.0
            echo = await EchoServer().start()
            try:
                reader, writer = await open_connection_retry(
                    *echo.address, attempts=1, breaker=breaker
                )
                assert breaker.state == CLOSED
                writer.close()
            finally:
                await echo.close()

        run(main())


class TestAdmissionController:
    def test_disabled_admits_everything(self):
        async def main():
            admission = AdmissionController(None)
            assert await admission.acquire()
            admission.release()  # no-op when disabled
            assert admission.active == 0

        run(main())

    def test_sheds_beyond_capacity_and_queue(self):
        async def main():
            admission = AdmissionController(1, queue_limit=0)
            assert await admission.acquire()
            assert not await admission.acquire()  # queue full (zero) -> shed
            admission.release()
            assert await admission.acquire()
            admission.release()

        run(main())

    def test_fifo_queue_hands_slots_over(self):
        async def main():
            admission = AdmissionController(1, queue_limit=2)
            assert await admission.acquire()
            order = []

            async def waiter(tag):
                assert await admission.acquire()
                order.append(tag)

            first = asyncio.ensure_future(waiter("first"))
            await asyncio.sleep(0)
            second = asyncio.ensure_future(waiter("second"))
            await asyncio.sleep(0)
            assert admission.waiting == 2
            assert not await admission.acquire()  # third waiter is shed
            admission.release()
            await first
            admission.release()
            await second
            assert order == ["first", "second"]
            assert admission.active == 1
            admission.release()
            assert admission.active == 0

        run(main())

    def test_cancelled_waiter_does_not_lose_the_slot(self):
        async def main():
            admission = AdmissionController(1, queue_limit=1)
            assert await admission.acquire()
            waiter = asyncio.ensure_future(admission.acquire())
            await asyncio.sleep(0)
            waiter.cancel()
            admission.release()
            with pytest.raises(asyncio.CancelledError):
                await waiter
            # The slot released while the waiter was cancelling must be
            # available again.
            assert await admission.acquire()
            admission.release()
            assert admission.active == 0

        run(main())

    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionController(0)
        with pytest.raises(ValueError):
            AdmissionController(1, queue_limit=-1)
        with pytest.raises(RuntimeError):
            AdmissionController(1).release()


class TestInstanceDirectory:
    def test_versioned_mutations_and_snapshots(self):
        directory = InstanceDirectory([("h", 1), ("h", 2)])
        version, entries = directory.snapshot()
        assert version == 0 and [e.address for e in entries] == [("h", 1), ("h", 2)]
        directory.set_address(0, ("h", 9))
        assert directory.version == 1
        directory.set_address(0, ("h", 9))  # no-op: same address
        assert directory.version == 1
        directory.set_mode(1, MODE_SHADOW)
        assert directory.version == 2
        directory.set_mode(1, MODE_SHADOW)
        assert directory.version == 2
        # The earlier snapshot is unaffected (a consistent view).
        assert entries[0].address == ("h", 1)
        with pytest.raises(ValueError):
            directory.set_mode(0, "bogus")

    def test_reports_fan_out_to_listeners(self):
        directory = InstanceDirectory([("h", 1), ("h", 2)])
        failures, shadows = [], []
        directory.on_failure(lambda i, r, f: failures.append((i, r, f)))
        directory.on_shadow(lambda i, c: shadows.append((i, c)))
        directory.report_failure(1, "dead", fatal=True)
        directory.report_shadow(0, True)
        assert failures == [(1, "dead", True)]
        assert shadows == [(0, True)]


class TestHealthMonitor:
    def test_probe_distinguishes_live_from_dead(self):
        async def main():
            echo = await EchoServer().start()
            monitor = HealthMonitor(lambda: [], _noop_report)
            try:
                assert await monitor.probe_once(echo.address)
            finally:
                await echo.close()
            assert not await monitor.probe_once(echo.address)

        run(main())

    def test_custom_probe_drives_the_verdict(self):
        async def main():
            echo = await EchoServer().start()

            async def probe(reader, writer):
                writer.write(b"ping\n")
                await writer.drain()
                return await reader.readline() == b"ping\n"

            monitor = HealthMonitor(lambda: [], _noop_report, probe=probe)
            try:
                assert await monitor.probe_once(echo.address)
            finally:
                await echo.close()

        run(main())

    def test_loop_reports_failures_until_closed(self):
        async def main():
            reports = []

            async def report(index, ok):
                reports.append((index, ok))

            monitor = HealthMonitor(
                lambda: [(0, ("127.0.0.1", 1))],
                report,
                period=0.01,
                timeout=0.1,
            )
            monitor.start()
            with pytest.raises(RuntimeError):
                monitor.start()
            while len(reports) < 2:
                await asyncio.sleep(0.01)
            await monitor.close()
            assert all(entry == (0, False) for entry in reports)
            await monitor.close()  # idempotent

        run(main())

    def test_validation(self):
        with pytest.raises(ValueError):
            HealthMonitor(lambda: [], _noop_report, period=0.0)
        with pytest.raises(ValueError):
            HealthMonitor(lambda: [], _noop_report, timeout=0.0)


async def _noop_report(index: int, ok: bool) -> None:
    return None


class TestOutgoingProxyBreaker:
    def test_config_constructs_breaker_and_logs_transitions(self):
        proxy = OutgoingRequestProxy(
            ("127.0.0.1", 1),
            2,
            "tcp",
            RddrConfig(
                protocol="tcp",
                circuit_breaker=True,
                breaker_failure_threshold=2,
                breaker_reset_timeout=9.0,
            ),
        )
        assert proxy.breaker is not None
        assert proxy.breaker.failure_threshold == 2
        proxy.breaker.record_failure()
        proxy.breaker.record_failure()
        circuit_events = proxy.events.events(ev.CIRCUIT)
        assert circuit_events and "closed -> open" in circuit_events[0].detail

    def test_breaker_off_by_default(self):
        proxy = OutgoingRequestProxy(("127.0.0.1", 1), 2, "tcp")
        assert proxy.breaker is None

    def test_group_assignment_self_aligns_after_instance_drift(self):
        # Slot-based grouping: an instance that missed dials (it was
        # dead) or dialed extra times (probe, mid-session shadow join)
        # lands in whatever group its peers are currently forming — no
        # counter realignment needed on respawn.
        proxy = OutgoingRequestProxy(("127.0.0.1", 1), 3, "tcp")
        sentinel = object()

        group_a, index_a = proxy._assign_group(0)
        group_a.members[0] = sentinel
        group_b, index_b = proxy._assign_group(0)  # same instance again
        assert index_a == 0 and index_b == 1
        assert group_b is not group_a

        # Peers fill the earliest still-forming slots first.
        group, index = proxy._assign_group(1)
        assert group is group_a and index == 0
        group.members[1] = sentinel

        # A completed group never takes another member.
        group_a.complete.set()
        group, index = proxy._assign_group(2)
        assert group is group_b and index == 1

        group, index = proxy._assign_group(1)
        assert group is group_b and index == 1

    def test_finished_groups_are_forgotten(self):
        # K open/close cycles leave no group behind, while the group
        # number in event text keeps counting.
        async def main():
            backend = await EchoServer().start()
            proxy = OutgoingRequestProxy(backend.address, 2, "tcp")
            await proxy.start()
            high_water = 0
            for cycle in range(5):
                members = [
                    await open_connection_retry(*proxy.address_for_instance(i))
                    for i in range(2)
                ]
                for _, writer in members:
                    writer.write(b"q\n")
                    await writer.drain()
                for reader, _ in members:
                    assert await asyncio.wait_for(reader.readline(), 2.0) == b"q\n"
                high_water = max(high_water, len(proxy._groups))
                for _, writer in members:
                    await close_writer(writer)
                for _ in range(200):
                    if not proxy._groups:
                        break
                    await asyncio.sleep(0.01)
                assert proxy._groups == [], f"cycle {cycle} left a group behind"
            _, number = proxy._assign_group(0)
            await proxy.close()
            await backend.close()
            return high_water, number

        high_water, number = run(main())
        assert high_water == 1
        assert number == 5


class TestDirectoryModes:
    def test_out_mode_round_trip(self):
        directory = InstanceDirectory([("h", 1), ("h", 2), ("h", 3)])
        directory.set_mode(2, MODE_OUT)
        _, entries = directory.snapshot()
        assert [e.mode for e in entries] == ["live", "live", "out"]
        assert len(directory) == 3
