"""Exchange-level tracing: span trees, the sink ring, and the public API.

Unit-tests the trace primitives with a fake clock, then drives real
proxies and asserts the exported span trees have the documented shapes
(``replicate → send* → collect → recv* → denoise → diff → respond``
incoming; ``collect → merge → backend → fan-back`` outgoing) for the
unanimous / divergent / timed-out verdicts.  Also covers the
``repro.deploy`` facade, the protocol plugin registry, and the ISSUE's
acceptance scenario: a diverging Table I run observed through
``repro.obs.use`` yields a JSON trace with per-instance latencies and an
incremented ``rddr_exchanges_total{verdict="divergent"}`` series.
"""

from __future__ import annotations

import asyncio
import json

import pytest

import repro
from repro import obs
from repro.apps.echo import EchoServer
from repro.core.config import RddrConfig
from repro.core.incoming import IncomingRequestProxy
from repro.core.outgoing import OutgoingRequestProxy
from repro.obs import ExchangeTrace, Observer, TraceSink, Tracer
from repro.protocols import ProtocolModule, get, register
from repro.protocols.tcp import TcpLineProtocol
from repro.transport.retry import open_connection_retry
from repro.transport.streams import close_writer
from tests.helpers import run


class _FakeClock:
    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now


async def _tcp_exchange(address, line: bytes, timeout: float = 3.0) -> bytes:
    reader, writer = await open_connection_retry(*address)
    try:
        writer.write(line + b"\n")
        await writer.drain()
        return await asyncio.wait_for(reader.readline(), timeout)
    except asyncio.TimeoutError:
        return b""
    finally:
        await close_writer(writer)


def _top_level_spans(trace: dict) -> list[str]:
    return [child["name"] for child in trace["spans"]["children"]]


class TestTracePrimitives:
    def test_span_tree_and_export(self):
        clock = _FakeClock()
        trace = ExchangeTrace(
            exchange_id="p-000007",
            proxy="p",
            protocol="tcp",
            direction="incoming",
            exchange=7,
            clock=clock,
        )
        with trace.span("replicate") as replicate:
            with trace.span("send", parent=replicate, instance=0):
                clock.now += 0.25
        clock.now += 0.5
        trace.set_verdict("unanimous")
        clock.now += 0.25
        exported = trace.to_dict()
        assert exported["exchange_id"] == "p-000007"
        assert exported["verdict"] == "unanimous"
        assert exported["reason"] is None
        assert exported["duration_s"] == pytest.approx(1.0)
        assert exported["spans"]["name"] == "exchange"
        replicate_span = exported["spans"]["children"][0]
        assert replicate_span["name"] == "replicate"
        assert replicate_span["duration_s"] == pytest.approx(0.25)
        send = replicate_span["children"][0]
        assert send["attrs"]["instance"] == 0
        assert exported["instances"]["0"]["send_s"] == pytest.approx(0.25)

    def test_cancelled_span_keeps_its_timing(self):
        clock = _FakeClock()
        trace = ExchangeTrace(
            exchange_id="p-000000", proxy="p", protocol="tcp",
            direction="incoming", exchange=0, clock=clock,
        )
        with pytest.raises(asyncio.CancelledError):
            with trace.span("recv", instance=1):
                clock.now += 2.0
                raise asyncio.CancelledError
        timings = trace.instance_timings()
        assert timings[1]["recv_s"] == pytest.approx(2.0)
        assert timings[1]["recv_cancelled"] is True

    def test_error_span_records_exception_type(self):
        trace = ExchangeTrace(
            exchange_id="p-000000", proxy="p", protocol="tcp",
            direction="incoming", exchange=0, clock=_FakeClock(),
        )
        with pytest.raises(RuntimeError):
            with trace.span("backend"):
                raise RuntimeError("boom")
        assert trace.root.children[0].attrs["error"] == "RuntimeError"

    def test_sink_is_a_ring_buffer(self):
        sink = TraceSink(capacity=2)
        for i in range(5):
            sink.emit({"exchange": i})
        assert len(sink) == 2
        assert sink.emitted == 5
        assert sink.traces() == [{"exchange": 3}, {"exchange": 4}]
        assert sink.last() == {"exchange": 4}
        lines = sink.jsonl().splitlines()
        assert [json.loads(line)["exchange"] for line in lines] == [3, 4]
        sink.clear()
        assert sink.last() is None
        with pytest.raises(ValueError):
            TraceSink(capacity=0)

    def test_sink_write_jsonl(self, tmp_path):
        sink = TraceSink(capacity=4)
        sink.emit({"exchange": 1})
        path = tmp_path / "traces.jsonl"
        assert sink.write_jsonl(str(path)) == 1
        assert json.loads(path.read_text())["exchange"] == 1

    def test_tracer_skips_discarded_traces(self):
        sink = TraceSink(capacity=4)
        tracer = Tracer(sink)
        trace = tracer.begin(proxy="p", protocol="tcp", direction="outgoing", exchange=3)
        assert trace.exchange_id == "p-000003"
        trace.discard = True
        assert tracer.finish(trace) is None
        assert len(sink) == 0


class TestIncomingProxyTraces:
    def test_unanimous_span_tree(self):
        async def main():
            servers = [await EchoServer().start() for _ in range(3)]
            observer = Observer()
            proxy = IncomingRequestProxy(
                [s.address for s in servers],
                "tcp",
                RddrConfig(protocol="tcp", exchange_timeout=2.0),
                observer=observer,
            )
            await proxy.start()
            assert await _tcp_exchange(proxy.address, b"hi") == b"hi\n"
            await proxy.close()
            for server in servers:
                await server.close()
            return observer

        observer = run(main())
        trace = observer.sink.last()
        assert trace["verdict"] == "unanimous"
        assert trace["direction"] == "incoming"
        assert trace["protocol"] == "tcp"
        assert trace["exchange_id"] == "rddr-incoming-000000"
        assert _top_level_spans(trace) == [
            "replicate", "collect", "denoise", "diff", "respond",
        ]
        replicate, collect = trace["spans"]["children"][:2]
        assert [c["name"] for c in replicate["children"]] == ["send"] * 3
        assert [c["name"] for c in collect["children"]] == ["recv"] * 3
        assert set(trace["instances"]) == {"0", "1", "2"}
        for timings in trace["instances"].values():
            assert timings["send_s"] >= 0.0
            assert timings["recv_s"] >= 0.0
        assert observer.registry.total(
            "rddr_exchanges_total", verdict="unanimous"
        ) == 1

    def test_divergent_span_tree(self):
        async def main():
            servers = [
                await EchoServer().start(),
                await EchoServer(tag="buggy-v2").start(),
            ]
            observer = Observer()
            proxy = IncomingRequestProxy(
                [s.address for s in servers],
                "tcp",
                RddrConfig(protocol="tcp", exchange_timeout=2.0),
                observer=observer,
            )
            await proxy.start()
            await _tcp_exchange(proxy.address, b"hi")
            await proxy.close()
            for server in servers:
                await server.close()
            return observer

        observer = run(main())
        trace = observer.sink.last()
        assert trace["verdict"] == "divergent"
        assert trace["reason"]
        # blocked exchanges never reach the respond stage
        assert _top_level_spans(trace) == ["replicate", "collect", "denoise", "diff"]
        diff_span = trace["spans"]["children"][3]
        assert diff_span["attrs"]["divergent"] is True
        assert observer.registry.total(
            "rddr_exchanges_total", verdict="divergent"
        ) == 1

    def test_timeout_keeps_partial_instance_timings(self):
        class SlowEcho(EchoServer):
            async def _serve(self, reader, writer):
                while True:
                    try:
                        line = await reader.readuntil(b"\n")
                    except (asyncio.IncompleteReadError, ConnectionError):
                        return
                    await asyncio.sleep(5.0)
                    writer.write(line)
                    await writer.drain()

        async def main():
            fast = await EchoServer().start()
            slow = await SlowEcho().start()
            observer = Observer()
            proxy = IncomingRequestProxy(
                [fast.address, slow.address],
                "tcp",
                RddrConfig(protocol="tcp", exchange_timeout=0.3),
                observer=observer,
            )
            await proxy.start()
            await _tcp_exchange(proxy.address, b"hi")
            await proxy.close()
            await fast.close()
            await slow.close()
            return observer

        observer = run(main())
        trace = observer.sink.last()
        assert trace["verdict"] == "timeout"
        assert "0.3" in trace["reason"]
        # the fast instance answered; the slow one's read was cancelled
        assert trace["instances"]["0"]["recv_s"] < 0.3
        assert trace["instances"]["1"]["recv_cancelled"] is True
        # the cancelled read must not pollute the latency histogram
        assert observer.registry.total(
            "rddr_instance_latency_seconds", instance="1"
        ) == 0
        assert observer.registry.total(
            "rddr_instance_latency_seconds", instance="0"
        ) == 1


class TestOutgoingProxyTraces:
    def test_merged_group_span_tree(self):
        async def main():
            backend = await EchoServer().start()
            observer = Observer()
            proxy = OutgoingRequestProxy(
                backend.address,
                2,
                "tcp",
                RddrConfig(protocol="tcp", exchange_timeout=2.0),
                observer=observer,
            )
            await proxy.start()
            replies = await asyncio.gather(
                _tcp_exchange(proxy.address_for_instance(0), b"q"),
                _tcp_exchange(proxy.address_for_instance(1), b"q"),
            )
            assert replies == [b"q\n", b"q\n"]
            await proxy.close()
            await backend.close()
            return observer

        observer = run(main())
        traces = [t for t in observer.traces() if t["verdict"] == "unanimous"]
        assert traces, "merged outgoing exchange must export a trace"
        trace = traces[-1]
        assert trace["direction"] == "outgoing"
        assert _top_level_spans(trace) == ["collect", "merge", "backend", "fan-back"]
        merge = trace["spans"]["children"][1]
        assert [c["name"] for c in merge["children"]] == ["denoise", "diff"]
        fan_back = trace["spans"]["children"][3]
        assert [c["name"] for c in fan_back["children"]] == ["send"] * 2


class TestExchangeIds:
    """Every exported trace of one proxy has its own id, and the id
    always names the exchange number the trace carries."""

    @staticmethod
    def _assert_ids(traces: list[dict], proxy: str, count: int) -> None:
        assert len(traces) == count
        for trace in traces:
            assert trace["exchange_id"] == f"{proxy}-{trace['exchange']:06d}"
        assert len({trace["exchange_id"] for trace in traces}) == count

    def test_concurrently_idle_groups_get_distinct_ids(self):
        async def main():
            backend = await EchoServer().start()
            observer = Observer()
            proxy = OutgoingRequestProxy(
                backend.address,
                2,
                "tcp",
                RddrConfig(protocol="tcp", exchange_timeout=2.0),
                observer=observer,
            )
            await proxy.start()
            # Two groups formed and idle (both traces open) before either
            # one's instances speak.
            groups = [
                [
                    await open_connection_retry(*proxy.address_for_instance(i))
                    for i in range(2)
                ]
                for _ in range(2)
            ]
            await asyncio.sleep(0.1)
            for group in reversed(groups):
                for _, writer in group:
                    writer.write(b"q\n")
                    await writer.drain()
                for reader, _ in group:
                    assert await asyncio.wait_for(reader.readline(), 2.0) == b"q\n"
            for group in groups:
                for _, writer in group:
                    await close_writer(writer)
            await proxy.close()
            await backend.close()
            return observer

        served = [t for t in run(main()).traces() if t["verdict"] == "unanimous"]
        self._assert_ids(served, "rddr-outgoing", 2)

    def test_shed_exchange_consumes_its_own_id(self):
        class SlowEcho(EchoServer):
            async def _serve(self, reader, writer):
                while line := await reader.readline():
                    await asyncio.sleep(0.4 if line == b"slow\n" else 0.0)
                    writer.write(line)
                    await writer.drain()

        async def main():
            servers = [await SlowEcho().start() for _ in range(2)]
            observer = Observer()
            proxy = IncomingRequestProxy(
                [s.address for s in servers],
                "tcp",
                RddrConfig(
                    protocol="tcp",
                    exchange_timeout=3.0,
                    max_concurrent_exchanges=1,
                    admission_queue_limit=0,
                ),
                observer=observer,
            )
            await proxy.start()
            slow = asyncio.ensure_future(_tcp_exchange(proxy.address, b"slow"))
            await asyncio.sleep(0.15)  # the slow exchange holds the only slot
            assert await _tcp_exchange(proxy.address, b"shed me") == b""
            assert await slow == b"slow\n"
            assert await _tcp_exchange(proxy.address, b"hi") == b"hi\n"
            await proxy.close()
            for server in servers:
                await server.close()
            return observer

        traces = run(main()).traces()
        assert sorted(t["verdict"] for t in traces) == ["shed", "unanimous", "unanimous"]
        self._assert_ids(traces, "rddr-incoming", 3)


class TestPublicApi:
    def test_deploy_facade(self):
        async def main():
            servers = [await EchoServer().start() for _ in range(2)]
            deployment = await repro.deploy(
                instances=[s.address for s in servers], protocol="tcp"
            )
            async with deployment:
                assert await _tcp_exchange(deployment.address, b"ping") == b"ping\n"
            for server in servers:
                await server.close()
            return deployment

        deployment = run(main())
        assert deployment.config.protocol == "tcp"
        assert 'rddr_exchanges_total{protocol="tcp",proxy="rddr-in",verdict="unanimous"} 1' in (
            deployment.metrics_text()
        )
        assert deployment.traces()[-1]["verdict"] == "unanimous"
        snapshot = deployment.metrics_snapshot()
        assert snapshot["rddr_exchanges_total"]["type"] == "counter"

    def test_deploy_requires_keywords_and_two_instances(self):
        with pytest.raises(TypeError):
            run(repro.deploy([("127.0.0.1", 1)]))  # positional not allowed
        with pytest.raises(ValueError):
            run(repro.deploy(instances=[("127.0.0.1", 1)], protocol="tcp"))

    def test_protocol_registry_get_and_register(self):
        assert isinstance(get("tcp"), TcpLineProtocol)

        @register
        class FramedProtocol(TcpLineProtocol):
            name = "framed-test"

        assert isinstance(get("framed-test"), FramedProtocol)
        with pytest.raises(KeyError):
            get("no-such-protocol")
        with pytest.raises(TypeError):
            register(object)

    def test_proxies_accept_protocol_names(self):
        proxy = IncomingRequestProxy(
            [("127.0.0.1", 1), ("127.0.0.1", 2)],
            "http",
            RddrConfig(protocol="http"),
        )
        assert proxy.protocol.name == "http"

    def test_active_observer_via_use(self):
        async def main():
            servers = [await EchoServer().start() for _ in range(2)]
            observer = Observer()
            with obs.use(observer):
                assert obs.active_observer() is observer
                deployment = await repro.deploy(
                    instances=[s.address for s in servers], protocol="tcp"
                )
            assert obs.active_observer() is None
            async with deployment:
                await _tcp_exchange(deployment.address, b"x")
            for server in servers:
                await server.close()
            return observer, deployment

        observer, deployment = run(main())
        # the deployment created inside use() reports into our observer
        assert deployment.observer is observer
        assert observer.registry.total("rddr_exchanges_total") == 1
        assert observer.sink.last()["verdict"] == "unanimous"


class TestTable1Acceptance:
    def test_diverging_scenario_produces_trace_and_verdict_metric(self):
        """ISSUE acceptance: run a diverging Table I scenario, get a JSON
        trace with per-instance latencies and the divergence verdict, and
        see ``rddr_exchanges_total{verdict="divergent"}`` incremented."""
        from repro.scenarios import registry as scenarios

        observer = Observer()
        with obs.use(observer):
            result = run(scenarios.run("cve_2014_3146"), timeout=60)
        assert result.passed

        divergent = [
            json.loads(line)
            for line in observer.sink.jsonl().splitlines()
            if json.loads(line)["verdict"] == "divergent"
        ]
        assert divergent, "the exploit exchange must export a divergent trace"
        trace = divergent[-1]
        assert trace["proxy"] == "cve_2014_3146-in"
        assert trace["instances"], "trace must carry per-instance latencies"
        for timings in trace["instances"].values():
            assert timings["send_s"] >= 0.0
            assert timings["recv_s"] >= 0.0

        exposition = observer.metrics_text()
        assert any(
            line.startswith("rddr_exchanges_total{")
            and 'verdict="divergent"' in line
            and not line.endswith(" 0")
            for line in exposition.splitlines()
        )
        assert observer.registry.total("rddr_exchanges_total", verdict="divergent") >= 1
        # the unanimous benign exchange is in there too
        assert observer.registry.total("rddr_exchanges_total", verdict="unanimous") >= 1


class TestConcurrentInterleaving:
    """Span trees and instance timings stay per-exchange-correct when
    many exchanges are in flight at once."""

    def test_interleaved_traces_keep_their_own_timings(self):
        # Two traces advanced turn-by-turn on one shared clock: spans
        # opened while the *other* trace is mid-span must not leak.
        clock = _FakeClock()
        traces = [
            ExchangeTrace(
                exchange_id=f"p-{i:06d}", proxy="p", protocol="tcp",
                direction="incoming", exchange=i, clock=clock,
            )
            for i in range(2)
        ]
        context_a = traces[0].span("recv", instance=0)
        with context_a:
            clock.now += 1.0
            with traces[1].span("recv", instance=0):
                clock.now += 2.0
            with traces[1].span("send", instance=1):
                clock.now += 4.0
            clock.now += 8.0
        # trace 0's recv stayed open across trace 1's whole exchange
        with traces[0].span("send", instance=1):
            clock.now += 16.0
        timings_a = traces[0].instance_timings()
        timings_b = traces[1].instance_timings()
        assert timings_a[0]["recv_s"] == pytest.approx(15.0)
        assert timings_a[1]["send_s"] == pytest.approx(16.0)
        assert timings_b[0]["recv_s"] == pytest.approx(2.0)
        assert timings_b[1]["send_s"] == pytest.approx(4.0)

    def test_concurrent_exchanges_produce_complete_distinct_trees(self):
        clients, per_client = 6, 5

        async def main():
            servers = [await EchoServer().start() for _ in range(3)]
            observer = Observer()
            config = RddrConfig(protocol="tcp", exchange_timeout=5.0)
            deployment = await repro.deploy(
                instances=[s.address for s in servers],
                config=config,
                observer=observer,
                name="weave",
            )

            async def client(index: int) -> None:
                reader, writer = await asyncio.open_connection(*deployment.address)
                for i in range(per_client):
                    writer.write(f"c{index} r{i}\n".encode())
                    await writer.drain()
                    assert await reader.readline()
                    # stagger so exchanges genuinely overlap
                    await asyncio.sleep(0.001 * (index % 3))
                writer.close()
                await writer.wait_closed()

            await asyncio.gather(*(client(i) for i in range(clients)))
            await deployment.close()
            for server in servers:
                await server.close()
            return observer

        observer = run(main())
        traces = observer.traces()
        assert len(traces) == clients * per_client
        assert sorted(t["exchange"] for t in traces) == list(
            range(clients * per_client)
        )
        assert len({t["exchange_id"] for t in traces}) == clients * per_client
        for trace in traces:
            assert trace["verdict"] == "unanimous"
            assert _top_level_spans(trace) == [
                "replicate", "collect", "denoise", "diff", "respond",
            ]
            replicate, collect = trace["spans"]["children"][:2]
            assert [c["name"] for c in replicate["children"]] == ["send"] * 3
            assert [c["name"] for c in collect["children"]] == ["recv"] * 3
            assert set(trace["instances"]) == {"0", "1", "2"}
            for timings in trace["instances"].values():
                assert timings["send_s"] >= 0.0
                assert timings["recv_s"] >= 0.0


def test_module_exports():
    assert repro.__version__ == "1.1.0"
    for name in ("deploy", "Observer", "MetricsRegistry", "TraceSink"):
        assert name in repro.__all__
    assert isinstance(ProtocolModule, type)
