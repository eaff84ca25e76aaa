"""The system under test — and the only module that imports ``repro``.

Run as ``python -m perfbench.sut WORKDIR``: one child process whose
single event loop hosts the fixture instances *and* the RDDR deployment
(this repository's deployment model), driven by the load generator over
a JSON-lines control pipe on stdin/stdout.  Every command gets exactly
one JSON reply line; a failed command replies ``{"error": ...}``.

The ``repro`` surface used here is listed in ``perfbench/README.md``; a
later API change re-adapts this file and nothing else.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback
import zlib
from dataclasses import dataclass, field

import repro
from repro import EphemeralStateStore, RddrConfig, VarianceRule, diff_tokens, protocols
from repro.apps.kvstore import RedisLikeServer
from repro.apps.relay import RelayServer
from repro.core.denoise import FilterPairDenoiser
from repro.core.variance import VarianceMasker
from repro.journal import ExchangeJournal
from repro.orchestrator import Cluster, deploy_nversioned
from repro.pgwire import serve_database
from repro.vendors import create_postsim
from repro.workloads import load_pgbench

from perfbench.fixtures import EchoFixture, FormFixture, Relay, tapped_messages
from perfbench.spans import SpanLog, self_times

Address = tuple[str, int]

PROTOCOLS = {
    "echo_small": "tcp",
    "http_form": "http",
    "kv_read": "resp",
    "kv_write": "resp",
    "pg_outgoing": "pgwire",
}

#: The one deterministic, benign difference between the filter pair and
#: the third ``http_form`` instance, declared as known variance.
POWERED_BY_RULE = VarianceRule(
    pattern=r"(?i)x-powered-by: [^\r\n]+",
    description="http_form instances 0/1 and 2 run different server builds",
)

#: Event-loop lag probe period (seconds).
LAG_PERIOD = 0.005


@dataclass
class Deployed:
    address: Address
    instances: list[Address]
    config: RddrConfig | None = None
    rddr: object | None = None
    #: Things with ``async close()``, closed in order.
    closers: list = field(default_factory=list)
    fixtures: list = field(default_factory=list)
    #: ``[front, instance 0, instance 1, ...]`` tap logs (capture arm).
    taps: list[list] = field(default_factory=list)


class Sut:
    def __init__(self, workdir: str) -> None:
        self.workdir = workdir
        self.deployed: dict[str, Deployed] = {}
        self._database = None
        self._lag_task: asyncio.Task | None = None
        self._lags: list[float] = []

    # ------------------------------------------------------------- deploy

    async def cmd_deploy(
        self,
        name: str,
        workload: str,
        seed: int,
        n: int = 3,
        journal: bool = False,
        trace_rate: float = 0.0,
        outgoing: bool = False,
        tap: bool = False,
    ) -> dict:
        """Stand up one arm: ``n`` instances behind RDDR, or (``n == 0``)
        a bare instance for the direct baseline."""
        started = time.perf_counter()
        if workload == "pg_outgoing":
            # The instances are byte relays onto one database: pods of the
            # orchestrator when an outgoing proxy guards it, else started
            # here.  The direct baseline is the database itself.
            backend = await self._database_address()
            fixtures = (
                []
                if outgoing or n == 0
                else [await self._relay(backend, tamper=index == 2) for index in range(n)]
            )
        else:
            backend = None
            fixtures = [
                await self._instance(workload, seed, index, diverge=index == 2)
                for index in range(max(n, 1))
            ]
        instances = [fixture.address for fixture in fixtures] or [backend]
        deployed = Deployed(
            address=instances[0], instances=instances, fixtures=fixtures, closers=list(fixtures)
        )
        self.deployed[name] = deployed
        fixture_s = time.perf_counter() - started
        if n:
            deployed.config = self._config(name, workload, seed, journal, trace_rate)
            if outgoing:
                await self._deploy_outgoing(deployed, name, n, backend)
            else:
                await self._deploy_incoming(deployed, name, tap)
        return {
            "address": deployed.address,
            "instances": deployed.instances,
            "fixture_start_s": fixture_s,
            "deploy_s": time.perf_counter() - started - fixture_s,
        }

    async def _deploy_incoming(self, deployed: Deployed, name: str, tap: bool) -> None:
        """``repro.deploy`` over the started instances; with ``tap``, a
        recording relay in front of each instance and of the proxy."""
        targets = deployed.instances
        if tap:
            deployed.taps = [[] for _ in range(len(targets) + 1)]
            relays = [
                await Relay(address, tap=log).start()
                for address, log in zip(targets, deployed.taps[1:])
            ]
            deployed.closers[:0] = relays
            targets = [relay.address for relay in relays]
        deployed.rddr = await repro.deploy(deployed.config, instances=targets, name=name)
        deployed.closers.insert(0, deployed.rddr)
        deployed.address = deployed.rddr.address
        if tap:
            front = await Relay(deployed.address, tap=deployed.taps[0]).start()
            deployed.closers.insert(0, front)
            deployed.address = front.address

    def _config(
        self, name: str, workload: str, seed: int, journal: bool, trace_rate: float
    ) -> RddrConfig:
        return RddrConfig(
            protocol=PROTOCOLS[workload],
            filter_pair=(0, 1),
            variance_rules=[POWERED_BY_RULE] if workload == "http_form" else [],
            trace_sample_rate=trace_rate,
            trace_sample_seed=seed,
            journal_dir=os.path.join(self.workdir, f"journal-{name}") if journal else None,
            journal_fsync=True,
        )

    async def _instance(self, workload: str, seed: int, index: int, *, diverge: bool):
        if workload == "echo_small":
            return await EchoFixture(diverge=diverge).start()
        if workload == "http_form":
            return await FormFixture(
                seed=seed,
                index=index,
                powered_by="formd/2.1" if index >= 2 else "formd/1.0",
                diverge=diverge,
            ).start()
        return await RedisLikeServer(name=f"perfbench-kv-{index}").start()

    async def _database_address(self) -> Address:
        if self._database is None:
            engine = create_postsim("13.0")
            load_pgbench(engine, scale=1)
            self._database = await serve_database(engine)
        return self._database.address

    @staticmethod
    async def _relay(backend: Address, *, tamper: bool, host: str = "127.0.0.1", port: int = 0):
        if tamper:
            return await Relay(backend, tamper=True, host=host, port=port).start()
        return await RelayServer(backend, host=host, port=port).start()

    async def _deploy_outgoing(
        self, deployed: Deployed, name: str, n: int, backend: Address
    ) -> None:
        """Table-I row-9 topology: client -> incoming proxy -> n relays ->
        outgoing proxy -> one database."""

        async def relay_pod(context):
            host, _, port = context.env["backend_db"].rpartition(":")
            return await self._relay(
                (host, int(port)), tamper=context.index == 2,
                host=context.host, port=context.port,
            )

        cluster = Cluster()
        service = await deploy_nversioned(
            cluster, name, [relay_pod] * n,
            config=deployed.config, backends={"db": backend}, backend_protocol="pgwire",
        )
        deployed.rddr = service.rddr
        deployed.address = service.address
        deployed.instances = [pod.address for pod in service.pods]
        deployed.closers = [service, _Shutdown(cluster)]

    async def cmd_close(self, name: str) -> dict:
        deployed = self.deployed.pop(name)
        for closer in deployed.closers:
            await closer.close()
        return {}

    # ------------------------------------------------------------ readback

    async def cmd_divergences(self, name: str) -> dict:
        rddr = self.deployed[name].rddr
        return {
            "divergences": [
                {"proxy": event.proxy, "detail": event.detail}
                for event in rddr.divergences()
            ]
        }

    async def cmd_fixture_counters(self, name: str) -> dict:
        fixtures = self.deployed[name].fixtures
        return {"rejected": [getattr(fixture, "rejected", 0) for fixture in fixtures]}

    async def cmd_journal_check(self, name: str) -> dict:
        """CRC-verify the arm's journal from disk and count its records."""
        journal = ExchangeJournal(self.deployed[name].config.journal_dir)
        records = list(journal.records())
        return {
            "defects": journal.verify(),
            "records": len(records),
            "bytes": sum(len(record.encode()) for record in records),
        }

    async def cmd_stats(self) -> dict:
        usage = resource.getrusage(resource.RUSAGE_SELF)
        lags, self._lags = self._lags, []
        return {
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "maxrss_kb": usage.ru_maxrss,
            "ctx_switches": usage.ru_nvcsw + usage.ru_nivcsw,
            "gc_collections": [generation["collections"] for generation in gc.get_stats()],
            "lags_ms": sorted(lags),
        }

    async def cmd_lag_probe(self, on: bool) -> dict:
        if self._lag_task is not None:
            self._lag_task.cancel()
            self._lag_task = None
        if on:
            self._lag_task = asyncio.ensure_future(self._measure_lag())
        return {}

    async def _measure_lag(self) -> None:
        while True:
            due = time.perf_counter() + LAG_PERIOD
            await asyncio.sleep(LAG_PERIOD)
            self._lags.append((time.perf_counter() - due) * 1e3)

    # -------------------------------------------------------------- replay

    async def cmd_replay(self, name: str, spans_path: str) -> dict:
        """Push the capture arm's tapped exchanges through each layer's
        public functions, in pipeline order, timing every call.

        This mirrors what the incoming proxy does per exchange without
        relying on its internals: framing reads come from pre-fed
        ``StreamReader``s, analysis runs on the captured replies, and the
        journal is a scratch one in the work directory.
        """
        deployed = self.deployed[name]
        config = deployed.config
        requests, _ = tapped_messages(deployed.taps[0])
        replies = [tapped_messages(log)[1] for log in deployed.taps[1:]]
        count = min(len(requests), *(len(stream) for stream in replies))
        instances = len(replies)

        protocol = protocols.get(config.protocol)
        finish = getattr(protocol, "finish_exchange", None)
        ephemeral = EphemeralStateStore(
            instance_count=instances,
            min_length=config.ephemeral_min_length,
            canonical_instance=config.canonical_instance,
        )
        variance = VarianceMasker(config.variance_rules)
        denoiser = FilterPairDenoiser(config.filter_pair_obj())
        journal = ExchangeJournal.open(
            os.path.join(self.workdir, f"journal-replay-{name}"), fsync=True
        )
        state = protocol.new_connection_state()
        client_reader = asyncio.StreamReader()
        instance_readers = [asyncio.StreamReader() for _ in range(instances)]

        log = SpanLog()
        add, now = log.add, time.perf_counter_ns
        tokens_total = bytes_total = masked_total = fast_path = mutating = 0
        for exchange in range(count):
            client_reader.feed_data(requests[exchange])
            for reader, stream in zip(instance_readers, replies):
                reader.feed_data(stream[exchange])
            root = log.open("replay.exchange", now(), exchange)

            t0 = now()
            request = await protocol.read_client_message(client_reader, state)
            t1 = now()
            add("protocols.read_request", t0, t1, root, exchange)
            mutates = protocol.mutates_state(request)
            t2 = now()
            add("protocols.mutates_state", t1, t2, root, exchange)
            for index in range(instances):
                ephemeral.rewrite_for_instance(request, index)
            t3 = now()
            add("core.ephemeral.rewrite", t2, t3, root, exchange)
            ephemeral.consume_used(request)
            t4 = now()
            add("core.ephemeral.consume", t3, t4, root, exchange)
            responses = [
                await protocol.read_server_message(reader, state, request)
                for reader in instance_readers
            ]
            t5 = now()
            add("protocols.read_response", t4, t5, root, exchange)
            raw_tokens = [protocol.tokenize(response) for response in responses]
            t6 = now()
            add("protocols.tokenize", t5, t6, root, exchange)
            ephemeral.capture(raw_tokens)
            t7 = now()
            add("core.ephemeral.capture", t6, t7, root, exchange)
            tokens = variance.mask_streams(raw_tokens)
            t8 = now()
            add("core.variance.mask", t7, t8, root, exchange)
            mask = denoiser.mask_for(tokens)
            t9 = now()
            add("core.denoise.mask", t8, t9, root, exchange)
            result = diff_tokens(tokens, mask)
            t10 = now()
            add("core.diff.diff", t9, t10, root, exchange)
            # Every exchange is committed to the scratch journal, so the
            # journal's unit cost is known on every workload; how often the
            # live path pays it is ``mutating`` / ``exchanges``.
            canonical = responses[config.canonical_instance]
            journal.append(request, digest=zlib.crc32(canonical), sync=False)
            t11 = now()
            add("journal.append", t10, t11, root, exchange)
            journal.sync()
            add("journal.sync", t11, now(), root, exchange)
            mutating += mutates
            if finish is not None:
                finish(state)
            log.close(root, now())

            if result.divergent:
                raise RuntimeError(f"replayed exchange {exchange} diverged: {result.reason}")
            tokens_total += len(raw_tokens[config.canonical_instance])
            bytes_total += len(canonical)
            masked_total += len(mask.token_ranges)
            fast_path += not mask.token_ranges and mask.tail_from is None
        journal.close()
        log.write_jsonl(spans_path, source="sut.replay")
        return {
            "exchanges": count,
            # Median, not mean: one collector pause inside one call must
            # not be billed to that layer.
            "self_us": {
                span: statistics.median(values) / 1e3
                for span, values in self_times(log.rows).items()
            },
            "tokens": tokens_total,
            "response_bytes": bytes_total,
            "masked_tokens": masked_total,
            "fast_path": fast_path,
            "bindings_live": len(ephemeral),
            "mutating": mutating,
        }


class _Shutdown:
    """Adapts ``Cluster.shutdown`` to the closers' ``close()`` protocol."""

    def __init__(self, cluster: Cluster) -> None:
        self._cluster = cluster

    async def close(self) -> None:
        await self._cluster.shutdown()


async def serve(workdir: str) -> None:
    """Answer control commands from stdin until it closes."""
    loop = asyncio.get_running_loop()
    commands = asyncio.StreamReader(limit=1 << 20)
    await loop.connect_read_pipe(lambda: asyncio.StreamReaderProtocol(commands), sys.stdin)
    sut = Sut(workdir)
    while line := await commands.readline():
        message = json.loads(line)
        try:
            handler = getattr(sut, "cmd_" + message.pop("cmd"))
            reply = await handler(**message)
        except Exception:  # the pipe is the boundary: report, keep serving
            reply = {"error": traceback.format_exc()}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    asyncio.run(serve(sys.argv[1]))
