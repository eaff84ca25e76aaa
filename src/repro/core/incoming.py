"""The RDDR Incoming Request Proxy (paper section IV-B).

Sits between clients and the N instances of the protected microservice.
For every client request it: **Replicates** the request to all instances
(substituting per-instance ephemeral state), collects their responses,
**De-noises** them with the filter pair, **Diffs** the token streams, and
**Responds** — forwarding the canonical instance's bytes when unanimous,
or serving the intervention response and closing the connection when
divergent.

Beyond the paper's core design, two section IV-D extensions are
implemented behind configuration flags:

* ``signature_learning`` — divergence-signature generation: requests
  matching a previously diverging request pattern are rejected *before*
  replication, defeating the repeat-the-exploit DoS amplifier;
* ``divergence_policy="vote"`` (with optional ``quarantine_minority``) —
  classic N-version voting: when a strict majority of instances agree,
  their response is forwarded and, optionally, the outvoted instances
  are dropped from the connection.

Two robustness extensions (see ``docs/robustness.md``):

* an :class:`~repro.recovery.InstanceDirectory` makes instance addresses
  *swappable*: the proxy snapshots the directory between exchanges (never
  mid-exchange) and re-dials changed or rejoining instances.  A
  ``shadow``-mode (REJOINING) instance receives every replicated request
  and has its response compared, but its vote cannot influence the
  verdict and its failures cannot degrade the exchange;
* admission control (``max_concurrent_exchanges`` +
  ``admission_queue_limit``) bounds the exchanges in flight and *sheds*
  the overflow with a fast-fail response instead of stalling every
  client.
"""

from __future__ import annotations

import asyncio
import contextlib
import ssl
import time
from collections.abc import Sequence
from dataclasses import dataclass

from repro.core import events as ev
from repro.core.config import RddrConfig
from repro.core.ephemeral import EphemeralStateStore
from repro.core.events import EventLog
from repro.core.exchange import (
    ExchangeCore,
    Member,
    ReadFailure,
    close_members,
    collect,
    fan_out,
)
from repro.core.metrics import ProxyMetrics
from repro.core.signatures import SignatureStore
from repro.graph.index import ExecutionIndex
from repro.journal import (
    ExchangeJournal,
    GroupCommitBatcher,
    capture_snapshot,
    response_digest,
    supports_snapshots,
)
from repro.journal.log import FLAG_DEGRADED, FLAG_MAJORITY
from repro.obs import ExchangeTrace, Observer
from repro.protocols.base import ProtocolModule, capabilities_of
from repro.recovery.admission import AdmissionController
from repro.recovery.directory import MODE_OUT, MODE_SHADOW, InstanceDirectory
from repro.transport.retry import open_connection_retry
from repro.transport.server import ServerHandle, start_server
from repro.transport.streams import ConnectionClosed, close_writer, drain_write

Address = tuple[str, int]


@dataclass(slots=True)
class _Exchange:
    """What every stage of one client exchange needs to know about it."""

    number: int
    #: The client's request, upstream execution index already stripped.
    request: bytes
    client: asyncio.StreamWriter
    state: object
    trace: ExchangeTrace
    #: Directory version the connection's links were last reconciled to.
    version: int
    index: ExecutionIndex | None
    started: float


class IncomingRequestProxy(ExchangeCore):
    """N-versioning proxy for client-initiated traffic."""

    direction = "incoming"

    def __init__(
        self,
        instances: list[Address],
        protocol: ProtocolModule | str,
        config: RddrConfig | None = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        name: str = "rddr-incoming",
        event_log: EventLog | None = None,
        metrics: ProxyMetrics | None = None,
        observer: Observer | None = None,
        server_ssl: ssl.SSLContext | None = None,
        instance_ssl: ssl.SSLContext | None = None,
        directory: InstanceDirectory | None = None,
        journal: ExchangeJournal | None = None,
        propagate_index: bool = False,
    ) -> None:
        if len(instances) < 2:
            raise ValueError("N-versioning requires at least 2 instances")
        super().__init__(
            protocol,
            config,
            name=name,
            event_log=event_log,
            metrics=metrics,
            observer=observer,
            directory=directory,
        )
        if self.config.divergence_policy not in ("block", "vote"):
            raise ValueError(
                f"unknown divergence policy {self.config.divergence_policy!r}"
            )
        self.instances = list(instances)
        self.host = host
        self.port = port
        self.server_ssl = server_ssl
        self.instance_ssl = instance_ssl
        self.handle: ServerHandle | None = None
        self._ephemeral = EphemeralStateStore(
            instance_count=len(instances),
            min_length=self.config.ephemeral_min_length,
            canonical_instance=self.config.canonical_instance,
        )
        self.signatures = SignatureStore(ttl=self.config.signature_ttl)
        self._admission = AdmissionController(
            self.config.max_concurrent_exchanges,
            self.config.admission_queue_limit,
        )
        #: Durable exchange journal (None = journaling off).  Appended at
        #: commit time, *before* the client drain, so a client disconnect
        #: cannot lose an exchange the instances already applied.
        self.journal = journal
        #: Execution index (encoded token) of the newest journal-committed
        #: exchange — the anti-entropy sentinel stamps it into ``drift``
        #: trace records so drift findings stitch into the call trees
        #: (None until an indexed exchange commits).
        self.last_exec_index: str | None = None
        #: Group commit: appends landing within ``journal_group_commit_ms``
        #: share one fsync; each caller still ACKs only after durability.
        self._group_commit = (
            GroupCommitBatcher(
                journal, window_s=self.config.journal_group_commit_ms / 1000.0
            )
            if journal is not None
            else None
        )
        self._snapshot_task: asyncio.Task | None = None
        #: Optional per-exchange protocol hook, resolved once from the
        #: declared capabilities instead of a getattr per exchange.
        self._finish_hook = (
            self.protocol.finish_exchange
            if capabilities_of(self.protocol).finish_exchange
            else None
        )
        #: Re-attach the child index to replicated requests, so instances
        #: that relay toward an outgoing proxy carry the index onward
        #: (set by RddrDeployment when the deployment has outgoing
        #: proxies; leaf hops replicate the stripped request untouched).
        self._propagate_index = propagate_index and self._index_enabled

    # ------------------------------------------------------------ lifecycle

    @property
    def address(self) -> Address:
        if self.handle is None:
            raise RuntimeError("proxy not started")
        return self.handle.address

    async def start(self) -> ServerHandle:
        self.handle = await start_server(
            self._serve_client,
            self.host,
            self.port,
            name=self.name,
            ssl_context=self.server_ssl,
        )
        self.port = self.handle.port
        return self.handle

    async def close(self) -> None:
        if self.handle is not None:
            await self.handle.close()
        if self._group_commit is not None:
            await self._group_commit.close()
        if self._snapshot_task is not None:
            self._snapshot_task.cancel()
            with contextlib.suppress(asyncio.CancelledError, Exception):
                await self._snapshot_task
            self._snapshot_task = None

    # ------------------------------------------------------------ serving

    async def _serve_client(
        self, client_reader: asyncio.StreamReader, client_writer: asyncio.StreamWriter
    ) -> None:
        self.metrics.connections_total += 1
        connected = await self._connect_instances(client_writer)
        if connected is None:
            return
        links, version = connected
        state = self.protocol.new_connection_state()
        await self._exchange_loop(client_reader, client_writer, links, state, version)

    async def _dial(self, address: Address):
        return await open_connection_retry(
            *address,
            attempts=self.config.connect_attempts,
            max_delay=self.config.connect_backoff_max,
            ssl_context=self.instance_ssl,
        )

    async def _connect_instances(
        self, client_writer: asyncio.StreamWriter
    ) -> tuple[list[Member], int] | None:
        """Dial every instance (bounded retry-with-backoff per endpoint).

        With a directory, the dial set is its current snapshot: ``out``
        instances are skipped and ``shadow`` ones join as non-voting
        links.  On partial failure, either degrade onto the surviving
        majority or — closing the connections that *did* open so they
        cannot leak — serve the intervention response and close the
        client cleanly.
        """
        version = 0
        if self.directory is None:
            dialable = [
                Member(index, address=address)
                for index, address in enumerate(self.instances)
            ]
        else:
            version, entries = self.directory.snapshot()
            dialable = [
                Member(
                    entry.index,
                    shadow=entry.mode == MODE_SHADOW,
                    address=entry.address,
                )
                for entry in entries
                if entry.mode != MODE_OUT
            ]
        results = await asyncio.gather(
            *(self._dial(link.address) for link in dialable),
            return_exceptions=True,
        )
        failed: list[tuple[Member, str]] = []
        cancelled = False
        for link, result in zip(dialable, results):
            if isinstance(result, BaseException):
                cancelled = cancelled or isinstance(result, asyncio.CancelledError)
                failed.append((link, str(result)))
            else:
                link.reader, link.writer = result
        if cancelled:
            await close_members(dialable)
            raise asyncio.CancelledError
        if not failed:
            return dialable, version
        links = await self.settle(dialable, failed, "connect", count=False)
        if links is not None:
            return links, version
        await close_members(dialable)
        link, error = next(entry for entry in failed if not entry[0].shadow)
        self.events.record(
            ev.INSTANCE_ERROR,
            f"connect failed: instance {link.index}: {error}",
            proxy=self.name,
        )
        self.report_failure(link.index, f"connect failed: {error}")
        await self._refuse(client_writer, self.config.block_message)
        return None

    async def _exchange_loop(
        self,
        client_reader: asyncio.StreamReader,
        client_writer: asyncio.StreamWriter,
        links: list[Member],
        state: object,
        version: int,
    ) -> None:
        try:
            while True:
                request = await self.protocol.read_client_message(
                    client_reader, state
                )
                if request is None:
                    return
                exec_token: str | None = None
                if self._index_enabled:
                    # Strip the upstream hop's index before anything else
                    # sees the request: signature matching, ephemeral
                    # rewriting, journaling, and the diff all operate on
                    # the caller's actual payload.
                    exec_token, request = self.protocol.extract_index(request)
                if self.directory is not None:
                    # The atomic swap point: adopt directory changes only
                    # at an exchange boundary, never mid-exchange.
                    links, version = await self._refresh_links(links, version)
                admitted = await self._admission.acquire()
                if not admitted:
                    await self._shed(client_writer)
                    return
                try:
                    number = self.next_exchange()
                    self.metrics.exchanges_total += 1
                    self.metrics.bytes_from_clients += len(request)
                    ctx = _Exchange(
                        number, request, client_writer, state,
                        self.begin_trace(number), version,
                        self.hop_index(exec_token, number)
                        if self._index_enabled
                        else None,
                        time.monotonic(),
                    )
                    try:
                        survivors = await self._run_exchange(ctx, links)
                    finally:
                        self.observer.finish_exchange(ctx.trace)
                finally:
                    self._admission.release()
                if survivors is None:
                    return
                links = survivors
        finally:
            await close_members(links)

    async def _refresh_links(
        self, links: list[Member], version: int
    ) -> tuple[list[Member], int]:
        """Reconcile this connection's links with the directory snapshot:
        drop ``out`` instances, re-dial swapped addresses, and admit
        (re)joining instances — all between exchanges."""
        new_version, entries = self.directory.snapshot()
        if new_version == version:
            return links, version
        by_index = {link.index: link for link in links}
        for entry in entries:
            link = by_index.get(entry.index)
            if link is not None and (
                entry.mode == MODE_OUT or link.address != entry.address
            ):
                await close_writer(link.writer)
                del by_index[entry.index]
                link = None
            if entry.mode == MODE_OUT:
                continue
            if link is None:
                try:
                    reader, writer = await self._dial(entry.address)
                except (ConnectionError, OSError) as error:
                    self.report_failure(entry.index, f"redial failed: {error}")
                    continue
                link = by_index[entry.index] = Member(
                    entry.index, reader, writer, address=entry.address
                )
            link.shadow = entry.mode == MODE_SHADOW
        return sorted(by_index.values(), key=lambda link: link.index), new_version

    async def _shed(self, client_writer: asyncio.StreamWriter) -> None:
        """Fast-fail an exchange rejected by admission control."""
        self.metrics.exchanges_shed += 1
        self.events.record(
            ev.SHED,
            f"admission queue full ({self._admission.active} active, "
            f"{self._admission.waiting} waiting)",
            proxy=self.name,
        )
        trace = self.begin_trace(self.next_exchange())
        trace.set_verdict("shed", "admission control")
        self.observer.finish_exchange(trace)
        await self._refuse(client_writer, self.config.shed_message)

    async def _run_exchange(
        self, ctx: _Exchange, links: list[Member]
    ) -> list[Member] | None:
        """One exchange; returns the surviving links, or ``None`` to stop
        serving this client connection."""
        request, exchange, trace, index = ctx.request, ctx.number, ctx.trace, ctx.index
        if trace.sampled:  # sampled-out: skip even building the lists
            trace.root.attrs["voters"] = [
                link.index for link in links if not link.shadow
            ]
            if any(link.shadow for link in links):
                trace.root.attrs["shadow"] = [
                    link.index for link in links if link.shadow
                ]
            if index is not None:
                trace.root.attrs["exec_index"] = index.encode()

        # Section IV-D: reject remembered diverging inputs outright.
        if self.config.signature_learning:
            signature = self.signatures.match(request)
            if signature is not None:
                self.events.record(
                    ev.SIGNATURE_BLOCKED,
                    f"matched signature learned for: {signature.reason}",
                    proxy=self.name,
                    exchange=exchange,
                )
                trace.set_verdict("blocked_signature", signature.reason)
                await self._block(ctx, links, None)
                return None

        # Replicate, substituting each instance's own ephemeral state.
        # Instances that relay onward (non-leaf hops) receive the request
        # with this hop's child index re-attached; everything *else* in
        # this exchange — journal, diff, signatures — uses the stripped
        # request.
        wire_request = request
        if self._propagate_index and index is not None:
            wire_request = self.protocol.attach_index(request, index.encode())
        with trace.span("replicate") as replicate:
            payloads = [wire_request] * len(links)
            if self.config.ephemeral_state:
                for position, link in enumerate(links):
                    payloads[position] = self._ephemeral.rewrite_for_instance(
                        wire_request, link.index
                    )
                    if payloads[position] != wire_request:
                        self.events.record(
                            ev.EPHEMERAL_REWRITTEN,
                            f"instance {link.index}",
                            proxy=self.name,
                            exchange=exchange,
                        )
            send_failed = await fan_out(links, payloads, trace, replicate, drain_write)
        degraded = False
        if send_failed:
            survivors = await self.settle(
                links,
                [(link, "connection lost during replicate") for link in send_failed],
                exchange=exchange,
            )
            if survivors is None:
                lost = next(link for link in send_failed if not link.shadow)
                reason = f"instance {lost.index} connection lost"
                trace.set_verdict("instance_error", reason)
                await self._block(ctx, links, reason)
                return None
            degraded = any(not link.shadow for link in send_failed)
            links = survivors
        if self.config.ephemeral_state:
            self._ephemeral.consume_used(request)

        if not self.protocol.expects_response(request, ctx.state):
            trace.set_verdict("oneway")
            await self._journal_commit(ctx, b"", FLAG_DEGRADED if degraded else 0)
            return links

        # Deadline propagation: an upstream hop's remaining budget caps
        # this hop's per-instance read deadline, so a slow leaf times out
        # *here* instead of stacking full local deadlines per hop.
        deadline = self.config.instance_deadline()
        if index is not None and index.deadline_s is not None:
            deadline = min(deadline, index.deadline_s)
        responses, read_failed = await collect(
            links,
            lambda link: self.protocol.read_server_message(
                link.reader, ctx.state, request
            ),
            deadline,
            trace,
        )
        if read_failed:
            survivors = await self.settle(
                links,
                [(link, failure.detail) for link, failure in read_failed],
                "collect",
                exchange=exchange,
                count=not degraded,
            )
            if survivors is None:
                self._record_read_failure(ctx, read_failed, deadline)
                await self._block(ctx, links, "instance failure/timeout")
                return None
            degraded = degraded or any(not link.shadow for link, _ in read_failed)
            links = survivors
            responses = [r for r in responses if not isinstance(r, ReadFailure)]

        capture = (
            self.config.ephemeral_state
            and len(links) == len(self.instances)
            and not any(link.shadow for link in links)
        )
        verdict, masked = self.analyse(
            responses, links, exchange, trace,
            ephemeral=self._ephemeral if capture else None,
        )
        flags = FLAG_DEGRADED if degraded else 0
        if verdict is None:
            position = self._canonical_position(links)
            outcome = (
                ("degraded", "served on surviving majority")
                if degraded
                else ("unanimous", None)
            )
            return await self._serve(
                ctx, links, responses[position], position, masked, flags, outcome
            )
        trace.set_verdict("divergent", verdict)
        voters = [p for p, link in enumerate(links) if not link.shadow]
        if self.config.divergence_policy == "vote" and len(voters) >= 3:
            majority_rel = _majority_indices([masked[p] for p in voters])
            if majority_rel is not None:
                majority = [voters[i] for i in majority_rel]
                minority = [links[p] for p in voters if p not in majority]
                self.events.record(
                    ev.VOTE_OVERRIDE,
                    f"{len(majority)}/{len(voters)} agreed ({verdict}); "
                    f"outvoted instances: {[link.index for link in minority]}",
                    proxy=self.name,
                    exchange=exchange,
                )
                return await self._serve(
                    ctx, links, responses[majority[0]], majority[0], masked,
                    flags | FLAG_MAJORITY, ("vote_majority", verdict),
                    outvoted=minority,
                )
        await self._block(ctx, links, verdict)
        return None

    def _record_read_failure(
        self,
        ctx: _Exchange,
        read_failed: list[tuple[Member, ReadFailure]],
        deadline: float,
    ) -> None:
        """Verdict and event for a collect stage that lost its quorum."""
        voters = [entry for entry in read_failed if not entry[0].shadow]
        if any(failure.kind == "deadline" for _, failure in voters):
            kind, verdict = ev.TIMEOUT, "timeout"
            reason = f"no unanimous response within {deadline}s"
            self.metrics.timeouts += 1
        else:
            kind, verdict = ev.INSTANCE_ERROR, "instance_error"
            reason = "; ".join(
                f"instance {link.index}: {failure.detail}" for link, failure in voters
            )
        ctx.trace.set_verdict(verdict, reason)
        self.events.record(kind, reason, proxy=self.name, exchange=ctx.number)

    async def _serve(
        self,
        ctx: _Exchange,
        links: list[Member],
        response: bytes,
        position: int,
        masked: list[tuple[bytes, ...]],
        flags: int,
        verdict: tuple[str, str | None],
        *,
        outvoted: Sequence[Member] = (),
    ) -> list[Member] | None:
        """Serve ``response`` (what ``links[position]`` said) to the
        client: journal, respond, then the bookkeeping a served exchange
        owes.  Returns the links to keep serving on, or ``None`` when
        the client connection is finished.

        ``outvoted`` are the voters a majority overruled; with
        ``quarantine_minority`` they are dropped from the connection
        once the client has its answer.
        """
        await self._journal_commit(ctx, response, flags)
        self.metrics.bytes_to_clients += len(response)
        with ctx.trace.span("respond"):
            ctx.client.write(response)
            try:
                await drain_write(ctx.client)
            except ConnectionClosed:
                ctx.trace.set_verdict("client_closed")
                return None
        ctx.trace.set_verdict(*verdict)
        # Shadows are compared against pre-quarantine positions: dropping
        # the minority below shifts them.
        self._report_shadows(links, masked, position, ctx.number)
        self.metrics.latency.observe(time.monotonic() - ctx.started)
        if self._finish_hook is not None:
            self._finish_hook(ctx.state)
        if outvoted and self.config.quarantine_minority:
            for link in outvoted:
                self.events.record(
                    ev.QUARANTINE,
                    f"instance {link.index} dropped from connection",
                    proxy=self.name,
                    exchange=ctx.number,
                )
                self.report_failure(
                    link.index, f"outvoted: {verdict[1]}", fatal=True
                )
            await close_members(outvoted)
            links = [link for link in links if link not in outvoted]
        if self.protocol.terminal_response(response):
            # The relayed unit ends the session by protocol convention
            # (e.g. a FATAL forwarded up a chain): propagate the close
            # instead of leaving the client waiting on a dead cycle.
            return None
        return links

    # ---------------------------------------------------------- journaling

    async def _journal_commit(self, ctx: _Exchange, response: bytes, flags: int) -> None:
        """Append one committed state-mutating exchange to the journal.

        Only exchanges the proxy actually *served* reach this point —
        blocked/divergent ones never mutate journaled history.  Reads
        (per the protocol's ``mutates_state``) are skipped.  Returns only
        once the record is durable: immediately with per-record fsync,
        after the shared group-commit barrier when
        ``journal_group_commit_ms`` is set.
        """
        if self._group_commit is None or not self.protocol.mutates_state(ctx.request):
            return
        record = await self._group_commit.append(
            ctx.request,
            digest=response_digest(response),
            directory_version=ctx.version,
            flags=flags,
        )
        exec_index = ctx.index.encode() if ctx.index is not None else None
        if exec_index is not None:
            self.last_exec_index = exec_index
        self.observer.journal_appended(
            self.name,
            len(record.encode()),
            self.journal.size_bytes,
            exec_index=exec_index,
        )
        self._maybe_snapshot()

    def _maybe_snapshot(self) -> None:
        """Kick a background snapshot when the journal outgrows its
        compaction bound (and the protocol can snapshot at all)."""
        if (
            self.journal is None
            or self.journal.size_bytes <= self.journal.compact_bytes
            or not supports_snapshots(self.protocol)
            or (self._snapshot_task is not None and not self._snapshot_task.done())
        ):
            return
        self._snapshot_task = asyncio.create_task(self._take_snapshot())

    async def _take_snapshot(self) -> None:
        """Capture an app snapshot from a live instance and install it.

        The epoch is the newest journaled id *before* the capture is
        sent; a concurrently committed exchange may already be reflected
        in the snapshot (overshoot), which replay tolerates: re-applying
        an already-applied record converges on the same state.
        """
        address = self._snapshot_address()
        if address is None or self.journal is None:
            return
        epoch = self.journal.last_id
        try:
            data = await capture_snapshot(
                address,
                self.protocol,
                deadline=self.config.instance_deadline(),
                connect_attempts=self.config.connect_attempts,
            )
        except (ConnectionError, OSError, asyncio.TimeoutError, ConnectionClosed):
            return
        if self.journal is not None and epoch > 0:
            self.journal.install_snapshot(epoch, data)

    def _snapshot_address(self) -> Address | None:
        """A live (non-shadow) instance address to snapshot from."""
        if self.directory is None:
            return self.instances[self.config.canonical_instance]
        _, entries = self.directory.snapshot()
        for entry in entries:
            if entry.mode not in (MODE_OUT, MODE_SHADOW):
                return entry.address
        return None

    def _canonical_position(self, links: list[Member]) -> int:
        """The position of the canonical instance, or of the first
        surviving *voter* if the canonical one is gone or shadow."""
        fallback: int | None = None
        for position, link in enumerate(links):
            if link.shadow:
                continue
            if link.index == self.config.canonical_instance:
                return position
            if fallback is None:
                fallback = position
        return fallback if fallback is not None else 0

    def _report_shadows(
        self,
        links: list[Member],
        masked: list[tuple[bytes, ...]],
        reference_position: int,
        exchange: int,
    ) -> None:
        """Compare each shadow link's masked stream against the served
        response's and report clean/dirty to the supervisor."""
        if self.directory is None:
            return
        for position, link in enumerate(links):
            if not link.shadow or position >= len(masked):
                continue
            clean = masked[position] == masked[reference_position]
            if not clean:
                self.events.record(
                    ev.RECOVERY_STATE,
                    f"instance {link.index}: dirty shadow exchange",
                    proxy=self.name,
                    exchange=exchange,
                )
            self.directory.report_shadow(link.index, clean)

    # ------------------------------------------------------------ blocking

    async def _block(
        self, ctx: _Exchange, links: list[Member], reason: str | None
    ) -> None:
        """Serve the intervention response and halt all communication.

        ``reason=None`` means the block came from a learned signature (the
        divergence was already recorded when the signature was learned).
        """
        self.metrics.exchanges_blocked += 1
        if reason is not None:
            self.events.record(
                ev.DIVERGENCE, reason, proxy=self.name, exchange=ctx.number
            )
            if self.config.signature_learning:
                self.signatures.learn(ctx.request, reason)
        await self._refuse(ctx.client, self.config.block_message)
        await close_members(links)

    async def _refuse(self, client_writer: asyncio.StreamWriter, message: str) -> None:
        """Answer the client with the protocol's framed refusal of
        ``message`` (nothing, for protocols that just close) and close
        its connection; a client that is already gone is not an error."""
        refusal = self.protocol.block_response(message)
        if refusal:
            with contextlib.suppress(Exception):
                client_writer.write(refusal)
                await drain_write(client_writer)
        await close_writer(client_writer)


def _majority_indices(masked: list[tuple[bytes, ...]]) -> list[int] | None:
    """Positions forming a strict majority of identical masked streams."""
    groups: dict[tuple[bytes, ...], list[int]] = {}
    for position, stream in enumerate(masked):
        groups.setdefault(stream, []).append(position)
    best = max(groups.values(), key=len)
    if len(best) * 2 > len(masked):
        return best
    return None
