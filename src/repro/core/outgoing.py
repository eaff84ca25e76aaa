"""The RDDR Outgoing Request Proxy (paper section IV-B).

The dual of the incoming proxy: the N instances of the protected
microservice each *initiate* connections toward a backend microservice
(e.g. DVWA frontends toward their database).  One outgoing proxy guards
one backend.  It listens on N ports — instance *i* is configured to reach
the backend at port *i* — groups the k-th connection from every instance
into a *connection group*, and then, per exchange:

1. reads one request from every instance in the group,
2. de-noises and diffs them (an information leak by a compromised
   instance shows up here),
3. forwards the canonical instance's request to the real backend, and
4. replicates the backend's response to all N instances — the "merge"
   that Twitter's Diffy lacks (paper section III-A).

A missing request (one instance never issues the call the others made,
e.g. only the smuggling-vulnerable proxy forwards the hidden request) is
detected by the exchange timeout and treated as divergence.
"""

from __future__ import annotations

import asyncio
import time

from repro.core import events as ev
from repro.core.config import RddrConfig
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
from repro.graph.policy import EdgePolicy, containment_response
from repro.obs import ExchangeTrace, Observer
from repro.protocols.base import ProtocolModule
from repro.recovery.breaker import CircuitBreaker
from repro.transport.retry import CircuitOpenError, open_connection_retry
from repro.transport.server import ServerHandle, start_server
from repro.transport.streams import ConnectionClosed, close_writer, drain_write

Address = tuple[str, int]

#: Backend-interaction failures an edge policy may *contain* (answered
#: with a framed degrade/shed response instead of a group teardown).
_BACKEND_FAILURES = (
    asyncio.TimeoutError,
    ConnectionClosed,
    ConnectionError,
    OSError,
)


class _BackendLink:
    """The group's (re)dialable connection to the real backend."""

    __slots__ = ("reader", "writer", "state")

    def __init__(self, state: object) -> None:
        self.reader: asyncio.StreamReader | None = None
        self.writer: asyncio.StreamWriter | None = None
        self.state = state


class _ConnectionGroup:
    """The k-th connection from every instance, matched together."""

    def __init__(self, size: int, number: int) -> None:
        #: Monotone over the proxy's life; names the group in event text.
        self.number = number
        #: One slot per instance, filled as each one's connection arrives.
        self.members: list[Member | None] = [None] * size
        self.complete = asyncio.Event()
        self.finished = asyncio.Event()

    def join(self, member: Member) -> None:
        self.members[member.index] = member
        if all(slot is not None for slot in self.members):
            self.complete.set()


class OutgoingRequestProxy(ExchangeCore):
    """N-versioning proxy for instance-initiated (outgoing) traffic."""

    direction = "outgoing"

    def __init__(
        self,
        backend: Address,
        instance_count: int,
        protocol: ProtocolModule | str,
        config: RddrConfig | None = None,
        *,
        host: str = "127.0.0.1",
        name: str = "rddr-outgoing",
        event_log: EventLog | None = None,
        metrics: ProxyMetrics | None = None,
        observer: Observer | None = None,
        breaker: CircuitBreaker | None = None,
        edge: EdgePolicy | None = None,
    ) -> None:
        if instance_count < 2:
            raise ValueError("N-versioning requires at least 2 instances")
        super().__init__(
            protocol,
            config,
            name=name,
            event_log=event_log,
            metrics=metrics,
            observer=observer,
        )
        self.backend = backend
        self.instance_count = instance_count
        #: This edge's tree policy (repro.graph); the default is plain
        #: ``vote`` — byte-identical to pre-graph behaviour.
        self.edge = edge if edge is not None else EdgePolicy()
        #: Backend redials spent so far against ``edge.retry_budget``.
        self._redials_used = 0
        self.host = host
        self.handles: list[ServerHandle] = []
        #: The groups still forming or serving; a finished group is
        #: forgotten, so this stays as small as the live connection count.
        self._groups: list[_ConnectionGroup] = []
        #: Groups ever formed: the next group's number in event text.
        self._group_counter = 0
        if breaker is None and self.config.circuit_breaker:
            breaker = CircuitBreaker(
                failure_threshold=self.config.breaker_failure_threshold,
                reset_timeout=self.config.breaker_reset_timeout,
            )
        self.breaker = breaker
        if self.breaker is not None and self.breaker.on_transition is None:
            self.breaker.on_transition = self._breaker_transition

    def _breaker_transition(self, old: str, new: str) -> None:
        self.events.record(
            ev.CIRCUIT, f"backend breaker {old} -> {new}", proxy=self.name
        )

    # ------------------------------------------------------------ lifecycle

    @property
    def addresses(self) -> list[Address]:
        """Per-instance backend addresses (instance i connects to [i])."""
        if not self.handles:
            raise RuntimeError("proxy not started")
        return [handle.address for handle in self.handles]

    def address_for_instance(self, index: int) -> Address:
        return self.addresses[index]

    async def start(self) -> list[ServerHandle]:
        for index in range(self.instance_count):
            handle = await start_server(
                self._make_handler(index),
                self.host,
                0,
                name=f"{self.name}-{index}",
            )
            self.handles.append(handle)
        return self.handles

    async def close(self) -> None:
        for handle in self.handles:
            await handle.close()

    # ------------------------------------------------------------ grouping

    def _make_handler(self, index: int):
        async def handler(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
            await self._handle_instance_connection(index, reader, writer)

        return handler

    def _assign_group(self, index: int) -> tuple[_ConnectionGroup, int]:
        """Pick the group an arriving instance connection belongs to: the
        earliest still-forming group with no member for ``index`` yet, or
        a fresh one.  Slot-based assignment (rather than a per-instance
        connection counter) self-aligns after per-instance drift — an
        instance that dialed extra times (respawn, a rejoining shadow
        joining mid-session) or missed dials (it was dead) simply lands
        in whatever group its peers are currently forming.

        Returns the group and its number (monotone over the proxy's
        life, for event text).
        """
        for group in self._groups:
            if group.members[index] is None and not group.complete.is_set():
                return group, group.number
        group = _ConnectionGroup(self.instance_count, self._group_counter)
        self._group_counter += 1
        self._groups.append(group)
        return group, group.number

    async def _handle_instance_connection(
        self, index: int, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        group, group_index = self._assign_group(index)
        group.join(
            Member(index, reader, writer, state=self.protocol.new_connection_state())
        )
        self.metrics.connections_total += 1
        if index == self.config.canonical_instance:
            # The canonical instance's handler drives the whole group; the
            # others just keep their connection open until it finishes.
            try:
                await asyncio.wait_for(
                    group.complete.wait(), timeout=self.config.exchange_timeout
                )
            except asyncio.TimeoutError:
                # Degraded group formation: run on the majority that did
                # connect instead of tearing the group down.
                present = [slot for slot in group.members if slot is not None]
                missing = [
                    Member(instance)
                    for instance, slot in enumerate(group.members)
                    if slot is None
                ]
                joined = await self.settle(
                    present + missing,
                    [(member, "never connected") for member in missing],
                    "formation",
                    scope=f"group {group_index}: ",
                )
                if joined is None:
                    self.metrics.timeouts += 1
                    self.events.record(
                        ev.TIMEOUT,
                        f"group {group_index}: not all instances connected",
                        proxy=self.name,
                    )
                    await self._teardown_group(group)
                    return
                group.complete.set()  # release the joined members' waits
            await self._run_group(group, group_index)
        else:
            # Non-canonical connections stay open for the group's lifetime;
            # if the group never completes, give up after the timeout (a
            # grace period on top of the canonical handler's, so a
            # degraded-formation decision wins the race).
            try:
                await asyncio.wait_for(
                    group.complete.wait(),
                    timeout=self.config.exchange_timeout * 1.5 + 0.1,
                )
            except asyncio.TimeoutError:
                if not group.complete.is_set():
                    await self._teardown_group(group)
                    return
            await group.finished.wait()

    async def _teardown_group(self, group: _ConnectionGroup) -> None:
        group.finished.set()
        if group in self._groups:
            self._groups.remove(group)
        await close_members(group.members)

    # ------------------------------------------------------------ exchange

    async def _run_group(self, group: _ConnectionGroup, group_index: int) -> None:
        # A degraded group (formation or mid-exchange drop) simply has
        # fewer members than ``instance_count``.
        members = [slot for slot in group.members if slot is not None]
        backend = _BackendLink(self.protocol.new_connection_state())
        try:
            # ``vote`` (the status quo) dials eagerly and fails the whole
            # group fast; containing modes dial lazily per exchange so a
            # dead backend degrades into framed responses instead.
            if self.edge.mode == "vote":
                await self._ensure_backend(backend)
            while members is not None:
                # Opened while the group is still idle: the exchange
                # number is only taken once a request actually arrives.
                trace = self.begin_trace(self._exchange_counter)
                try:
                    members = await self._run_group_exchange(
                        group_index, members, backend, trace
                    )
                finally:
                    self.observer.finish_exchange(trace)
        except CircuitOpenError as error:
            # Fast-fail: the backend breaker is open, so the group is torn
            # down immediately instead of burning the full retry budget.
            self.events.record(
                ev.CIRCUIT, f"group {group_index}: {error}", proxy=self.name
            )
        except (ConnectionClosed, ConnectionError, asyncio.TimeoutError) as error:
            self.events.record(
                ev.INSTANCE_ERROR, f"group {group_index}: {error}", proxy=self.name
            )
        finally:
            await self._teardown_group(group)
            if backend.writer is not None:
                await close_writer(backend.writer)

    async def _ensure_backend(self, backend: _BackendLink) -> None:
        """Dial the backend if this group has no live connection.

        Redials (every dial after the group's first) draw down the
        edge's ``retry_budget``; once exhausted, a single attempt is
        made per exchange — budget propagation guarantees a flapping
        leaf cannot turn an upstream edge into a retry storm.
        """
        if backend.writer is not None:
            return
        attempts = self.config.connect_attempts
        if self.edge.retry_budget is not None:
            remaining = max(0, self.edge.retry_budget - self._redials_used)
            attempts = max(1, min(attempts, 1 + remaining))
        try:
            backend.reader, backend.writer = await open_connection_retry(
                *self.backend,
                attempts=attempts,
                max_delay=self.config.connect_backoff_max,
                breaker=self.breaker,
            )
        finally:
            if self.edge.retry_budget is not None:
                self._redials_used += max(0, attempts - 1)
        backend.state = self.protocol.new_connection_state()

    async def _run_group_exchange(
        self,
        group_index: int,
        members: list[Member],
        backend: _BackendLink,
        trace: ExchangeTrace,
    ) -> list[Member] | None:
        """One outgoing exchange; returns the group's surviving members,
        or ``None`` when the group is done."""
        scope = f"group {group_index}: "
        requests, read_failed = await collect(
            members,
            lambda member: self.protocol.read_client_message(
                member.reader, member.state
            ),
            self.config.instance_deadline(),
            trace,
            first_waits_forever=True,
        )
        degraded = False
        if read_failed:
            survivors = await self.settle(
                members,
                [
                    (member, "missed deadline" if f.kind == "deadline" else f.detail)
                    for member, f in read_failed
                ],
                scope=scope,
            )
            if survivors is None:
                if any(failure.kind == "deadline" for _, failure in read_failed):
                    self.metrics.timeouts += 1
                    verdict, reason = "timeout", "missing/late instance request"
                else:
                    verdict, reason = "instance_error", "; ".join(
                        f"instance {member.index}: {failure.detail}"
                        for member, failure in read_failed
                    )
                trace.set_verdict(verdict, reason)
                self._record_block(group_index, reason)
                return None
            requests = [r for r in requests if not isinstance(r, ReadFailure)]
            members = survivors
            degraded = True
        if all(request is None for request in requests):
            trace.discard = True  # all instances closed cleanly; not an exchange
            return None
        if any(request is None for request in requests):
            reason = "closed while peers kept talking"
            survivors = await self.settle(
                members,
                [(m, reason) for m, r in zip(members, requests) if r is None],
                scope=scope,
            )
            if survivors is None:
                trace.set_verdict("divergent", f"instance {reason}")
                self._record_block(group_index, f"instance {reason}")
                return None
            requests = [request for request in requests if request is not None]
            members = survivors
            degraded = True
        exchange = self.next_exchange(trace)
        self.metrics.exchanges_total += 1

        # Execution index: strip the (instance-identical) envelope before
        # diffing, then derive this hop's child index.  The stripped form
        # is what gets compared and forwarded.
        child = None
        if self._index_enabled:
            token: str | None = None
            for position, request in enumerate(requests):
                found, requests[position] = self.protocol.extract_index(request)
                token = token or found
            child = self.hop_index(token, exchange)
            if trace.sampled:
                trace.root.attrs["exec_index"] = child.encode()

        # Per-exchange backend deadline: the edge's share composed with
        # whatever budget the parent hop passed down (a child index
        # carries its parent's budgets).
        budget = self.config.exchange_timeout
        if self.edge.deadline_s is not None:
            budget = min(budget, self.edge.deadline_s)
        if child is not None and child.deadline_s is not None:
            budget = min(budget, child.deadline_s)

        if self.edge.mode == "shed":
            await self._serve_containment(
                group_index, members, trace, "shed", "edge policy: shed"
            )
            return members

        if self.edge.diffs:
            with trace.span("merge") as merge:
                verdict, _ = self.analyse(
                    requests, members, exchange, trace, parent=merge
                )
            if verdict is not None:
                trace.set_verdict("divergent", verdict)
                self._record_block(group_index, verdict)
                return None

        indices = [member.index for member in members]
        preferred = self.config.canonical_instance
        canonical = requests[indices.index(preferred) if preferred in indices else 0]
        if child is not None:
            # Re-attach with the *remaining* budgets so the next hop
            # inherits only this edge's share.
            retries = None
            if self.edge.retry_budget is not None:
                retries = max(0, self.edge.retry_budget - self._redials_used)
            canonical = self.protocol.attach_index(
                canonical,
                child.with_budget(deadline_s=budget, retries=retries).encode(),
            )
        try:
            if backend.writer is None:
                await self._ensure_backend(backend)
            with trace.span("backend"):
                backend.writer.write(canonical)
                await drain_write(backend.writer)
                started = time.monotonic()

                if not self.protocol.expects_response(canonical, backend.state):
                    trace.set_verdict("oneway")
                    return members
                response = await asyncio.wait_for(
                    self.protocol.read_server_message(
                        backend.reader, backend.state, canonical
                    ),
                    timeout=budget,
                )
        except CircuitOpenError:
            if not self.edge.contains_failure:
                raise
            await self._drop_backend(backend)
            await self._serve_containment(
                group_index, members, trace, self.edge.on_failure,
                "backend circuit open",
            )
            return members
        except _BACKEND_FAILURES as error:
            if not self.edge.contains_failure:
                raise
            await self._drop_backend(backend)
            reason = (
                f"backend {type(error).__name__}: {error}"
                if str(error)
                else f"backend {type(error).__name__}"
            )
            await self._serve_containment(
                group_index, members, trace, self.edge.on_failure, reason
            )
            return members
        # A member that dies mid-fan-back degrades the group (when quorum
        # allows) exactly as a failed read would; below quorum the whole
        # group tears down.
        with trace.span("fan-back") as fan_back:
            lost = await fan_out(
                members, [response] * len(members), trace, fan_back, drain_write
            )
        if lost:
            survivors = await self.settle(
                members,
                [(member, "connection lost during fan-back") for member in lost],
                scope=scope,
            )
            if survivors is None:
                raise ConnectionClosed(
                    f"instance {lost[0].index} connection lost during fan-back"
                )
            members = survivors
            degraded = True
        self.metrics.latency.observe(time.monotonic() - started)
        trace.set_verdict("degraded" if degraded else "unanimous")
        if self.protocol.terminal_response(response):
            # The backend ended the session in-band (e.g. a FATAL from a
            # downstream hop's block): fan-back is done, now propagate
            # the close so upstream hops see it too.
            return None
        return members

    def _record_block(self, group_index: int, reason: str) -> None:
        self.metrics.exchanges_blocked += 1
        self.events.record(
            ev.DIVERGENCE, f"group {group_index}: {reason}", proxy=self.name
        )

    # ------------------------------------------------ cascade containment

    async def _drop_backend(self, backend: _BackendLink) -> None:
        """Close a failed backend connection; the next contained exchange
        redials it (within the edge's retry budget)."""
        if backend.writer is not None:
            await close_writer(backend.writer)
        backend.reader = backend.writer = None
        backend.state = self.protocol.new_connection_state()

    async def _serve_containment(
        self,
        group_index: int,
        members: list[Member],
        trace: ExchangeTrace,
        verdict: str,
        reason: str,
    ) -> None:
        """Answer every group member with the protocol's framed
        degrade/shed response and keep the group alive — the downstream
        failure maps to a policy verdict upstream, never a raw timeout
        or teardown cascading up the call tree."""
        payload = containment_response(self.protocol, reason)
        # A member this answer cannot reach is found by the next collect.
        await fan_out(members, [payload] * len(members), trace, None, drain_write)
        mapped = "shed" if verdict == "shed" else "backend_degraded"
        trace.set_verdict(mapped, reason)
        if mapped == "shed":
            self.metrics.exchanges_shed += 1
            self.events.record(
                ev.SHED, f"group {group_index}: {reason}", proxy=self.name
            )
        else:
            self.metrics.degraded_exchanges += 1
            self.events.record(
                ev.DEGRADED, f"group {group_index}: {reason}", proxy=self.name
            )
