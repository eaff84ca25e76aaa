"""The exchange engine both RDDR proxies run on (paper section IV-B).

The Incoming and Outgoing Request Proxies are duals: each runs the same
Replicate → De-noise → Diff → Respond loop over a set of replica
connections, differing only in who speaks first.  The stages that loop
is made of are written once, here:

* :func:`collect` — one message from every member under one deadline;
* :func:`fan_out` — one write to every member, buffered then drained;
* :meth:`ExchangeCore.settle` — the quorum decision after members failed;
* :meth:`ExchangeCore.analyse` — tokenize, de-noise, diff.

:class:`ExchangeCore` also carries the construction wiring the proxies
share (protocol, observer/event-log/metrics fallback chain, de-noisers,
trace sampler) and the two per-exchange identities: the exchange number
(:meth:`~ExchangeCore.next_exchange`) and the execution index
(:meth:`~ExchangeCore.hop_index`).
"""

from __future__ import annotations

import asyncio
from collections.abc import Awaitable, Callable, Sequence
from dataclasses import dataclass

from repro.core import events as ev
from repro.core.config import RddrConfig
from repro.core.denoise import learn_noise_mask
from repro.core.diff import EMPTY_MASK, NoiseMask, diff_tokens
from repro.core.ephemeral import EphemeralStateStore
from repro.core.events import EventLog
from repro.core.metrics import ProxyMetrics
from repro.core.variance import VarianceMasker
from repro.graph.index import ExecutionIndex
from repro.obs import ExchangeTrace, Observer, TraceSampler, active_observer
from repro.obs.trace import Span
from repro.protocols.base import ProtocolModule, capabilities_of, resolve
from repro.recovery.directory import InstanceDirectory
from repro.transport.streams import ConnectionClosed, close_writer

Address = tuple[str, int]


@dataclass(eq=False, slots=True)
class Member:
    """One replica's connection within an exchange, keeping its original
    instance index however many of its siblings have been dropped.

    ``reader``/``writer`` are ``None`` only for a member that was never
    connected (an undialable instance, an instance that never joined its
    connection group) — it exists so :meth:`ExchangeCore.settle` can
    count it against the quorum.
    """

    index: int
    reader: asyncio.StreamReader | None = None
    writer: asyncio.StreamWriter | None = None
    #: Shadow (REJOINING) members replicate and compare but never vote.
    shadow: bool = False
    #: The endpoint this member was dialed to (for directory refreshes).
    address: Address | None = None
    #: Protocol connection state, where every member has a stream of its
    #: own to frame (the outgoing proxy's instance-initiated requests).
    state: object = None


@dataclass(frozen=True, slots=True)
class ReadFailure:
    """One member's failed read within :func:`collect`."""

    kind: str  # "deadline" or "lost"
    detail: str


async def close_members(members: Sequence[Member | None]) -> None:
    """Close every connected member; closing an already-closed writer is
    a no-op, so members dropped (and closed) mid-exchange are safe here."""
    for member in members:
        if member is not None and member.writer is not None:
            await close_writer(member.writer)


async def collect(
    members: Sequence[Member],
    read: Callable[[Member], Awaitable[bytes | None]],
    deadline: float,
    trace: ExchangeTrace,
    *,
    first_waits_forever: bool = False,
) -> tuple[list[bytes | None | ReadFailure], list[tuple[Member, ReadFailure]]]:
    """One message per member, read concurrently under one deadline.

    Returns the per-member results and, apart, the members that failed.
    Each result is what ``read(member)`` returned, or a
    :class:`ReadFailure`: ``"deadline"`` for a straggler cancelled when
    the shared timer fired, ``"lost"`` for a connection that broke
    mid-message.  One dead or slow member therefore never holds its
    siblings hostage, and never raises past the caller's quorum decision.

    ``first_waits_forever`` is the outgoing proxy's idle rule: nobody
    owes a request until one member speaks (or hangs up); once one has,
    the rest must follow within the deadline — a missing request is the
    smuggling/divergence signature.
    """

    async def recv(member: Member, parent: Span) -> bytes | None:
        with trace.span("recv", parent=parent, instance=member.index):
            return await read(member)

    # One shared timer via asyncio.wait instead of a wait_for wrapper
    # (task + timer) per member.
    with trace.span("collect") as span:
        tasks = [asyncio.ensure_future(recv(member, span)) for member in members]
        try:
            waiting = tasks
            if first_waits_forever and tasks:
                await asyncio.wait(tasks, return_when=asyncio.FIRST_COMPLETED)
                waiting = [task for task in tasks if not task.done()]
            if waiting:  # asyncio.wait() rejects an empty set
                _, late = await asyncio.wait(waiting, timeout=deadline)
                for task in late:
                    task.cancel()
                if late:
                    await asyncio.gather(*late, return_exceptions=True)
        except asyncio.CancelledError:
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
            raise
        results: list[bytes | None | ReadFailure] = []
        failed: list[tuple[Member, ReadFailure]] = []
        for member, task in zip(members, tasks):
            if task.cancelled():
                failure = ReadFailure("deadline", f"no response within {deadline}s")
            elif (error := task.exception()) is None:
                results.append(task.result())
                continue
            elif isinstance(error, (ConnectionClosed, ConnectionError)):
                failure = ReadFailure("lost", str(error) or "connection lost")
            else:
                # Retrieve the siblings' exceptions before bailing so
                # they aren't logged as "never retrieved" and lost.
                for other in tasks:
                    if not other.cancelled():
                        other.exception()
                raise error
            results.append(failure)
            failed.append((member, failure))
    return results, failed


async def fan_out(
    members: Sequence[Member],
    payloads: Sequence[bytes],
    trace: ExchangeTrace,
    parent: Span | None,
    drain: Callable[[asyncio.StreamWriter], Awaitable[None]],
) -> list[Member]:
    """Write ``payloads[i]`` to ``members[i]``; returns the members whose
    connection failed.

    Pipelined: every write is buffered first (``StreamWriter.write`` is
    synchronous), then all members are drained while the kernel pushes
    them concurrently — the stage costs the *slowest* member, not the
    sum.  Each write gets a ``send`` span under ``parent``; with no
    parent (a containment answer is not a traced stage) none is recorded.

    ``drain`` is the calling proxy module's ``drain_write``, so a test can
    fail one proxy's drains without touching the other's.
    """
    for member, payload in zip(members, payloads):
        if parent is None:
            member.writer.write(payload)
        else:
            with trace.span("send", parent=parent, instance=member.index):
                member.writer.write(payload)
    failed: list[Member] = []
    for member in members:
        try:
            await drain(member.writer)
        except (ConnectionClosed, OSError):
            failed.append(member)
    return failed


#: stage -> (DEGRADED event wording, voter failure report, shadow failure
#: report); ``{}`` is the failure's own detail.  The wording differs by
#: stage only where it always has — operators and tests grep for it.
_DROP_WORDING = {
    "": ("dropped: {}", "{}", "shadow {}"),
    "connect": (
        "dropped at connect: {}", "connect failed: {}", "shadow connect failed: {}",
    ),
    "collect": ("dropped: {}", "{}", "shadow read failed: {}"),
    "formation": ("{}", "{}", "{}"),
}


class ExchangeCore:
    """What an RDDR proxy is built from, whichever side speaks first."""

    #: ``"incoming"`` or ``"outgoing"``, stamped on every trace.
    direction: str

    def __init__(
        self,
        protocol: ProtocolModule | str,
        config: RddrConfig | None,
        *,
        name: str,
        event_log: EventLog | None,
        metrics: ProxyMetrics | None,
        observer: Observer | None,
        directory: InstanceDirectory | None = None,
    ) -> None:
        self.protocol = resolve(protocol)
        self.config = config or RddrConfig(protocol=self.protocol.name)
        self.name = name
        #: Where member failures are reported (the recovery supervisor
        #: listens); ``None`` for a static instance set.
        self.directory = directory
        # Explicit None checks: an empty EventLog is falsy (it has __len__).
        self.observer = (
            observer if observer is not None else (active_observer() or Observer())
        )
        self.events = (
            event_log if event_log is not None else EventLog(observer=self.observer)
        )
        self.metrics = (
            metrics
            if metrics is not None
            else self.observer.proxy_metrics(name, self.protocol.name)
        )
        self._filter_pair = self.config.filter_pair_obj()
        self._variance = VarianceMasker(self.config.variance_rules)
        #: Deterministic trace sampling: exchanges the sampler drops run
        #: the allocation-free null-trace path (zero Span objects).
        self._sampler = TraceSampler(
            self.config.trace_sample_rate, self.config.trace_sample_seed
        )
        self._exchange_counter = 0
        #: Execution-index propagation (repro.graph): off unless the
        #: config enables it *and* the protocol implements the
        #: contract-1.2 pair — when off, the exchange hot path never
        #: touches the hooks.
        self._index_enabled = (
            bool(self.config.execution_index)
            and capabilities_of(self.protocol).execution_index
        )

    # ------------------------------------------------------------ identity

    def exchange_id(self, exchange: int) -> str:
        """``<proxy>-NNNNNN``: the exported trace id, and the call-tree
        root of a request that arrived without an execution index."""
        return f"{self.name}-{exchange:06d}"

    def next_exchange(self, trace: ExchangeTrace | None = None) -> int:
        """Allocate an exchange number — the only place one is taken, so
        no two traces of this proxy can export the same ``exchange_id``.

        ``trace`` is a trace opened *before* the number was known (the
        outgoing proxy traces an idle group's wait for its first
        request); it is stamped with the number now.
        """
        exchange = self._exchange_counter
        self._exchange_counter += 1
        if trace is not None:
            trace.exchange = exchange
            if trace.sampled:
                trace.exchange_id = self.exchange_id(exchange)
        return exchange

    def begin_trace(self, exchange: int) -> ExchangeTrace:
        return self.observer.begin_exchange(
            proxy=self.name,
            protocol=self.protocol.name,
            direction=self.direction,
            exchange=exchange,
            sampler=self._sampler,
        )

    def hop_index(self, token: str | None, exchange: int) -> ExecutionIndex:
        """This hop's child execution index for one exchange.

        A parseable upstream token extends the caller's call path (and
        inherits its deadline/retry budgets); anything else — no token,
        or a malformed one — starts a fresh root here, so a corrupt
        header degrades to per-hop tracing instead of failing the
        exchange.
        """
        parent = ExecutionIndex.parse(token)
        if parent is None:
            parent = ExecutionIndex.origin(self.exchange_id(exchange))
        return parent.child(self.name, exchange)

    # -------------------------------------------------------------- quorum

    def report_failure(self, index: int, reason: str, *, fatal: bool = False) -> None:
        if self.directory is not None:
            self.directory.report_failure(index, reason, fatal=fatal)

    async def settle(
        self,
        members: Sequence[Member],
        failed: Sequence[tuple[Member, str]],
        stage: str = "",
        *,
        exchange: int = -1,
        scope: str = "",
        count: bool = True,
    ) -> list[Member] | None:
        """Decide whether the exchange goes on without the ``failed``
        members (each paired with why it failed); returns the survivors,
        or ``None`` when too few voters are left.

        A failed *shadow* never affects the exchange: it is closed and
        the supervisor told, nothing else.  Failed voters are dropped
        only if ``config.degradation_allowed`` — then each gets a
        DEGRADED event (prefixed with ``scope``) and a failure report,
        and ``rddr_degraded_exchanges_total`` counts the exchange unless
        ``count`` is off (a connect-time drop is no exchange; a second
        drop within one exchange is not a second one).  Below quorum
        nothing is recorded about the voters: the caller owns the
        verdict and the block.
        """
        dropped_words, report_words, shadow_words = _DROP_WORDING[stage]
        lost = [member for member, _ in failed]
        for member, why in failed:
            if member.shadow:
                self.report_failure(member.index, shadow_words.format(why))
                await close_members([member])
        voters_failed = [(member, why) for member, why in failed if not member.shadow]
        if voters_failed:
            total = sum(1 for member in members if not member.shadow)
            if not self.config.degradation_allowed(total, total - len(voters_failed)):
                return None
            if count:
                self.metrics.degraded_exchanges += 1
            for member, why in voters_failed:
                self.events.record(
                    ev.DEGRADED,
                    f"{scope}instance {member.index} {dropped_words.format(why)}",
                    proxy=self.name,
                    exchange=exchange,
                )
                self.report_failure(member.index, report_words.format(why))
                await close_members([member])
        return [member for member in members if member not in lost]

    # ------------------------------------------------------------ analysis

    def analyse(
        self,
        messages: Sequence[bytes],
        members: Sequence[Member],
        exchange: int,
        trace: ExchangeTrace,
        *,
        parent: Span | None = None,
        ephemeral: EphemeralStateStore | None = None,
    ) -> tuple[str | None, list[tuple[bytes, ...]]]:
        """Tokenize, capture ephemeral state, de-noise, and diff the
        members' messages (``messages[i]`` is what ``members[i]`` said).

        Returns ``(divergence reason or None, per-member masked token
        tuples)``.  Only *voter* streams feed the diff; masked tuples
        are produced for every member so vote grouping and shadow
        comparison can reuse them.  ``ephemeral`` is the store to
        capture per-instance tokens into (``None`` skips the capture).
        """
        with trace.span("denoise", parent=parent) as denoise:
            raw_tokens = [self.protocol.tokenize(message) for message in messages]
            if ephemeral is not None:
                captured = ephemeral.capture(raw_tokens)
                if captured:
                    self.metrics.ephemeral_tokens_captured += len(captured)
                    self.events.record(
                        ev.EPHEMERAL_CAPTURED,
                        f"{len(captured)} token(s)",
                        proxy=self.name,
                        exchange=exchange,
                    )
            tokens = self._variance.mask_streams(raw_tokens)
            if tokens is not raw_tokens:
                # Variance rules rewrote something this exchange; the
                # count lets trace consumers (repro.fuzz's oracle) tell
                # "unanimous because masking worked" from a plain match.
                rewritten = sum(
                    1
                    for raw_stream, masked_stream in zip(raw_tokens, tokens)
                    for raw, masked in zip(raw_stream, masked_stream)
                    if raw != masked
                )
                if rewritten:
                    denoise.attrs["variance_masked_tokens"] = rewritten
            mask = self._mask_for(tokens, members)
            if mask.token_ranges or mask.tail_from is not None:
                self.metrics.noise_filtered_tokens += len(mask.token_ranges)
                denoise.attrs["masked_tokens"] = len(mask.token_ranges)
                self.events.record(
                    ev.NOISE_FILTERED,
                    f"{len(mask.token_ranges)} token(s) masked",
                    proxy=self.name,
                    exchange=exchange,
                )
        with trace.span("diff", parent=parent) as diff_span:
            shadows = any(member.shadow for member in members)
            voter_tokens = tokens
            if shadows:
                voter_tokens = [
                    tokens[position]
                    for position, member in enumerate(members)
                    if not member.shadow
                ]
            result = diff_tokens(voter_tokens, mask)
            # Masked per-member tuples are only consumed by the voting
            # path (majority grouping) and shadow comparison; the common
            # unanimous/no-shadow exchange skips building them entirely.
            if not (result.divergent or shadows):
                masked_tuples: list[tuple[bytes, ...]] = []
            elif not mask.token_ranges and mask.tail_from is None:
                masked_tuples = [tuple(stream) for stream in tokens]
            else:
                masked_tuples = [
                    tuple(mask.mask_token(i, token) for i, token in enumerate(stream))
                    for stream in tokens
                ]
            diff_span.attrs["divergent"] = result.divergent
        if result.divergent:
            self.metrics.divergences += 1
            # Exported for dedup by repro.fuzz triage (and anyone else
            # correlating divergences across exchanges): the positional
            # signature plus its position-insensitive cluster.
            trace.root.attrs["diff_signature"] = result.signature()
            trace.root.attrs["diff_cluster"] = result.cluster_signature()
            return result.reason, masked_tuples
        return None, masked_tuples

    def _mask_for(
        self, tokens: list[list[bytes]], members: Sequence[Member]
    ) -> NoiseMask:
        """Denoise via the filter pair, if both members are still active."""
        if self._filter_pair is None:
            return EMPTY_MASK
        positions = {member.index: position for position, member in enumerate(members)}
        first, second = self._filter_pair.indices()
        if first not in positions or second not in positions:
            return EMPTY_MASK
        return learn_noise_mask(tokens[positions[first]], tokens[positions[second]])
