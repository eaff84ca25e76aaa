"""The recovery supervisor: closing the degradation loop.

PR 2's ``degraded_quorum`` keeps a deployment serving when instances die
or diverge, but degradation was one-way: a dropped instance never came
back, so redundancy bled away monotonically.  The
:class:`RecoverySupervisor` drives each instance through

::

    LIVE → SUSPECT → QUARANTINED → RESTARTING → REJOINING → LIVE

* **LIVE → SUSPECT** — a failed health probe (or a proxy-reported drop)
  raises suspicion; a clean probe clears it.
* **SUSPECT → QUARANTINED** — ``probe_failure_threshold`` consecutive
  failures, or a *fatal* proxy report (a divergence vote-out of a live
  instance), take the instance out of the directory so proxies stop
  dialing it.
* **QUARANTINED → RESTARTING** — the supervisor respawns the pod through
  :meth:`Cluster.restart_pod` (same factory, fresh port) and, when the
  deployment runs fault shims, re-interposes a fresh
  :class:`~repro.faults.FaultProxy` in front of the new pod.
* **RESTARTING → CATCHING_UP** — with a durable exchange journal
  configured (``journal_dir``), the fresh pod is first *caught up*: the
  latest app snapshot is restored and the journal tail of committed
  state-mutating exchanges is replayed through the published (possibly
  fault-shimmed) address, each replayed response verified against the
  journaled digest.  A failed catch-up counts as a failed restart and
  goes around the respawn loop.  Without a journal this state is
  skipped, preserving PR 3 behaviour byte-for-byte.
* **CATCHING_UP → REJOINING** — the new address is published in the
  :class:`~repro.recovery.directory.InstanceDirectory` in *shadow* mode:
  the incoming proxy replicates to the instance and compares its
  responses, but its vote cannot affect any verdict.  On idle services
  (``rejoin_probe_interval``) the supervisor drives synthetic probe
  exchanges through the incoming proxy so rejoin still progresses.
* **REJOINING → LIVE** — after ``rejoin_clean_exchanges`` consecutive
  clean, matching shadow exchanges the instance is promoted back to a
  full voting member (``rddr_recoveries_total``).

Two further states close the *silent drift* gap (``repro.sentinel``):

* **LIVE → DRIFT_SUSPECT** — the anti-entropy sentinel confirmed that
  this instance's chunked state digests diverge from the group majority
  even though it answers every probe and exchange.
* **DRIFT_SUSPECT → REPAIRING → LIVE** — :meth:`repair_drift` repairs
  the instance *in place*: it is pulled out of replication
  (``MODE_OUT``), the CATCHING_UP restore/replay machinery rebuilds its
  state from the journal at its *current* address (no pod restart), the
  commit gap is drained, and the instance returns to voting.  After
  ``sentinel_repair_budget`` failed repairs the sentinel escalates
  through :meth:`escalate_drift` into the ordinary quarantine → respawn
  loop above.

Every transition is recorded three ways: a ``recovery_state`` event in
the deployment's event log, a ``type: "recovery"`` record in the trace
sink (so the quarantine → rejoin timeline lines up with exchange
traces), and the ``rddr_live_instances`` / ``rddr_quarantined_instances``
gauges.
"""

from __future__ import annotations

import asyncio
import contextlib
import time
from typing import Callable

from repro.core import events as ev
from repro.core.config import RddrConfig
from repro.core.events import EventLog
from repro.faults import FaultProxy, FaultSchedule
from repro.journal import ExchangeJournal, replay_into
from repro.obs import Observer
from repro.protocols.base import capabilities_of, resolve
from repro.recovery.directory import (
    MODE_LIVE,
    MODE_OUT,
    MODE_SHADOW,
    InstanceDirectory,
)
from repro.recovery.monitor import HealthMonitor, ProbeFn
from repro.transport.streams import close_writer

#: The per-instance recovery states.
LIVE = "LIVE"
SUSPECT = "SUSPECT"
QUARANTINED = "QUARANTINED"
RESTARTING = "RESTARTING"
CATCHING_UP = "CATCHING_UP"
REJOINING = "REJOINING"
DRIFT_SUSPECT = "DRIFT_SUSPECT"
REPAIRING = "REPAIRING"

STATES = (
    LIVE,
    SUSPECT,
    QUARANTINED,
    RESTARTING,
    CATCHING_UP,
    REJOINING,
    DRIFT_SUSPECT,
    REPAIRING,
)

#: States the health monitor keeps probing (the rest have no live address).
#: DRIFT_SUSPECT instances still serve traffic, so they stay probed.
_PROBED = frozenset({LIVE, SUSPECT, REJOINING, DRIFT_SUSPECT})


class RecoverySupervisor:
    """Health-probes, quarantines, respawns, and warm-rejoins instances."""

    def __init__(
        self,
        cluster,
        deployment: str,
        directory: InstanceDirectory,
        config: RddrConfig,
        *,
        events: EventLog,
        observer: Observer,
        fault_schedule: FaultSchedule | None = None,
        shims: list[FaultProxy] | None = None,
        retired_shims: list[FaultProxy] | None = None,
        probe: ProbeFn | None = None,
        journal: ExchangeJournal | None = None,
        proxy_address: Callable[[], tuple[str, int]] | None = None,
    ) -> None:
        self.cluster = cluster
        self.deployment = deployment
        self.directory = directory
        self.config = config
        self.events = events
        self.observer = observer
        self.fault_schedule = fault_schedule
        self.shims = shims if shims is not None else []
        self.retired_shims = retired_shims if retired_shims is not None else []
        #: Durable exchange journal for CATCHING_UP (None = skip that state).
        self.journal = journal
        #: Zero-arg callable returning the incoming proxy's client-facing
        #: address, used to drive synthetic rejoin-probe exchanges.
        self.proxy_address = proxy_address
        self.states = [LIVE] * len(directory)
        self._fail_counts = [0] * len(directory)
        self._clean_counts = [0] * len(directory)
        self._last_shadow = [0.0] * len(directory)
        self._rejoin_events: dict[int, asyncio.Event] = {}
        self._recovery_tasks: dict[int, asyncio.Task] = {}
        self._protocol = resolve(config.protocol)
        self._closed = False
        self.monitor = HealthMonitor(
            self._probe_targets,
            self.probe_result,
            period=config.probe_period,
            timeout=config.probe_timeout,
            # Connect-only probing drops the in-band liveness request (a
            # monitor with no protocol probes by TCP connect alone).
            protocol=None if config.probe_connect_only else self._protocol,
            probe=probe,
        )
        directory.on_failure(self.instance_failed)
        directory.on_shadow(self.shadow_result)
        self._publish_gauges()

    # ------------------------------------------------------------ lifecycle

    async def start(self) -> "RecoverySupervisor":
        self.monitor.start()
        return self

    async def close(self) -> None:
        """Stop probing and abandon in-flight restarts (before the proxies
        and pods go away, so a mid-restart close cannot dial the void)."""
        if self._closed:
            return
        self._closed = True
        await self.monitor.close()
        tasks = list(self._recovery_tasks.values())
        self._recovery_tasks.clear()
        for task in tasks:
            task.cancel()
        for task in tasks:
            with contextlib.suppress(asyncio.CancelledError):
                await task

    # ------------------------------------------------------------- queries

    def state(self, index: int) -> str:
        return self.states[index]

    @property
    def all_live(self) -> bool:
        return all(state == LIVE for state in self.states)

    def _probe_targets(self) -> list[tuple[int, tuple[str, int]]]:
        return [
            (index, self.directory.entry(index).address)
            for index, state in enumerate(self.states)
            if state in _PROBED
        ]

    # -------------------------------------------------------- transitions

    def _set_state(self, index: int, new: str, reason: str) -> None:
        old = self.states[index]
        if old == new:
            return
        self.states[index] = new
        self.events.record(
            ev.RECOVERY_STATE,
            f"instance {index}: {old} -> {new} ({reason})",
            proxy=self.deployment,
        )
        self.observer.record_recovery_transition(
            service=self.deployment,
            instance=index,
            old=old,
            new=new,
            reason=reason,
        )
        set_health = getattr(self.cluster, "set_pod_health", None)
        if set_health is not None:
            set_health(self.deployment, index, new)
        self._publish_gauges()

    def _publish_gauges(self) -> None:
        live = sum(1 for state in self.states if state == LIVE)
        quarantined = sum(
            1
            for state in self.states
            if state in (QUARANTINED, RESTARTING, CATCHING_UP, REPAIRING)
        )
        self.observer.set_instance_gauges(
            service=self.deployment, live=live, quarantined=quarantined
        )

    # ------------------------------------------------------------- reports

    async def probe_result(self, index: int, ok: bool) -> None:
        if self._closed:
            return
        state = self.states[index]
        if state not in _PROBED:
            return
        if ok:
            self._fail_counts[index] = 0
            if state == SUSPECT:
                self._set_state(index, LIVE, "probe recovered")
            return
        self._fail_counts[index] += 1
        if state == LIVE:
            self._set_state(index, SUSPECT, "probe failed")
        if self._fail_counts[index] >= self.config.probe_failure_threshold:
            self._quarantine(index, f"{self._fail_counts[index]} failed probes")

    def instance_failed(self, index: int, reason: str, fatal: bool) -> None:
        """A proxy dropped this instance mid-exchange or voted it out."""
        if self._closed or self.states[index] not in _PROBED:
            return
        if fatal:
            self._quarantine(index, reason)
            return
        self._fail_counts[index] += 1
        if self.states[index] == LIVE:
            self._set_state(index, SUSPECT, reason)
        if self._fail_counts[index] >= self.config.probe_failure_threshold:
            self._quarantine(index, reason)

    def shadow_result(self, index: int, clean: bool) -> None:
        """One shadow-comparison outcome for a REJOINING instance."""
        if self._closed or self.states[index] != REJOINING:
            return
        self._last_shadow[index] = time.monotonic()
        if clean:
            self._clean_counts[index] += 1
        else:
            self._clean_counts[index] = 0
        if self._clean_counts[index] >= self.config.rejoin_clean_exchanges:
            event = self._rejoin_events.get(index)
            if event is not None:
                event.set()

    # ------------------------------------------------------------ recovery

    def _quarantine(self, index: int, reason: str) -> None:
        self._fail_counts[index] = 0
        self._set_state(index, QUARANTINED, reason)
        self.directory.set_mode(index, MODE_OUT)
        rejoin = self._rejoin_events.get(index)
        if rejoin is not None:
            rejoin.set()  # wake a waiting _recover loop; it re-checks state
        if index not in self._recovery_tasks:
            self._recovery_tasks[index] = asyncio.ensure_future(
                self._recover(index)
            )

    async def _recover(self, index: int) -> None:
        """Respawn the pod and warm-rejoin it; loops if it dies again."""
        backoff = self.config.restart_backoff
        try:
            while not self._closed:
                self._set_state(index, RESTARTING, "respawning pod")
                try:
                    published = await self._respawn(index)
                except asyncio.CancelledError:
                    raise
                except Exception as error:
                    self.events.record(
                        ev.RECOVERY_STATE,
                        f"instance {index}: restart failed: {error}",
                        proxy=self.deployment,
                    )
                    await asyncio.sleep(backoff)
                    backoff = min(backoff * 2, 1.0)
                    continue
                backoff = self.config.restart_backoff
                self.directory.set_address(index, published)
                caught_up_to = 0
                if self.journal is not None:
                    stats = await self._catch_up(index, published)
                    if stats is None:
                        await asyncio.sleep(backoff)
                        backoff = min(backoff * 2, 1.0)
                        continue
                    backoff = self.config.restart_backoff
                    caught_up_to = stats.last_id
                self._clean_counts[index] = 0
                self._fail_counts[index] = 0
                rejoined = self._rejoin_events[index] = asyncio.Event()
                self._last_shadow[index] = time.monotonic()
                self._set_state(index, REJOINING, "shadow comparison")
                self.directory.set_mode(index, MODE_SHADOW)
                prober = self._start_rejoin_prober(index)
                try:
                    await rejoined.wait()
                finally:
                    if prober is not None:
                        prober.cancel()
                        with contextlib.suppress(asyncio.CancelledError):
                            await prober
                if (
                    self.states[index] == REJOINING
                    and self._clean_counts[index]
                    >= self.config.rejoin_clean_exchanges
                ):
                    if self.journal is not None and not await self._drain_gap(
                        index, published, caught_up_to
                    ):
                        self.directory.set_mode(index, MODE_OUT)
                        await asyncio.sleep(backoff)
                        backoff = min(backoff * 2, 1.0)
                        continue
                    self._set_state(
                        index,
                        LIVE,
                        f"{self.config.rejoin_clean_exchanges} clean shadow "
                        "exchanges",
                    )
                    self.directory.set_mode(index, MODE_LIVE)
                    self.observer.recovery_completed(service=self.deployment)
                    return
                # Re-quarantined while rejoining: go around again.
        finally:
            self._rejoin_events.pop(index, None)
            self._recovery_tasks.pop(index, None)

    async def _catch_up(
        self, index: int, address: tuple[str, int], *, state: str = CATCHING_UP
    ):
        """CATCHING_UP: restore + replay the journal into the fresh pod.

        Runs while the instance is still ``out`` of the directory, so no
        client exchange replicates to it during the replay — but clients
        keep committing to the *journal*, so after the full replay the
        tail is re-checked and delta-replayed until it is stable across
        an event-loop tick.  Returns the merged
        :class:`~repro.journal.replay.CatchupStats`, or ``None`` (failed
        restart, go around the respawn loop) when the replay dies on a
        connect failure, lost connection, or response deadline.

        ``state`` is the recovery state the replay runs under:
        ``CATCHING_UP`` on the respawn path, ``REPAIRING`` when
        :meth:`repair_drift` reuses the machinery in place.
        """
        assert self.journal is not None
        self._set_state(
            index,
            state,
            f"replaying journal tail (last id {self.journal.last_id})",
        )
        try:
            stats = await replay_into(
                self.journal,
                address,
                self._protocol,
                deadline=self.config.instance_deadline(),
                connect_attempts=self.config.connect_attempts,
                verify=self.config.catchup_verify,
            )
            for _ in range(8):  # bounded: traffic can outrun the tail chase
                if self.journal.last_id <= stats.last_id:
                    # Let an exchange parked at its commit point land
                    # before declaring the tail stable.
                    await asyncio.sleep(0)
                    if self.journal.last_id <= stats.last_id:
                        break
                delta = await replay_into(
                    self.journal,
                    address,
                    self._protocol,
                    deadline=self.config.instance_deadline(),
                    connect_attempts=self.config.connect_attempts,
                    verify=self.config.catchup_verify,
                    after=stats.last_id,
                )
                stats.replayed += delta.replayed
                stats.mismatches += delta.mismatches
                stats.last_id = max(stats.last_id, delta.last_id)
        except asyncio.CancelledError:
            raise
        except Exception as error:
            self.events.record(
                ev.RECOVERY_STATE,
                f"instance {index}: catch-up failed: {error}",
                proxy=self.deployment,
            )
            self.observer.record_catchup(
                service=self.deployment,
                instance=index,
                epoch=0,
                replayed=0,
                mismatches=0,
                last_id=self.journal.last_id,
                restored=False,
                outcome=f"failed: {error}",
            )
            return None
        self.events.record(
            ev.RECOVERY_STATE,
            f"instance {index}: caught up ({stats.replayed} replayed from "
            f"epoch {stats.epoch}, {stats.mismatches} digest mismatches)",
            proxy=self.deployment,
        )
        self.observer.record_catchup(
            service=self.deployment,
            instance=index,
            epoch=stats.epoch,
            replayed=stats.replayed,
            mismatches=stats.mismatches,
            last_id=stats.last_id,
            restored=stats.restored,
        )
        return stats

    async def _drain_gap(
        self, index: int, address: tuple[str, int], anchor: int
    ) -> bool:
        """Replay the commit gap before promoting a rejoined instance.

        An exchange whose directory snapshot predates the shadow flip
        never replicated to this instance, yet can commit to the journal
        *after* catch-up declared the tail stable.  Those records sit in
        ``(anchor, tail]`` — replay them (unverified: the suffix double-
        applies exchanges that did replicate, which converges but can
        change responses) so the promoted instance holds every committed
        write.
        """
        assert self.journal is not None
        if self.journal.last_id <= anchor:
            return True
        try:
            stats = await replay_into(
                self.journal,
                address,
                self._protocol,
                deadline=self.config.instance_deadline(),
                connect_attempts=self.config.connect_attempts,
                verify=False,
                after=anchor,
            )
        except asyncio.CancelledError:
            raise
        except Exception as error:
            self.events.record(
                ev.RECOVERY_STATE,
                f"instance {index}: rejoin gap replay failed: {error}",
                proxy=self.deployment,
            )
            return False
        self.events.record(
            ev.RECOVERY_STATE,
            f"instance {index}: rejoin gap replayed "
            f"({stats.replayed} records after id {anchor})",
            proxy=self.deployment,
        )
        return True

    # ------------------------------------------------------- drift repair

    def drift_suspected(self, index: int, reason: str) -> None:
        """The sentinel confirmed this LIVE instance's state digests
        diverge from the group majority."""
        if self._closed or self.states[index] != LIVE:
            return
        self._set_state(index, DRIFT_SUSPECT, reason)

    def drift_cleared(self, index: int, reason: str) -> None:
        """A later audit found the instance back in agreement."""
        if self._closed or self.states[index] != DRIFT_SUSPECT:
            return
        self._set_state(index, LIVE, reason)

    async def repair_drift(self, index: int, *, reason: str) -> bool:
        """Repair a drifted instance *in place*: journal restore + tail
        replay at its current address, no pod restart.

        The instance is pulled out of replication (``MODE_OUT``) for the
        duration — the surviving quorum keeps serving — then the
        CATCHING_UP machinery rebuilds its state from the snapshot
        anchor and the journal tail, the commit gap is drained, and the
        instance returns to LIVE voting.  Returns ``False`` (leaving the
        instance DRIFT_SUSPECT and back in replication) when the replay
        fails; the sentinel escalates after ``sentinel_repair_budget``
        failures.
        """
        if (
            self._closed
            or self.journal is None
            or self.states[index] not in (LIVE, DRIFT_SUSPECT)
            or index in self._recovery_tasks
        ):
            return False
        address = self.directory.entry(index).address
        self._set_state(index, REPAIRING, reason)
        self.directory.set_mode(index, MODE_OUT)
        stats = await self._catch_up(index, address, state=REPAIRING)
        if self._closed or self.states[index] != REPAIRING:
            return False  # closed, or escalated/quarantined under us
        if stats is None or not await self._drain_gap(
            index, address, stats.last_id
        ):
            self.directory.set_mode(index, MODE_LIVE)
            self._set_state(index, DRIFT_SUSPECT, "in-place repair failed")
            return False
        self.directory.set_mode(index, MODE_LIVE)
        self._fail_counts[index] = 0
        self._set_state(index, LIVE, "drift repaired in place")
        return True

    def escalate_drift(self, index: int, reason: str) -> None:
        """Repairs exhausted the budget: fall back to the full
        quarantine → respawn → warm-rejoin loop."""
        if self._closed or self.states[index] not in (
            LIVE,
            DRIFT_SUSPECT,
            REPAIRING,
        ):
            return
        self._quarantine(index, reason)

    # -------------------------------------------------------- rejoin probes

    def _start_rejoin_prober(self, index: int) -> asyncio.Task | None:
        """On idle services, synthetic probe exchanges keep rejoin moving."""
        interval = self.config.rejoin_probe_interval
        if (
            interval is None
            or self.proxy_address is None
            or not capabilities_of(self._protocol).liveness
        ):
            return None
        return asyncio.ensure_future(self._drive_rejoin(index, interval))

    async def _drive_rejoin(self, index: int, interval: float) -> None:
        while not self._closed and self.states[index] == REJOINING:
            await asyncio.sleep(interval)
            if self._closed or self.states[index] != REJOINING:
                return
            if time.monotonic() - self._last_shadow[index] < interval:
                continue  # client traffic is already driving comparisons
            try:
                await self._probe_exchange()
            except asyncio.CancelledError:
                raise
            except Exception:
                continue  # chaos can flap the proxy dial; just retry

    async def _probe_exchange(self) -> None:
        """One synthetic liveness exchange through the incoming proxy —
        replicated to every instance, so the shadow gets compared."""
        assert self.proxy_address is not None
        reader, writer = await asyncio.open_connection(*self.proxy_address())
        try:
            state = await self._protocol.handshake(reader, writer)
            request = self._protocol.liveness_request()  # type: ignore[attr-defined]
            writer.write(request)
            await writer.drain()
            if self._protocol.expects_response(request, state):
                await asyncio.wait_for(
                    self._protocol.read_server_message(reader, state, request),
                    timeout=self.config.probe_timeout,
                )
        finally:
            await close_writer(writer)

    async def _respawn(self, index: int) -> tuple[str, int]:
        """Restart the pod (re-interposing any fault shim); returns the
        address proxies should dial."""
        pod = await self.cluster.restart_pod(self.deployment, index)
        if self.fault_schedule is None or index >= len(self.shims):
            return pod.address
        old = self.shims[index]
        shim = FaultProxy(
            pod.address,
            self.fault_schedule,
            instance=index,
            protocol=self.config.protocol,
            name=f"{self.deployment}-fault-{index}",
            observer=self.observer,
        )
        await shim.start()
        self.shims[index] = shim
        self.retired_shims.append(old)
        await old.close()
        return shim.address
