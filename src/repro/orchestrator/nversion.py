"""Cluster-level N-versioning: the Kubernetes-deployment view of RDDR.

The paper deploys RDDR as containers beside the protected microservice's
replica set.  :func:`deploy_nversioned` is that operation for the
in-process cluster: given the per-replica pod factories (the diversity
axis) it stands up, in the required order,

1. one outgoing proxy per named backend (instances must be born knowing
   their backend address, which is an outgoing-proxy port),
2. the N instance pods (each factory sees ``backend_<name>`` entries in
   ``context.env`` with *its* per-instance proxy address), and
3. the client-facing incoming proxy,

returning the :class:`~repro.core.rddr.RddrDeployment` plus the pods.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import RddrConfig
from repro.core.rddr import RddrDeployment
from repro.faults import FaultProxy, FaultSchedule
from repro.obs import Observer
from repro.orchestrator.cluster import Cluster
from repro.orchestrator.resources import DeploymentSpec, Pod, PodContext, PodFactory
from repro.protocols.base import capabilities_of, resolve
from repro.recovery import InstanceDirectory, RecoverySupervisor
from repro.sentinel import StateSentinel

Address = tuple[str, int]


@dataclass
class NVersionedService:
    """A protected microservice running under cluster management."""

    name: str
    rddr: RddrDeployment
    pods: list[Pod]
    #: Per-instance fault shims, present when the service was deployed
    #: with a ``fault_schedule`` (chaos/robustness experiments).  The
    #: recovery supervisor replaces entries in place when it respawns a
    #: pod; the replaced shims move to ``retired_fault_proxies`` so their
    #: fault records survive.
    fault_proxies: list[FaultProxy] = field(default_factory=list)
    retired_fault_proxies: list[FaultProxy] = field(default_factory=list)
    #: Present when the service was deployed with
    #: ``config.recovery_enabled``: the shared instance directory and the
    #: supervisor driving quarantine → respawn → warm rejoin.
    directory: InstanceDirectory | None = None
    supervisor: RecoverySupervisor | None = None
    #: Present when the service was deployed with
    #: ``config.sentinel_audit_period``: the anti-entropy auditor driving
    #: drift detection and in-place repair.
    sentinel: StateSentinel | None = None

    @property
    def address(self) -> Address:
        """Where clients reach the protected service (the RDDR proxy)."""
        return self.rddr.address

    def fault_records(self) -> list:
        """The deployment-wide injected-fault audit trail, in firing order
        per instance (concatenated instance-major; shims retired by pod
        respawns contribute their records first)."""
        return [
            record
            for shim in (*self.retired_fault_proxies, *self.fault_proxies)
            for record in shim.records
        ]

    async def close(self) -> None:
        # Shutdown order matters: stop the sentinel first (so no audit or
        # in-place repair can dial closing pods), then the supervisor (so
        # no respawn can race the teardown), then the fault shims (so
        # nothing keeps piping bytes into the proxies), and only then the
        # proxies themselves.
        if self.sentinel is not None:
            await self.sentinel.close()
        if self.supervisor is not None:
            await self.supervisor.close()
        for shim in (*self.fault_proxies, *self.retired_fault_proxies):
            await shim.close()
        await self.rddr.close()


def _with_backend_env(factory: PodFactory, rddr: RddrDeployment) -> PodFactory:
    async def wrapped(context: PodContext):
        for backend_name, proxy in rddr.outgoing.items():
            host, port = proxy.address_for_instance(context.index)
            context.env[f"backend_{backend_name}"] = f"{host}:{port}"
        return await factory(context)

    return wrapped


def parse_backend_env(context: PodContext, backend_name: str) -> Address:
    """Read a backend address injected by :func:`deploy_nversioned`."""
    value = context.env[f"backend_{backend_name}"]
    host, _, port = value.rpartition(":")
    return host, int(port)


async def deploy_nversioned(
    cluster: Cluster,
    name: str,
    factories: list[PodFactory],
    *,
    config: RddrConfig | None = None,
    backends: dict[str, Address] | None = None,
    backend_protocol: str | None = None,
    observer: Observer | None = None,
    fault_schedule: FaultSchedule | None = None,
) -> NVersionedService:
    """Stand up a protected microservice on ``cluster``.

    ``factories`` is one pod factory per instance — pass different
    factories to express version/vendor diversity.  ``backends`` maps
    backend names to real backend addresses; each gets an outgoing proxy.
    ``observer`` (optional) collects the deployment's metrics and traces.
    ``fault_schedule`` (optional) interposes one :class:`FaultProxy` per
    instance between the incoming proxy and its pod, so chaos experiments
    run against cluster-managed deployments exactly as scheduled.
    """
    if len(factories) < 2:
        raise ValueError("N-versioning requires at least 2 instances")
    config = config or RddrConfig()
    rddr = RddrDeployment(name, config, observer=observer)
    fault_proxies: list[FaultProxy] = []
    retired_fault_proxies: list[FaultProxy] = []
    directory: InstanceDirectory | None = None
    supervisor: RecoverySupervisor | None = None
    sentinel: StateSentinel | None = None
    try:
        for backend_name, address in (backends or {}).items():
            await rddr.add_outgoing_proxy(
                backend_name,
                address,
                instance_count=len(factories),
                protocol=backend_protocol,
            )
        spec = DeploymentSpec(
            name=name,
            factories=[_with_backend_env(factory, rddr) for factory in factories],
        )
        pods = await cluster.apply_deployment(spec)
        instance_addresses = [pod.address for pod in pods]
        if fault_schedule is not None:
            for index, address in enumerate(instance_addresses):
                shim = FaultProxy(
                    address,
                    fault_schedule,
                    instance=index,
                    protocol=config.protocol,
                    name=f"{name}-fault-{index}",
                    observer=observer,
                )
                await shim.start()
                fault_proxies.append(shim)
            instance_addresses = [shim.address for shim in fault_proxies]
        if config.recovery_enabled:
            directory = InstanceDirectory(instance_addresses)
        await rddr.start_incoming_proxy(instance_addresses, directory=directory)
        if directory is not None:
            supervisor = RecoverySupervisor(
                cluster,
                name,
                directory,
                config,
                events=rddr.events,
                observer=rddr.observer,
                fault_schedule=fault_schedule,
                shims=fault_proxies,
                retired_shims=retired_fault_proxies,
                journal=rddr.journal,
                proxy_address=lambda: rddr.address,
            )
            await supervisor.start()
        if config.sentinel_audit_period is not None:
            caps = capabilities_of(resolve(config.protocol))
            if caps.state_digest or caps.snapshots:
                # With a directory + supervisor + journal the sentinel
                # repairs drift in place; without them (recovery off) it
                # still detects and records drift over the static
                # instance set.
                sentinel = StateSentinel(
                    service=name,
                    protocol=config.protocol,
                    observer=rddr.observer,
                    period=config.sentinel_audit_period,
                    chunk_bytes=config.sentinel_chunk_bytes,
                    repair_budget=config.sentinel_repair_budget,
                    directory=directory,
                    addresses=instance_addresses if directory is None else None,
                    supervisor=supervisor,
                    journal=rddr.journal,
                    exec_index=lambda: (
                        rddr.incoming.last_exec_index
                        if rddr.incoming is not None
                        else None
                    ),
                    deadline=config.instance_deadline(),
                    connect_attempts=config.connect_attempts,
                ).start()
    except Exception:
        if sentinel is not None:
            await sentinel.close()
        if supervisor is not None:
            await supervisor.close()
        await rddr.close()
        for shim in (*fault_proxies, *retired_fault_proxies):
            await shim.close()
        raise
    return NVersionedService(
        name=name,
        rddr=rddr,
        pods=pods,
        fault_proxies=fault_proxies,
        retired_fault_proxies=retired_fault_proxies,
        directory=directory,
        supervisor=supervisor,
        sentinel=sentinel,
    )
