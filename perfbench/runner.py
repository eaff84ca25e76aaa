"""One benchmark run: set up, warm up, measure in rounds, verify, report.

``--trace 0`` measures the end-to-end metrics with every kind of tracing
off; ``--trace 1`` is the separate traced run that gives the per-layer
numbers (extra arms through public configuration, a replay of captured
exchanges through each layer's public functions, and the load
generator's own spans).  Both check every reply, and both finish with
the negative control: a request one instance answers differently, which
RDDR must block and record as exactly one divergence.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from perfbench.catalogue import PER_LAYER, UNITS
from perfbench.loadgen import BenchmarkError, Block, Child, Connection, run_block
from perfbench.spans import SpanLog
from perfbench.stats import highest_supported_percentile, median_of_rounds, percentile
from perfbench.workloads import KV_CONTROL_WRITE, KV_SNAPSHOT, WORKLOADS, Workload, kv_snapshot

WORK_DIRECTORY = ".perfbench_work"

#: Set-ups per ``--trace 0`` run; ``setup_s`` is their median.
SETUPS = 3
ROUNDS = 5
#: Shares of one round: direct c=1, rddr c=1, rddr c=2.  The rddr c=1
#: block is the longest so that the slowest workload still gives it
#: 1,000 samples, i.e. ten beyond its p99.
ROUND_SHARES = (0.15, 0.55, 0.30)
WARMUP_SHARE = 0.05

TRACED_ROUNDS = 3
#: Share of a traced run's seconds spent in the arms; the rest is the
#: capture block and the replay.
TRACED_ARMS_SHARE = 0.8
CAPTURE_SHARE = 0.12
CAPTURE_EXCHANGES = 2000
CONNECT_PROBES = 10


@dataclass
class Arm:
    """One deployment in the child and the client's view of it."""

    name: str
    address: tuple
    instances: list
    deploy: dict
    sessions: list = field(default_factory=list)
    connections: list[Connection] = field(default_factory=list)
    #: Writes acknowledged through this arm (journal reconciliation).
    writes: int = 0


@dataclass
class Result:
    workload: str
    seed: int
    seconds: float
    trace: int
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, float]
    #: The per-round values behind each reported median.
    rounds: dict[str, list[float]]
    samples: dict[str, int]
    problems: list[str]
    context: dict

    def line(self) -> str:
        """The contract's one-line JSON result."""
        return json.dumps(
            {
                "correct": self.correct,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {
                    name: {"value": value, "unit": UNITS[name]}
                    for name, value in self.metrics.items()
                },
            }
        )

    def table(self) -> str:
        rows = [f"{self.workload}  seed={self.seed}  seconds={self.seconds}  trace={self.trace}"]
        for name, value in self.metrics.items():
            rounds = self.rounds.get(name)
            detail = "  rounds " + " ".join(f"{v:.4g}" for v in rounds) if rounds else ""
            rows.append(f"  {name:<34}{value:>14.6g} {UNITS[name]:<6}{detail}")
        rows.append("  samples: " + ", ".join(f"{k}={v}" for k, v in self.samples.items()))
        rows.extend(f"  PROBLEM: {problem}" for problem in self.problems)
        return "\n".join(rows)


def machine_context() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


class Bench:
    """A child process, its arms, and the running totals of one run."""

    def __init__(self, workload: Workload, seed: int, workdir: Path, cpu: int | None) -> None:
        self.workload = workload
        self.seed = seed
        self.child = Child(str(workdir), cpu=cpu)
        self.arms: dict[str, Arm] = {}
        self.reference = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def deploy(self, name: str, **spec) -> Arm:
        reply = self.child.call(
            "deploy", name=name, workload=self.workload.name, seed=self.seed, **spec
        )
        arm = Arm(name, tuple(reply["address"]), reply["instances"], reply)
        self.arms[name] = arm
        preload = self.session(0).preload
        for instance in arm.instances if preload else ():
            connection = Connection(instance, self.session(0))
            connection.sock.sendall(b"".join(preload))
            if any(connection.read_reply() != b"+OK\r\n" for _ in preload):
                raise BenchmarkError(f"preload of {instance} failed")
            connection.close()
        return arm

    def session(self, index: int):
        session = self.workload.session(self.seed, index)
        session.reference = self.reference
        return session

    def connect(self, arm: Arm, index: int) -> Connection:
        connection = Connection(arm.address, self.session(index))
        arm.sessions.append(connection.session)
        arm.connections.append(connection)
        return connection

    def block(self, arm: Arm, connections: list[Connection], seconds: float, **options) -> Block:
        """One timed block, bracketed by the child's resource counters."""
        before = self.child.call("stats")
        block = run_block(connections, seconds, **options)
        after = self.child.call("stats")
        block.sut_cpu_s = after["cpu_s"] - before["cpu_s"]
        block.sut_ctx_switches = after["ctx_switches"] - before["ctx_switches"]
        block.sut_gc_gen0 = after["gc_collections"][0] - before["gc_collections"][0]
        block.sut_lags_ms = after["lags_ms"]
        self.attempted += block.attempted
        self.failed += block.failed
        arm.writes += block.writes
        return block

    def close(self) -> None:
        for arm in self.arms.values():
            for connection in arm.connections:
                connection.close()
        self.child.close()


def set_up(workload: Workload, seed: int, workdir: Path, cpu: int | None):
    """Child spawn to first reply through the proxy.

    Returns the bench, the elapsed seconds, and the first reply —
    checked by :func:`finish_set_up` once the oracle's reference has been
    read over the direct arm.
    """
    started = time.perf_counter()
    bench = Bench(workload, seed, workdir, cpu)
    try:
        arm = bench.deploy("rddr", n=3, journal=workload.journal, outgoing=workload.outgoing)
        connection = bench.connect(arm, 0)
        reply = connection.exchange(connection.session.next_request())
        elapsed = time.perf_counter() - started
        if reply is None:
            raise BenchmarkError("no reply to the first request through the proxy")
        bench.attempted += 1
        arm.writes += connection.session.writes
    except BaseException:
        bench.close()
        raise
    return bench, elapsed, reply


def finish_set_up(bench: Bench, first_reply: bytes) -> None:
    """Deploy the direct arm, read the oracle's reference over it, check
    the first reply, and open the remaining connections."""
    direct = bench.deploy("direct", n=0)
    probe = Connection(direct.address, bench.session(0))
    bench.reference = bench.workload.session.fetch_reference(probe.exchange)
    probe.close()
    rddr = bench.arms["rddr"]
    first = rddr.sessions[0]
    first.reference = bench.reference
    if not first.check(first_reply):
        bench.failed += 1
        bench.problems.append("the first reply through the proxy was wrong")
    bench.connect(rddr, 1)
    bench.connect(direct, 0)


def p50_ms(block: Block) -> float:
    return percentile(sorted(block.latencies_ns), 50.0) / 1e6


def throughput(block: Block) -> float:
    return block.completed / block.wall_s


# ---------------------------------------------------------------- end to end


def measure_end_to_end(
    bench: Bench, seconds: float, setups: list[float]
) -> tuple[dict, dict, dict]:
    rddr, direct = bench.arms["rddr"], bench.arms["direct"]
    one, both = rddr.connections[:1], rddr.connections[:2]
    warm = max(seconds * WARMUP_SHARE, 0.05) / 3
    bench.block(direct, direct.connections, warm)
    bench.block(rddr, one, warm)
    bench.block(rddr, both, warm)

    rounds: dict[str, list[float]] = {
        name: []
        for name in (
            "throughput_rps", "latency_p50_ms", "latency_p99_ms", "overhead_p50_ratio",
            "sut_cpu_ms_per_exchange",
        )
    }
    samples = {"direct_c1": [], "rddr_c1": [], "rddr_c2": []}
    direct_s, c1_s, c2_s = (seconds / ROUNDS * share for share in ROUND_SHARES)
    for _ in range(ROUNDS):
        base = bench.block(direct, direct.connections, direct_s)
        single = bench.block(rddr, one, c1_s)
        pair = bench.block(rddr, both, c2_s)
        latencies = sorted(single.latencies_ns)
        rounds["throughput_rps"].append(throughput(pair))
        rounds["latency_p50_ms"].append(percentile(latencies, 50.0) / 1e6)
        rounds["latency_p99_ms"].append(percentile(latencies, 99.0) / 1e6)
        rounds["overhead_p50_ratio"].append(rounds["latency_p50_ms"][-1] / p50_ms(base))
        rounds["sut_cpu_ms_per_exchange"].append(pair.sut_cpu_s / max(pair.completed, 1) * 1e3)
        for key, block in zip(samples, (base, single, pair)):
            samples[key].append(len(block.latencies_ns))

    metrics = {name: median_of_rounds(values) for name, values in rounds.items()}
    metrics["sut_rss_peak_mb"] = bench.child.call("stats")["maxrss_kb"] / 1024
    metrics["setup_s"] = statistics.median(setups)
    rounds["setup_s"] = setups
    return metrics, rounds, {f"{key}_per_round_min": min(counts) for key, counts in samples.items()}


# ----------------------------------------------------------------- per layer


#: Replayed layers summed into ``analysis.total_us``.
ANALYSIS = (
    "protocols.tokenize_us", "core.variance.mask_us", "core.denoise.mask_us",
    "core.diff.diff_us", "core.ephemeral.capture_us", "core.ephemeral.rewrite_us",
    "core.ephemeral.consume_us",
)
FRAMING = ("protocols.read_request_us", "protocols.read_response_us")
#: Not a metric: the quantity the reconciliation splits up, kept per round.
GAP = "core.incoming.n3_minus_direct_ms"


def measure_layers(bench: Bench, seconds: float, spans_path: Path) -> tuple[dict, dict, dict]:
    workload, child = bench.workload, bench.child
    rddr, direct = bench.arms["rddr"], bench.arms["direct"]
    # Every further arm differs from the main deployment in one thing.
    same = {"journal": workload.journal, "outgoing": workload.outgoing}
    n2 = bench.deploy("n2", n=2, **same)
    toggled = bench.deploy("journal_toggled", n=3, **{**same, "journal": not workload.journal})
    traced = bench.deploy("traced_on", n=3, trace_rate=1.0, **same)
    bypass = bench.deploy("relays_direct", n=3) if workload.outgoing else None
    capture = bench.deploy("capture", n=3, tap=True)
    for arm in (n2, toggled, traced, traced, capture, *([bypass] if bypass else [])):
        bench.connect(arm, len(arm.connections))
    one, both = rddr.connections[:1], rddr.connections[:2]
    journaled, unjournaled = (rddr, toggled) if workload.journal else (toggled, rddr)

    # One round: (key, arm, connections, spans on).
    plan = [
        ("direct", direct, direct.connections, False),
        ("n2", n2, n2.connections, False),
        ("n3", rddr, one, False),
        ("n3_spans", rddr, one, True),
        ("n3_c2", rddr, both, False),
        ("toggled", toggled, toggled.connections, False),
        ("traced_c2", traced, traced.connections, False),
    ]
    if bypass:
        plan.append(("bypass", bypass, bypass.connections, False))

    child.call("lag_probe", on=True)
    warm = max(seconds * WARMUP_SHARE, 0.05) / len(plan)
    for _, arm, connections, _ in plan:
        bench.block(arm, connections, warm)

    spans = SpanLog()
    rounds: dict[str, list[float]] = {
        name: []
        for name in (
            "core.incoming.hop_ms", "core.incoming.per_replica_ms", "core.outgoing.hop_ratio",
            "journal.commit_ms", "core.incoming.c2_scaling", "obs.trace_on_ratio", GAP,
            "sut.ctx_switches_per_exchange", "sut.gc_gen0_per_kexchange",
            "fixture.cpu_ms_per_exchange", "loadgen.cpu_share", "loadgen.span_overhead_ratio",
        )
    }
    lags: list[float] = []
    pooled: list[int] = []
    block_s = seconds * TRACED_ARMS_SHARE / (TRACED_ROUNDS * len(plan))
    for _ in range(TRACED_ROUNDS):
        blocks = {
            key: bench.block(arm, connections, block_s, spans=spans if spanned else None)
            for key, arm, connections, spanned in plan
        }
        p50 = {key: p50_ms(block) for key, block in blocks.items()}
        pair = blocks["n3_c2"]
        rounds["core.incoming.hop_ms"].append(p50["n2"] - p50["direct"])
        rounds["core.incoming.per_replica_ms"].append(p50["n3"] - p50["n2"])
        # Without an outgoing proxy the deployment *is* its own bypass: 1.
        rounds["core.outgoing.hop_ratio"].append(p50["n3"] / p50["bypass"] if bypass else 1.0)
        rounds["journal.commit_ms"].append(
            (p50["n3"] - p50["toggled"]) * (1 if workload.journal else -1)
        )
        rounds["core.incoming.c2_scaling"].append(throughput(pair) / throughput(blocks["n3"]))
        rounds["obs.trace_on_ratio"].append(throughput(pair) / throughput(blocks["traced_c2"]))
        rounds[GAP].append(p50["n3"] - p50["direct"])
        rounds["sut.ctx_switches_per_exchange"].append(pair.sut_ctx_switches / pair.completed)
        rounds["sut.gc_gen0_per_kexchange"].append(pair.sut_gc_gen0 / pair.completed * 1e3)
        rounds["fixture.cpu_ms_per_exchange"].append(
            blocks["direct"].sut_cpu_s / blocks["direct"].completed * 1e3
        )
        rounds["loadgen.cpu_share"].append(pair.loadgen_cpu_s / pair.wall_s)
        rounds["loadgen.span_overhead_ratio"].append(p50["n3_spans"] / p50["n3"])
        lags.extend(pair.sut_lags_ms)
        pooled.extend(blocks["n3"].latencies_ns)
    child.call("lag_probe", on=False)

    bench.block(
        capture, capture.connections, seconds * CAPTURE_SHARE, max_exchanges=CAPTURE_EXCHANGES
    )
    spans_path.unlink(missing_ok=True)
    spans.write_jsonl(str(spans_path), source="loadgen")
    replay = child.call("replay", name="capture", spans_path=str(spans_path))
    exchanges = replay["exchanges"]

    metrics = dict.fromkeys((name for name, *_ in PER_LAYER), 0.0)
    metrics.update(
        (name, median_of_rounds(values)) for name, values in rounds.items() if name != GAP
    )
    metrics.update((f"{span}_us", value) for span, value in replay["self_us"].items()
                   if f"{span}_us" in metrics)
    metrics["protocols.tokens_per_exchange"] = replay["tokens"] / exchanges
    metrics["protocols.response_bytes"] = replay["response_bytes"] / exchanges
    metrics["core.denoise.masked_tokens"] = replay["masked_tokens"] / exchanges
    metrics["journal.mutating_share"] = replay["mutating"] / exchanges
    metrics["core.diff.fast_path_share"] = replay["fast_path"] / exchanges
    metrics["core.ephemeral.bindings_live"] = replay["bindings_live"]
    metrics["analysis.total_us"] = sum(metrics[name] for name in ANALYSIS)
    metrics["core.incoming.residual_ms"] = (
        median_of_rounds(rounds[GAP])
        - (sum(metrics[name] for name in FRAMING) + metrics["analysis.total_us"]) / 1e3
        - (metrics["journal.commit_ms"] if workload.journal else 0.0)
    )
    metrics["sut.eventloop_lag_p99_ms"] = percentile(sorted(lags), 99.0)
    metrics["fixture.start_s"] = rddr.deploy["fixture_start_s"]
    metrics["core.deploy_s"] = rddr.deploy["deploy_s"]

    pooled.sort()
    high = highest_supported_percentile(len(pooled))
    metrics["loadgen.latency_phigh_ms"] = percentile(pooled, high) / 1e6
    metrics["loadgen.latency_phigh_pct"] = high
    # Last, so the probes' unconsumed form tokens cannot tax a timed block.
    metrics["transport.connect_us"] = statistics.median(
        connect_probe(bench, rddr, 100 + index) for index in range(CONNECT_PROBES)
    ) - percentile(pooled, 50.0) / 1e3

    journal = child.call("journal_check", name=journaled.name)
    if journal["records"]:
        metrics["journal.bytes_per_record"] = journal["bytes"] / journal["records"]
        metrics["journal.records_per_write"] = journal["records"] / journaled.writes
    if metrics["loadgen.cpu_share"] > 0.8:
        bench.problems.append(
            "unresolved: the load generator used more than 0.8 of a processor, "
            "so this run measured the generator"
        )
    samples = {
        "n3_c1_pooled": len(pooled), "replayed_exchanges": exchanges,
        "lag_samples": len(lags), "spans": len(spans.rows),
    }
    return metrics, rounds, samples


def connect_probe(bench: Bench, arm: Arm, index: int) -> float:
    """Microseconds from ``connect()`` to the first reply on a fresh
    connection (accept, N dials, any handshake, one exchange)."""
    started = time.perf_counter_ns()
    connection = bench.connect(arm, index)
    reply = connection.exchange(connection.session.next_request())
    elapsed = time.perf_counter_ns() - started
    bench.attempted += 1
    arm.writes += connection.session.writes
    if reply is None or not connection.session.check(reply):
        bench.failed += 1
    return elapsed / 1e3


# -------------------------------------------------------------- verification


def verify(bench: Bench) -> None:
    """The checks no single reply can make, then the negative control."""
    workload, child, arm = bench.workload, bench.child, bench.arms["rddr"]
    problems = bench.problems
    divergences = child.call("divergences", name="rddr")["divergences"]
    if divergences:
        problems.append(f"benign traffic was recorded as divergent: {divergences[:3]}")
    rejected = child.call("fixture_counters", name="rddr")["rejected"]
    if any(rejected):
        problems.append(f"instances rejected requests (per instance: {rejected})")
    # Whichever arm journals (the main one, or the traced run's toggled
    # one): a clean journal with one record per acknowledged write.
    journaled = arm if workload.journal else bench.arms.get("journal_toggled")
    if journaled is not None:
        journal = child.call("journal_check", name=journaled.name)
        if journal["defects"]:
            problems.append(f"{journaled.name}: journal defects: {journal['defects'][:3]}")
        if journal["records"] != journaled.writes:
            problems.append(
                f"{journaled.name}: journal holds {journal['records']} records "
                f"for {journaled.writes} acknowledged writes"
            )
    if workload.journal:
        # Every instance must hold exactly what the client-side model says.
        state = dict(arm.sessions[0].preloaded)
        for session in arm.sessions:
            state.update(getattr(session, "model", {}))
        expected = kv_snapshot(state)
        for index, instance in enumerate(arm.instances):
            connection = Connection(instance, bench.session(0))
            if connection.exchange(KV_SNAPSHOT) != expected:
                problems.append(f"instance {index} does not hold the state the model predicts")
            connection.close()
        # Negative control: one instance alone learns a key.
        connection = Connection(arm.instances[2], bench.session(0))
        connection.exchange(KV_CONTROL_WRITE)
        connection.close()

    session = bench.session(99)
    control = Connection(arm.address, session)
    reply = control.exchange(session.control_request())
    control.close()
    if not session.blocked(reply):
        problems.append(f"the negative control was answered, not blocked: {reply[:80]!r}")
    # Through an outgoing proxy the split is seen there; the incoming
    # proxy then records the torn-down instances as a block of its own.
    target = "rddr-out-db" if workload.outgoing else "rddr-in"
    recorded = [
        event
        for event in child.call("divergences", name="rddr")["divergences"]
        if event["proxy"] == target
    ]
    if len(recorded) != 1:
        problems.append(
            f"the negative control was recorded as {len(recorded)} divergences by {target}, not 1"
        )


# ----------------------------------------------------------------------- run


def run(name: str, seed: int, seconds: float, trace: int) -> Result:
    workload = WORKLOADS[name]
    context = machine_context()
    workdir = Path.cwd() / WORK_DIRECTORY / f"{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    # Generator on one processor, system under test on another, when the
    # machine has two: neither then migrates into the other's cache.
    cpus = sorted(os.sched_getaffinity(0))
    child_cpu = cpus[0] if len(cpus) > 1 else None
    if child_cpu is not None:
        os.sched_setaffinity(0, {cpus[1]})
    bench = None
    try:
        setups = []
        for attempt in range(1 if trace else SETUPS):
            if bench is not None:
                bench.close()
            bench, elapsed, first_reply = set_up(workload, seed, workdir / str(attempt), child_cpu)
            setups.append(elapsed)
        finish_set_up(bench, first_reply)
        if trace:
            spans_path = workdir.parent / f"spans-{name}-{seed}.jsonl"
            metrics, rounds, samples = measure_layers(bench, seconds, spans_path)
        else:
            metrics, rounds, samples = measure_end_to_end(bench, seconds, setups)
        verify(bench)
        return Result(
            workload=name, seed=seed, seconds=seconds, trace=trace,
            correct=bench.failed == 0 and not bench.problems,
            attempted=bench.attempted, failed=bench.failed,
            metrics=metrics, rounds=rounds, samples=samples,
            problems=bench.problems, context=context,
        )
    finally:
        if bench is not None:
            bench.close()
        os.sched_setaffinity(0, set(cpus))
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()  # nothing left behind but a traced run's spans
