"""The metric catalogue: every name the benchmark prints, with its unit,
direction and — for end-to-end metrics — its regression bound.

``BENCHMARK.json`` at the repository root carries the same lists (a
self-test keeps the two in step); ``perfbench/README.md`` says which
end-to-end metric each per-layer metric should move, on which workload.
"""

from __future__ import annotations

#: (name, unit, better, bound).  Bounds are shares of the parent's median.
END_TO_END = (
    ("throughput_rps", "1/s", "higher", 0.12),
    ("latency_p50_ms", "ms", "lower", 0.10),
    ("latency_p99_ms", "ms", "lower", 0.25),
    ("overhead_p50_ratio", "ratio", "lower", 0.12),
    ("sut_cpu_ms_per_exchange", "ms", "lower", 0.08),
    ("sut_rss_peak_mb", "MB", "lower", 0.05),
    ("setup_s", "s", "lower", 0.25),
)

#: (name, unit, better).
PER_LAYER = (
    # Arms: differences between c=1 medians of deployments that differ
    # in exactly one thing.
    ("core.incoming.hop_ms", "ms", "lower"),
    ("core.incoming.per_replica_ms", "ms", "lower"),
    ("core.outgoing.hop_ratio", "ratio", "lower"),
    ("journal.commit_ms", "ms", "lower"),
    ("core.incoming.c2_scaling", "ratio", "higher"),
    ("obs.trace_on_ratio", "ratio", "lower"),
    # Replay: self time per exchange of each layer's public functions.
    ("protocols.read_request_us", "us", "lower"),
    ("protocols.read_response_us", "us", "lower"),
    ("protocols.tokenize_us", "us", "lower"),
    ("protocols.mutates_state_us", "us", "lower"),
    ("core.variance.mask_us", "us", "lower"),
    ("core.denoise.mask_us", "us", "lower"),
    ("core.diff.diff_us", "us", "lower"),
    ("core.ephemeral.capture_us", "us", "lower"),
    ("core.ephemeral.rewrite_us", "us", "lower"),
    ("core.ephemeral.consume_us", "us", "lower"),
    ("journal.append_us", "us", "lower"),
    ("journal.sync_us", "us", "lower"),
    # Counts at the same boundaries.
    ("protocols.tokens_per_exchange", "count", "lower"),
    ("protocols.response_bytes", "bytes", "lower"),
    ("core.denoise.masked_tokens", "count", "lower"),
    ("core.diff.fast_path_share", "ratio", "higher"),
    ("core.ephemeral.bindings_live", "count", "lower"),
    ("journal.bytes_per_record", "bytes", "lower"),
    ("journal.records_per_write", "ratio", "lower"),
    ("journal.mutating_share", "ratio", "lower"),
    # Reconciliation.
    ("analysis.total_us", "us", "lower"),
    ("core.incoming.residual_ms", "ms", "lower"),
    # Process and set-up.
    ("sut.ctx_switches_per_exchange", "count", "lower"),
    ("sut.gc_gen0_per_kexchange", "count", "lower"),
    ("sut.eventloop_lag_p99_ms", "ms", "lower"),
    ("fixture.cpu_ms_per_exchange", "ms", "lower"),
    ("fixture.start_s", "s", "lower"),
    ("core.deploy_s", "s", "lower"),
    ("transport.connect_us", "us", "lower"),
    ("loadgen.cpu_share", "ratio", "lower"),
    ("loadgen.span_overhead_ratio", "ratio", "lower"),
    ("loadgen.latency_phigh_ms", "ms", "lower"),
    ("loadgen.latency_phigh_pct", "%", "higher"),
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
BOUNDS = {name: bound for name, _, _, bound in END_TO_END}
BETTER = {name: better for name, _, better, *_ in END_TO_END + PER_LAYER}
