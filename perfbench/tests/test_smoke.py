"""Every workload end to end with ~0.2 s blocks: the oracle, the
post-run state checks and the negative control all run, and must pass."""

import json
import statistics

import pytest

from perfbench.catalogue import END_TO_END, PER_LAYER
from perfbench.runner import GAP, run
from perfbench.workloads import WORKLOADS

SECONDS = 2.0


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_end_to_end_run_is_correct(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    result = run(name, seed=5, seconds=SECONDS, trace=0)
    assert result.problems == []
    assert result.correct and result.failed == 0 and result.attempted > 100
    line = json.loads(result.line())
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
    assert list(line["metrics"]) == [name for name, *_ in END_TO_END]
    assert all(metric["value"] > 0 for metric in line["metrics"].values())
    assert not list(tmp_path.glob(".perfbench_work/*"))


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_reconciles(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    result = run(name, seed=5, seconds=SECONDS, trace=1)
    assert result.problems == []
    assert result.correct
    metrics = result.metrics
    assert list(metrics) == [name for name, *_ in PER_LAYER]
    spans = tmp_path / ".perfbench_work" / f"spans-{name}-5.jsonl"
    sources = {json.loads(line)["source"] for line in spans.read_text().splitlines()}
    assert sources == {"loadgen", "sut.replay"}
    assert metrics["core.ephemeral.bindings_live"] <= 2
    # one record per acknowledged write wherever anything is journaled
    assert metrics["journal.records_per_write"] == (metrics["journal.mutating_share"] > 0)
    # residual + framing + analysis (+ journal, where the main deployment
    # has one) == (N=3 - direct), by construction
    rebuilt = (
        metrics["core.incoming.residual_ms"]
        + (
            metrics["protocols.read_request_us"]
            + metrics["protocols.read_response_us"]
            + metrics["analysis.total_us"]
        ) / 1e3
        + (metrics["journal.commit_ms"] if WORKLOADS[name].journal else 0.0)
    )
    assert rebuilt == pytest.approx(statistics.median(result.rounds[GAP]))
