"""Self-tests of the benchmark's own arithmetic and determinism.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository
root; they are not part of the tier-1 ``testpaths``.
"""

import json

import pytest

from perfbench import compare
from perfbench.catalogue import END_TO_END, PER_LAYER
from perfbench.fixtures import tapped_messages
from perfbench.loadgen import ROOT
from perfbench.spans import self_times
from perfbench.stats import highest_supported_percentile, median_of_rounds, percentile, spread
from perfbench.workloads import WORKLOADS, request_digest


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_request_stream(name):
    assert request_digest(name, 11) == request_digest(name, 11)
    assert request_digest(name, 11) != request_digest(name, 12)


def test_self_time_is_duration_minus_covered_child_intervals():
    rows = [
        ("parent", 0, 100, -1, 0),
        ("a", 10, 30, 0, 0),
        ("b", 20, 50, 0, 0),  # overlaps a: the overlap counts once
        ("c", 90, 120, 0, 0),  # outlives the parent: clipped to it
        ("grandchild", 12, 18, 1, 0),
    ]
    times = self_times(rows)
    assert times["parent"] == [100 - (50 - 10) - (100 - 90)]
    assert times["a"] == [20 - 6]
    assert times["b"] == [30]
    assert times["grandchild"] == [6]


def test_highest_percentile_keeps_ten_samples_beyond_it():
    assert highest_supported_percentile(20) == 50.0
    assert highest_supported_percentile(999) == 95.0
    assert highest_supported_percentile(1000) == 99.0
    assert highest_supported_percentile(9999) == 99.0
    assert highest_supported_percentile(10_000) == 99.9
    with pytest.raises(ValueError):
        highest_supported_percentile(19)


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50.0) == 50
    assert percentile(values, 99.0) == 99
    assert percentile(values, 100.0) == 100
    assert percentile([7], 99.0) == 7


def test_one_stalled_round_cannot_move_the_median():
    assert median_of_rounds([1.0, 1.1, 0.9, 1.0, 50.0]) == 1.0


def test_spread_is_interquartile_distance_over_median():
    assert spread([10.0] * 5) == 0.0
    assert spread([1.0]) == 0.0
    assert spread([8.0, 9.0, 10.0, 11.0, 12.0]) == pytest.approx(0.3)


def test_tap_coalesces_chunks_at_direction_flips():
    tap = [(True, b"GET "), (True, b"/\r\n"), (False, b"200"), (True, b"again"), (False, b"a"),
           (False, b"b")]
    assert tapped_messages(tap) == ([b"GET /\r\n", b"again"], [b"200", b"ab"])


def test_benchmark_json_carries_the_catalogue():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in declared["end_to_end"]
    ] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]] == list(PER_LAYER)
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    assert declared["paths"] == ["perfbench"]


def _result_file(p50, rounds, failed=0, seed=11):
    workload = {
        "metrics": {name: 1.0 for name, *_ in END_TO_END} | {"latency_p50_ms": p50},
        "rounds": {"latency_p50_ms": rounds},
        "attempted": 1000,
        "failed": failed,
    }
    return {
        "seed": seed, "seconds": 20, "trace": 0, "context": {"nproc": 2},
        "request_digests": {"echo_small": "d"}, "results": {"echo_small": workload},
    }


def test_compare_verdicts():
    steady = [1.0, 1.01, 0.99, 1.0, 1.0]
    base = _result_file(1.0, steady)["results"]["echo_small"]
    for p50, rounds, expected in (
        (1.02, steady, "within"),
        (1.5, steady, "worse"),
        (0.5, steady, "better"),
        (1.5, [1.0, 2.0, 0.5, 1.5, 3.0], "unresolved"),
    ):
        other = _result_file(p50, rounds)["results"]["echo_small"]
        assert compare.verdict("latency_p50_ms", base, other) == expected


def test_compare_exit_codes(tmp_path, capsys):
    def write(name, document):
        path = tmp_path / name
        path.write_text(json.dumps(document))
        return str(path)

    steady = [1.0, 1.01, 0.99, 1.0, 1.0]
    a = write("a.json", _result_file(1.0, steady))
    assert compare.main([a, write("same.json", _result_file(1.01, steady))]) == 0
    assert compare.main([a, write("slow.json", _result_file(1.5, steady))]) == 1
    assert compare.main([a, write("failing.json", _result_file(1.0, steady, failed=3))]) == 1
    assert compare.main([a, write("seed.json", _result_file(1.0, steady, seed=12))]) == 2
    assert "refusing" in capsys.readouterr().err
