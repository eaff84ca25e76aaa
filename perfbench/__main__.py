"""``python3 -m perfbench`` — run the benchmark, or compare two result files.

    python3 -m perfbench --workload echo_small --seed 11 --seconds 20 --trace 0
    python3 -m perfbench --seed 11 --out A.json         # all five workloads
    python3 -m perfbench compare A.json B.json

A run prints every metric by name with its unit, then — as the last line
of standard output — one JSON object ``{"correct", "attempted",
"failed", "metrics"}`` per workload.  It exits non-zero when any reply
was wrong or the negative control was not blocked.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from perfbench import compare
from perfbench.loadgen import ROOT, BenchmarkError
from perfbench.runner import run
from perfbench.workloads import WORKLOADS, request_digest


def main(argv: list[str]) -> int:
    if argv[:1] == ["compare"]:
        return compare.main(argv[1:])
    parser = argparse.ArgumentParser(prog="python3 -m perfbench", description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: all five")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write a result file for `compare`")
    options = parser.parse_args(argv)
    seconds = options.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    names = [options.workload] if options.workload else list(WORKLOADS)
    results = []
    for name in names:
        try:
            result = run(name, options.seed, seconds, options.trace)
        except BenchmarkError as error:
            print(f"perfbench: {name}: {error}", file=sys.stderr)
            return 2
        results.append(result)
        print(result.table())
        print(result.line(), flush=True)
    if options.out:
        document = {
            "schema": 1,
            "seed": options.seed,
            "seconds": seconds,
            "trace": options.trace,
            "context": results[0].context,
            "request_digests": {name: request_digest(name, options.seed) for name in names},
            "results": {result.workload: asdict(result) for result in results},
        }
        with open(options.out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1)
    return 0 if all(result.correct for result in results) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
