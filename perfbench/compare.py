"""``python3 -m perfbench compare A.json B.json``.

One row per workload, one column per end-to-end metric, each cell one of

* ``better`` / ``worse`` — B's median moved past the metric's bound;
* ``within`` — it did not;
* ``unresolved`` — either file's own round-to-round spread is wider
  than the bound, so the pair cannot tell a move from noise.

Exits non-zero on any ``worse`` or on more failed operations in B, and
refuses to compare runs of different seeds, workload definitions or
processor counts.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from perfbench.catalogue import BETTER, BOUNDS
from perfbench.stats import spread


def verdict(name: str, a: dict, b: dict) -> str:
    bound = BOUNDS[name]
    if any(spread(side["rounds"].get(name, [])) > bound for side in (a, b)):
        return "unresolved"
    change = (b["metrics"][name] - a["metrics"][name]) / a["metrics"][name]
    if BETTER[name] == "higher":
        change = -change
    if change > bound:
        return "worse"
    return "better" if change < -bound else "within"


def incomparable(a: dict, b: dict) -> str | None:
    for key, what in (("seed", "seeds"), ("seconds", "run lengths"), ("trace", "trace modes")):
        if a[key] != b[key]:
            return f"different {what}: {a[key]} and {b[key]}"
    if a["context"]["nproc"] != b["context"]["nproc"]:
        return f"different nproc: {a['context']['nproc']} and {b['context']['nproc']}"
    shared = set(a["request_digests"]) & set(b["request_digests"])
    changed = sorted(n for n in shared if a["request_digests"][n] != b["request_digests"][n])
    if changed or not shared:
        return f"different workload definitions: {changed or 'no workload in common'}"
    return None


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 -m perfbench compare A.json B.json", file=sys.stderr)
        return 2
    a, b = (json.loads(Path(path).read_text(encoding="utf-8")) for path in argv)
    reason = incomparable(a, b)
    if reason is not None:
        print(f"perfbench compare: refusing to compare: {reason}", file=sys.stderr)
        return 2
    names = list(BOUNDS)
    print(f"{'workload':<14}" + "".join(f"{name:>26}" for name in names) + f"{'failed':>12}")
    bad = False
    for workload in sorted(set(a["results"]) & set(b["results"])):
        left, right = a["results"][workload], b["results"][workload]
        cells = [verdict(name, left, right) for name in names]
        more_failed = right["failed"] * left["attempted"] > left["failed"] * right["attempted"]
        bad = bad or "worse" in cells or more_failed
        failed = f"{left['failed']}->{right['failed']}"
        print(f"{workload:<14}" + "".join(f"{cell:>26}" for cell in cells) + f"{failed:>12}")
    return 1 if bad else 0
