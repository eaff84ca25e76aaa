"""In-memory spans, self-time arithmetic, JSONL export.

A span is ``(name, start_ns, end_ns, parent, exchange)``: ``parent`` is
the index of the span that caused it (``-1`` for a root) and every span
of one exchange shares ``exchange``.  Spans are recorded by the
benchmark's own files, around the calls into each layer, kept in memory
while the run measures and written out when it ends.
"""

from __future__ import annotations

import json
from collections import defaultdict

Span = tuple[str, int, int, int, int]


class SpanLog:
    def __init__(self) -> None:
        self.rows: list[Span] = []

    def add(self, name: str, start: int, end: int, parent: int, exchange: int) -> int:
        self.rows.append((name, start, end, parent, exchange))
        return len(self.rows) - 1

    def open(self, name: str, start: int, exchange: int) -> int:
        """Reserve a root span whose end is not known yet."""
        return self.add(name, start, start, -1, exchange)

    def close(self, index: int, end: int) -> None:
        name, start, _, parent, exchange = self.rows[index]
        self.rows[index] = (name, start, end, parent, exchange)

    def write_jsonl(self, path: str, *, source: str) -> None:
        with open(path, "a", encoding="utf-8") as handle:
            for index, (name, start, end, parent, exchange) in enumerate(self.rows):
                record = {
                    "source": source, "id": index, "name": name, "start": start,
                    "end": end, "parent": parent, "exchange": exchange,
                }
                handle.write(json.dumps(record, separators=(",", ":")) + "\n")


def self_times(rows: list[Span]) -> dict[str, list[int]]:
    """Self time (ns) of every span, grouped by span name.

    A span's self time is its duration minus the part of its interval
    that its child spans cover; overlapping children are counted once
    and a child is clipped to its parent's interval.
    """
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for _, start, end, parent, _ in rows:
        if parent >= 0:
            children[parent].append((start, end))
    by_name: dict[str, list[int]] = defaultdict(list)
    for index, (name, start, end, _, _) in enumerate(rows):
        covered = 0
        cursor = start
        for child_start, child_end in sorted(children.get(index, ())):
            child_start = max(child_start, cursor)
            child_end = min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        by_name[name].append((end - start) - covered)
    return dict(by_name)
