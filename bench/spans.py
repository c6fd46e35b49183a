"""In-memory spans recorded around the benchmark's own calls into gatekeep.

A span is (name, start, end, parent, op): `parent` is the index of the
enclosing span or -1, `op` identifies the operation the span belongs to.
Times come from `time.perf_counter`. Nothing is written until the run ends.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter


class _Span:
    __slots__ = ("tracer", "index")

    def __init__(self, tracer: "Tracer", index: int):
        self.tracer = tracer
        self.index = index

    def __enter__(self):
        self.tracer._stack.append(self.index)
        self.tracer.spans[self.index][1] = perf_counter()
        return self

    def __exit__(self, *exc):
        self.tracer.spans[self.index][2] = perf_counter()
        self.tracer._stack.pop()
        return False


class Tracer:
    """Records nested spans; `op` tags every span opened while it is set."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = None

    def span(self, name: str) -> _Span:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, self.op])
        return _Span(self, len(self.spans) - 1)

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def self_times(self) -> list[float]:
        """Each span's duration minus the part of it its children cover."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                children[parent].append((start, end))
        out = []
        for i, (_, start, end, _, _) in enumerate(self.spans):
            covered = 0.0
            cursor = start
            for c_start, c_end in sorted(children.get(i, ())):
                c_start, c_end = max(c_start, cursor), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    cursor = c_end
            out.append(end - start - covered)
        return out

    def summary(self) -> dict[str, dict]:
        """Per span name: count, total and self seconds, median duration."""
        selfs = self.self_times()
        by_name: dict[str, dict] = {}
        for (name, start, end, _, _), own in zip(self.spans, selfs):
            entry = by_name.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0, "d": []})
            entry["count"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += own
            entry["d"].append(end - start)
        for entry in by_name.values():
            d = sorted(entry.pop("d"))
            entry["median_s"] = d[len(d) // 2]
        return by_name

    def write(self, path) -> None:
        records = [
            {"name": n, "start": s, "end": e, "parent": p, "op": op, "self": own}
            for (n, s, e, p, op), own in zip(self.spans, self.self_times())
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": records, "summary": self.summary()}, fh, indent=1)


class NullTracer(Tracer):
    """Same interface, records nothing: the untraced reference."""

    def span(self, name: str):
        return _NULL

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL = _NullSpan()
