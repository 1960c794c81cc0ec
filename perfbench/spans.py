"""In-memory spans recorded from the benchmark process.

A span is (id, name, parent, start, end, run). Spans are kept in a list
and written out once, when the run ends. The harness records spans around
its own calls into each package layer and, by wrapping methods on the
`ShardPool` and `LouvainCheckpointer` classes for the duration of one
traced job, around the pool and checkpoint calls the package makes. No
package code is changed.

The harness drives the package from one thread, so spans nest as a stack;
a call made from another thread is recorded under whatever span is open.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import time


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
            "run": self.run_id,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    # -- queries ----------------------------------------------------------
    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.named(name))

    def count(self, name: str) -> int:
        return len(self.named(name))

    def self_time(self, span: dict) -> float:
        """Span duration minus the time its direct children cover."""
        kids = [s for s in self.spans if s["parent"] == span["id"]]
        return (span["end"] - span["start"]) - sum(
            k["end"] - k["start"] for k in kids
        )

    def descendants(self, span: dict) -> list[dict]:
        out, frontier = [], {span["id"]}
        for s in self.spans[span["id"] + 1 :]:
            if s["parent"] in frontier:
                out.append(s)
                frontier.add(s["id"])
        return out

    def outermost_within(self, span: dict, prefix: str) -> float:
        """Time inside `span` covered by spans named `prefix*` that have no
        `prefix*` ancestor below `span` (nested pool calls counted once)."""
        by_id = {s["id"]: s for s in self.spans}
        total = 0.0
        for s in self.descendants(span):
            if not s["name"].startswith(prefix):
                continue
            p = by_id.get(s["parent"])
            nested = False
            while p is not None and p["id"] != span["id"]:
                if p["name"].startswith(prefix):
                    nested = True
                    break
                p = by_id.get(p["parent"])
            if not nested:
                total += s["end"] - s["start"]
        return total

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        t0 = self.spans[0]["start"] if self.spans else 0.0
        rows = [
            dict(s, start=s["start"] - t0, end=s["end"] - t0, self=self.self_time(s))
            for s in self.spans
        ]
        with open(path, "w") as f:
            json.dump({"run": self.run_id, "spans": rows}, f, indent=0)


@contextlib.contextmanager
def wrap_methods(tracer: Tracer, cls, names, prefix: str, on_call=None):
    """Record a span named `prefix + method` around each listed method of
    `cls` while the context is open; restore the originals on exit.
    `on_call(name, instance, args, kwargs)` runs before each call."""
    originals = {n: cls.__dict__[n] for n in names if n in cls.__dict__}

    def make(name, fn):
        @functools.wraps(fn)
        def wrapper(self, *args, **kwargs):
            if on_call is not None:
                on_call(name, self, args, kwargs)
            with tracer.span(prefix + name):
                return fn(self, *args, **kwargs)

        return wrapper

    for name, fn in originals.items():
        setattr(cls, name, make(name, fn))
    try:
        yield
    finally:
        for name, fn in originals.items():
            setattr(cls, name, fn)
