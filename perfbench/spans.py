"""In-memory spans for the traced run.

A span records name, start, end, parent span and the id of the run it belongs
to, plus work counts computed from the inputs (not measured).  Spans are opened by the benchmark around its
own calls into the program, and around calls between program layers by
temporarily replacing the called name in the calling module (``patch``).
Spans stay in memory until the run ends; ``to_json`` adds each span's self
time, its duration minus the part its child spans cover.
"""
from __future__ import annotations

import contextlib
import functools
import time


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.run_id: str | None = None
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **counts):
        rec = {
            "id": len(self.spans),
            "name": name,
            "run": self.run_id,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
            "computed_counts": counts,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def root_name(self) -> str | None:
        return self.spans[self._stack[0]]["name"] if self._stack else None

    def traced(self, fn, name):
        """``fn`` wrapped in a span; ``name`` is a string or a callable giving one per call."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name() if callable(name) else name):
                return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def patch(self, owner, attr: str, name):
        """Trace calls made through ``owner.attr`` while the context is open."""
        original = getattr(owner, attr)
        setattr(owner, attr, self.traced(original, name))
        try:
            yield
        finally:
            setattr(owner, attr, original)

    # -- derived figures ---------------------------------------------------

    @staticmethod
    def duration(span: dict) -> float:
        return span["end"] - span["start"]

    def total(self, run: str, name: str) -> float:
        return sum(self.duration(s) for s in self.spans if s["run"] == run and s["name"] == name)

    def find(self, run: str, name: str) -> list[dict]:
        return [s for s in self.spans if s["run"] == run and s["name"] == name]

    def top_level(self, run: str) -> float:
        return sum(self.duration(s) for s in self.spans if s["run"] == run and s["parent"] is None)

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += self.duration(s)
        return [self.duration(s) - c for s, c in zip(self.spans, child)]

    def to_json(self) -> list[dict]:
        return [
            {**s, "duration": self.duration(s), "self": own}
            for s, own in zip(self.spans, self.self_times())
        ]
