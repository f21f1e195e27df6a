"""Span tracing from outside the program: wraps public module attributes.

A span is (name, start, end, parent, run id).  Spans are kept in memory and
written when the benchmark ends.  A layer's self time is its span durations
minus the part covered by its child spans.  A span nested directly inside a
span of the same name (``max_stable_dt`` calling ``natural_frequencies``,
``evaluate`` calling ``evaluate_system``) counts towards that name's self time
but not towards its call count.

Wrapping replaces the module attribute, so it also catches calls made from
inside the package through the module's globals (``run`` calling
``max_stable_dt``, ``trainer`` calling ``simulator.assemble``).  A name that
another module imported under its own name has to be wrapped there too; the
layer table in ``layers.py`` lists both.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent, run_id]
        self.work: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.run_id = "setup"

    def wrap(self, module, attr: str, name: str, work=None) -> None:
        """Replace module.attr with a span-recording wrapper.

        ``work(args, kwargs, result)`` returns counts {key: n} (sample steps,
        bytes, ...) added to ``self.work[f"{name}.{key}"]`` for outermost spans
        of that name outside set-up.
        """
        orig = getattr(module, attr)
        spans, stack, counts = self.spans, self._stack, self.work

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            outer = parent < 0 or spans[parent][0] != name
            idx = len(spans)
            span = [name, time.perf_counter(), 0.0, parent, self.run_id]
            spans.append(span)
            stack.append(idx)
            try:
                result = orig(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if work is not None and outer and span[4] != "setup":
                for key, count in work(args, kwargs, result).items():
                    counts[f"{name}.{key}"] += count
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, orig))

    def restore(self) -> None:
        for module, attr, orig in reversed(self._patched):
            setattr(module, attr, orig)
        self._patched.clear()

    def layer_totals(self, with_setup: bool = False) -> dict[str, dict[str, float]]:
        """Per-name {"calls", "self_s"} over the timed body, or all spans."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "self_s": 0.0})
        for i, (name, start, end, parent, run_id) in enumerate(self.spans):
            if run_id == "setup" and not with_setup:
                continue
            t = totals[name]
            t["self_s"] += (end - start) - child_time[i]
            if parent < 0 or self.spans[parent][0] != name:
                t["calls"] += 1
        return dict(totals)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "run_id"],
                       "spans": self.spans}, fh)
