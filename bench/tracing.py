"""Span tracing from outside the package.

While active, a ``Tracer`` replaces the public names that ``training``
and ``cli`` call with wrappers that record one span per call: name,
start, end and the index of the enclosing span.  Spans stay in memory
and are written out when the benchmark ends.  Leaving the context puts
the original functions back, so untraced timings run unwrapped code.
"""

from __future__ import annotations

import time
from collections import defaultdict

from negmtl import cli, training

# (module, attribute) pairs; a name bound in several modules is wrapped
# in each, and the span is named after the function.
TRACED = [
    (training, "sentiment_loss"),
    (training, "negation_loss"),
    (training, "backward"),
    (training, "apply_updates"),
    (training, "predict_corpus"),
    (training, "predict_document"),
    (cli, "predict_corpus"),
    (cli, "load_checkpoint"),
    (cli, "negation_tag"),
]
SPAN_NAMES = (
    "sentiment_loss", "negation_loss", "backward", "apply_updates", "predict_corpus",
    "from_model", "load_checkpoint", "predict_document", "negation_tag",
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self._saved: list = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else -1])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = time.perf_counter()

        return traced

    def __enter__(self) -> "Tracer":
        for module, attr in TRACED:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(attr, original))
        # a classmethod: keep the descriptor, install a plain function
        descriptor = training.Checkpoint.__dict__["from_model"]
        self._saved.append((training.Checkpoint, "from_model", descriptor))
        training.Checkpoint.from_model = staticmethod(
            self.wrap("from_model", training.Checkpoint.from_model)
        )
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False


def self_times(spans: list[list]) -> dict[str, float]:
    """Seconds per span name, each span's duration minus the part its
    direct children cover (children never outlive their parent)."""
    child_time = defaultdict(float)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals = dict.fromkeys(SPAN_NAMES, 0.0)
    for i, (name, start, end, _) in enumerate(spans):
        totals[name] += end - start - child_time[i]
    return totals


def top_level_time(spans: list[list]) -> float:
    return sum(end - start for _, start, end, parent in spans if parent < 0)
