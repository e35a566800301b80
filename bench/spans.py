"""Operation counting and span tracing around the benchmark's calls into mubqkd.

Spans come only from the benchmark's own files: one around each timed
public call, named ``<module>.<what>``, under one root span per workload
iteration.  They stay in memory until the run writes them out.
"""

from __future__ import annotations

import statistics
import time
import traceback
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("bases", "states", "photonics", "protocol", "security", "counts", "cli")
ITERATION = "iteration"  # name of the root span of one workload iteration


class Recorder:
    """Counts attempted and failed operations; while ``tracing``, keeps spans.

    An operation is a timed public call or a correctness check.  A span is
    ``[name, tag, start, end, parent index, iteration id]``.
    """

    def __init__(self):
        self.tracing = False
        self.iteration = 0
        self.spans: list[list] = []
        self._open: list[int] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    @contextmanager
    def span(self, name: str, tag: str = ""):
        if not self.tracing:
            yield
            return
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, tag, time.perf_counter(), None, parent, self.iteration])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][3] = time.perf_counter()

    def call(self, name: str, tag: str = ""):
        self.attempted += 1
        return self.span(name, tag)

    def check(self, name: str, ok, detail: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"check {name} failed: {detail}")

    def fail(self, where: str, exc: BaseException) -> None:
        """Count an exception that ended an iteration or check early."""
        self.failed += 1
        text = "".join(traceback.format_exception_only(type(exc), exc)).strip()
        self.failures.append(f"{where}: {text}")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    The benchmark is single-threaded, so children of one span never overlap.
    """
    own = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[4] is not None:
            own[s[4]] -= s[3] - s[2]
    return own


def summarize(spans: list[list]) -> dict:
    """Per-iteration medians from a list of spans.

    Returns ``calls`` (span name -> seconds), ``tagged`` ("name[tag]" ->
    seconds), ``self`` (layer -> self seconds) and ``uncovered`` (root-span
    time no call span covers).  A name's value is the median, over the
    iterations that made the call, of its per-iteration total.
    """
    own = self_times(spans)
    calls = defaultdict(lambda: defaultdict(float))
    tagged = defaultdict(lambda: defaultdict(float))
    layer_self = defaultdict(lambda: defaultdict(float))
    uncovered = {}
    for s, self_s in zip(spans, own):
        name, tag, start, end, _, it = s
        if name == ITERATION:
            uncovered[it] = self_s
            continue
        calls[name][it] += end - start
        if tag:
            tagged[f"{name}[{tag}]"][it] += end - start
        layer_self[name.split(".")[0]][it] += self_s
    roots = list(uncovered)

    def med(per_it: dict) -> float:
        return statistics.median(per_it.values())

    return {
        "calls": {k: med(v) for k, v in calls.items()},
        "tagged": {k: med(v) for k, v in tagged.items()},
        "self": {
            layer: statistics.median(layer_self[layer].get(it, 0.0) for it in roots)
            if roots
            else 0.0
            for layer in LAYERS
        },
        "uncovered": med(uncovered) if uncovered else 0.0,
    }


def spans_as_records(spans: list[list], t0: float) -> list[dict]:
    return [
        {
            "id": i,
            "name": name,
            "tag": tag,
            "start_s": start - t0,
            "end_s": end - t0,
            "parent": parent,
            "iteration": it,
        }
        for i, (name, tag, start, end, parent, it) in enumerate(spans)
    ]
