"""In-memory spans around the benchmark's calls into xjulia.

A span records (name, key, start, end, parent, run id).  Spans stay in memory
and are written out once, when the run ends.  A span's self time is its
duration minus the durations of its direct children; children never outlive
their parent because spans are only opened through a `with` block.
"""

import time
from contextlib import contextmanager, nullcontext


class Tracer:
    """Collects spans; `span` nests through an explicit stack of open spans."""

    enabled = True

    def __init__(self):
        self.spans = []          # [name, key, start, end, parent index, run id]
        self._open = []
        self.run_id = None

    @contextmanager
    def span(self, name, key=None):
        parent = self._open[-1] if self._open else None
        rec = [name, key, time.perf_counter(), None, parent, self.run_id]
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        try:
            yield
        finally:
            rec[3] = time.perf_counter()
            self._open.pop()

    def self_times(self):
        """Self seconds of each span, aligned with `self.spans`."""
        out = [end - start for _, _, start, end, _, _ in self.spans]
        for name, key, start, end, parent, _ in self.spans:
            if parent is not None:
                out[parent] -= end - start
        return out

    def records(self):
        return [{"name": n, "key": k, "start": s, "end": e, "parent": p, "run": r}
                for n, k, s, e, p, r in self.spans]


class NullTracer:
    """Tracing off: spans cost one no-op context manager."""

    enabled = False
    run_id = None

    def span(self, name, key=None):
        return nullcontext()
